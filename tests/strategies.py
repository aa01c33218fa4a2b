"""Shared hypothesis strategies: small graphs in the awkward shapes.

:func:`graphs` draws one undirected graph with no repeated node pair,
in one of :data:`SHAPES`: empty (no nodes), a single node, a star, a
long path, an Erdős–Rényi draw, or a disjoint union of smaller draws
(disconnected).  Any shape may carry self-loops.  Edge records come
shuffled and in random orientation, so nothing downstream may rely on
input order.
"""

import numpy as np
from hypothesis import strategies as st

from repro.graph.graph import Graph

SHAPES = ("empty", "single", "star", "path", "random", "disconnected")


def _pairs(shape: str, n: int, density: float,
           rng: np.random.Generator):
    if shape == "star":
        return [(0, v) for v in range(1, n)]
    if shape == "path":
        return [(v, v + 1) for v in range(n - 1)]
    if shape == "random":
        return [(u, v) for u in range(n) for v in range(u + 1, n)
                if rng.random() < density]
    return []


def _shuffled(n: int, pairs, loops, rng: np.random.Generator) -> Graph:
    """A graph over ``pairs`` plus ``loops``, records shuffled and flipped."""
    edges = np.asarray(list(pairs) + [(v, v) for v in loops],
                       dtype=np.int64).reshape(-1, 2)
    edges = edges[rng.permutation(len(edges))]
    flip = rng.random(len(edges)) < 0.5
    edges[flip] = edges[flip][:, ::-1]
    return Graph(n, edges[:, 0], edges[:, 1])


@st.composite
def graphs(draw, max_nodes: int = 14, shapes=SHAPES) -> Graph:
    """One graph of a drawn shape (see the module docstring)."""
    shape = draw(st.sampled_from(shapes))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    if shape == "disconnected":
        parts = draw(st.lists(
            graphs(max_nodes=max(2, max_nodes // 2),
                   shapes=("single", "star", "path", "random")),
            min_size=2, max_size=3))
        offsets = np.cumsum([0] + [g.num_nodes for g in parts])
        pairs = [(int(u + off), int(v + off))
                 for g, off in zip(parts, offsets)
                 for u, v in zip(g.src.tolist(), g.dst.tolist())]
        return _shuffled(int(offsets[-1]), pairs, [], rng)
    n = {"empty": 0, "single": 1}.get(
        shape, draw(st.integers(2, max(2, max_nodes))))
    pairs = _pairs(shape, n, draw(st.floats(0.1, 0.6)), rng)
    loops = (draw(st.lists(st.integers(0, n - 1), unique=True, max_size=2))
             if n else [])
    return _shuffled(n, pairs, loops, rng)


@st.composite
def batches(draw, max_graphs: int = 4, max_nodes: int = 10):
    """A list of 1..``max_graphs`` graphs; empty-band members included."""
    return draw(st.lists(
        st.one_of(graphs(max_nodes=max_nodes),
                  graphs(max_nodes=max_nodes, shapes=("empty", "single"))),
        min_size=1, max_size=max_graphs))
