"""DropEdge-style random edge removal (Fig. 15's augmentation).

Rong et al. (cited as [41]) showed that randomly dropping edges
regularises deep GNNs; MEGA additionally benefits because a sparser
graph yields a shorter path with fewer revisits.  The drop must be
applied consistently to the graph the baseline trains on and to the
graph the path is scheduled from, which is why this helper returns a
plain :class:`Graph`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import GraphError
from repro.graph.graph import Graph


def drop_edges(graph: Graph, fraction: float,
               rng: Optional[np.random.Generator] = None,
               keep_connected_floor: bool = True) -> Graph:
    """Return a copy of ``graph`` with ``fraction`` of edges removed.

    Edge features of surviving edges are carried over.  With
    ``keep_connected_floor`` at least ``num_nodes - 1`` edges are kept so
    a spanning path remains plausible (tiny graphs would otherwise lose
    everything).
    """
    if not 0.0 <= fraction < 1.0:
        raise GraphError(f"drop fraction must be in [0, 1), got {fraction}")
    if fraction == 0.0 or graph.num_edges == 0:
        return graph.copy()
    rng = rng or np.random.default_rng(0)
    m = graph.num_edges
    num_drop = int(round(fraction * m))
    if keep_connected_floor:
        num_drop = min(num_drop, max(0, m - (graph.num_nodes - 1)))
    if num_drop <= 0:
        return graph.copy()
    drop_idx = rng.choice(m, size=num_drop, replace=False)
    keep = np.ones(m, dtype=bool)
    keep[drop_idx] = False
    edge_feats = None
    if graph.edge_features is not None:
        edge_feats = np.asarray(graph.edge_features)[keep]
    return Graph(graph.num_nodes, graph.src[keep], graph.dst[keep],
                 undirected=graph.undirected,
                 node_features=graph.node_features,
                 edge_features=edge_feats,
                 label=graph.label)


def edge_importance(graph: Graph, strategy: str = "degree") -> np.ndarray:
    """Per-edge importance scores for selective dropping.

    Strategies (higher = more important, kept longer):

    * ``"degree"`` — edges incident to low-degree vertices are vital
      (removing them can disconnect or isolate); an edge between two
      hubs is redundant.  Score = 1 / min(d_u, d_v).
    * ``"triangle"`` — edges participating in many triangles are
      redundant for connectivity; score = 1 / (1 + triangles(e)).
      This is SparseGAT's intuition: densely clustered regions tolerate
      sparsification.
    """
    deg = graph.degrees()
    s, d = graph.src, graph.dst
    if strategy == "degree":
        return 1.0 / np.maximum(np.minimum(deg[s], deg[d]), 1)
    if strategy == "triangle":
        adjacency = [set(a.tolist()) for a in graph.adjacency_lists()]
        triangles = np.array(
            [len(adjacency[int(u)] & adjacency[int(v)])
             for u, v in zip(s, d)], dtype=float)
        return 1.0 / (1.0 + triangles)
    raise GraphError(f"unknown importance strategy {strategy!r}")


def drop_edges_by_importance(graph: Graph, fraction: float,
                             strategy: str = "degree",
                             rng: Optional[np.random.Generator] = None,
                             keep_connected_floor: bool = True) -> Graph:
    """Drop the least-important ``fraction`` of edges (SparseGAT-style).

    Unlike :func:`drop_edges`, removal is deterministic given the
    scores; ``rng`` only breaks ties.
    """
    if not 0.0 <= fraction < 1.0:
        raise GraphError(f"drop fraction must be in [0, 1), got {fraction}")
    if fraction == 0.0 or graph.num_edges == 0:
        return graph.copy()
    rng = rng or np.random.default_rng(0)
    m = graph.num_edges
    num_drop = int(round(fraction * m))
    if keep_connected_floor:
        num_drop = min(num_drop, max(0, m - (graph.num_nodes - 1)))
    if num_drop <= 0:
        return graph.copy()
    scores = edge_importance(graph, strategy)
    jitter = rng.random(m) * 1e-9
    drop_idx = np.argsort(scores + jitter)[:num_drop]
    keep = np.ones(m, dtype=bool)
    keep[drop_idx] = False
    edge_feats = None
    if graph.edge_features is not None:
        edge_feats = np.asarray(graph.edge_features)[keep]
    return Graph(graph.num_nodes, graph.src[keep], graph.dst[keep],
                 undirected=graph.undirected,
                 node_features=graph.node_features,
                 edge_features=edge_feats,
                 label=graph.label)

