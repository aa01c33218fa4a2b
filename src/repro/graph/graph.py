"""Core graph data structure (coordinate format).

The paper represents input graphs "in the coordinate format as a list of
vertex pairs" (Section III-B).  :class:`Graph` follows that convention:
``src``/``dst`` index arrays over ``num_nodes`` vertices, plus optional
node/edge feature matrices.  Undirected graphs store each edge once and
expose symmetrised views where needed.

The structure (``num_nodes``, ``src``, ``dst``, ``undirected``) is
frozen at construction, which the cached adjacency, the memoised
schedule cache key and every path bound to the graph rely on.
Features and ``label`` stay settable; nothing structural reads them.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import GraphError


def _endpoint_ids(values: Sequence[int], name: str) -> np.ndarray:
    """``values`` as read-only int64 node ids that alias no caller
    memory; an id the cast would change (a fractional, NaN or
    non-numeric endpoint) is a :class:`GraphError`."""
    raw = np.asarray(values)
    if raw.dtype.kind in "iu":
        ids = raw.astype(np.int64, copy=raw is values or raw.base is not None)
    else:
        try:
            with np.errstate(invalid="ignore"):
                ids = raw.astype(np.int64)
        except (TypeError, ValueError) as exc:
            raise GraphError(f"{name} ids must be integers: {exc}") from exc
        changed = ids != raw
        if np.any(changed):
            raise GraphError(
                f"{name} ids must be integers, got {raw[changed][0]!r}")
    ids.flags.writeable = False
    return ids


class Graph:
    """A graph in COO format with optional features.

    Rebinding a structural attribute raises :class:`AttributeError`;
    writing into ``src``/``dst`` raises numpy's read-only ``ValueError``.

    Parameters
    ----------
    num_nodes:
        Number of vertices ``n``.
    src, dst:
        Edge endpoint index arrays of equal length ``m``.  For undirected
        graphs each edge appears once (in either orientation).
    undirected:
        Whether the edge list should be interpreted symmetrically.
    node_features, edge_features:
        Optional ``(n, d)`` / ``(m, d)`` feature matrices, or 1-D integer
        arrays of categorical ids (as in ZINC/AQSOL atom and bond types).
    """

    def __init__(self, num_nodes: int, src: Sequence[int], dst: Sequence[int],
                 undirected: bool = True,
                 node_features: Optional[np.ndarray] = None,
                 edge_features: Optional[np.ndarray] = None,
                 label: Optional[float] = None):
        if num_nodes < 0:
            raise GraphError(f"num_nodes must be non-negative, got {num_nodes}")
        self._num_nodes = int(num_nodes)
        self._src = _endpoint_ids(src, "src")
        self._dst = _endpoint_ids(dst, "dst")
        if self._src.shape != self._dst.shape or self._src.ndim != 1:
            raise GraphError("src and dst must be 1-D arrays of equal length")
        if self._src.size:
            lo = min(self._src.min(), self._dst.min())
            hi = max(self._src.max(), self._dst.max())
            if lo < 0 or hi >= num_nodes:
                raise GraphError(
                    f"edge endpoints out of range [0, {num_nodes}): "
                    f"found [{lo}, {hi}]")
        self._undirected = bool(undirected)
        self.node_features = node_features
        self.edge_features = edge_features
        self.label = label
        self._adjacency: Optional[List[np.ndarray]] = None
        if node_features is not None and len(node_features) != num_nodes:
            raise GraphError(
                f"node_features has {len(node_features)} rows, expected {num_nodes}")
        if edge_features is not None and len(edge_features) != self.num_edges:
            raise GraphError(
                f"edge_features has {len(edge_features)} rows, "
                f"expected {self.num_edges}")

    # ------------------------------------------------------------------
    num_nodes = property(lambda self: self._num_nodes)
    src = property(lambda self: self._src)
    dst = property(lambda self: self._dst)
    undirected = property(lambda self: self._undirected)

    @property
    def num_edges(self) -> int:
        """Number of stored edge records (each undirected edge counted once)."""
        return int(self.src.size)

    @property
    def sparsity(self) -> float:
        """Edges / edges-of-complete-graph, as defined in Section IV-B1."""
        n = self.num_nodes
        if n < 2:
            return 0.0
        full = n * (n - 1) / 2.0 if self.undirected else n * (n - 1)
        return self.num_edges / full

    def degrees(self) -> np.ndarray:
        """Vertex degrees (undirected: both endpoints count).

        Directed graphs report out-degree + in-degree; an undirected
        self-loop counts once.
        """
        n = self.num_nodes
        deg = (np.bincount(self.src, minlength=n)
               + np.bincount(self.dst, minlength=n)).astype(np.int64,
                                                            copy=False)
        if self.undirected:
            # Self loops were counted twice.
            loops = self.src == self.dst
            if loops.any():
                deg -= np.bincount(self.src[loops], minlength=n)
        return deg

    def directed_edges(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return (src, dst) with both orientations for undirected graphs.

        This is the edge set message passing actually iterates over: an
        undirected edge produces two messages, one per direction (the
        redundancy MEGA's symmetric diagonal layout later removes).
        """
        if not self.undirected:
            return self.src, self.dst
        loops = self.src == self.dst
        rev_src = self.dst[~loops]
        rev_dst = self.src[~loops]
        return (np.concatenate([self.src, rev_src]),
                np.concatenate([self.dst, rev_dst]))

    def adjacency_lists(self) -> List[np.ndarray]:
        """Neighbour lists per vertex (cached, sorted ascending)."""
        if self._adjacency is None:
            s, d = self.directed_edges()
            order = np.argsort(s, kind="stable")
            s, d = s[order], d[order]
            starts = np.searchsorted(s, np.arange(self.num_nodes))
            ends = np.searchsorted(s, np.arange(self.num_nodes), side="right")
            self._adjacency = [np.sort(d[a:b]) for a, b in zip(starts, ends)]
        return self._adjacency

    def neighbors(self, v: int) -> np.ndarray:
        if not 0 <= v < self.num_nodes:
            raise GraphError(f"vertex {v} out of range [0, {self.num_nodes})")
        return self.adjacency_lists()[v]

    def edge_set(self) -> set:
        """Set of canonical (min, max) pairs for undirected membership tests."""
        if self.undirected:
            return {(min(s, d), max(s, d)) for s, d in zip(self.src, self.dst)}
        return set(zip(self.src.tolist(), self.dst.tolist()))

    def has_edge(self, u: int, v: int) -> bool:
        nbrs = self.adjacency_lists()
        if not 0 <= u < self.num_nodes:
            return False
        idx = np.searchsorted(nbrs[u], v)
        return idx < len(nbrs[u]) and nbrs[u][idx] == v

    # ------------------------------------------------------------------
    def adjacency_matrix(self) -> np.ndarray:
        """Dense 0/1 adjacency matrix (small graphs only)."""
        mat = np.zeros((self.num_nodes, self.num_nodes), dtype=np.int8)
        s, d = self.directed_edges()
        mat[s, d] = 1
        return mat

    def copy(self) -> "Graph":
        return Graph(
            self.num_nodes, self.src, self.dst,
            undirected=self.undirected,
            node_features=None if self.node_features is None
            else np.array(self.node_features),
            edge_features=None if self.edge_features is None
            else np.array(self.edge_features),
            label=self.label)

    def __repr__(self) -> str:
        kind = "undirected" if self.undirected else "directed"
        return (f"Graph(n={self.num_nodes}, m={self.num_edges}, {kind}, "
                f"sparsity={self.sparsity:.3f})")


def from_edge_list(edges: Iterable[Tuple[int, int]], num_nodes: Optional[int] = None,
                   undirected: bool = True, **kwargs) -> Graph:
    """Build a :class:`Graph` from an iterable of (src, dst) pairs."""
    pairs = np.asarray(list(edges), dtype=np.int64).reshape(-1, 2)
    if num_nodes is None:
        num_nodes = int(pairs.max(initial=-1)) + 1
    return Graph(num_nodes, pairs[:, 0], pairs[:, 1], undirected=undirected,
                 **kwargs)


def complete_graph(num_nodes: int) -> Graph:
    """Fully connected graph (the global-attention comparator of Fig. 1)."""
    idx = np.arange(num_nodes)
    src, dst = np.meshgrid(idx, idx, indexing="ij")
    mask = src < dst
    return Graph(num_nodes, src[mask], dst[mask], undirected=True)
