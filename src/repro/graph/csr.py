"""Compressed sparse row adjacency, the storage format graph kernels index.

The DGL-style baseline sorts edges by destination (the paper's ``cub``
sort) and walks a CSR row per target node; the offsets/indices arrays
here are what those kernels read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import GraphError
from repro.graph.graph import Graph


@dataclass(frozen=True)
class CSRAdjacency:
    """CSR arrays: ``indices[offsets[v]:offsets[v+1]]`` are v's neighbours.

    ``edge_ids`` maps each CSR slot back to the originating edge record so
    edge features can be fetched alongside neighbour embeddings.
    """

    num_nodes: int
    offsets: np.ndarray
    indices: np.ndarray
    edge_ids: np.ndarray

    def __post_init__(self) -> None:
        if self.offsets.shape != (self.num_nodes + 1,):
            raise GraphError(
                f"offsets must have length num_nodes+1="
                f"{self.num_nodes + 1}, got {self.offsets.shape}")
        if self.offsets[0] != 0 or self.offsets[-1] != len(self.indices):
            raise GraphError("offsets must start at 0 and end at nnz")
        if np.any(np.diff(self.offsets) < 0):
            raise GraphError("offsets must be non-decreasing")

    @property
    def nnz(self) -> int:
        return int(len(self.indices))

    def row(self, v: int) -> np.ndarray:
        return self.indices[self.offsets[v]:self.offsets[v + 1]]

    def row_edges(self, v: int) -> np.ndarray:
        return self.edge_ids[self.offsets[v]:self.offsets[v + 1]]

    def degrees(self) -> np.ndarray:
        return np.diff(self.offsets)


def build_csr(graph: Graph, by: str = "dst") -> CSRAdjacency:
    """Build CSR over the directed (symmetrised) edge set.

    ``by="dst"`` groups incoming edges per target node — the layout the
    aggregation (gather) kernel iterates.  ``by="src"`` groups outgoing
    edges (the scatter direction).
    """
    if by not in ("src", "dst"):
        raise GraphError(f"by must be 'src' or 'dst', got {by!r}")
    s, d = graph.directed_edges()
    m = graph.num_edges
    # Edge record id for each directed edge (reverse copies share the id).
    if graph.undirected:
        loops = graph.src == graph.dst
        ids = np.concatenate([np.arange(m), np.arange(m)[~loops]])
    else:
        ids = np.arange(m)
    key = d if by == "dst" else s
    val = s if by == "dst" else d
    order = np.argsort(key, kind="stable")
    key, val, ids = key[order], val[order], ids[order]
    counts = np.bincount(key, minlength=graph.num_nodes)
    offsets = np.zeros(graph.num_nodes + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return CSRAdjacency(graph.num_nodes, offsets, val, ids)
