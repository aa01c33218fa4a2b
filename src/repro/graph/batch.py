"""Batched graphs: disjoint union of many small graphs.

GNN training on molecular datasets batches dozens of graphs into one
block-diagonal super-graph; node/edge features are concatenated and a
``graph_ids`` vector drives the per-graph readout (segment mean).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.errors import GraphError
from repro.graph.graph import Graph


class GraphBatch:
    """Disjoint union of graphs with bookkeeping for readout.

    Attributes
    ----------
    graph:
        The merged :class:`Graph` over ``sum(n_i)`` nodes.
    graph_ids:
        Per-node graph index of shape (total_nodes,).
    edge_graph_ids:
        Per-edge graph index of shape (total_edges,).
    node_offsets:
        Prefix offsets so graph *g* owns nodes
        ``[node_offsets[g], node_offsets[g+1])``.
    labels:
        Per-graph labels stacked into one array (or None).
    """

    def __init__(self, graphs: Sequence[Graph]):
        graphs = list(graphs)
        if not graphs:
            raise GraphError("cannot batch zero graphs")
        undirected = graphs[0].undirected
        if any(g.undirected != undirected for g in graphs):
            raise GraphError("cannot mix directed and undirected graphs")
        sizes = np.array([g.num_nodes for g in graphs], dtype=np.int64)
        self.node_offsets = np.concatenate([[0], np.cumsum(sizes)])
        total_nodes = int(self.node_offsets[-1])

        src_parts: List[np.ndarray] = []
        dst_parts: List[np.ndarray] = []
        edge_gid_parts: List[np.ndarray] = []
        for i, g in enumerate(graphs):
            off = self.node_offsets[i]
            src_parts.append(g.src + off)
            dst_parts.append(g.dst + off)
            edge_gid_parts.append(np.full(g.num_edges, i, dtype=np.int64))

        node_feats = _stack_features([g.node_features for g in graphs])
        edge_feats = _stack_features([g.edge_features for g in graphs])

        self.graph = Graph(
            total_nodes,
            np.concatenate(src_parts) if src_parts else np.array([], np.int64),
            np.concatenate(dst_parts) if dst_parts else np.array([], np.int64),
            undirected=undirected,
            node_features=node_feats,
            edge_features=edge_feats)
        self.graph_ids = np.repeat(np.arange(len(graphs)), sizes)
        self.edge_graph_ids = (np.concatenate(edge_gid_parts)
                               if edge_gid_parts else np.array([], np.int64))
        self.num_graphs = len(graphs)
        labels = [g.label for g in graphs]
        self.labels: Optional[np.ndarray] = (
            np.asarray(labels) if all(l is not None for l in labels) else None)

    @property
    def num_nodes(self) -> int:
        return self.graph.num_nodes

    @property
    def num_edges(self) -> int:
        return self.graph.num_edges

    def nodes_of(self, graph_index: int) -> np.ndarray:
        """Node ids belonging to one member graph."""
        if not 0 <= graph_index < self.num_graphs:
            raise GraphError(
                f"graph index {graph_index} out of range [0, {self.num_graphs})")
        lo = self.node_offsets[graph_index]
        hi = self.node_offsets[graph_index + 1]
        return np.arange(lo, hi)

    def __repr__(self) -> str:
        return (f"GraphBatch(graphs={self.num_graphs}, nodes={self.num_nodes}, "
                f"edges={self.num_edges})")


def _stack_features(parts: List[Optional[np.ndarray]]) -> Optional[np.ndarray]:
    if any(p is None for p in parts):
        return None
    return np.concatenate([np.asarray(p) for p in parts], axis=0)
