"""The path-based graph representation (Section III-B / Figure 7).

A :class:`PathRepresentation` binds a graph to its traversal schedule and
precomputes the *band plan*: for every covered edge, one pair of path
positions at distance ``<= ω``.  Models aggregate over the band plan;
because band positions are consecutive in memory, the access pattern the
GPU (simulator) sees is sequential instead of index-scattered.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.config import MegaConfig
from repro.core.schedule import TraversalResult, traverse
from repro.core.window import adaptive_window
from repro.errors import GraphError, ScheduleError
from repro.graph.graph import Graph


@dataclass(frozen=True)
class BandPlan:
    """Index arrays for diagonal attention over the band.

    ``pos_src[k]`` and ``pos_dst[k]`` are path positions with
    ``|pos_src - pos_dst| <= ω`` realising covered edge ``edge_ids[k]``
    (an index into the original graph's edge records).  Each covered
    undirected edge appears exactly once; models expand to both message
    directions themselves (or reuse one side via symmetric_reuse).
    """

    pos_src: np.ndarray
    pos_dst: np.ndarray
    edge_ids: np.ndarray

    @property
    def num_edges(self) -> int:
        return int(len(self.edge_ids))


class PathRepresentation:
    """A graph reorganised along its traversal path.

    Parameters
    ----------
    graph:
        The original graph.
    result:
        A traversal schedule from :func:`repro.core.schedule.traverse`.

    Use :meth:`from_graph` for the one-step construction the public API
    documents.
    """

    def __init__(self, graph: Graph, result: TraversalResult):
        self.graph = graph
        self.schedule = result
        self.path = result.path
        self.window = result.window
        self.virtual_mask = result.virtual_mask
        self.length = result.length

        edge_key_to_id: Dict[Tuple[int, int], int] = {}
        for eid, (s, d) in enumerate(zip(graph.src.tolist(), graph.dst.tolist())):
            key = (min(s, d), max(s, d))
            if key in edge_key_to_id:
                # The band holds one slot per node pair, so a repeat
                # would be dropped and MEGA would silently compute a
                # different function than the baseline.
                raise GraphError(
                    f"node pair {key} repeats as edges "
                    f"{edge_key_to_id[key]} and {eid}; the band holds "
                    f"one edge per node pair")
            edge_key_to_id[key] = eid

        pos_src, pos_dst, eids = [], [], []
        for key, (i, j) in result.cover_positions.items():
            if key not in edge_key_to_id:
                raise ScheduleError(f"covered edge {key} not in graph")
            pos_src.append(i)
            pos_dst.append(j)
            eids.append(edge_key_to_id[key])
        order = np.argsort(eids) if eids else []
        self.band = BandPlan(
            pos_src=np.asarray(pos_src, np.int64)[order] if eids else np.array([], np.int64),
            pos_dst=np.asarray(pos_dst, np.int64)[order] if eids else np.array([], np.int64),
            edge_ids=np.asarray(eids, np.int64)[order] if eids else np.array([], np.int64))

        covered = np.zeros(graph.num_edges, dtype=bool)
        covered[self.band.edge_ids] = True
        self.covered_edge_mask = covered
        self.multiplicity = result.multiplicity(graph.num_nodes)
        self._directed_band: Optional[Tuple[np.ndarray, ...]] = None

    # ------------------------------------------------------------------
    @classmethod
    def from_graph(cls, graph: Graph,
                   config: Optional[MegaConfig] = None) -> "PathRepresentation":
        """Run the MEGA preprocessing for ``graph``.

        Applies edge dropping (if configured), picks the adaptive window
        when ``config.window`` is None, and runs Algorithm 1.
        """
        config = config or MegaConfig()
        rng = np.random.default_rng(config.seed)
        work = graph
        if config.edge_drop > 0.0:
            from repro.core.edge_drop import drop_edges
            work = drop_edges(graph, config.edge_drop, rng)
        window = config.window or adaptive_window(work, config.max_window)
        result = traverse(work, window=window, coverage=config.coverage,
                          start=config.start, rng=rng)
        return cls(work, result)

    # ------------------------------------------------------------------
    @property
    def coverage(self) -> float:
        """Fraction of the (possibly edge-dropped) graph's edges in the band."""
        if self.graph.num_edges == 0:
            return 1.0
        return float(self.covered_edge_mask.mean())

    @property
    def expansion(self) -> float:
        """Path length / node count — the memory-overhead factor."""
        if self.graph.num_nodes == 0:
            return 1.0
        return self.length / self.graph.num_nodes

    @property
    def num_virtual_edges(self) -> int:
        return int(self.virtual_mask.sum())

    def position_nodes(self) -> np.ndarray:
        """Original node id per path position (alias of ``path``)."""
        return self.path

    # ------------------------------------------------------------------
    # Feature movement between node space and path space
    # ------------------------------------------------------------------
    def scatter_to_path(self, node_values: np.ndarray) -> np.ndarray:
        """Replicate per-node rows into path order (preprocessing copy)."""
        node_values = np.asarray(node_values)
        if len(node_values) != self.graph.num_nodes:
            raise ScheduleError(
                f"expected {self.graph.num_nodes} node rows, "
                f"got {len(node_values)}")
        return node_values[self.path]

    def reduce_to_nodes(self, path_values: np.ndarray,
                        op: str = "mean") -> np.ndarray:
        """Combine per-position rows back into per-node rows.

        ``op`` is ``"mean"`` (synchronising multiple appearances) or
        ``"sum"`` (accumulating partial aggregates).
        """
        path_values = np.asarray(path_values)
        if len(path_values) != self.length:
            raise ScheduleError(
                f"expected {self.length} path rows, got {len(path_values)}")
        shape = (self.graph.num_nodes,) + path_values.shape[1:]
        out = np.zeros(shape, dtype=path_values.dtype)
        np.add.at(out, self.path, path_values)
        if op == "sum":
            return out
        if op == "mean":
            counts = np.maximum(self.multiplicity, 1).astype(path_values.dtype)
            return out / counts.reshape((-1,) + (1,) * (path_values.ndim - 1))
        raise ScheduleError(f"unknown reduce op {op!r}")

    # ------------------------------------------------------------------
    def band_graph(self, include_virtual: bool = False) -> Graph:
        """Graph over the original vertices containing band-covered edges.

        With ``include_virtual=True``, virtual path transitions are added
        as hypothetical edges — the object the WL isomorphism score
        compares against the original graph (Fig. 8).
        """
        src = self.graph.src[self.covered_edge_mask]
        dst = self.graph.dst[self.covered_edge_mask]
        if include_virtual:
            extra_src, extra_dst = [], []
            seen = self.graph.edge_set()
            for i in np.flatnonzero(self.virtual_mask):
                if i == 0:
                    continue
                u, v = int(self.path[i - 1]), int(self.path[i])
                key = (min(u, v), max(u, v))
                if u != v and key not in seen:
                    seen.add(key)
                    extra_src.append(key[0])
                    extra_dst.append(key[1])
            src = np.concatenate([src, np.asarray(extra_src, np.int64)])
            dst = np.concatenate([dst, np.asarray(extra_dst, np.int64)])
        return Graph(self.graph.num_nodes, src, dst, undirected=True)

    def directed_band(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Both message directions of the band plan, in diagonal order.

        Returns read-only ``(pos_src, pos_dst, edge_ids)`` where each
        covered non-loop edge contributes two rows (one per direction)
        and each self-loop one row — mirroring
        :meth:`Graph.directed_edges`.  Rows are sorted by destination
        position, then source position (Section III-C), so reads and
        writes both sweep the band.  This is the one band layout: the
        attention plan, the dense slot plan and :class:`MegaRuntime`
        all derive from it.  Computed once per representation.
        """
        if self._directed_band is None:
            i, j, e = self.band.pos_src, self.band.pos_dst, self.band.edge_ids
            loops = self.graph.src[e] == self.graph.dst[e]
            src = np.concatenate([i, j[~loops]])
            dst = np.concatenate([j, i[~loops]])
            eids = np.concatenate([e, e[~loops]])
            order = np.lexsort((src, dst))
            band = (src[order], dst[order], eids[order])
            for arr in band:
                arr.flags.writeable = False
            self._directed_band = band
        return self._directed_band

    def __repr__(self) -> str:
        return (f"PathRepresentation(n={self.graph.num_nodes}, "
                f"L={self.length}, window={self.window}, "
                f"coverage={self.coverage:.3f}, "
                f"expansion={self.expansion:.2f})")
