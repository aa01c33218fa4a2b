"""Aggregation runtimes: the baseline and MEGA execution backends.

A *runtime* binds a batch to the index arrays its aggregation schedule
uses and exposes the graph operations layers need:

* ``scatter_to_edges`` — move node rows to message rows (the paper's
  scatter-to-edges primitive);
* ``aggregate_sum`` / ``edge_softmax`` — reduce message rows onto
  destination nodes (gather-to-nodes).

Both backends implement the same math over the same directed message
list, so model accuracy is backend-independent at full coverage; they
differ in which *kernel plan* they emit for the GPU simulator and in
the message list when MEGA's coverage θ < 1 or edge dropping is active.

Each layer also declares, once, the ops one step of it prices
(:class:`LayerOps`, in the vocabulary of :class:`Project`,
:class:`Scatter`, :class:`Gather` and :class:`Pointwise`).  The kernel
plans lower that declaration to launches, and Table I's scatter/gather
counts are reads of it.

A runtime's message list is fixed once built, so it groups the
messages by destination (and by source) once, into cached slot plans
(:class:`~repro.tensor.functional.SlotPlan`).  Every reduction onto
nodes, and the backward of every gather to messages, sweeps those rank
slices in message order, bit-identical to a ragged ``np.add.at``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.path import PathRepresentation
from repro.errors import GraphError
from repro.graph.batch import GraphBatch
from repro.tensor import Tensor, functional as F


# ----------------------------------------------------------------------
# The op vocabulary layers declare themselves in
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Project:
    """A dense projection on ``"nodes"`` or ``"edges"`` (message) rows,
    d → ``width``·d (or back): ``width``·d² weights."""

    rows: str
    width: int = 1
    #: Part of a tail the forward skips when nothing reads the layer's
    #: edge output (GT's last layer), yet priced on every layer.  Not
    #: part of the op's identity: a tail op prices like its twin.
    edge_tail: bool = field(default=False, compare=False)


@dataclass(frozen=True)
class Scatter:
    """One ``apply_edges`` call reading ``operands`` node rows per
    message (2, 1, or 0 for an op on edge-aligned operands)."""

    operands: int


@dataclass(frozen=True)
class Gather:
    """One reduction of message rows onto destination nodes (a segment
    sum or softmax), fetching source rows in the same kernel when
    ``with_src``."""

    with_src: bool = False


@dataclass(frozen=True)
class Pointwise:
    """Pointwise neural ops (activation, norm, residual) on ``rows``."""

    rows: str
    edge_tail: bool = field(default=False, compare=False)


@dataclass(frozen=True)
class LayerOps:
    """A layer's priced ops in launch order, and the weight volume (in
    d²) its launches read."""

    weights_d2: int
    ops: Tuple[object, ...]

    def count(self, kind: type) -> int:
        """How many ops of ``kind`` one layer issues (Table I)."""
        return sum(isinstance(op, kind) for op in self.ops)


class AggregationRuntime:
    """Base runtime over a batch; subclasses fill the message arrays."""

    name = "base"

    def __init__(self, batch: GraphBatch):
        self.batch = batch
        self.num_nodes = batch.num_nodes
        # Subclasses must set these:
        self.msg_src: np.ndarray = np.array([], np.int64)
        self.msg_dst: np.ndarray = np.array([], np.int64)
        self.msg_edge: np.ndarray = np.array([], np.int64)

    @property
    def num_messages(self) -> int:
        return int(len(self.msg_src))

    @cached_property
    def dst_plan(self) -> F.SlotPlan:
        """Messages grouped by destination node (built on first use)."""
        return F.SlotPlan(self.msg_dst, self.num_nodes)

    @cached_property
    def src_plan(self) -> F.SlotPlan:
        """Messages grouped by source node (built on first use)."""
        return F.SlotPlan(self.msg_src, self.num_nodes)

    @cached_property
    def graph_plan(self) -> F.SlotPlan:
        """Nodes grouped by member graph, for the readout."""
        return F.SlotPlan(self.batch.graph_ids, self.batch.num_graphs)

    # ------------------------------------------------------------------
    # Graph operations used by the layers
    # ------------------------------------------------------------------
    def scatter_to_edges(self, src: Optional[Tensor] = None,
                         dst: Optional[Tensor] = None
                         ) -> Tuple[Optional[Tensor], Optional[Tensor]]:
        """Gather node rows to message rows (one DGL apply_edges call)."""
        src_rows = (F.gather_rows(src, self.src_plan)
                    if src is not None else None)
        dst_rows = (F.gather_rows(dst, self.dst_plan)
                    if dst is not None else None)
        return src_rows, dst_rows

    def fetch_src(self, values: Tensor) -> Tensor:
        """Fetch source-node rows for a fused aggregation kernel
        (a :class:`Gather` ``with_src``, not a scatter)."""
        return F.gather_rows(values, self.src_plan)

    def message_edge_types(self, edge_types: np.ndarray,
                           virtual_type: int = 0) -> np.ndarray:
        """Per-message categorical edge type ids.

        ``virtual_type`` is the reserved encoder id for hypothetical
        edges; only runtimes whose message list includes non-edges
        (global attention) use it.
        """
        return np.asarray(edge_types, dtype=np.int64)[self.msg_edge]

    def aggregate_sum(self, messages: Tensor) -> Tensor:
        """Segment-sum message rows onto destination nodes."""
        return F.segment_sum(messages, self.dst_plan)

    def edge_softmax(self, scores: Tensor) -> Tensor:
        """Softmax of message scores grouped by destination node."""
        return F.segment_softmax(scores, self.dst_plan)

    def readout_mean(self, node_values: Tensor) -> Tensor:
        """Per-graph mean over nodes (the readout's segment mean)."""
        return F.segment_mean(node_values, self.graph_plan)


class BaselineRuntime(AggregationRuntime):
    """DGL-style message passing over every directed edge.

    Messages follow the CSR-sorted-by-destination order (the ``cub``
    sort the paper profiles), which is also what its kernel plan models.
    """

    name = "baseline"

    def __init__(self, batch: GraphBatch):
        super().__init__(batch)
        src, dst = batch.graph.directed_edges()
        g = batch.graph
        if g.undirected:
            loops = g.src == g.dst
            edge_ids = np.concatenate(
                [np.arange(g.num_edges), np.arange(g.num_edges)[~loops]])
        else:
            edge_ids = np.arange(g.num_edges)
        order = np.argsort(dst, kind="stable")
        self.msg_src = src[order]
        self.msg_dst = dst[order]
        self.msg_edge = edge_ids[order]


class GlobalAttentionRuntime(AggregationRuntime):
    """Transformer-style global attention: every ordered pair per graph.

    The comparator the paper's Fig. 1 motivates: dense all-pairs
    attention with no graph indexing.  Messages enumerate every ordered
    pair of distinct vertices within each member graph (never across
    graphs, never a self-pair); pairs that are real edges carry their
    edge features, the rest map to the reserved virtual edge type
    (id = ``num_edge_types``), so the same model layers run unmodified.

    Complexity is O(Σ n_i²) per batch — use small graphs.
    """

    name = "global"

    def __init__(self, batch: GraphBatch):
        super().__init__(batch)
        src_parts: List[np.ndarray] = []
        dst_parts: List[np.ndarray] = []
        for i in range(batch.num_graphs):
            nodes = batch.nodes_of(i)
            s, d = np.meshgrid(nodes, nodes, indexing="ij")
            keep = s != d
            src_parts.append(s[keep])
            dst_parts.append(d[keep])
        self.msg_src = (np.concatenate(src_parts)
                        if src_parts else np.array([], np.int64))
        self.msg_dst = (np.concatenate(dst_parts)
                        if dst_parts else np.array([], np.int64))
        # Map real edges onto their record id; hypothetical pairs get -1.
        g = batch.graph
        lookup = {}
        for eid, (s, d) in enumerate(zip(g.src.tolist(), g.dst.tolist())):
            lookup[(s, d)] = eid
            if g.undirected:
                lookup[(d, s)] = eid
        self.msg_edge = np.array(
            [lookup.get((int(s), int(d)), -1)
             for s, d in zip(self.msg_src, self.msg_dst)], dtype=np.int64)

    def message_edge_types(self, edge_types: np.ndarray,
                           virtual_type: int = 0) -> np.ndarray:
        edge_types = np.asarray(edge_types, dtype=np.int64)
        out = np.full(self.num_messages, virtual_type, dtype=np.int64)
        real = self.msg_edge >= 0
        out[real] = edge_types[self.msg_edge[real]]
        return out


class MegaRuntime(AggregationRuntime):
    """Diagonal attention over per-graph path representations.

    Paths are built per member graph during preprocessing (CPU side) and
    concatenated with node-id/position offsets into one batched band.
    The message list contains only covered directed edges; with the
    default ``coverage=1`` and no edge dropping this equals the baseline
    message list, making accuracy comparisons exact.
    """

    name = "mega"

    def __init__(self, batch: GraphBatch,
                 paths: Sequence[PathRepresentation]):
        super().__init__(batch)
        paths = list(paths)
        if len(paths) != batch.num_graphs:
            raise GraphError(
                f"need one path per graph: {len(paths)} paths for "
                f"{batch.num_graphs} graphs")
        self.paths = paths
        path_parts: List[np.ndarray] = []
        src_parts: List[np.ndarray] = []
        dst_parts: List[np.ndarray] = []
        eid_parts: List[np.ndarray] = []
        pos_offset = 0
        edge_offset = 0
        for i, rep in enumerate(paths):
            node_off = batch.node_offsets[i]
            path_parts.append(rep.path + node_off)
            s, d, e = rep.directed_band()
            src_parts.append(s + pos_offset)
            dst_parts.append(d + pos_offset)
            eid_parts.append(e + edge_offset)
            pos_offset += rep.length
            edge_offset += rep.graph.num_edges
        self.path = (np.concatenate(path_parts)
                     if path_parts else np.array([], np.int64))
        self.path_length = int(pos_offset)
        self.window = max((rep.window for rep in paths), default=1)
        if edge_offset != batch.num_edges:
            raise GraphError(
                f"paths cover {edge_offset} edge records but the batch has "
                f"{batch.num_edges}; paths must be built from the same "
                f"(possibly edge-dropped) graphs the batch holds")
        # Diagonal schedule: each band is in destination-position order
        # and the position offsets grow, so the concatenation is too.
        self.pos_src = (np.concatenate(src_parts) if src_parts
                        else np.array([], np.int64))
        self.pos_dst = (np.concatenate(dst_parts) if dst_parts
                        else np.array([], np.int64))
        self.msg_edge = (np.concatenate(eid_parts) if eid_parts
                         else np.array([], np.int64))
        self.msg_src = self.path[self.pos_src]
        self.msg_dst = self.path[self.pos_dst]

    @property
    def coverage(self) -> float:
        total = self.batch.num_edges
        if total == 0:
            return 1.0
        covered = sum(int(rep.covered_edge_mask.sum()) for rep in self.paths)
        return covered / total

    @property
    def expansion(self) -> float:
        if self.num_nodes == 0:
            return 1.0
        return self.path_length / self.num_nodes
