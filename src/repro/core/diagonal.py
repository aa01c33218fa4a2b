"""Adaptive diagonal attention plans (Section III-C).

Both plans here are views of one layout,
:meth:`~repro.core.path.PathRepresentation.directed_band`: the band's
directed messages over *path positions*, sorted by destination
position so the read and write streams the memory simulator sees are
both banded.  :class:`AttentionPlan` lists those messages with the
symmetric-reuse bookkeeping; :class:`DenseBandPlan` scatters them into
longformer-style slots.  Neither is cached: both are cheap to derive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.path import PathRepresentation


@dataclass(frozen=True)
class AttentionPlan:
    """Executable diagonal-attention schedule.

    Attributes
    ----------
    src_pos, dst_pos:
        Path positions of message source and destination; one row per
        directed message, sorted by ``dst_pos``.
    edge_ids:
        Original edge-record index per message (for edge features).
    unique_edge_rows:
        Boolean mask selecting one representative row per undirected
        edge.  With symmetric reuse, per-edge computations (edge-feature
        updates, attention scores) run only on these rows and are shared
        with the mirrored row.
    mirror_index:
        For every row, the index of its representative row within the
        compressed (unique-edge) array: ``per_edge_values[mirror_index]``
        broadcasts reused results back to all messages.
    num_positions:
        Path length (the aggregation output height).
    window:
        The band half-width ω.
    """

    src_pos: np.ndarray
    dst_pos: np.ndarray
    edge_ids: np.ndarray
    unique_edge_rows: np.ndarray
    mirror_index: np.ndarray
    num_positions: int
    window: int

    @property
    def num_messages(self) -> int:
        return int(len(self.src_pos))

    @property
    def num_unique_edges(self) -> int:
        return int(self.unique_edge_rows.sum())


def make_attention_plan(path_rep: PathRepresentation,
                        symmetric_reuse: bool = True) -> AttentionPlan:
    """View the sorted directed band as a diagonal attention plan."""
    src, dst, eids = path_rep.directed_band()
    if symmetric_reuse:
        # One representative row per original edge id: its first
        # occurrence, numbered in order of first occurrence.
        _, first, inverse = np.unique(eids, return_index=True,
                                      return_inverse=True)
        rank = np.empty(len(first), dtype=np.int64)
        rank[np.argsort(first)] = np.arange(len(first))
        rep_rows = np.zeros(len(eids), dtype=bool)
        rep_rows[first] = True
        mirror = rank[inverse]
    else:
        rep_rows = np.ones(len(eids), dtype=bool)
        mirror = np.arange(len(eids), dtype=np.int64)
    return AttentionPlan(
        src_pos=src, dst_pos=dst, edge_ids=eids,
        unique_edge_rows=rep_rows, mirror_index=mirror,
        num_positions=path_rep.length, window=path_rep.window)


@dataclass(frozen=True)
class DenseBandPlan:
    """Dense sliding-window layout of the band (longformer-style).

    Position ``i`` attends to positions ``i + offsets[k]`` for all
    ``2ω + 1`` offsets; slots that do not carry a covered edge are
    masked.  Each *directed* edge occupies exactly one slot (at its
    representative cover pair), so a masked sum over slots followed by a
    per-node reduction reproduces baseline aggregation exactly — the
    redundant masked slots are the regular-access tax the paper accepts.

    Attributes
    ----------
    offsets:
        Array ``[-ω, ..., +ω]``.
    edge_slot:
        (L, 2ω+1) original edge id per slot, −1 where masked.
    mask:
        (L, 2ω+1) True where the slot carries a real covered edge.
    """

    offsets: np.ndarray
    edge_slot: np.ndarray
    mask: np.ndarray

    @property
    def length(self) -> int:
        return int(self.edge_slot.shape[0])

    @property
    def window(self) -> int:
        return int((self.edge_slot.shape[1] - 1) // 2)

    @property
    def num_slots(self) -> int:
        return int(self.edge_slot.size)

    @property
    def fill_ratio(self) -> float:
        """Fraction of band slots carrying a real message."""
        return float(self.mask.mean()) if self.mask.size else 0.0

    def source_positions(self) -> np.ndarray:
        """(L, 2ω+1) source path position per slot, clipped at the ends."""
        idx = np.arange(self.length)[:, None] + self.offsets[None, :]
        return np.clip(idx, 0, max(self.length - 1, 0))


def make_dense_band_plan(path_rep: PathRepresentation) -> DenseBandPlan:
    """Lay the directed band out as dense per-position slots.

    Message ``src -> dst`` lands in destination ``dst``'s slot at offset
    ``src - dst``; a self-loop sits on the main diagonal.
    """
    omega = path_rep.window
    offsets = np.arange(-omega, omega + 1, dtype=np.int64)
    edge_slot = np.full((path_rep.length, 2 * omega + 1), -1, dtype=np.int64)
    src, dst, eids = path_rep.directed_band()
    edge_slot[dst, omega + src - dst] = eids
    return DenseBandPlan(offsets=offsets, edge_slot=edge_slot,
                         mask=edge_slot >= 0)


def band_layout_matrix(path_rep: PathRepresentation) -> np.ndarray:
    """Dense L×L matrix marking band-covered pairs (Fig. 7's colored grid).

    Intended for small graphs and tests; entry (i, j) is 1 when the band
    processes the edge between path positions i and j.
    """
    mat = np.zeros((path_rep.length, path_rep.length), dtype=np.int8)
    i, j = path_rep.band.pos_src, path_rep.band.pos_dst
    mat[i, j] = 1
    mat[j, i] = 1
    return mat


def workload_summary(path_rep: PathRepresentation) -> dict:
    """Compute/memory workload statistics of the diagonal schedule."""
    messages = len(path_rep.directed_band()[0])
    n = path_rep.graph.num_nodes
    band_slots = (path_rep.length * (2 * path_rep.window + 1)
                  - path_rep.window * (path_rep.window + 1))
    return {
        "path_length": path_rep.length,
        "window": path_rep.window,
        "expansion": path_rep.expansion,
        "messages": messages,
        "unique_edges": path_rep.band.num_edges,
        "band_slots": band_slots,
        "band_fill": messages / max(band_slots, 1),
        "dense_slots": n * n,
        "dense_saving": 1.0 - band_slots / max(n * n, 1),
    }
