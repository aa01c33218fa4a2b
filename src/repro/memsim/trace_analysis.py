"""Locality analysis of memory-access traces.

Quantifies *why* a schedule is fast or slow before any timing model is
applied: stride distributions, run lengths, reuse distances, and a
single scalar locality score.  Used by the schedule-analysis report and
the documentation examples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SimulationError
from repro.memsim.access import AccessTrace


@dataclass(frozen=True)
class TraceStats:
    """Locality statistics of one access trace (line granularity)."""

    num_accesses: int
    unique_lines: int
    sequential_fraction: float    # accesses continuing a +1-line run
    repeat_fraction: float        # accesses hitting the previous line
    mean_run_length: float
    mean_abs_stride: float        # in lines
    median_reuse_distance: float  # distinct lines between reuses (inf-free)
    reuse_fraction: float         # accesses that revisit an earlier line

    @property
    def locality_score(self) -> float:
        """[0, 1]: 1 = perfect stream or register-level reuse.

        Blends stream continuity (sequential/repeat fractions, run
        length) with stride smallness — a banded walk with tiny strides
        scores high even where strict +1 continuity breaks.
        """
        stride_term = 1.0 / (1.0 + self.mean_abs_stride / 4.0)
        return float(np.clip(
            0.4 * self.sequential_fraction
            + 0.2 * self.repeat_fraction
            + 0.2 * min(self.mean_run_length / 16.0, 1.0)
            + 0.2 * stride_term, 0.0, 1.0))


def analyze_trace(trace: AccessTrace, line_bytes: int = 128,
                  max_accesses: int = 200000) -> TraceStats:
    """Compute :class:`TraceStats` for a trace at ``line_bytes`` granularity.

    Reuse distances use the exact stack-distance definition but are
    computed on a capped prefix for very long traces.
    """
    if line_bytes <= 0:
        raise SimulationError("line_bytes must be positive")
    sectors = trace.sector_addresses(line_bytes)
    if sectors.size == 0:
        raise SimulationError("empty trace")
    lines = (sectors // line_bytes)[:max_accesses]
    n = len(lines)
    deltas = np.diff(lines)
    seq = int((deltas == 1).sum())
    rep = int((deltas == 0).sum())
    runs = max(n - seq - rep, 1)

    # Exact reuse (stack) distances via an ordered "recency" structure.
    from collections import OrderedDict

    stack: "OrderedDict[int, None]" = OrderedDict()
    distances = []
    reuses = 0
    for line in lines.tolist():
        if line in stack:
            # Distance = number of distinct lines touched since last use.
            depth = 0
            for key in reversed(stack):
                if key == line:
                    break
                depth += 1
            distances.append(depth)
            reuses += 1
            stack.move_to_end(line)
        else:
            stack[line] = None
    return TraceStats(
        num_accesses=n,
        unique_lines=int(len(np.unique(lines))),
        sequential_fraction=seq / max(n - 1, 1),
        repeat_fraction=rep / max(n - 1, 1),
        mean_run_length=n / runs,
        mean_abs_stride=float(np.abs(deltas).mean()) if deltas.size else 0.0,
        median_reuse_distance=float(np.median(distances))
        if distances else 0.0,
        reuse_fraction=reuses / n)
