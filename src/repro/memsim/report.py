"""Human-readable profiler reports and side-by-side comparisons.

Renders :class:`~repro.memsim.profiler.Profiler` contents the way the
paper's figures present them: per-kernel tables and a baseline-vs-MEGA
diff with the headline normalised metrics.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import SimulationError
from repro.memsim.profiler import Profiler


def format_profile(profiler: Profiler, title: str = "profile") -> str:
    """Full nvprof-style text report for one execution."""
    if not profiler.records:
        raise SimulationError("profiler holds no kernel records")
    rows = profiler.summary()
    lines = [f"=== {title} ===",
             f"{'kernel':16s} {'calls':>5s} {'time':>10s} {'share':>7s} "
             f"{'sm_eff':>7s} {'stall':>7s} {'loads':>10s} {'l2hit':>6s}"]
    for row in rows:
        lines.append(
            f"{row['kernel']:16s} {row['calls']:5d} "
            f"{row['time_s'] * 1e6:8.1f}us {row['time_pct']:7.1%} "
            f"{row['sm_efficiency']:7.2f} {row['memory_stall_pct']:7.2f} "
            f"{row['load_transactions']:10d} {row['l2_hit_rate']:6.2f}")
    lines.append(
        f"{'TOTAL':16s} {profiler.total_calls:5d} "
        f"{profiler.total_time * 1e6:8.1f}us "
        f"{'':7s} "
        f"{profiler.normalized_metric('sm_efficiency'):7.2f} "
        f"{profiler.normalized_metric('memory_stall_pct'):7.2f}")
    return "\n".join(lines)


def compare_profiles(baseline: Profiler, candidate: Profiler,
                     names: Optional[tuple] = None) -> str:
    """Side-by-side summary with speedup and metric deltas."""
    if not baseline.records or not candidate.records:
        raise SimulationError("both profilers need kernel records")
    names = names or ("baseline", "candidate")
    speedup = baseline.total_time / candidate.total_time \
        if candidate.total_time else float("inf")
    lines = [
        f"{'':24s}{names[0]:>14s}{names[1]:>14s}",
        f"{'total time':24s}{baseline.total_time * 1e3:12.3f}ms"
        f"{candidate.total_time * 1e3:12.3f}ms",
        f"{'kernel launches':24s}{baseline.total_calls:14d}"
        f"{candidate.total_calls:14d}",
        f"{'norm SM efficiency':24s}"
        f"{baseline.normalized_metric('sm_efficiency'):14.3f}"
        f"{candidate.normalized_metric('sm_efficiency'):14.3f}",
        f"{'norm memory stalls':24s}"
        f"{baseline.normalized_metric('memory_stall_pct'):14.3f}"
        f"{candidate.normalized_metric('memory_stall_pct'):14.3f}",
        f"{'DRAM bytes':24s}"
        f"{sum(r.dram_bytes for r in baseline.records) / 1e6:12.2f}MB"
        f"{sum(r.dram_bytes for r in candidate.records) / 1e6:12.2f}MB",
        "",
        f"speedup ({names[1]} over {names[0]}): {speedup:.2f}x",
    ]
    return "\n".join(lines)
