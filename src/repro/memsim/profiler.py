"""nvprof-like aggregation of simulated kernel statistics.

Collects :class:`KernelStats` records and reports the metrics Section
III-A and IV-B read off nvprof: per-kernel SM efficiency, memory-stall
percentage, global-load transactions, call counts, run-time percentages,
and the paper's call-weighted normalised metric

    Metric = Σ_k metric_k · n_k / Σ_k n_k.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List

import numpy as np

from repro.errors import SimulationError
from repro.memsim.device import KernelStats


@dataclass
class KernelAggregate:
    """Accumulated statistics for one kernel name."""

    name: str
    calls: int = 0
    time_s: float = 0.0
    flops: float = 0.0
    load_transactions: int = 0
    store_transactions: int = 0
    l2_hits: int = 0
    l2_misses: int = 0
    dram_bytes: float = 0.0
    _sm_eff_sum: float = 0.0
    _stall_sum: float = 0.0

    def add(self, stats: KernelStats) -> None:
        self.calls += 1
        self.time_s += stats.time_s
        self.flops += stats.flops
        self.load_transactions += stats.load_transactions
        self.store_transactions += stats.store_transactions
        self.l2_hits += stats.l2_hits
        self.l2_misses += stats.l2_misses
        self.dram_bytes += stats.dram_bytes
        self._sm_eff_sum += stats.sm_efficiency
        self._stall_sum += stats.memory_stall_pct

    @property
    def sm_efficiency(self) -> float:
        """Mean SM efficiency across calls of this kernel."""
        return self._sm_eff_sum / self.calls if self.calls else 0.0

    @property
    def memory_stall_pct(self) -> float:
        return self._stall_sum / self.calls if self.calls else 0.0

    @property
    def l2_hit_rate(self) -> float:
        total = self.l2_hits + self.l2_misses
        return self.l2_hits / total if total else 0.0


class Profiler:
    """Collects kernel records for one profiled execution."""

    def __init__(self) -> None:
        self.records: List[KernelStats] = []

    def record(self, stats: KernelStats) -> KernelStats:
        self.records.append(stats)
        return stats

    def extend(self, stats_list: Iterable[KernelStats]) -> None:
        self.records.extend(stats_list)

    # ------------------------------------------------------------------
    def by_kernel(self) -> Dict[str, KernelAggregate]:
        out: Dict[str, KernelAggregate] = {}
        for s in self.records:
            agg = out.setdefault(s.name, KernelAggregate(s.name))
            agg.add(s)
        return out

    @property
    def total_time(self) -> float:
        return sum(s.time_s for s in self.records)

    @property
    def total_calls(self) -> int:
        return len(self.records)

    def time_percentages(self) -> Dict[str, float]:
        """Share of total run time per kernel (Fig. 5 / Fig. 10)."""
        total = self.total_time
        if total <= 0:
            return {}
        return {name: agg.time_s / total
                for name, agg in self.by_kernel().items()}

    def normalized_metric(self, metric: str) -> float:
        """The paper's call-weighted average of a per-kernel metric.

        ``metric`` is an attribute of :class:`KernelAggregate` that is a
        per-call average, e.g. ``"sm_efficiency"`` or
        ``"memory_stall_pct"``.
        """
        aggs = self.by_kernel().values()
        total_calls = sum(a.calls for a in aggs)
        if total_calls == 0:
            raise SimulationError("no kernels recorded")
        weighted = sum(getattr(a, metric) * a.calls for a in aggs)
        return weighted / total_calls

    def call_counts(self) -> Dict[str, int]:
        return {name: agg.calls for name, agg in self.by_kernel().items()}

    def global_loads(self) -> Dict[str, int]:
        """Warp-level global load transactions per kernel (Fig. 6)."""
        return {name: agg.load_transactions
                for name, agg in self.by_kernel().items()}

    def summary(self) -> List[dict]:
        """Row dicts ready for tabular printing in the benchmarks."""
        total = self.total_time
        rows = []
        for name, agg in sorted(self.by_kernel().items(),
                                key=lambda kv: -kv[1].time_s):
            rows.append({
                "kernel": name,
                "calls": agg.calls,
                "time_s": agg.time_s,
                "time_pct": agg.time_s / total if total else 0.0,
                "sm_efficiency": agg.sm_efficiency,
                "memory_stall_pct": agg.memory_stall_pct,
                "load_transactions": agg.load_transactions,
                "l2_hit_rate": agg.l2_hit_rate,
                "dram_bytes": agg.dram_bytes,
            })
        return rows
