"""Replay surface for one streaming run: deltas, repairs, serving.

:class:`StreamStats` wraps the cluster's own
:class:`~repro.cluster.stats.ClusterStats` (the serving half is
unchanged — conservation ``received == served + failed + shed`` holds
per run, across however many epochs the deltas advanced) and adds the
streaming half: one :class:`~repro.stream.repair.RepairRecord` per
applied delta batch, the final per-graph epochs, and the aggregate
repair/recompute work split the bench crossover gate reads.

``as_dict()`` follows the same contract as serve, cluster and bench:
plain types, simulated time and counters only, wall-clock never
appears — the byte-identical replay tests hash exactly this surface.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.cluster.stats import ClusterStats
from repro.core.serialize import record_dict
from repro.stream.repair import RepairRecord


@dataclass
class StreamStats:
    """Everything observable about one streaming run.

    Attributes
    ----------
    num_graphs:
        Named graphs registered in the run's table.
    num_deltas:
        Delta batches submitted (every one is applied — batches are
        control events, they cannot be rejected or shed).
    records:
        One :class:`~repro.stream.repair.RepairRecord` per applied
        batch, in application order.
    epochs:
        Final ``name -> epoch`` per named graph (sorted by name).
    cluster:
        The serving half — the cluster's full stats surface.
    """

    num_graphs: int = 0
    num_deltas: int = 0
    records: List[RepairRecord] = field(default_factory=list)
    epochs: Dict[str, int] = field(default_factory=dict)
    cluster: ClusterStats = field(default_factory=ClusterStats)

    # ------------------------------------------------------------------
    # Derived aggregates (all from the record stream)
    # ------------------------------------------------------------------
    @property
    def repairs(self) -> int:
        """Batches absorbed by in-place patching."""
        return sum(1 for r in self.records if r.mode == "repair")

    @property
    def recomputes(self) -> int:
        """Batches that fell back to full Algorithm 1."""
        return sum(1 for r in self.records if r.mode == "recompute")

    @property
    def repair_work_units(self) -> int:
        """Actual work metered across repair-mode batches."""
        return sum(r.work_units for r in self.records
                   if r.mode == "repair")

    @property
    def recompute_work_units(self) -> int:
        """Actual work metered across recompute-mode batches."""
        return sum(r.work_units for r in self.records
                   if r.mode == "recompute")

    @property
    def invalidated_keys(self) -> int:
        """Content keys the versioned-key protocol retired."""
        return sum(1 for r in self.records if r.seeded)

    @property
    def invalidated_l1(self) -> int:
        return sum(r.invalidated_l1 for r in self.records)

    @property
    def invalidated_l2(self) -> int:
        return sum(r.invalidated_l2 for r in self.records)

    @property
    def invalidated_disk(self) -> int:
        return sum(r.invalidated_disk for r in self.records)

    @property
    def noop_batches(self) -> int:
        """Batches whose ops were all no-ops (content key unchanged)."""
        return sum(1 for r in self.records if not r.seeded)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def as_dict(self) -> Dict:
        """Plain-type dict (JSON-ready); the replay gate's byte surface."""
        return record_dict(self, "repairs", "recomputes",
                           "repair_work_units", "recompute_work_units",
                           "invalidated_keys", "invalidated_l1",
                           "invalidated_l2", "invalidated_disk",
                           "noop_batches")

    def summary_line(self) -> str:
        """One-line report for CLI output."""
        line = (f"stream: {self.num_deltas} delta(s) over "
                f"{self.num_graphs} graph(s) — "
                f"{self.repairs} repaired / "
                f"{self.recomputes} recomputed "
                f"({self.repair_work_units}/"
                f"{self.recompute_work_units} work units), "
                f"{self.invalidated_keys} key(s) invalidated "
                f"(L1 {self.invalidated_l1} / L2 {self.invalidated_l2}"
                f" / disk {self.invalidated_disk})")
        if self.noop_batches:
            line += f", {self.noop_batches} no-op batch(es)"
        return line
