"""Incremental schedule repair with an analytic recompute fallback.

The :class:`ScheduleRepairer` is the streaming layer's answer to "a
delta arrived — what schedule do new admissions get?".  Per named
graph it keeps one :class:`~repro.core.incremental.IncrementalPath`
tracker and, per applied batch, makes one decision:

* **repair** — patch the tracker in place (insert adoption/patching,
  delete removal) and materialise the patched path representation;
* **recompute** — run full Algorithm 1 on the post-delta graph via
  :func:`repro.pipeline.parallel.compute_schedule`, the *same*
  function a cold cache miss runs, and restart the tracker from the
  result.

The decision is analytic, not measured:
:meth:`~repro.core.incremental.IncrementalPath.repair_cost_estimate`
prices the batch in deterministic ``work_units`` before anything
mutates, and the repairer recomputes when the estimated
``repair_cost / rebuild_cost`` ratio exceeds
:attr:`RepairPolicy.recompute_ratio`.  Every applied batch yields a
:class:`RepairRecord` carrying the estimate, the decision, the
*actual* work metered, and the invalidation/seed counts — the bench
crossover gate is built on these records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.config import MegaConfig
from repro.core.incremental import IncrementalPath, RepairCostEstimate
from repro.cluster.cache import TieredScheduleCache
from repro.errors import StreamError
from repro.pipeline.parallel import compute_schedule
from repro.stream.deltas import DeltaBatch, GraphTable, apply_delta_ops

#: The two ways a delta batch can become a servable schedule.
REPAIR_MODES = ("repair", "recompute")


@dataclass(frozen=True)
class RepairPolicy:
    """When to abandon patching and rerun Algorithm 1.

    Attributes
    ----------
    recompute_ratio:
        Recompute when the estimated ``repair_cost / rebuild_cost``
        exceeds this.  1.0 (the default) recomputes exactly when
        patching is projected to cost more than rebuilding; 0.0 forces
        recompute always, ``float("inf")`` forces repair always — both
        useful as bench endpoints.
    rebuild_expansion:
        Staleness threshold handed to each per-graph
        :class:`~repro.core.incremental.IncrementalPath` (relative path
        growth that forces an internal rebuild).
    """

    recompute_ratio: float = 1.0
    rebuild_expansion: float = 1.5

    def __post_init__(self) -> None:
        if self.recompute_ratio < 0.0:
            raise StreamError(
                f"recompute_ratio must be >= 0, "
                f"got {self.recompute_ratio}")
        if self.rebuild_expansion <= 1.0:
            raise StreamError(
                f"rebuild_expansion must exceed 1.0, "
                f"got {self.rebuild_expansion}")


@dataclass(frozen=True)
class RepairRecord:
    """One applied delta batch, end to end.

    ``estimate`` is the pre-application analytic price; ``mode`` the
    decision it drove; ``work_units`` the *actual* operations the
    chosen mode metered (for recompute: the fresh tracker's Algorithm 1
    rebuild).  ``invalidated_l1/l2/disk`` count the cache entries the
    versioned-key protocol evicted for the superseded key, ``seeded``
    whether the new key was pre-warmed (both are 0/False when the batch
    was all no-ops and the content key did not change).
    """

    delta_id: int
    graph_name: str
    epoch: int
    applied_s: float
    mode: str
    estimate: RepairCostEstimate
    work_units: int
    applied_inserts: int
    applied_deletes: int
    applied_noops: int
    old_key: str
    new_key: str
    invalidated_l1: int
    invalidated_l2: int
    invalidated_disk: int
    seeded: bool

    def as_dict(self) -> dict:
        """Plain-type view for the stream replay surface."""
        return {"delta_id": self.delta_id,
                "graph_name": self.graph_name,
                "epoch": self.epoch,
                "applied_s": self.applied_s,
                "mode": self.mode,
                "estimate": self.estimate.as_dict(),
                "work_units": self.work_units,
                "applied_inserts": self.applied_inserts,
                "applied_deletes": self.applied_deletes,
                "applied_noops": self.applied_noops,
                "old_key": self.old_key,
                "new_key": self.new_key,
                "invalidated_l1": self.invalidated_l1,
                "invalidated_l2": self.invalidated_l2,
                "invalidated_disk": self.invalidated_disk,
                "seeded": self.seeded}


class ScheduleRepairer:
    """Drives per-graph trackers and the versioned-key cache protocol.

    One repairer fronts one :class:`~repro.stream.deltas.GraphTable`
    and one :class:`~repro.cluster.cache.TieredScheduleCache`; each
    named graph gets a lazily created tracker seeded from its epoch-0
    structure.  :meth:`apply` is the whole protocol: estimate, decide,
    patch-or-recompute, advance the epoch, evict the old content key
    from every tier, seed the new key.
    """

    def __init__(self, table: GraphTable, tiered: TieredScheduleCache,
                 policy: Optional[RepairPolicy] = None):
        self.table = table
        self.tiered = tiered
        self.policy = policy or RepairPolicy()
        self.config: MegaConfig = table.config
        self._trackers: Dict[str, IncrementalPath] = {}

    def tracker(self, name: str) -> IncrementalPath:
        """The (lazily created) tracker for named graph ``name``."""
        tracker = self._trackers.get(name)
        if tracker is None:
            tracker = IncrementalPath(
                self.table.graph(name), self.config,
                rebuild_expansion=self.policy.rebuild_expansion)
            self._trackers[name] = tracker
        return tracker

    def apply(self, batch: DeltaBatch, now_s: float) -> RepairRecord:
        """Apply one delta batch; returns the full provenance record."""
        name = batch.graph_name
        tracker = self.tracker(name)
        estimate = tracker.repair_cost_estimate(batch.op_tuples())
        graph_after = apply_delta_ops(self.table.graph(name), batch.ops)
        work_before = tracker.work_units
        noops_before = tracker.noop_inserts + tracker.noop_deletes
        if estimate.ratio > self.policy.recompute_ratio:
            mode = "recompute"
            # The honest fallback: the exact function a cold cache miss
            # runs, plus a fresh tracker so later batches patch against
            # the clean rebuilt path, not the stale patched one.
            entry = compute_schedule(graph_after, self.config)
            tracker = IncrementalPath(
                graph_after, self.config,
                rebuild_expansion=self.policy.rebuild_expansion)
            self._trackers[name] = tracker
            work_units = tracker.work_units
            applied_noops = estimate.noops
        else:
            mode = "repair"
            for op, u, v in batch.op_tuples():
                if op == "insert":
                    tracker.insert(u, v)
                else:
                    tracker.remove(u, v, missing_ok=True)
            if tracker.edge_set() != graph_after.edge_set():
                raise StreamError(
                    f"repaired schedule for {name!r} diverged from the "
                    f"applied graph (delta {batch.delta_id})")
            entry = tracker.to_representation().schedule
            work_units = tracker.work_units - work_before
            applied_noops = (tracker.noop_inserts + tracker.noop_deletes
                             - noops_before)
        old_key, new_key, epoch = self.table.advance(name, graph_after)
        if old_key != new_key:
            l1, l2, disk = self.tiered.invalidate(old_key)
            self.tiered.seed(new_key, entry)
            seeded = True
        else:
            l1 = l2 = disk = 0
            seeded = False
        return RepairRecord(
            delta_id=batch.delta_id, graph_name=name, epoch=epoch,
            applied_s=now_s, mode=mode, estimate=estimate,
            work_units=work_units,
            applied_inserts=estimate.inserts,
            applied_deletes=estimate.deletes,
            applied_noops=applied_noops,
            old_key=old_key, new_key=new_key,
            invalidated_l1=l1, invalidated_l2=l2,
            invalidated_disk=disk, seeded=seeded)
