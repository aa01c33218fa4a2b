"""Fleet-level SLO accounting for the serving cluster.

:class:`ClusterStats` is to :class:`~repro.serve.stats.ServerStats`
what the fleet is to one replica: per-replica stats are kept whole
(one :class:`ReplicaRecord` each) and the fleet view is derived —
latency percentiles over the *global* completion stream, aggregate
throughput, per-tier cache hit rates, failover and rebalance counts.
``as_dict()`` is the byte-identical replay surface, same contract as
serve and bench: simulated time and integer counters only, wall-clock
never appears (enforced by megalint MEGA011).

Counter identities (asserted by the failover and brownout tests)::

    received == served + failed + shed   # no silent drops
    attempts == admitted + rejected      # summed over replicas

Every request the cluster could not serve is a :class:`FailedRequest`
with a reason — ``retry-budget-exhausted``, ``replica-crash`` or
``no-replicas-alive`` — or, under brownout admission, a
:class:`ShedRequest` with reason ``shed-capacity`` and the retry-after
hint the client was given; both resolve to a typed
:class:`~repro.errors.ClusterError` when their response is demanded.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Dict, List

from repro.cluster.cache import ReplicaScheduleView, TierStats
from repro.cluster.health import RecoveryRecord
from repro.errors import ClusterError
from repro.serve.stats import LatencyFold, ServerStats

#: The closed set of per-request failure reasons.  ``shed-capacity``
#: appears only on :class:`ShedRequest` records (brownout admission).
FAILURE_REASONS = ("retry-budget-exhausted", "replica-crash",
                   "no-replicas-alive", "shed-capacity")


@dataclass(frozen=True)
class FailedRequest:
    """One request the cluster gave up on — loudly.

    ``attempts`` counts admission attempts made before giving up;
    ``reason`` is one of :data:`FAILURE_REASONS`; ``failed_s`` the
    simulated time of the final verdict.
    """

    request_id: int
    attempts: int
    reason: str
    failed_s: float


@dataclass(frozen=True)
class ShedRequest:
    """One request the brownout admission controller turned away.

    ``retry_after_s`` is the capacity-scaled hint the client was given
    on the final shed; ``reason`` is always ``"shed-capacity"`` so the
    shed ledger shares the failure vocabulary.
    """

    request_id: int
    attempts: int
    retry_after_s: float
    shed_s: float
    reason: str = "shed-capacity"


@dataclass
class ReplicaRecord:
    """One replica *incarnation*: serve stats, tier stats, fate.

    ``crashed_at_s`` is ``-1.0`` for survivors.  A replica that crashes
    and recovers contributes one record per incarnation (``incarnation``
    0 is the original engine), each with its own engine and cache view
    — the fresh incarnation's ``tier`` starts cold, which is exactly
    the warm-up trajectory the recovery records measure.  ``tier`` is
    read from the view's live counters: keyed invalidations that reach
    a retired view after its incarnation was sealed still show.
    ``stats.received`` counts first-time routings (retries and
    failovers re-route but do not re-count), so summed over records it
    equals the fleet's ``received``.
    """

    replica_id: int
    crashed: bool
    crashed_at_s: float
    stats: ServerStats
    view: ReplicaScheduleView
    incarnation: int = 0

    @property
    def tier(self) -> TierStats:
        return self.view.tier

    def as_dict(self) -> Dict:
        return {"replica_id": self.replica_id,
                "incarnation": self.incarnation,
                "crashed": self.crashed,
                "crashed_at_s": self.crashed_at_s,
                "stats": self.stats.as_dict(),
                "tier": self.tier.as_dict()}


@dataclass
class ClusterStats(LatencyFold):
    """Everything observable about one clustered serving run.

    Attributes
    ----------
    policy / num_replicas / vnodes:
        The routing configuration the run used.
    received:
        Distinct requests submitted to the router.
    attempts / admitted / rejected:
        Admission counters summed over replicas (retries included).
    retried:
        Client re-submissions after queue-full rejections.
    failovers:
        Requests evacuated from a crashed replica and re-routed.
    hedges:
        Requests hedged away from a straggling replica when its
        circuit breaker tripped (re-routed without consuming retry
        budget — the request did not fail, its replica was slow).
    failed:
        Requests that ended as a :class:`FailedRequest`.
    shed / shed_events:
        Requests terminally shed by brownout admission, and total
        brownout rejections including ones the client retried.
    served:
        Requests completed with a prediction.
    crashed_replicas / recovered_replicas:
        Crash and rejoin events during the run (one replica may
        contribute several of each).
    breaker_trips:
        Circuit-breaker open transitions across the fleet.
    rebalanced_arcs:
        Hash-ring arcs handed to successors across all failovers;
        recoveries reclaim arcs and subtract their count, so a fully
        healed ring reads 0.
    sim_duration_s:
        Simulated time of the last completion (0 when nothing served).
    latencies_s:
        Per-request latency in *global* completion order — the fleet
        percentile surface.
    failures:
        One record per unserved request (no silent drops).
    sheds:
        One record per terminally shed request (reason + hint).
    recoveries:
        One :class:`~repro.cluster.health.RecoveryRecord` per rejoin,
        with the cold-L1 warm-up trajectory.
    replicas:
        Per-incarnation records, ascending (replica id, incarnation).
    health:
        Per-replica health machines and breakers
        (:meth:`repro.cluster.health.FleetHealth.as_dict`).
    tier:
        Fleet-wide per-tier cache attribution for this run: the merge
        of the run's replica records plus the seeds and shared-tier
        invalidations made during it.
    """

    policy: str = "hash-affinity"
    num_replicas: int = 0
    vnodes: int = 0
    received: int = 0
    attempts: int = 0
    admitted: int = 0
    rejected: int = 0
    retried: int = 0
    failovers: int = 0
    hedges: int = 0
    failed: int = 0
    shed: int = 0
    shed_events: int = 0
    served: int = 0
    crashed_replicas: int = 0
    recovered_replicas: int = 0
    breaker_trips: int = 0
    rebalanced_arcs: int = 0
    sim_duration_s: float = 0.0
    latencies_s: List[float] = field(default_factory=list)
    failures: List[FailedRequest] = field(default_factory=list)
    sheds: List[ShedRequest] = field(default_factory=list)
    recoveries: List[RecoveryRecord] = field(default_factory=list)
    replicas: List[ReplicaRecord] = field(default_factory=list)
    health: Dict = field(default_factory=dict)
    tier: TierStats = field(default_factory=TierStats)

    @property
    def num_batches(self) -> int:
        return sum(len(r.stats.batches) for r in self.replicas)

    @property
    def alive_replicas(self) -> int:
        return (self.num_replicas - self.crashed_replicas
                + self.recovered_replicas)

    @property
    def l1_hit_rate(self) -> float:
        return self.tier.l1_hit_rate

    @property
    def l2_hit_rate(self) -> float:
        return self.tier.l2_hit_rate

    def single_node(self) -> ServerStats:
        """The single-node view of a one-replica run.

        Replica 0's :class:`~repro.serve.stats.ServerStats`, with the
        client-side counters the fleet keeps folded in: ``retried`` is
        the fleet's ``retried`` and ``dropped`` its ``failed``.  A run
        with more than one replica record (a wider fleet, or a replica
        that crashed and rejoined) has no single-node view.
        """
        if len(self.replicas) != 1:
            raise ClusterError(
                f"single_node() needs exactly one replica record, "
                f"got {len(self.replicas)}")
        return replace(self.replicas[0].stats, retried=self.retried,
                       dropped=self.failed)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def as_dict(self) -> Dict:
        """Plain-type dict (JSON-ready); the replay gate's byte surface."""
        return {
            "policy": self.policy,
            "num_replicas": self.num_replicas,
            "vnodes": self.vnodes,
            "received": self.received,
            "attempts": self.attempts,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "retried": self.retried,
            "failovers": self.failovers,
            "hedges": self.hedges,
            "failed": self.failed,
            "shed": self.shed,
            "shed_events": self.shed_events,
            "served": self.served,
            "crashed_replicas": self.crashed_replicas,
            "recovered_replicas": self.recovered_replicas,
            "breaker_trips": self.breaker_trips,
            "rebalanced_arcs": self.rebalanced_arcs,
            "sim_duration_s": self.sim_duration_s,
            "latencies_s": list(self.latencies_s),
            "failures": [asdict(f) for f in self.failures],
            "sheds": [asdict(s) for s in self.sheds],
            "recoveries": [r.as_dict() for r in self.recoveries],
            "replicas": [r.as_dict() for r in self.replicas],
            "health": self.health,
            "tier": self.tier.as_dict(),
        }

    def summary_line(self) -> str:
        """One-line report for CLI output."""
        line = (f"cluster[{self.policy}]: "
                f"{self.served}/{self.received} served on "
                f"{self.alive_replicas}/{self.num_replicas} replicas "
                f"({self.rejected} rejected, {self.failed} failed), "
                f"{self.num_batches} batches, "
                f"p50/p95/p99 {self.p50_latency_s * 1e3:.2f}/"
                f"{self.p95_latency_s * 1e3:.2f}/"
                f"{self.p99_latency_s * 1e3:.2f} ms, "
                f"{self.throughput_rps:.1f} req/s, "
                f"schedule-cache L1 {self.tier.l1_hits} / "
                f"L2 {self.tier.l2_hits} / {self.tier.misses} misses")
        if self.crashed_replicas:
            line += (f", {self.crashed_replicas} crashed "
                     f"({self.failovers} failovers, "
                     f"{self.rebalanced_arcs} arcs rebalanced)")
        if self.recovered_replicas:
            line += f", {self.recovered_replicas} recovered"
        if self.shed_events:
            line += (f", brownout shed {self.shed} "
                     f"({self.shed_events} shed events)")
        if self.breaker_trips:
            line += (f", {self.breaker_trips} breaker trip(s) "
                     f"({self.hedges} hedged)")
        return line
