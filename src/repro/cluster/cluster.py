"""The cluster: N serving replicas behind a router, on one clock.

This is the one serving front end: the only driver of
:class:`repro.serve.server.EventLoop`.  The serving state is N
:class:`~repro.serve.server.ServerEngine` replicas sharing a single
:class:`~repro.train.clock.SimulatedClock`, fronted by a router that
picks a replica per request (see :mod:`repro.cluster.routing`), a
two-tier schedule cache (see :mod:`repro.cluster.cache`) and a
self-healing layer (see :mod:`repro.cluster.health`).  The cluster
adds no loop of its own: routing, crashes, recoveries, breakers and
control callbacks are the handlers it gives the event loop.

Each :meth:`Cluster.run` opens one
:class:`~repro.serve.server.ForwardExecutor` for its engines: a forked
forward worker when the run is long enough to pay back the fork and
the host has a CPU beside numpy's BLAS pool, else in-process forwards.
While the worker is behind, the parent runs forwards too.  The
executor is closed when the run ends, also on error, so weights
changed between runs reach the next run's worker.  The ``done``
handler retires the batch (latencies, breaker, idle state) without
reading a prediction and queues it with the executor, which builds its
responses once its predictions are ready; the run waits for the last
of them only before it returns.  Responses keep ``done`` order.

Failure model — every state is deliberately reachable from a test:

* A replica crash fires **at a batch-launch instant** (the replica is
  idle and about to execute), decided by
  :meth:`repro.resilience.FaultPlan.replica_fails` on
  ``(replica_id, lifetime batch, incarnation)``.  Nothing is ever lost
  mid-execution, so no completion events need cancelling — the crash's
  blast radius is exactly the replica's queue.
* A crash is **permanent only without a recovery plan**.  The replica
  leaves the alive set, its ring arcs move to the clockwise successors
  (``rebalanced_arcs``), and its evacuated queue re-enters the router
  under the client :class:`~repro.resilience.RetryPolicy` — counted as
  ``failovers``, or as typed failures once the budget is spent.  With
  ``FaultPlan.recover_after_s`` set, the replica **rejoins** after a
  seeded delay: a fresh engine and a cold L1 view, its ring arcs
  reclaimed byte-identically (:meth:`~repro.cluster.routing.HashRing
  .add`), walking ``crashed -> recovering -> alive`` on the health
  machine while its L1 re-warms through L2 promotion (the trajectory
  is a :class:`~repro.cluster.health.RecoveryRecord`).
* **Stragglers are routed around, not killed.**  ``FaultPlan``
  slow-replica multipliers stretch a batch's service time; a
  per-replica circuit breaker trips after ``breaker_threshold``
  consecutive slow completions, the replica's queued work is *hedged*
  to healthy replicas, and after a seeded cooldown a half-open probe
  decides whether it heals.
* **Brownout sheds loudly.**  When alive capacity drops below
  ``brownout_watermark``, deterministic admission control sheds the
  excess with typed ``shed-capacity`` outcomes and capacity-scaled
  retry-after hints (:func:`repro.serve.queueing.scale_retry_after`).
* **No silent drops.**  Every request ends served, as a
  :class:`~repro.cluster.stats.FailedRequest`, or as a
  :class:`~repro.cluster.stats.ShedRequest`
  (``received == served + failed + shed``);
  :meth:`ClusterResult.response_for` raises a
  :class:`~repro.errors.ClusterError` for the latter two.

Single-node serving *is* the cluster with ``num_replicas=1``: its
:class:`~repro.serve.stats.ServerStats` view is
:meth:`ClusterStats.single_node` (replica 0's stats with the fleet's
client-side ``retried`` and ``failed`` folded in).  The degeneracy
property in ``tests/cluster/test_cluster.py`` holds that view and every
response equal to the retired single-server loop, kept as a test
oracle.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.config import MegaConfig
from repro.cluster.cache import (
    ReplicaScheduleView,
    TieredScheduleCache,
    TierStats,
)
from repro.cluster.health import (
    BrownoutController,
    FleetHealth,
    RecoveryRecord,
)
from repro.cluster.routing import HashRing, make_policy
from repro.cluster.stats import (
    FAILURE_REASONS,
    ClusterStats,
    FailedRequest,
    ReplicaRecord,
    ShedRequest,
)
from repro.errors import ClusterError, QueueFullError
from repro.models.base import GNNModel
from repro.pipeline.cache import ScheduleCache
from repro.pipeline.hashing import schedule_cache_key
from repro.resilience import FaultPlan, RetryPolicy
from repro.serve.batcher import BatchPlan
from repro.serve.queueing import (
    InferenceRequest,
    InferenceResponse,
    scale_retry_after,
)
from repro.serve.server import (
    EventLoop,
    ForwardExecutor,
    LaunchedBatch,
    ServerConfig,
    ServerEngine,
)
from repro.train.clock import SimulatedClock

#: Observed/expected service-time ratio at which a batch completion
#: counts as slow for the circuit breaker; above 1, so healthy batches
#: never trip it.
BREAKER_SLOW_RATIO = 1.5


@dataclass(frozen=True)
class ClusterConfig:
    """Fleet shape, routing and self-healing knobs.

    Attributes
    ----------
    num_replicas:
        Serving replicas (>= 1); each gets its own
        :class:`~repro.serve.server.ServerEngine` with ``server``'s
        knobs.
    policy:
        Load-balance policy name (:data:`repro.cluster.routing
        .POLICIES`).
    vnodes:
        Virtual nodes per replica on the consistent-hash ring.
    server:
        Per-replica serving configuration (queue bound, batching).
    breaker_threshold:
        Consecutive slow batch completions that trip a replica's
        circuit breaker (0 disables the breaker).
    breaker_cooldown_s:
        Base cooldown before a tripped breaker half-opens; stretched
        per trip and seeded-jittered by the fault plan.
    brownout_watermark:
        Alive fraction of the fleet below which brownout admission
        sheds load (0 disables brownout).
    shed_retry_after_s:
        Base retry-after hint on a shed, before capacity scaling.
    """

    num_replicas: int = 2
    policy: str = "hash-affinity"
    vnodes: int = 64
    server: ServerConfig = field(default_factory=ServerConfig)
    breaker_threshold: int = 0
    breaker_cooldown_s: float = 0.05
    brownout_watermark: float = 0.0
    shed_retry_after_s: float = 0.01

    def __post_init__(self) -> None:
        if self.num_replicas < 1:
            raise ClusterError(
                f"num_replicas must be >= 1, got {self.num_replicas}")
        if self.vnodes < 1:
            raise ClusterError(f"vnodes must be >= 1, got {self.vnodes}")
        if self.breaker_threshold < 0:
            raise ClusterError(
                f"breaker_threshold must be >= 0, "
                f"got {self.breaker_threshold}")
        if self.breaker_cooldown_s < 0.0:
            raise ClusterError(
                f"breaker_cooldown_s must be >= 0, "
                f"got {self.breaker_cooldown_s}")
        if not 0.0 <= self.brownout_watermark <= 1.0:
            raise ClusterError(
                f"brownout_watermark must be in [0, 1], "
                f"got {self.brownout_watermark}")
        if self.shed_retry_after_s < 0.0:
            raise ClusterError(
                f"shed_retry_after_s must be >= 0, "
                f"got {self.shed_retry_after_s}")
        # Fail on an unknown policy at configuration time, not mid-run.
        make_policy(self.policy)


@dataclass
class ClusterResult:
    """Everything one :meth:`Cluster.run` call produced."""

    responses: List[InferenceResponse]
    stats: ClusterStats

    def response_for(self, request_id: int) -> InferenceResponse:
        """The response for ``request_id``; typed error if it failed."""
        for resp in self.responses:
            if resp.request_id == request_id:
                return resp
        for failure in self.stats.failures:
            if failure.request_id == request_id:
                raise ClusterError(
                    f"request {failure.request_id} failed after "
                    f"{failure.attempts} attempt(s): {failure.reason}")
        for shed in self.stats.sheds:
            if shed.request_id == request_id:
                raise ClusterError(
                    f"request {shed.request_id} shed after "
                    f"{shed.attempts} attempt(s): {shed.reason} "
                    f"(retry after {shed.retry_after_s:.4f}s)")
        raise ClusterError(f"no response for request {request_id} "
                           "(never submitted)")


class Cluster:
    """N-replica inference cluster over one loaded model.

    All replicas serve the same model (inference is stateless, so the
    weights are shared, not copied) and share one simulated clock and
    one L2 schedule tier; ``cache`` optionally backs that tier with an
    on-disk :class:`~repro.pipeline.cache.ScheduleCache`.
    ``fault_plan`` drives seeded replica crashes, recoveries and
    stragglers; the default plan injects nothing.  A plan that pins a
    crash or a straggler on a replica id outside the fleet is a
    :class:`~repro.errors.ClusterError`, not a fault that never fires.
    """

    def __init__(self, model: GNNModel, config: Optional[ClusterConfig]
                 = None,
                 mega_config: Optional[MegaConfig] = None,
                 cache: Optional[ScheduleCache] = None,
                 clock: Optional[SimulatedClock] = None,
                 fault_plan: Optional[FaultPlan] = None):
        self.model = model
        self.model.eval()
        self.config = config or ClusterConfig()
        if fault_plan is not None:
            for field_name in ("crash_replicas", "slow_replicas"):
                for rid in getattr(fault_plan, field_name):
                    if not 0 <= rid < self.config.num_replicas:
                        raise ClusterError(
                            f"fault plan pins replica {rid} in "
                            f"{field_name}, but the fleet has replicas "
                            f"0..{self.config.num_replicas - 1}")
        self.mega_config = mega_config or MegaConfig()
        self.clock = clock if clock is not None else SimulatedClock()
        self.fault_plan = fault_plan
        self.tiered = TieredScheduleCache(self.mega_config, backing=cache)

    # ------------------------------------------------------------------
    def run(self, requests: List[InferenceRequest],
            retry_policy: Optional[RetryPolicy] = None,
            control_events: Optional[
                Sequence[Tuple[float, Callable[[float], None]]]] = None,
            bind_request: Optional[
                Callable[[InferenceRequest, float], InferenceRequest]]
            = None) -> ClusterResult:
        """Serve a request stream across the fleet to completion.

        ``retry_policy`` bounds client-side retries after queue-full
        rejections and brownout sheds as well as failover re-routing
        after replica crashes; ``None`` means one attempt — rejections,
        sheds and evacuations fail immediately (still recorded, never
        silent).

        ``control_events`` are ``(at_s, callback)`` pairs merged onto
        the one event heap; each callback fires at its simulated time
        with the clock as argument.  This is how the streaming layer
        applies graph deltas *between* arrivals deterministically —
        the cluster stays ignorant of what the callbacks do.

        ``bind_request`` rewrites a request at each dispatch instant
        (arrivals, retries, failovers, hedges).  The streaming layer
        uses it to resolve a named graph to its current version and pin
        the epoch; requests already admitted are untouched — their
        schedule was resolved at admission.

        A run that :func:`~repro.serve.server.use_forward_worker`
        selects forks its forward worker when it starts and closes it
        when it ends, also on error (:class:`~repro.serve.server
        .ForwardExecutor`).  A batch's responses are built once its
        predictions are ready, at the latest when the run drains the
        executor before returning; a forward that raises surfaces here
        by then.
        """
        with ForwardExecutor(self.model, len(requests)) as forward:
            return self._run(forward, requests, retry_policy,
                             control_events, bind_request)

    def _run(self, forward: ForwardExecutor,
             requests: List[InferenceRequest],
             retry_policy: Optional[RetryPolicy],
             control_events, bind_request) -> ClusterResult:
        """:meth:`run`'s body, with its forward executor open."""
        cfg = self.config
        plan = self.fault_plan
        policy = make_policy(cfg.policy)
        replica_ids = list(range(cfg.num_replicas))
        ring = HashRing(replica_ids, vnodes=cfg.vnodes)
        health = FleetHealth(replica_ids,
                             breaker_threshold=cfg.breaker_threshold,
                             breaker_cooldown_s=cfg.breaker_cooldown_s,
                             fault_plan=plan)
        brownout = BrownoutController(cfg.brownout_watermark,
                                      cfg.shed_retry_after_s)
        views: Dict[int, ReplicaScheduleView] = {
            rid: self.tiered.view(rid) for rid in replica_ids}
        engines: Dict[int, ServerEngine] = {
            rid: ServerEngine(self.model, cfg.server, views[rid], forward)
            for rid in replica_ids}
        lifetime_batches: Dict[int, int] = {rid: 0 for rid in replica_ids}
        last_crash_s: Dict[int, float] = {}
        hedged_ids: Set[int] = set()
        seeds_before = self.tiered.seeds
        l2_invalidations_before = self.tiered.l2_invalidations

        stats = ClusterStats(policy=cfg.policy,
                             num_replicas=cfg.num_replicas,
                             vnodes=cfg.vnodes,
                             received=len(requests))

        # Event kinds: "arrive" carries a request, "done" carries
        # (replica_id, launched batch, slow flag), "recover" carries a
        # replica id, "control" carries a callback.
        loop = EventLoop(self.clock)
        # Control events go on the heap first so a delta and an arrival
        # at the same instant resolve control-first — a query submitted
        # "at" a delta's timestamp sees the post-delta world.
        for at_s, callback in (control_events or ()):
            loop.push(at_s, "control", callback)
        for request in requests:
            loop.arrive(request)

        def fail(request: InferenceRequest, reason: str,
                 now_s: float) -> None:
            if reason not in FAILURE_REASONS:
                raise ClusterError(
                    f"unknown failure reason {reason!r}; the closed "
                    f"vocabulary is {FAILURE_REASONS}")
            stats.failed += 1
            stats.failures.append(FailedRequest(
                request_id=request.request_id,
                attempts=request.attempt + 1,
                reason=reason, failed_s=now_s))

        def shed(request: InferenceRequest, hint_s: float,
                 now_s: float) -> None:
            stats.shed += 1
            stats.sheds.append(ShedRequest(
                request_id=request.request_id,
                attempts=request.attempt + 1,
                retry_after_s=hint_s, shed_s=now_s))

        def seal_incarnation(rid: int, crashed: bool,
                             crashed_at_s: float) -> None:
            """Retire the current engine+view into a ReplicaRecord."""
            h = health.of(rid)
            view = views[rid]
            replica_stats = engines[rid].finish()
            stats.attempts += replica_stats.attempts
            stats.admitted += replica_stats.admitted
            stats.rejected += replica_stats.rejected
            stats.replicas.append(ReplicaRecord(
                replica_id=rid, incarnation=h.incarnation,
                crashed=crashed, crashed_at_s=crashed_at_s,
                stats=replica_stats, view=view))
            if h.incarnation > 0:
                # Fill this incarnation's warm-up trajectory into its
                # recovery record: the view started with a cold L1.
                tier = view.tier
                for record in health.recoveries:
                    if (record.replica_id == rid
                            and record.incarnation == h.incarnation):
                        record.warmup_lookups = tier.lookups
                        record.warmup_l1_hits = tier.l1_hits
                        record.warmup_l2_hits = tier.l2_hits
                        record.warmup_misses = tier.misses
                        record.lookups_to_first_l1_hit = \
                            view.lookups_to_first_l1_hit

        def crash_replica(rid: int, now_s: float) -> None:
            seal_incarnation(rid, crashed=True, crashed_at_s=now_s)
            health.of(rid).mark_crashed(now_s)
            last_crash_s[rid] = now_s
            stats.crashed_replicas += 1
            stats.rebalanced_arcs += ring.remove(rid)
            for request in engines[rid].evacuate():
                if (retry_policy is not None
                        and request.attempt + 1 < retry_policy.max_attempts):
                    stats.failovers += 1
                    loop.arrive(request.retry(
                        now_s + retry_policy.delay(request.attempt)))
                else:
                    fail(request, "replica-crash", now_s)
            if plan is not None and plan.recovers:
                delay = plan.recovery_delay(
                    rid, health.of(rid).crashes - 1)
                loop.push(now_s + delay, "recover", rid)

        def recover_replica(rid: int, now_s: float) -> None:
            """Rejoin: fresh engine, cold L1 view, ring arcs reclaimed."""
            h = health.of(rid)
            h.mark_recovering(now_s)
            stats.recovered_replicas += 1
            stats.rebalanced_arcs -= ring.add(rid)
            views[rid] = self.tiered.view(rid)
            engines[rid] = ServerEngine(self.model, cfg.server, views[rid],
                                        forward)
            health.recoveries.append(RecoveryRecord(
                replica_id=rid, incarnation=h.incarnation,
                crashed_at_s=last_crash_s[rid], recovered_at_s=now_s))

        def dispatch(request: InferenceRequest, now_s: float) -> None:
            if bind_request is not None:
                request = bind_request(request, now_s)
            alive_ids = health.alive_ids()
            if not alive_ids:
                fail(request, "no-replicas-alive", now_s)
                return
            hint = brownout.consider(len(alive_ids), cfg.num_replicas)
            if hint is not None:
                stats.shed_events += 1
                if (retry_policy is not None
                        and request.attempt + 1 < retry_policy.max_attempts):
                    loop.arrive(request.retry(
                        now_s + max(hint,
                                    retry_policy.delay(request.attempt))))
                else:
                    shed(request, hint, now_s)
                return
            routable = health.routable_ids(now_s)
            loads = tuple((rid, engines[rid].load) for rid in routable)
            rid = policy.choose(
                schedule_cache_key(request.graph, self.mega_config),
                loads, ring)
            engine = engines[rid]
            if (request.attempt == 0
                    and request.request_id not in hedged_ids):
                engine.stats.received += 1
            try:
                engine.admit(request, now_s)
            except QueueFullError as exc:
                if (retry_policy is not None
                        and request.attempt + 1 < retry_policy.max_attempts):
                    # The replica's own hint, stretched by the fleet's
                    # lost capacity, composed with the client backoff.
                    hint_s = scale_retry_after(
                        exc.retry_after_s, len(alive_ids),
                        cfg.num_replicas)
                    delay = max(hint_s,
                                retry_policy.delay(request.attempt))
                    stats.retried += 1
                    loop.arrive(request.retry(now_s + delay))
                else:
                    fail(request, "retry-budget-exhausted", now_s)

        def launch(rid: int, engine: ServerEngine, launch_plan: BatchPlan,
                   now_s: float) -> None:
            batch_index = lifetime_batches[rid]
            if (plan is not None
                    and plan.replica_fails(rid, batch_index,
                                           health.of(rid).incarnation)):
                crash_replica(rid, now_s)
                return
            scale = (plan.service_multiplier(rid, batch_index)
                     if plan is not None else 1.0)
            done_s, launched = engine.launch(
                launch_plan, now_s, service_scale=scale)
            lifetime_batches[rid] += 1
            loop.push(done_s, "done",
                      (rid, launched, scale >= BREAKER_SLOW_RATIO))

        def complete(payload: Tuple[int, LaunchedBatch, bool],
                     now_s: float) -> None:
            rid, launched, slow = payload
            engine = engines[rid]
            latencies = engine.complete(launched, now_s)
            stats.served += len(latencies)
            stats.latencies_s.extend(latencies)
            stats.sim_duration_s = max(stats.sim_duration_s, now_s)
            h = health.of(rid)
            if h.state == "recovering":
                h.mark_alive(now_s)
            if health.breaker(rid).record_completion(slow, now_s):
                stats.breaker_trips += 1
                # Hedge: do not leave queued work behind a replica we
                # just declared slow.  Hedged requests keep their
                # attempt count — straggling is the fleet's fault, not
                # the client's.
                for request in engine.evacuate():
                    stats.hedges += 1
                    hedged_ids.add(request.request_id)
                    loop.arrive(replace(request, submitted_s=now_s))

        # Alive replicas in ascending id order: launch order, and so
        # the whole run, stays deterministic.
        loop.run(lambda: [(rid, engines[rid]) for rid in health.alive_ids()],
                 launch,
                 {"arrive": dispatch, "done": complete,
                  "recover": recover_replica,
                  "control": lambda callback, now_s: callback(now_s)})

        for rid in replica_ids:
            if health.of(rid).state != "crashed":
                seal_incarnation(rid, crashed=False, crashed_at_s=-1.0)
        stats.replicas.sort(
            key=lambda r: (r.replica_id, r.incarnation))
        stats.recoveries = health.recoveries
        stats.health = health.as_dict()
        # This run's fleet tier, folded from its own records: earlier
        # runs on the same cluster share the L2 but not these counts.
        stats.tier = functools.reduce(
            TierStats.merge, (r.tier for r in stats.replicas),
            TierStats(seeds=self.tiered.seeds - seeds_before,
                      l2_invalidations=(self.tiered.l2_invalidations
                                        - l2_invalidations_before)))
        return ClusterResult(responses=forward.drain(), stats=stats)
