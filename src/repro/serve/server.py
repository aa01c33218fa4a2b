"""The inference server: a deterministic event loop in simulated time.

Request lifecycle (``docs/serving.md`` has the full walkthrough)::

    submit -> admit (bounded queue) -> micro-batch -> execute -> respond
                |                                        |
                +-- reject + retry-after (queue full)    +-- SLO stats

Three design rules keep every run replayable:

* **Simulated time only.**  The loop runs on an injectable
  :class:`repro.train.clock.SimulatedClock`; execution cost comes from
  the analytic kernel simulator (:func:`repro.models.kernel_plans
  .simulate_batch`) on the actual :class:`~repro.models.runtime
  .MegaRuntime` of each batch.  Wall-clock never touches the stats.
* **Schedules resolve at admission, through the schedule cache.**  Each
  admitted graph is looked up in the :class:`~repro.pipeline.cache
  .ScheduleCache` by content key; repeat graphs skip Algorithm 1
  entirely and the hit is visible in both the serve-local counters and
  the pipeline cache's own.
* **Backpressure is explicit.**  A full queue rejects with a
  deterministic retry-after hint; the client side re-submits under a
  :class:`repro.resilience.RetryPolicy` and gives up loudly (counted as
  ``dropped``) when the policy is exhausted.

Structurally serving splits into two pieces.  :class:`ServerEngine`
is the externally-clocked core — admission, batching, execution,
per-replica stats — that owns **no clock and no client behaviour**:
every method takes an explicit simulated timestamp.
:class:`EventLoop` owns time: one heap of timed events that launches
ripe batches on the engines it is given.  It is the only serving loop.
:meth:`InferenceServer.run` drives one engine on it;
:mod:`repro.cluster` drives N engines on it behind a router, adding
its routing and fault handling as event handlers.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import MegaConfig
from repro.core.path import PathRepresentation
from repro.graph.batch import GraphBatch
from repro.graph.graph import Graph
from repro.memsim.device import GPUDevice, GTX_1080
from repro.models.base import GNNModel
from repro.models.kernel_plans import simulate_batch
from repro.models.runtime import MegaRuntime
from repro.pipeline.cache import ScheduleCache
from repro.pipeline.hashing import schedule_cache_key
from repro.pipeline.parallel import compute_schedule, materialise
from repro.pipeline.stats import CacheStats
from repro.resilience import RetryPolicy
from repro.serve.batcher import BatchingPolicy, BatchPlan, MicroBatcher
from repro.serve.queueing import (
    BoundedRequestQueue,
    InferenceRequest,
    InferenceResponse,
    QueuedRequest,
)
from repro.serve.stats import BatchRecord, ServerStats
from repro.errors import QueueFullError, ServeError
from repro.tensor import no_grad
from repro.train.clock import SimulatedClock

#: Retry-after hint before any batch has executed (afterwards the hint
#: is the last batch's service time).
RETRY_AFTER_DEFAULT_S = 0.005


@dataclass(frozen=True)
class ServerConfig:
    """Serving knobs independent of the model being served.

    Attributes
    ----------
    queue_capacity:
        Bound of the admission queue (backpressure threshold).
    policy:
        Micro-batching policy (size, wait, bucket width).
    """

    queue_capacity: int = 32
    policy: BatchingPolicy = field(default_factory=BatchingPolicy)

    def __post_init__(self) -> None:
        if self.queue_capacity < 1:
            raise ServeError(
                f"queue_capacity must be >= 1, got {self.queue_capacity}")


class ScheduleMemo(dict):
    """In-process tier: path representations by content key.

    A hit rebinds the stored representation to the requesting graph
    (:meth:`~repro.core.path.PathRepresentation.rebind`), so no band
    is rebuilt.
    """

    def __init__(self, config: MegaConfig):
        super().__init__()
        self.config = config

    def lookup(self, key: str, graph: Graph
               ) -> Optional[PathRepresentation]:
        rep = self.get(key)
        return None if rep is None else rep.rebind(graph, self.config)

    put = dict.__setitem__


class DiskTier:
    """An on-disk :class:`ScheduleCache` as a tier.

    The cache stores the bare schedule and re-reads and
    checksum-verifies it on every lookup, so every hit binds it to the
    requesting graph again (:func:`~repro.pipeline.parallel
    .materialise`).
    """

    def __init__(self, cache: ScheduleCache, config: MegaConfig):
        self.cache = cache
        self.config = config

    def lookup(self, key: str, graph: Graph
               ) -> Optional[PathRepresentation]:
        entry = self.cache.get(key)
        if entry is None:
            return None
        return materialise(graph, self.config, entry)

    def put(self, key: str, rep: PathRepresentation) -> None:
        self.cache.put(key, rep.schedule)


class ScheduleStore:
    """Admission-time schedule resolution through an ordered tier list.

    A tier is anything with ``lookup(key, graph)``, which returns a
    :class:`~repro.core.path.PathRepresentation` bound to ``graph`` or
    ``None``, and ``put(key, representation)``.  :meth:`resolve` walks
    the tiers in order: a hit is copied into the tiers above it, a full
    miss runs Algorithm 1 and feeds every tier the representation it
    built.

    The single-node server has one tier: the attached
    :class:`ScheduleCache` (as a :class:`DiskTier`), which re-reads and
    checksum-verifies the entry on every lookup (hits also move the
    pipeline cache's own counters — the observable double-entry
    bookkeeping the acceptance tests assert) or, without one, an
    in-process memo, so the server never needs a disk directory just to
    deduplicate repeat graphs within a run.  A cluster replica's view
    stacks its own memo over the fleet's shared tier
    (:mod:`repro.cluster.cache`).

    Each lookup bumps exactly one counter: ``tier_hits[i]`` for a hit
    in tier ``i``, else ``misses``.  Every stats view is derived.
    """

    def __init__(self, config: MegaConfig,
                 cache: Optional[ScheduleCache] = None,
                 tiers: Optional[Sequence] = None):
        self.config = config
        self.cache = cache
        if tiers is None:
            tiers = (ScheduleMemo(config) if cache is None
                     else DiskTier(cache, config),)
        self.tiers = tuple(tiers)
        self.tier_hits = [0] * len(self.tiers)
        self.misses = 0
        #: Lookups served before the first tier-0 hit (-1 until one
        #: lands).  For a replica view created at a rejoin this is the
        #: cold-L1 warm-up length the recovery records surface.
        self.lookups_to_first_l1_hit = -1

    @property
    def lookups(self) -> int:
        return sum(self.tier_hits) + self.misses

    @property
    def stats(self) -> CacheStats:
        """Serve-compatible counters; every miss wrote one entry."""
        return CacheStats(hits=sum(self.tier_hits), misses=self.misses,
                          puts=self.misses)

    def resolve(self, graph: Graph, key: str
                ) -> Tuple[PathRepresentation, bool]:
        """Path representation for ``graph`` under its content ``key``.

        True when a tier served it.  The caller computes ``key``
        (:func:`~repro.pipeline.hashing.schedule_cache_key`) once per
        dispatch; the resolver never hashes.
        """
        for depth, tier in enumerate(self.tiers):
            rep = tier.lookup(key, graph)
            if rep is not None:
                if depth == 0 and self.lookups_to_first_l1_hit < 0:
                    self.lookups_to_first_l1_hit = self.lookups
                self.tier_hits[depth] += 1
                for upper in self.tiers[:depth]:
                    upper.put(key, rep)
                return rep, True
        rep = compute_schedule(graph, self.config)
        for tier in self.tiers:
            tier.put(key, rep)
        self.misses += 1
        return rep, False


@dataclass
class ServeResult:
    """Everything one :meth:`InferenceServer.run` call produced."""

    responses: List[InferenceResponse]
    stats: ServerStats

    def response_for(self, request_id: int) -> InferenceResponse:
        for resp in self.responses:
            if resp.request_id == request_id:
                return resp
        raise ServeError(f"no response for request {request_id} "
                         "(rejected and dropped, or never submitted)")


class ServerEngine:
    """One replica's serving core, driven by an external clock.

    The engine owns the bounded queue, the micro-batcher, the executor
    and a :class:`ServerStats` — everything *local* to one serving
    replica — but no clock, no event heap and no retry behaviour.
    Callers pass explicit simulated timestamps:

    * :meth:`admit` resolves a schedule and enqueues (or raises
      :class:`QueueFullError` with a deterministic retry-after hint);
    * :meth:`select` asks the batcher for a launchable plan;
    * :meth:`launch` executes a plan and returns its completion event;
    * :meth:`complete` retires a finished batch's responses;
    * :meth:`evacuate` empties the queue (cluster failover).

    ``store`` is a :class:`ScheduleStore`: the single-node one-tier
    store or a cluster replica's two-tier view.  The engine never
    hashes: :meth:`admit` takes the graph's content key from its
    caller, which computed it once for the whole dispatch.
    """

    def __init__(self, model: GNNModel, config: ServerConfig, store):
        self.model = model
        self.config = config
        self.store = store
        self.stats = ServerStats()
        self.queue = BoundedRequestQueue(config.queue_capacity)
        self.batcher = MicroBatcher(config.policy)
        self.busy = False
        self.in_flight = 0
        self._cache_before = store.stats.as_dict()

    @property
    def idle(self) -> bool:
        return not self.busy

    @property
    def depth(self) -> int:
        return self.queue.depth

    @property
    def load(self) -> int:
        """Queued plus in-flight requests — the router's balance signal."""
        return self.queue.depth + self.in_flight

    def retry_after(self) -> float:
        """Deterministic hint: the last batch's service time."""
        if self.stats.batches:
            return self.stats.batches[-1].service_s
        return RETRY_AFTER_DEFAULT_S

    def admit(self, request: InferenceRequest, now_s: float,
              key: str) -> None:
        """Enqueue ``request`` or raise :class:`QueueFullError`.

        ``key`` is the content key of ``request.graph``; the store
        resolves the schedule under it.

        Counter order matches the historical single-server loop:
        every attempt samples the queue depth, then either admits or
        rejects — so the engine's stats are byte-compatible with the
        pre-refactor server.
        """
        self.stats.attempts += 1
        self.stats.queue_depth_sum += self.queue.depth
        self.stats.queue_depth_samples += 1
        if self.queue.full:
            self.stats.rejected += 1
            raise QueueFullError(
                f"queue at capacity ({self.queue.capacity})",
                retry_after_s=self.retry_after())
        path, hit = self.store.resolve(request.graph, key)
        self.queue.admit(QueuedRequest(request=request, admitted_s=now_s,
                                       path=path, schedule_hit=hit))
        self.stats.admitted += 1

    def select(self, now_s: float, draining: bool) -> Optional[BatchPlan]:
        """The plan the batcher would launch now, or ``None``."""
        if self.busy or self.queue.depth == 0:
            return None
        return self.batcher.select(self.queue.entries(), now_s,
                                   draining=draining)

    def flush_deadline(self) -> Optional[float]:
        """Earliest time a queued request forces a flush (idle only)."""
        if self.busy or self.queue.depth == 0:
            return None
        return self.batcher.next_deadline(self.queue.entries())

    def launch(self, plan: BatchPlan, now_s: float,
               service_scale: float = 1.0
               ) -> Tuple[float, List[InferenceResponse]]:
        """Execute ``plan``; returns (completion time, responses).

        ``service_scale`` stretches the analytic service time — the
        cluster's straggler injection (:meth:`repro.resilience
        .FaultPlan.service_multiplier`).  The stretched time is what
        lands in the batch record and the latencies, i.e. what a
        latency-watching circuit breaker observes.
        """
        if service_scale < 1.0:
            raise ServeError(
                f"service_scale must be >= 1, got {service_scale}")
        self.queue.remove(plan.entries)
        batch = GraphBatch([e.request.graph for e in plan.entries])
        runtime = MegaRuntime(batch, [e.path for e in plan.entries])
        with no_grad():
            predictions = np.asarray(self.model(batch, runtime).data)
        profiler = simulate_batch(
            self.model.model_name, runtime, GPUDevice(GTX_1080),
            self.model.config.hidden_dim, self.model.config.num_layers)
        service_s = profiler.total_time * service_scale
        batch_id = len(self.stats.batches)
        self.stats.batches.append(BatchRecord(
            batch_id=batch_id, launch_s=now_s, service_s=service_s,
            size=plan.size, bucket=plan.bucket,
            max_length=plan.max_length, padding_waste=plan.waste,
            occupancy=plan.size / self.config.policy.max_batch_size,
            schedule_misses=plan.schedule_misses))
        done_s = now_s + service_s
        responses = [InferenceResponse(
            request_id=e.request.request_id,
            prediction=np.array(predictions[i], copy=True),
            submitted_s=e.request.submitted_s, completed_s=done_s,
            batch_id=batch_id, schedule_hit=e.schedule_hit,
            epoch=e.epoch)
            for i, e in enumerate(plan.entries)]
        self.busy = True
        self.in_flight = plan.size
        return done_s, responses

    def complete(self, responses: List[InferenceResponse],
                 now_s: float) -> None:
        """Retire one finished batch: latency accounting, idle again."""
        self.busy = False
        self.in_flight = 0
        for response in responses:
            self.stats.served += 1
            self.stats.latencies_s.append(response.latency_s)
        self.stats.sim_duration_s = max(self.stats.sim_duration_s, now_s)

    def evacuate(self) -> List[InferenceRequest]:
        """Empty the queue, returning the stranded requests.

        The cluster's failover path: a crashed replica's queued
        requests re-enter the router instead of dying with the queue.
        """
        stranded = [e.request for e in self.queue.entries()]
        self.queue.remove(self.queue.entries())
        return stranded

    def finish(self) -> ServerStats:
        """Seal the stats: queue high-water mark and cache delta."""
        self.stats.max_queue_depth = self.queue.max_depth
        after = self.store.stats.as_dict()
        self.stats.cache = CacheStats(
            **{k: after[k] - self._cache_before[k] for k in after})
        return self.stats


class EventLoop:
    """The serving event loop: one heap of timed events driving engines.

    Events are ``(time, seq, kind, payload)`` tuples; ``seq`` breaks
    ties in push order, so same-instant events resolve in the order
    they were scheduled.  Each turn of :meth:`run` does exactly one
    thing, scanning engines in the order ``engines()`` lists them:

    1. launch the first idle engine whose batcher has a ripe plan;
    2. else, when a queued request's flush deadline comes no later
       than the next event, advance the clock to that deadline;
    3. else pop the next event, advance the clock to it and hand its
       payload to ``handlers[kind]``.

    ``"arrive"`` events are the one kind the loop counts: while any is
    pending the batchers wait for fuller batches, and once none is
    left they drain.  Schedule them — first arrivals and retries alike
    — through :meth:`arrive`.
    """

    def __init__(self, clock: SimulatedClock):
        self.clock = clock
        self._events: List[Tuple[float, int, str, object]] = []
        self._seq = 0
        self._arrivals_pending = 0

    def push(self, at_s: float, kind: str, payload: object) -> None:
        """Schedule ``payload`` for ``handlers[kind]`` at ``at_s``."""
        heapq.heappush(self._events, (at_s, self._seq, kind, payload))
        self._seq += 1

    def arrive(self, request: InferenceRequest) -> None:
        """Schedule ``request`` to arrive at its ``submitted_s``."""
        self.push(request.submitted_s, "arrive", request)
        self._arrivals_pending += 1

    def run(self,
            engines: Callable[[], Sequence[Tuple[int, ServerEngine]]],
            launch: Callable[[int, ServerEngine, BatchPlan, float], None],
            handlers: Mapping[str, Callable[[object, float], None]]
            ) -> None:
        """Run until no event is left and every live engine is empty.

        ``engines()`` lists the live ``(id, engine)`` pairs; it is
        asked again every turn, because handlers may change the set.
        ``launch(id, engine, plan, now_s)`` must change state so the
        plan is not offered again: normally it calls
        :meth:`ServerEngine.launch` and pushes the completion event.
        """
        events = self._events
        clock = self.clock
        while True:
            live = engines()
            if not events and not any(engine.depth for _, engine in live):
                return
            now_s = clock.now()
            if self._launch_first_ripe(live, launch, now_s):
                continue
            deadline = min((d for d in (engine.flush_deadline()
                                        for _, engine in live)
                            if d is not None), default=None)
            if not events or (deadline is not None
                              and deadline <= events[0][0]):
                if deadline is None:
                    raise ServeError(
                        "event loop stalled: queued requests but no events")
                if deadline <= now_s:
                    # A reached deadline must have made its bucket
                    # ripe; anything else would spin forever.
                    raise ServeError(
                        "batcher refused to flush at its own deadline")
                clock.advance_to(deadline)
                continue
            t_s, _, kind, payload = heapq.heappop(events)
            clock.advance_to(t_s)
            if kind == "arrive":
                self._arrivals_pending -= 1
            handlers[kind](payload, clock.now())

    def _launch_first_ripe(self, live, launch, now_s: float) -> bool:
        """Launch the first idle engine with a ripe plan; True if any."""
        for key, engine in live:
            if engine.idle and engine.depth:
                plan = engine.select(
                    now_s, draining=self._arrivals_pending == 0)
                if plan is not None:
                    launch(key, engine, plan, now_s)
                    return True
        return False


class InferenceServer:
    """Single-executor inference server over one loaded model."""

    def __init__(self, model: GNNModel,
                 mega_config: Optional[MegaConfig] = None,
                 cache: Optional[ScheduleCache] = None,
                 clock: Optional[SimulatedClock] = None,
                 config: Optional[ServerConfig] = None):
        self.model = model
        self.model.eval()
        self.mega_config = mega_config or MegaConfig()
        self.config = config or ServerConfig()
        self.clock = clock if clock is not None else SimulatedClock()
        self.store = ScheduleStore(self.mega_config, cache=cache)

    # ------------------------------------------------------------------
    def run(self, requests: List[InferenceRequest],
            retry_policy: Optional[RetryPolicy] = None) -> ServeResult:
        """Serve a request stream to completion; returns the result.

        ``retry_policy`` drives the *client side*: a rejected request is
        re-submitted after ``max(retry_after hint, policy backoff)``
        until the policy's attempt budget is spent, then counted as
        dropped.  ``None`` drops rejected requests immediately.
        """
        engine = ServerEngine(self.model, self.config, self.store)
        stats = engine.stats
        stats.received = len(requests)
        responses: List[InferenceResponse] = []
        loop = EventLoop(self.clock)
        for request in requests:
            loop.arrive(request)

        def admit(request: InferenceRequest, now_s: float) -> None:
            key = schedule_cache_key(request.graph, self.mega_config)
            try:
                engine.admit(request, now_s, key)
            except QueueFullError as exc:
                if (retry_policy is not None
                        and request.attempt + 1 < retry_policy.max_attempts):
                    delay = max(exc.retry_after_s,
                                retry_policy.delay(request.attempt))
                    stats.retried += 1
                    loop.arrive(request.retry(now_s + delay))
                else:
                    stats.dropped += 1

        def launch(_: int, engine: ServerEngine, plan: BatchPlan,
                   now_s: float) -> None:
            done_s, batch = engine.launch(plan, now_s)
            loop.push(done_s, "done", batch)

        def complete(batch: List[InferenceResponse], now_s: float) -> None:
            engine.complete(batch, now_s)
            responses.extend(batch)

        loop.run(lambda: ((0, engine),), launch,
                 {"arrive": admit, "done": complete})
        engine.finish()
        return ServeResult(responses=responses, stats=stats)
