"""The serving engine and the one event loop, in simulated time.

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
* **Schedules resolve at admission, through the schedule tiers.**  Each
  admitted graph is looked up by content key in a
  :class:`ScheduleStore`; repeat graphs skip Algorithm 1 entirely and
  the hit shows in the serve-local counters.
* **Backpressure is explicit.**  A full queue rejects with a
  deterministic retry-after hint; the client side re-submits under a
  :class:`repro.resilience.RetryPolicy` and gives up loudly when the
  policy is exhausted.

Structurally serving splits into three pieces.  :class:`ServerEngine`
is the externally-clocked core — admission, batching, execution,
per-replica stats — that owns **no clock and no client behaviour**:
every method takes an explicit simulated timestamp.
:class:`EventLoop` owns time: one heap of timed events that launches
ripe batches on the engines it is given.  Its one driver is
:class:`repro.cluster.Cluster`, which adds routing, client retries and
fault handling as event handlers.  Single-node serving is a
one-replica cluster, read through
:meth:`repro.cluster.ClusterStats.single_node`.

:class:`ForwardExecutor` runs the batches' numpy forwards.  A run
opens one and shares it across its engines.  When
:func:`use_forward_worker` holds (the run has at least
:data:`WORKER_MIN_REQUESTS` requests, the ``fork`` start method exists
and the process may run on more CPUs than numpy's BLAS pool takes), it
forks one forward worker.  :meth:`ServerEngine.launch` hands a batch to
the executor before pricing it: the executor ships it to the worker,
or runs it in-process at once when the worker already holds
:data:`WORKER_BACKLOG` unfinished batches, so both CPUs compute.
:meth:`ServerEngine.complete` retires the batch at its completion
event without reading a prediction and queues it for its join; the
executor builds each queued batch's responses, in completion order, as
soon as its predictions are ready, and :meth:`ForwardExecutor.drain`
waits for the rest when the run ends.  Without a worker, or once it has
died, the forward runs in-process through the same :func:`run_forward`.
The simulated clock never reads a prediction, and the worker's batch
equals the parent's, so every prediction is byte-identical either way.
The worker lives here, not in a module of its own, because it is one
step of the engine's launch and complete.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import heapq
import multiprocessing
import os
import signal
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Callable, Deque, Dict, Iterator, List, Mapping,
                    Optional, Sequence, Tuple)

import numpy as np

from repro.core.config import MegaConfig, require_int
from repro.core.path import PathRepresentation
from repro.graph.batch import GraphBatch
from repro.graph.graph import Graph
from repro.memsim.device import GPUDevice, GTX_1080
from repro.models.base import GNNModel
from repro.models.kernel_plans import simulate_batch
from repro.models.runtime import MegaRuntime
from repro.pipeline.hashing import schedule_cache_key
from repro.pipeline.parallel import compute_schedule
from repro.pipeline.stats import CacheStats
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

# Not called here: no tier in this module binds a disk entry.  The
# benchmarks/perf tracer patches this name in this module by
# attribute, so it must stay bound here.
from repro.pipeline.parallel import materialise

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
        require_int("queue_capacity", self.queue_capacity, ServeError, 1)
        if not isinstance(self.policy, BatchingPolicy):
            raise ServeError(
                f"policy must be a BatchingPolicy, got {self.policy!r}")


#: A run forks a forward worker only when it serves at least this many
#: requests.  The fork, the child's teardown and the copy-on-write
#: faults it causes in the parent cost tens of milliseconds whatever
#: the run's size, which only a run with enough forwards to overlap
#: pays back.
WORKER_MIN_REQUESTS = 64

#: A batch's forward runs in the parent, not on the forward worker,
#: when the worker still holds this many unfinished batches.  The
#: worker alone is the critical path of a busy run; below this bound
#: the parent would take forwards it has no spare CPU for.
WORKER_BACKLOG = 3


@functools.lru_cache(maxsize=None)
def _openblas() -> Optional[Tuple[Callable, Callable]]:
    """The get/set thread-count calls of numpy's bundled OpenBLAS.

    ``None`` when numpy carries no ``scipy_openblas64_`` library (a
    build against a system BLAS, say), so nothing here can read or cap
    the pool.
    """
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs")
                  .glob("libscipy_openblas64_-*.so"))
    if not libs:
        return None
    try:
        lib = ctypes.CDLL(str(libs[0]))
        get = lib.scipy_openblas_get_num_threads64_
        put = lib.scipy_openblas_set_num_threads64_
    except (OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


def blas_threads() -> Optional[int]:
    """The threads numpy's BLAS pool runs on now, or ``None`` if unknown."""
    calls = _openblas()
    return None if calls is None else calls[0]()


@contextlib.contextmanager
def blas_pool(threads: int) -> Iterator[None]:
    """Run the block with numpy's BLAS pool at ``threads`` threads.

    The pool's size is restored on exit.  Without a known BLAS
    (:func:`blas_threads` is ``None``) the block runs unchanged.
    """
    calls = _openblas()
    if calls is None:
        yield
        return
    get, put = calls
    before = get()
    put(threads)
    try:
        yield
    finally:
        put(before)


def use_forward_worker(num_requests: int) -> bool:
    """Whether a serving run of ``num_requests`` requests forks a
    forward worker.

    It does when the run has at least :data:`WORKER_MIN_REQUESTS`
    requests, the ``fork`` start method exists, and this process may run
    on more CPUs than numpy's BLAS pool takes (:func:`blas_threads`), so
    the worker's forward and the parent's event loop each have a CPU.
    Otherwise the forward runs in-process: a BLAS pool that already
    spans every CPU would contend with the parent for them, and a pool
    of unknown size might.
    """
    if (num_requests < WORKER_MIN_REQUESTS
            or "fork" not in multiprocessing.get_all_start_methods()
            or not hasattr(os, "sched_getaffinity")):
        return False
    cpus = len(os.sched_getaffinity(0))  # megalint: sanctioned-impurity=env: picks where the forward runs, never what it returns; no replay surface reads it
    threads = blas_threads()
    return threads is not None and cpus > threads


def run_forward(model: GNNModel, batch: GraphBatch,
                runtime: MegaRuntime) -> np.ndarray:
    """One batch's predictions: the forward every serving path runs."""
    with no_grad():
        return np.asarray(model(batch, runtime).data)


@dataclass
class PendingForward:
    """One launched batch's forward, until the executor joins it.

    ``ticket`` numbers the batch on the forward worker; it is -1 when
    the forward ran in-process at launch and ``predictions`` is already
    set.  ``batch`` and ``runtime`` stay for a recompute in-process: of
    a batch the worker died holding, or of one whose forward raised in
    the worker (the recompute raises the same exception here).
    """

    batch: GraphBatch
    runtime: MegaRuntime
    ticket: int
    predictions: Optional[np.ndarray]


def _forward_worker(model: GNNModel, parent_end, conn) -> None:
    """The forked worker's loop: one forward per ``(batch, runtime)``.

    Replies go back in the order the batches came, with ``None`` for a
    forward that raised.
    """
    parent_end.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        try:
            batch, runtime = conn.recv()
        except EOFError:
            return
        try:
            predictions = run_forward(model, batch, runtime)
        except Exception:
            # Reported as ``None``: the parent recomputes the batch
            # in-process, which raises the same exception there.
            predictions = None
        try:
            conn.send(predictions)
        except OSError:
            return


class ForwardExecutor:
    """Runs the forward of each batch a serving run launches, and builds
    the run's responses.

    When :func:`use_forward_worker` holds for the run's request count,
    the executor forks one child process that holds the model as it was
    at the fork.  :meth:`submit` first takes any replies the worker has
    already sent, without waiting.  If the worker still holds
    :data:`WORKER_BACKLOG` unfinished batches, :meth:`submit` runs the
    forward in-process at once; otherwise it pickles the batch and its
    runtime to the worker and returns, so the forward runs on a second
    CPU while the event loop, routing and the cost model go on.  Without
    a worker every forward runs in-process at :meth:`submit`.

    :meth:`retire` queues a batch that reached its completion event.
    The queue is first in, first out, so responses keep completion
    order.  Each :meth:`submit` and :meth:`retire` builds the responses
    of the batches at its head whose predictions are ready and releases
    them; :meth:`drain` waits for the rest at the end of the run.
    Nothing the event loop decides reads a prediction, and the worker
    runs :func:`run_forward` on a copy of the parent's batch and
    runtime, so every prediction is byte-identical wherever it ran.

    A worker that dies is not restarted: the batches it held are
    recomputed in-process at their joins, and later batches run
    in-process at submit.  :meth:`close` (or leaving a ``with`` block)
    ends the worker.  ``kept`` counts the forwards :meth:`submit` ran
    in-process and ``recomputed`` the batches the worker died holding.
    """

    def __init__(self, model: GNNModel, num_requests: int):
        self.model = model
        self.responses: List[InferenceResponse] = []
        self.kept = 0
        self.recomputed = 0
        self._conn = None
        self._process = None
        self._sent = 0
        self._replied = 0
        self._received: Dict[int, Optional[np.ndarray]] = {}
        self._retired: Deque[LaunchedBatch] = deque()
        if use_forward_worker(num_requests):
            context = multiprocessing.get_context("fork")
            parent_end, child_end = context.Pipe()
            self._process = context.Process(
                target=_forward_worker, args=(model, parent_end, child_end),
                daemon=True)
            self._process.start()
            child_end.close()
            self._conn = parent_end

    def submit(self, batch: GraphBatch,
               runtime: MegaRuntime) -> PendingForward:
        """Start the forward of ``batch``, on the worker or here."""
        self._join_ready()
        if (self._conn is not None
                and self._sent - self._replied < WORKER_BACKLOG):
            try:
                self._conn.send((batch, runtime))
            except OSError:
                self.close()
            else:
                self._sent += 1
                return PendingForward(batch, runtime, self._sent - 1, None)
        self.kept += 1
        return PendingForward(batch, runtime, -1,
                              run_forward(self.model, batch, runtime))

    def retire(self, launched: LaunchedBatch) -> None:
        """Queue a batch that reached its completion event for its join."""
        self._retired.append(launched)
        self._join_ready()

    def drain(self) -> List[InferenceResponse]:
        """Join every queued batch, waiting for the worker if need be.

        Returns every response the run built, in completion order.
        """
        while self._retired:
            self._respond(self._retired.popleft())
        return self.responses

    def _join_ready(self) -> None:
        """Respond to the queued batches whose predictions are ready."""
        if self._conn is not None:
            try:
                while (self._sent > self._replied
                       and self._conn.poll()):  # megalint: sanctioned-impurity=clock: picks where a forward runs and when its batch is joined, never what either returns; no replay surface reads it
                    self._receive()
            except (EOFError, OSError):
                self.close()
        retired = self._retired
        while retired and (self._conn is None
                           or retired[0].forward.ticket < self._replied):
            self._respond(retired.popleft())

    def _receive(self) -> None:
        self._received[self._replied] = self._conn.recv()
        self._replied += 1

    def _respond(self, launched: LaunchedBatch) -> None:
        predictions = self._join(launched.forward)
        self.responses.extend(launched.responses(predictions))

    def _join(self, pending: PendingForward) -> np.ndarray:
        """``pending``'s predictions, waiting for the worker if need be."""
        if pending.predictions is not None:
            return pending.predictions
        if self._conn is not None:
            try:
                while pending.ticket >= self._replied:
                    self._receive()
            except (EOFError, OSError):
                self.close()
        if pending.ticket not in self._received:
            self.recomputed += 1
        predictions = self._received.pop(pending.ticket, None)
        if predictions is None:
            # The worker died holding the batch, or its forward raised.
            predictions = run_forward(self.model, pending.batch,
                                      pending.runtime)
        return predictions

    def close(self) -> None:
        """End the worker, if any; batches it still holds are dropped."""
        if self._process is None:
            return
        conn, process = self._conn, self._process
        self._conn = self._process = None
        conn.close()
        process.kill()
        process.join()

    def __enter__(self) -> "ForwardExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


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


class ScheduleStore:
    """Admission-time schedule resolution through an ordered tier list.

    A tier is anything with ``lookup(key, graph)``, which returns a
    :class:`~repro.core.path.PathRepresentation` bound to ``graph`` or
    ``None``, and ``put(key, representation)``.  :meth:`resolve` walks
    the tiers in order: a hit is copied into the tiers above it, a full
    miss runs Algorithm 1 and feeds every tier the representation it
    built.  Its one subclass is a cluster replica's view, which stacks
    its own :class:`ScheduleMemo` over the fleet's shared tier
    (:mod:`repro.cluster.cache`).

    Each lookup bumps exactly one counter: ``tier_hits[i]`` for a hit
    in tier ``i``, else ``misses``.  Every stats view is derived.
    """

    def __init__(self, config: MegaConfig, tiers: Sequence):
        self.config = config
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

    def resolve(self, graph: Graph) -> Tuple[PathRepresentation, bool]:
        """Path representation for ``graph``, looked up under its content
        key; True when a tier served it."""
        key = schedule_cache_key(graph, self.config)
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


@dataclass(frozen=True)
class LaunchedBatch:
    """A batch between its launch and its join."""

    batch_id: int
    done_s: float
    entries: Tuple[QueuedRequest, ...]
    forward: PendingForward

    def responses(self, predictions: np.ndarray
                  ) -> List[InferenceResponse]:
        """One response per member, from the batch's predictions."""
        return [InferenceResponse(
            request_id=e.request.request_id,
            prediction=np.array(predictions[i], copy=True),
            submitted_s=e.request.submitted_s,
            completed_s=self.done_s, batch_id=self.batch_id,
            schedule_hit=e.schedule_hit, epoch=e.epoch)
            for i, e in enumerate(self.entries)]


class ServerEngine:
    """One replica's serving core, driven by an external clock.

    The engine owns the bounded queue, the micro-batcher, the executor
    and a :class:`ServerStats` — everything *local* to one serving
    replica — but no clock, no event heap and no retry behaviour.
    Callers pass explicit simulated timestamps:

    * :meth:`admit` resolves a schedule and enqueues (or raises
      :class:`QueueFullError` with a deterministic retry-after hint);
    * :meth:`select` asks the batcher for a launchable plan;
    * :meth:`launch` starts a plan's forward, prices the batch and
      returns its completion time and :class:`LaunchedBatch`;
    * :meth:`complete` retires a finished batch, hands it to the
      executor for its join and returns its members' latencies;
    * :meth:`evacuate` empties the queue (cluster failover).

    ``store`` is a :class:`ScheduleStore` (a cluster replica's
    two-tier view); ``forward`` is the run's :class:`ForwardExecutor`,
    shared by all its engines.
    """

    def __init__(self, model: GNNModel, config: ServerConfig, store,
                 forward: ForwardExecutor):
        self.model = model
        self.config = config
        self.store = store
        self.forward = forward
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

    def admit(self, request: InferenceRequest, now_s: float) -> None:
        """Enqueue ``request`` or raise :class:`QueueFullError`.

        Every attempt samples the queue depth, then either admits or
        rejects.
        """
        self.stats.queue_depth_sum += self.queue.depth
        if self.queue.full:
            self.stats.rejected += 1
            raise QueueFullError(
                f"queue at capacity ({self.queue.capacity})",
                retry_after_s=self.retry_after())
        path, hit = self.store.resolve(request.graph)
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
               ) -> Tuple[float, LaunchedBatch]:
        """Execute ``plan``; returns (completion time, launched batch).

        The batch's forward goes to the executor first, so a forward
        worker runs it while this method prices the batch with the cost
        model; the executor joins it after :meth:`complete`.

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
        forward = self.forward.submit(batch, runtime)
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
        self.busy = True
        self.in_flight = plan.size
        return done_s, LaunchedBatch(batch_id=batch_id, done_s=done_s,
                                     entries=tuple(plan.entries),
                                     forward=forward)

    def complete(self, launched: LaunchedBatch,
                 now_s: float) -> List[float]:
        """Retire one finished batch; returns its members' latencies.

        Does the latency accounting, leaves the engine idle and hands
        the batch to the executor (:meth:`ForwardExecutor.retire`),
        which builds its responses once its predictions are ready.
        Nothing here reads a prediction.
        """
        latencies = [launched.done_s - e.request.submitted_s
                     for e in launched.entries]
        self.busy = False
        self.in_flight = 0
        self.stats.latencies_s.extend(latencies)
        self.stats.sim_duration_s = max(self.stats.sim_duration_s, now_s)
        self.forward.retire(launched)
        return latencies

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
