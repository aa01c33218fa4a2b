"""The retired single-node serving loop, kept as a test oracle.

Single-node serving is a one-replica :class:`~repro.cluster.Cluster`
read through :meth:`~repro.cluster.ClusterStats.single_node`.  This
module keeps the single server it replaced: ``InferenceServer.run``
(one engine on the event loop, client retries counted on the engine's
own stats) over its one-tier store, which is an on-disk
:class:`~repro.pipeline.cache.ScheduleCache` re-read on every lookup
(``DiskTier``) or an in-process memo.  The degeneracy property in
``tests/cluster/test_cluster.py`` holds the cluster's single-node view
and every response equal to this loop's.  The classes are the old
``repro.serve.server`` code unchanged, apart from the store, which is
built from an explicit tier list, and the launch/complete handshake:
completion retires the batch to the run's
:class:`~repro.serve.server.ForwardExecutor`, which builds the
responses, and the run drains the executor before it returns.  Its
engine's forwards run where a cluster's would
(:func:`repro.serve.server.use_forward_worker`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.config import MegaConfig
from repro.core.path import PathRepresentation
from repro.errors import QueueFullError, ServeError
from repro.graph.graph import Graph
from repro.models.base import GNNModel
from repro.pipeline.cache import ScheduleCache
from repro.pipeline.parallel import materialise
from repro.resilience import RetryPolicy
from repro.serve.batcher import BatchPlan
from repro.serve.queueing import InferenceRequest, InferenceResponse
from repro.serve.server import (
    EventLoop,
    ForwardExecutor,
    ScheduleMemo,
    ScheduleStore,
    ServerConfig,
    ServerEngine,
)
from repro.serve.stats import ServerStats
from repro.train.clock import SimulatedClock


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
        # The retired default-tier branch of ScheduleStore: a disk-only
        # tier when a cache is attached, else an in-process memo.
        self.store = ScheduleStore(
            self.mega_config,
            tiers=(ScheduleMemo(self.mega_config) if cache is None
                   else DiskTier(cache, self.mega_config),))

    # ------------------------------------------------------------------
    def run(self, requests: List[InferenceRequest],
            retry_policy: Optional[RetryPolicy] = None) -> ServeResult:
        """Serve a request stream to completion; returns the result.

        ``retry_policy`` drives the *client side*: a rejected request is
        re-submitted after ``max(retry_after hint, policy backoff)``
        until the policy's attempt budget is spent, then counted as
        dropped.  ``None`` drops rejected requests immediately.
        """
        with ForwardExecutor(self.model, len(requests)) as forward:
            return self._run(forward, requests, retry_policy)

    def _run(self, forward: ForwardExecutor,
             requests: List[InferenceRequest],
             retry_policy: Optional[RetryPolicy]) -> ServeResult:
        engine = ServerEngine(self.model, self.config, self.store, forward)
        stats = engine.stats
        stats.received = len(requests)
        loop = EventLoop(self.clock)
        for request in requests:
            loop.arrive(request)

        def admit(request: InferenceRequest, now_s: float) -> None:
            try:
                engine.admit(request, now_s)
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
            done_s, launched = engine.launch(plan, now_s)
            loop.push(done_s, "done", launched)

        loop.run(lambda: ((0, engine),), launch,
                 {"arrive": admit, "done": engine.complete})
        engine.finish()
        return ServeResult(responses=forward.drain(), stats=stats)
