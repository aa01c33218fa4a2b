"""Inference serving: the path from a checkpoint to answered requests.

The training side of this repo ends at a PR-4 checkpoint; this package
is the serving side — the ROADMAP's "heavy traffic" story made
concrete and, crucially, *deterministic*:

- :mod:`repro.serve.registry` — named :class:`ModelSpec` entries
  resolved to ready models (weights from
  :mod:`repro.train.checkpoint` archives).
- :mod:`repro.serve.queueing` — request/response types and the bounded
  admission queue whose rejections carry retry-after hints.
- :mod:`repro.serve.batcher` — dynamic micro-batching by path-length
  bucket (the serving analogue of :mod:`repro.core.batching`).
- :mod:`repro.serve.server` — the serving engine and the one event
  loop that drives engines, for the single server here and for
  :mod:`repro.cluster`: simulated time
  (:class:`repro.train.clock.SimulatedClock`), schedule reuse through
  the PR-1 :class:`~repro.pipeline.cache.ScheduleCache`, execution
  cost from the analytic kernel simulator.
- :mod:`repro.serve.loadgen` — seeded Poisson/bursty arrival processes
  built on :meth:`repro.resilience.FaultPlan.roll` (SHA-256 uniforms,
  no ``random`` anywhere).
- :mod:`repro.serve.stats` — :class:`ServerStats`: p50/p95/p99
  latency, throughput, queue depth, batch occupancy, schedule-cache
  hit rate.

Two seeded ``loadtest`` runs produce byte-identical stats; see
``docs/serving.md`` for the request lifecycle and SLO definitions.
"""

from repro.serve.batcher import BatchingPolicy, BatchPlan, MicroBatcher
from repro.serve.loadgen import (
    ARRIVAL_PROCESSES,
    ArrivalProcess,
    generate_requests,
)
from repro.serve.queueing import (
    BoundedRequestQueue,
    InferenceRequest,
    InferenceResponse,
    QueuedRequest,
    scale_retry_after,
)
from repro.serve.registry import LoadedModel, ModelRegistry, ModelSpec
from repro.serve.server import (
    EventLoop,
    InferenceServer,
    ScheduleStore,
    ServeResult,
    ServerConfig,
    ServerEngine,
)
from repro.serve.stats import BatchRecord, ServerStats

__all__ = [
    "BatchingPolicy",
    "BatchPlan",
    "MicroBatcher",
    "ArrivalProcess",
    "ARRIVAL_PROCESSES",
    "generate_requests",
    "BoundedRequestQueue",
    "InferenceRequest",
    "InferenceResponse",
    "QueuedRequest",
    "scale_retry_after",
    "ModelRegistry",
    "ModelSpec",
    "LoadedModel",
    "EventLoop",
    "InferenceServer",
    "ScheduleStore",
    "ServeResult",
    "ServerConfig",
    "ServerEngine",
    "BatchRecord",
    "ServerStats",
]
