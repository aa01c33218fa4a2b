"""Batch preprocessing pipeline: parallel Algorithm 1 + persistent cache.

MEGA's preprocessing is a one-time CPU pass whose cost should amortise
across epochs *and processes*.  This package makes that true at dataset
scale:

- :mod:`repro.pipeline.parallel` — fan the traversal out across worker
  processes with a deterministic, input-ordered merge.
- :mod:`repro.pipeline.cache` — content-addressed on-disk store of
  ``TraversalResult`` arrays, the schedule only (atomic ``.npz``
  writes, checksum verification, LRU size cap); every plan is derived
  from the materialised path on demand.
- :mod:`repro.pipeline.hashing` — cache keys from (CSR bytes, config
  fields, schedule code version).
- :mod:`repro.pipeline.stats` — hit/miss/invalidation counters the CLI
  surfaces.

Failures are routine at this scale: chunk computations retry with
bounded backoff, a dead executor degrades the run to serial, corrupt
cache entries are recomputed, and pathological graphs can be
quarantined instead of killing the batch — all deterministically
testable through :class:`repro.resilience.FaultPlan`.

See ``docs/preprocessing.md`` for the user guide,
``docs/resilience.md`` for the failure matrix, and
``docs/architecture.md`` for where the pipeline sits in the system.
"""

from repro.pipeline.cache import (
    ScheduleCache,
    default_cache_dir,
    pack_entry,
    unpack_entry,
)
from repro.pipeline.hashing import (
    CACHE_FORMAT_VERSION,
    SCHEDULE_CODE_VERSION,
    config_fingerprint,
    graph_fingerprint,
    schedule_cache_key,
)
from repro.pipeline.parallel import (
    PipelineResult,
    compute_schedule,
    materialise,
    precompute_paths,
)
from repro.pipeline.stats import CacheStats, PipelineStats, QuarantineRecord

__all__ = [
    "ScheduleCache",
    "default_cache_dir",
    "pack_entry",
    "unpack_entry",
    "SCHEDULE_CODE_VERSION",
    "CACHE_FORMAT_VERSION",
    "schedule_cache_key",
    "graph_fingerprint",
    "config_fingerprint",
    "PipelineResult",
    "precompute_paths",
    "compute_schedule",
    "materialise",
    "CacheStats",
    "PipelineStats",
    "QuarantineRecord",
]
