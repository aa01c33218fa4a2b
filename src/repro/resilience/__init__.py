"""Fault tolerance: deterministic injection, bounded retry, recovery.

MEGA's value is a long CPU preprocessing pass followed by a long
training run — exactly the shape of workload where a crashed worker,
a corrupted cache entry, or a killed process is routine rather than
exceptional.  This package is the shared failure story:

- :mod:`repro.resilience.faults` — :class:`FaultPlan`, a seeded and
  schedule of injected faults (worker crashes, cache corruption,
  transient I/O, NaN losses, replica crashes) that makes
  every recovery path below drivable from tier-1 tests.
- :mod:`repro.resilience.retry` — :class:`RetryPolicy` and
  :func:`call_with_retry`: bounded attempts, exponential backoff, and
  an injectable sleep so tests run instantly.

Consumers: :mod:`repro.pipeline.parallel` (per-chunk retry,
degrade-to-serial, quarantine), :mod:`repro.pipeline.cache`
(corruption-as-a-miss plus startup crash recovery),
:mod:`repro.train.trainer` (crash-safe checkpoints, resume, NaN
rollback) and :mod:`repro.cluster` (replica crashes, recovery and
stragglers).  See ``docs/resilience.md`` for the full failure matrix.
"""

from repro.resilience.faults import (
    CORRUPTION_MODES,
    FaultPlan,
    corrupt_cache_entry,
)
from repro.resilience.retry import (
    TRANSIENT_TYPES,
    RetryPolicy,
    call_with_retry,
)

__all__ = [
    "FaultPlan",
    "corrupt_cache_entry",
    "CORRUPTION_MODES",
    "RetryPolicy",
    "call_with_retry",
    "TRANSIENT_TYPES",
]
