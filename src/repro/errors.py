"""Exception hierarchy for the MEGA reproduction library."""


class ReproError(Exception):
    """Base class for all library-specific errors."""


class ShapeError(ReproError):
    """Raised when tensor or graph shapes are inconsistent."""


class GradError(ReproError):
    """Raised when ``backward()`` runs on a tensor that has no tape."""


class GraphError(ReproError):
    """Raised on malformed graph structures (bad indices, empty sets, ...)."""


class ScheduleError(ReproError):
    """Raised when a traversal schedule violates its invariants."""


class ConfigError(ReproError):
    """Raised on invalid configuration values."""


class SimulationError(ReproError):
    """Raised by the GPU memory simulator on invalid traces or device specs."""


class CheckpointError(ConfigError):
    """Raised on unreadable, torn, or key-mismatched checkpoint archives."""


class TransientError(ReproError):
    """A retryable failure (crashed worker, flaky I/O); a retry may succeed.

    The retry helpers in :mod:`repro.resilience` treat this class (and
    ``OSError``) as the signal that re-attempting the operation is
    meaningful; every other exception propagates immediately.
    """


class FaultInjectionError(TransientError):
    """A deterministic fault raised by a :class:`repro.resilience.FaultPlan`."""


class DivergenceError(ReproError):
    """Training produced a non-finite loss and no checkpoint could absorb it."""


class ServeError(ReproError):
    """Raised by the inference-serving subsystem on invalid state or specs."""


class BenchError(ReproError):
    """Raised by the benchmark harness on malformed ledgers or bad compares.

    Covers unreadable/invalid ``BENCH_*.json`` files, schema-version or
    area mismatches between baseline and candidate, and unknown
    workload/area names.  A *regression* is not an error: ``compare``
    reports it through its exit code (1), never by raising.
    """


class ClusterError(ServeError):
    """Raised by the sharded serving cluster (``repro.cluster``).

    Covers invalid cluster configuration, routing against an empty
    replica set, and the per-request failure surface: a request whose
    retry budget is exhausted — by queue-full rejections or replica
    crashes — is reported through a :class:`ClusterError`, never
    silently dropped.
    """


class StreamError(ServeError):
    """Raised by the dynamic-graph streaming layer (``repro.stream``).

    Covers unknown named graphs, malformed delta batches, invalid
    repair policies, and divergence between a repaired schedule's edge
    set and the applied graph — the invariant the versioned-key
    invalidation protocol depends on.
    """


class QueueFullError(ServeError):
    """Admission rejected because the request queue is at capacity.

    Carries ``retry_after_s``, the server's deterministic hint for when
    capacity is expected to free; clients feed it into a
    :class:`repro.resilience.RetryPolicy` backoff instead of hammering
    the queue.
    """

    def __init__(self, message: str, retry_after_s: float = 0.0):
        super().__init__(message)
        self.retry_after_s = retry_after_s
