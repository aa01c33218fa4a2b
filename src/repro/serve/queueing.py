"""Request types and the bounded admission queue.

Backpressure contract: the queue holds at most ``capacity`` requests.
An admission attempt against a full queue raises
:class:`~repro.errors.QueueFullError` carrying a deterministic
``retry_after_s`` hint (the server's estimate of when a slot frees);
well-behaved clients — the load generator, via
:class:`repro.resilience.RetryPolicy` — re-submit after that delay
instead of spinning.  The queue never silently sheds load: every
rejection is observable in :class:`~repro.serve.stats.ServerStats`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import require_int
from repro.core.path import PathRepresentation
from repro.errors import ConfigError, QueueFullError
from repro.graph.graph import Graph


@dataclass(frozen=True)
class InferenceRequest:
    """One prediction request: a graph and the client's identifiers.

    ``attempt`` counts admission attempts (0 on first submission); the
    retry loop increments it on each re-submission so fault injection
    and stats can key on it.

    Streaming requests additionally carry ``graph_name`` (the named
    graph they query — ``graph`` is then the *bound* version) and
    ``epoch`` (the named graph's monotone version the binding pinned).
    Static workloads leave both at their defaults (``None`` / ``-1``)
    and behave exactly as before.
    """

    request_id: int
    graph: Graph
    submitted_s: float = 0.0
    attempt: int = 0
    graph_name: Optional[str] = None
    epoch: int = -1

    def retry(self, at_s: float) -> "InferenceRequest":
        """The re-submission of this request at simulated time ``at_s``.

        Name and epoch travel with the retry; a streaming dispatcher
        re-binds the graph (and may re-pin a newer epoch) on the next
        arrival, since an unadmitted request holds no resolved state.
        """
        return replace(self, submitted_s=at_s, attempt=self.attempt + 1)


@dataclass(frozen=True)
class QueuedRequest:
    """A request after admission: schedule attached, awaiting a batch.

    ``path`` is the MEGA path representation resolved at admission time
    (from the schedule cache when the graph was seen before);
    ``schedule_hit`` records whether that lookup was a cache hit.
    Resolution *is* the epoch pin: everything the executor needs is
    attached here, so later deltas (and their cache invalidations)
    cannot change what an in-flight request replays.
    """

    request: InferenceRequest
    admitted_s: float
    path: PathRepresentation
    schedule_hit: bool

    @property
    def epoch(self) -> int:
        """The graph epoch pinned at admission (-1 for static graphs)."""
        return self.request.epoch

    @property
    def length(self) -> int:
        """Path length — the batcher's bucketing key."""
        return int(self.path.length)


@dataclass(frozen=True)
class InferenceResponse:
    """A completed request: prediction plus latency provenance."""

    request_id: int
    prediction: np.ndarray
    submitted_s: float
    completed_s: float
    batch_id: int
    schedule_hit: bool
    #: Graph epoch the request was pinned to at admission (-1 static).
    epoch: int = -1

    @property
    def latency_s(self) -> float:
        """Simulated submission-to-completion latency."""
        return self.completed_s - self.submitted_s


def scale_retry_after(base_s: float, alive: int, total: int) -> float:
    """Stretch a retry-after hint by the fleet's lost capacity.

    ``base_s * total / alive``: at full capacity the hint is unchanged,
    and it grows monotonically as replicas drop — a fleet at one third
    capacity tells clients to back off three times as long.  The
    cluster's brownout admission controller applies this to both
    queue-full and shed-capacity hints so the client-side
    :class:`~repro.resilience.RetryPolicy` (which takes the max of hint
    and its own backoff) naturally slows under degraded capacity.
    """
    if total < 1 or alive < 1:
        raise ConfigError(
            f"scale_retry_after needs alive >= 1 and total >= 1, "
            f"got alive={alive}, total={total}")
    if alive > total:
        raise ConfigError(
            f"alive ({alive}) cannot exceed total ({total})")
    if base_s < 0.0:
        raise ConfigError(f"base_s must be >= 0, got {base_s}")
    return base_s * (total / alive)


class BoundedRequestQueue:
    """FIFO admission queue with a hard capacity and depth accounting."""

    def __init__(self, capacity: int):
        require_int("queue capacity", capacity, minimum=1)
        self.capacity = capacity
        self._entries: List[QueuedRequest] = []
        self.max_depth = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def depth(self) -> int:
        return len(self._entries)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity

    def entries(self) -> Tuple[QueuedRequest, ...]:
        """Current queue contents in admission order (read-only view)."""
        return tuple(self._entries)

    def admit(self, entry: QueuedRequest,
              retry_after_s: float = 0.0) -> None:
        """Append ``entry`` or raise :class:`QueueFullError` with the hint."""
        if self.full:
            raise QueueFullError(
                f"queue at capacity ({self.capacity}); retry after "
                f"{retry_after_s:.4f}s", retry_after_s=retry_after_s)
        self._entries.append(entry)
        self.max_depth = max(self.max_depth, len(self._entries))

    def remove(self, batch: Sequence[QueuedRequest]) -> None:
        """Dequeue the entries a launched batch consumed."""
        taken = {id(e) for e in batch}
        kept = [e for e in self._entries if id(e) not in taken]
        if len(kept) != len(self._entries) - len(batch):
            raise ConfigError(
                "batch contains entries that are not queued")
        self._entries = kept
