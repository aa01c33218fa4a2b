"""Dynamic micro-batching: group queued requests by path-length bucket.

The MEGA runtime pads every batch member's band tensor to the longest
path in the batch (``repro.core.batching``), so mixing short and long
paths wastes padded slots.  The micro-batcher therefore buckets queued
requests by ``path_length // bucket_width`` and only batches within a
bucket, so a queue that fills online still pads each launch to a
near-common length.

Launch policy (all decisions pure functions of queue state + simulated
time, so replays are exact):

* a bucket is **ripe** when it holds ``max_batch_size`` requests, when
  its oldest member has waited ``max_wait_s``, or when the server is
  draining (no arrivals left — nothing to wait for);
* among ripe buckets the one with the *oldest* member launches first
  (ties broken by lower bucket id), taking up to ``max_batch_size``
  members in admission order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.batching import padding_waste
from repro.core.config import require_finite, require_int
from repro.serve.queueing import QueuedRequest


@dataclass(frozen=True)
class BatchingPolicy:
    """Knobs of the dynamic micro-batcher.

    Attributes
    ----------
    max_batch_size:
        Upper bound on requests per executed batch.
    max_wait_s:
        Longest a queued request may wait before its bucket is flushed
        even when under-full (the latency/occupancy trade-off).
    bucket_width:
        Path-length bucket granularity; requests batch together only
        when ``length // bucket_width`` matches.
    """

    max_batch_size: int = 8
    max_wait_s: float = 0.02
    bucket_width: int = 16

    def __post_init__(self) -> None:
        require_int("max_batch_size", self.max_batch_size, minimum=1)
        require_finite("max_wait_s", self.max_wait_s, minimum=0)
        require_int("bucket_width", self.bucket_width, minimum=1)

    def bucket_of(self, length: int) -> int:
        """Bucket id of a path length."""
        return int(length) // self.bucket_width


@dataclass(frozen=True)
class BatchPlan:
    """One batch the batcher decided to launch."""

    entries: Sequence[QueuedRequest]
    bucket: int

    @property
    def size(self) -> int:
        return len(self.entries)

    @property
    def lengths(self) -> List[int]:
        return [e.length for e in self.entries]

    @property
    def max_length(self) -> int:
        return max(self.lengths) if self.entries else 0

    @property
    def waste(self) -> float:
        """Padded-slot waste of this batch (0 for equal lengths)."""
        return padding_waste(self.lengths)

    @property
    def schedule_misses(self) -> int:
        return sum(1 for e in self.entries if not e.schedule_hit)


@dataclass
class MicroBatcher:
    """Stateless launch decisions over the queue's current contents."""

    policy: BatchingPolicy = field(default_factory=BatchingPolicy)

    def _buckets(self, entries: Sequence[QueuedRequest]
                 ) -> Dict[int, List[QueuedRequest]]:
        buckets: Dict[int, List[QueuedRequest]] = {}
        for entry in entries:
            buckets.setdefault(self.policy.bucket_of(entry.length),
                               []).append(entry)
        return buckets

    def select(self, entries: Sequence[QueuedRequest], now_s: float,
               draining: bool = False) -> Optional[BatchPlan]:
        """The batch to launch at ``now_s``, or ``None`` to keep waiting.

        ``draining`` marks the no-more-arrivals regime in which every
        non-empty bucket is ripe (waiting cannot improve occupancy).
        """
        pol = self.policy
        ripe: List[tuple] = []
        for bucket_id, members in self._buckets(entries).items():
            oldest = min(m.admitted_s for m in members)
            # `oldest + max_wait_s` mirrors next_deadline() exactly so a
            # clock advanced *to* the deadline always finds the bucket
            # ripe (a subtraction here could miss by one float ulp and
            # stall the event loop).
            if (draining or len(members) >= pol.max_batch_size
                    or now_s >= oldest + pol.max_wait_s):
                ripe.append((oldest, bucket_id, members))
        if not ripe:
            return None
        oldest, bucket_id, members = min(ripe, key=lambda r: (r[0], r[1]))
        return BatchPlan(entries=tuple(members[:pol.max_batch_size]),
                         bucket=bucket_id)

    def next_deadline(self, entries: Sequence[QueuedRequest]
                      ) -> Optional[float]:
        """Earliest time a currently-queued request forces a flush."""
        if not entries:
            return None
        return min(e.admitted_s for e in entries) + self.policy.max_wait_s
