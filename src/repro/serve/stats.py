"""SLO accounting for the inference server.

:class:`ServerStats` is the serving counterpart of
:class:`repro.pipeline.stats.CacheStats`: a plain dataclass of counters
and per-event records that the CLI prints after every run and that the
deterministic-replay gate compares byte-for-byte across seeded runs.
Every number in here is derived from *simulated* time and integer
counters — wall-clock never leaks in, which is what makes two runs with
the same seed produce identical JSON.

Latency percentiles use the linear-interpolation definition
(``numpy.percentile`` default) over completed-request latencies in
completion order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.core.serialize import record_dict
from repro.pipeline.stats import CacheStats


@dataclass(frozen=True)
class BatchRecord:
    """One executed micro-batch.

    Attributes
    ----------
    batch_id:
        Launch-order index (0-based).
    launch_s / service_s:
        Simulated launch time and execution duration.
    size:
        Requests in the batch.
    bucket:
        Path-length bucket the batch was drawn from.
    max_length:
        Longest path in the batch (the padded band length).
    padding_waste:
        Wasted padded-slot fraction (``repro.core.batching``).
    occupancy:
        ``size / max_batch_size`` — how full the batch was.
    schedule_misses:
        Members whose schedule had to be computed (not served from the
        schedule cache) at admission time.
    """

    batch_id: int
    launch_s: float
    service_s: float
    size: int
    bucket: int
    max_length: int
    padding_waste: float
    occupancy: float
    schedule_misses: int


class LatencyFold:
    """Latency percentiles and throughput over a run's completions.

    Shared by :class:`ServerStats` and
    :class:`repro.cluster.stats.ClusterStats`, which both carry
    ``latencies_s`` (completion order) and ``sim_duration_s``.
    """

    @property
    def served(self) -> int:
        """Requests completed with a prediction (one latency each)."""
        return len(self.latencies_s)

    def latency_percentile(self, q: float) -> float:
        """Latency percentile ``q`` in [0, 100]; 0.0 with no completions."""
        if not self.latencies_s:
            return 0.0
        return float(np.percentile(np.asarray(self.latencies_s), q))

    @property
    def p50_latency_s(self) -> float:
        return self.latency_percentile(50.0)

    @property
    def p95_latency_s(self) -> float:
        return self.latency_percentile(95.0)

    @property
    def p99_latency_s(self) -> float:
        return self.latency_percentile(99.0)

    @property
    def throughput_rps(self) -> float:
        """Served requests per simulated second."""
        if self.sim_duration_s <= 0.0:
            return 0.0
        return self.served / self.sim_duration_s


@dataclass
class ServerStats(LatencyFold):
    """Everything observable about one serving run.

    Counter identities (asserted by the backpressure tests)::

        received  == served + dropped + in_flight_at_shutdown
        attempts  == admitted + rejected
        admitted  == received + retried_admissions

    The second holds by construction: ``attempts`` (and
    ``queue_depth_samples``, one per attempt) is a read-only sum, and
    ``served`` counts ``latencies_s``.

    Attributes
    ----------
    received:
        Distinct requests the client submitted (excluding re-tries).
    admitted:
        Attempts accepted into the bounded queue.
    rejected:
        Attempts refused with retry-after (queue at capacity).
    retried:
        Re-submissions scheduled by the client's retry policy.
    dropped:
        Requests abandoned after the retry policy was exhausted.
    max_queue_depth:
        High-water mark of the bounded queue (never exceeds capacity).
    queue_depth_sum:
        Depth accumulated at every admission decision, for the mean.
    sim_duration_s:
        Simulated time of the last completion (0 when nothing served).
    latencies_s:
        Per-request simulated latency, in completion order.
    batches:
        One :class:`BatchRecord` per executed micro-batch.
    cache:
        Schedule-cache counters for this run (serve-local view of the
        PR-1 pipeline cache).
    """

    received: int = 0
    admitted: int = 0
    rejected: int = 0
    retried: int = 0
    dropped: int = 0
    max_queue_depth: int = 0
    queue_depth_sum: int = 0
    sim_duration_s: float = 0.0
    latencies_s: List[float] = field(default_factory=list)
    batches: List[BatchRecord] = field(default_factory=list)
    cache: CacheStats = field(default_factory=CacheStats)

    @property
    def attempts(self) -> int:
        """Admission attempts including client-side retries."""
        return self.admitted + self.rejected

    @property
    def queue_depth_samples(self) -> int:
        return self.attempts

    @property
    def mean_queue_depth(self) -> float:
        if self.queue_depth_samples == 0:
            return 0.0
        return self.queue_depth_sum / self.queue_depth_samples

    @property
    def mean_batch_occupancy(self) -> float:
        if not self.batches:
            return 0.0
        return float(np.mean([b.occupancy for b in self.batches]))

    @property
    def mean_padding_waste(self) -> float:
        if not self.batches:
            return 0.0
        return float(np.mean([b.padding_waste for b in self.batches]))

    @property
    def schedule_hit_rate(self) -> float:
        return self.cache.hit_rate

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def as_dict(self) -> Dict:
        """Plain-type dict (JSON-ready); the replay gate's byte surface."""
        return record_dict(self, "attempts", "served",
                           "queue_depth_samples")

    def summary_line(self) -> str:
        """One-line report for CLI output."""
        return (f"serve: {self.served}/{self.received} served "
                f"({self.rejected} rejected, {self.dropped} dropped), "
                f"{len(self.batches)} batches "
                f"(occupancy {self.mean_batch_occupancy:.2f}, "
                f"waste {self.mean_padding_waste:.2f}), "
                f"p50/p95/p99 {self.p50_latency_s * 1e3:.2f}/"
                f"{self.p95_latency_s * 1e3:.2f}/"
                f"{self.p99_latency_s * 1e3:.2f} ms, "
                f"{self.throughput_rps:.1f} req/s, "
                f"schedule-cache {self.cache.hits} hits / "
                f"{self.cache.misses} misses")
