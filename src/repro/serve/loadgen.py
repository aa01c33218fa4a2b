"""Seeded load generation: deterministic Poisson and bursty arrivals.

Load tests must replay exactly — same seed, same arrival times, same
graphs, same byte-identical :class:`~repro.serve.stats.ServerStats`.
All randomness therefore goes through
:meth:`repro.resilience.FaultPlan.roll`, the SHA-256 uniform draw that
already drives fault injection: every draw is a pure function of
``(seed, site, coordinates)``, independent of ``PYTHONHASHSEED``,
platform, or call order.  No ``random`` or RNG object appears anywhere
in the hot path.

Two arrival processes:

* ``"poisson"`` — i.i.d. exponential inter-arrival times at
  ``rate_rps`` (inverse-CDF transform of the uniform roll);
* ``"bursty"`` — the same transform with the rate modulated in
  alternating blocks of ``burst_len`` requests: bursts arrive at
  ``rate_rps * burst_factor``, lulls at ``rate_rps / burst_factor``.
  Mean load matches Poisson but the peaks are what backpressure tests
  need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

from repro.errors import ConfigError
from repro.graph.graph import Graph
from repro.resilience import FaultPlan
from repro.serve.queueing import InferenceRequest

ARRIVAL_PROCESSES = ("poisson", "bursty")


def check_rate(rate_rps: float) -> None:
    """Raise :class:`ConfigError` unless ``rate_rps`` is finite and > 0.

    Zero divides by zero in the inter-arrival gap, a negative rate
    submits requests at negative times, infinity collapses every
    arrival onto one instant and NaN poisons the clock.
    """
    if not (math.isfinite(rate_rps) and rate_rps > 0.0):
        raise ConfigError(f"rate must be finite and > 0, got {rate_rps!r}")


@dataclass(frozen=True)
class ArrivalProcess:
    """A seeded arrival-time generator."""

    kind: str = "poisson"
    rate_rps: float = 200.0
    seed: int = 0
    burst_factor: float = 6.0
    burst_len: int = 16

    def __post_init__(self) -> None:
        if self.kind not in ARRIVAL_PROCESSES:
            raise ConfigError(
                f"unknown arrival process {self.kind!r}; "
                f"one of {ARRIVAL_PROCESSES}")
        check_rate(self.rate_rps)
        if self.burst_factor < 1.0:
            raise ConfigError(
                f"burst_factor must be >= 1, got {self.burst_factor}")
        if self.burst_len < 1:
            raise ConfigError(
                f"burst_len must be >= 1, got {self.burst_len}")

    def _roll(self, site: str, *coords) -> float:
        return FaultPlan(seed=self.seed).roll(site, *coords)

    def rate_at(self, index: int) -> float:
        """Instantaneous rate for request ``index`` (burst modulation)."""
        if self.kind == "poisson":
            return self.rate_rps
        in_burst = (index // self.burst_len) % 2 == 0
        return (self.rate_rps * self.burst_factor if in_burst
                else self.rate_rps / self.burst_factor)

    def interarrival_s(self, index: int) -> float:
        """Gap before request ``index`` (exponential inverse-CDF)."""
        u = self._roll("arrival", index)
        # u is in [0, 1); 1-u is in (0, 1], so the log is finite.
        return -math.log(1.0 - u) / self.rate_at(index)

    def arrival_times(self, num_requests: int) -> List[float]:
        """Cumulative arrival timestamps for ``num_requests`` requests."""
        times: List[float] = []
        t = 0.0
        for i in range(num_requests):
            t += self.interarrival_s(i)
            times.append(t)
        return times

    def pick_index(self, index: int, pool_size: int) -> int:
        """Which pool graph request ``index`` queries (uniform roll)."""
        if pool_size < 1:
            raise ConfigError("pool_size must be >= 1")
        return min(int(self._roll("pick", index) * pool_size),
                   pool_size - 1)


def generate_requests(pool: Sequence[Graph], num_requests: int,
                      process: ArrivalProcess) -> List[InferenceRequest]:
    """A deterministic request stream over a pool of known graphs.

    The pool is typically smaller than the stream, so graphs repeat —
    exactly the regime where the schedule cache pays: every repeat skips
    path traversal entirely.
    """
    pool = list(pool)
    if not pool:
        raise ConfigError("request pool must hold at least one graph")
    if num_requests < 0:
        raise ConfigError(
            f"num_requests must be >= 0, got {num_requests}")
    times = process.arrival_times(num_requests)
    return [InferenceRequest(
        request_id=i, graph=pool[process.pick_index(i, len(pool))],
        submitted_s=times[i]) for i in range(num_requests)]
