"""Deterministic, seeded fault injection for every recovery path.

Fault tolerance that cannot be exercised is a comment, not a feature.
A :class:`FaultPlan` makes every failure mode in this repo *drivable
from a test*: worker crashes in the preprocessing pool, corrupted cache
entries, transient I/O errors, NaN losses mid-training, and node
failures in the distributed round simulator.

Two properties make the plan usable as a test harness:

* **Determinism** — every decision is a pure function of
  ``(seed, site, coordinates)`` via SHA-256, so the same plan injects
  the same faults on every run, in every process, regardless of
  ``PYTHONHASHSEED``, worker scheduling, or retry interleaving.
* **Boundedness** — transient faults stop firing once ``attempt``
  reaches ``max_faults_per_site``, so a bounded retry loop is
  guaranteed to eventually see a clean attempt.  (Poisoned graphs are
  the deliberate exception: they fail on *every* attempt, which is what
  the pipeline's quarantine path exists for.)

Plans are plain frozen dataclasses and serialise to/from JSON, so a
failing scenario can be attached to a bug report and replayed exactly.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, field, fields
from typing import Tuple

from repro.errors import ConfigError, FaultInjectionError

#: 2**64, the denominator turning a 64-bit digest prefix into [0, 1).
_SCALE = float(1 << 64)


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, serialisable schedule of injected faults.

    Rates are probabilities in ``[0, 1]`` evaluated independently per
    site; the tuple fields pin faults to exact coordinates (epochs,
    graph indices).  The default plan injects nothing.

    Attributes
    ----------
    seed:
        Stream selector; two plans with different seeds fault different
        sites at the same rates.
    worker_crash_rate:
        Probability that a preprocessing chunk attempt dies with a
        (transient) :class:`~repro.errors.FaultInjectionError`.
    io_error_rate:
        Probability that a serial per-graph compute attempt hits a
        transient I/O-style error.
    cache_corrupt_rate:
        Probability that :func:`corrupt_cache_entry` targets a given
        key when the harness sweeps a cache.
    nan_epochs:
        Epochs whose training loss is replaced with NaN (once each) to
        exercise the trainer's divergence guard.
    poison_graphs:
        Global graph indices that fail *deterministically on every
        attempt* — the quarantine path's test vector.
    break_pool_chunk:
        Chunk index at which the process pool is declared broken,
        forcing the pipeline's degrade-to-serial path (-1 disables).
    node_failure_rate:
        Probability that a simulated device fails in a given
        aggregation round (see :mod:`repro.distributed.failures`).
    replica_failure_rate:
        Probability that a serving-cluster replica crashes at a given
        batch launch (see :mod:`repro.cluster`).  The router fails the
        replica over, so boundedness comes from the surviving replicas,
        not from ``max_faults_per_site``; with ``recover_after_s`` set
        the replica later rejoins the fleet (see
        :mod:`repro.cluster.health`).
    crash_replicas:
        Replica ids pinned to crash deterministically (the failover
        tests' precise trigger), independent of the rate.  Pinned
        crashes fire once per replica: a recovered incarnation rolls
        only against the rate.
    crash_after_batches:
        Batch-launch index at which a pinned replica crashes (0 means
        before serving anything).
    recover_after_s:
        Simulated seconds after a crash before the replica rejoins the
        fleet (cold caches, fresh engine).  Negative (the default)
        disables recovery — crashes stay permanent for the run.
    recover_jitter_s:
        Per-replica seeded spread added to ``recover_after_s`` (a
        ``roll`` keyed on the replica and its incarnation), so a
        simultaneous fleet-wide outage does not heal as a thundering
        herd.
    slow_replicas:
        Replica ids pinned as stragglers: every batch they launch is
        stretched by ``slow_factor``.
    slow_factor:
        Service-time multiplier (``>= 1``) applied to straggling
        batches — pinned replicas always, others per ``slow_rate``.
    slow_rate:
        Probability that an unpinned replica's batch launch straggles
        (rolled per ``(replica, lifetime batch)``).
    max_faults_per_site:
        Attempts ``>=`` this index never fault, bounding transient
        faults so default retry policies always recover.
    """

    seed: int = 0
    worker_crash_rate: float = 0.0
    io_error_rate: float = 0.0
    cache_corrupt_rate: float = 0.0
    nan_epochs: Tuple[int, ...] = field(default_factory=tuple)
    poison_graphs: Tuple[int, ...] = field(default_factory=tuple)
    break_pool_chunk: int = -1
    node_failure_rate: float = 0.0
    replica_failure_rate: float = 0.0
    crash_replicas: Tuple[int, ...] = field(default_factory=tuple)
    crash_after_batches: int = 0
    recover_after_s: float = -1.0
    recover_jitter_s: float = 0.0
    slow_replicas: Tuple[int, ...] = field(default_factory=tuple)
    slow_factor: float = 1.0
    slow_rate: float = 0.0
    max_faults_per_site: int = 2

    def __post_init__(self) -> None:
        for name in ("worker_crash_rate", "io_error_rate",
                     "cache_corrupt_rate", "node_failure_rate",
                     "replica_failure_rate", "slow_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {rate}")
        if self.max_faults_per_site < 0:
            raise ConfigError("max_faults_per_site must be >= 0")
        if self.crash_after_batches < 0:
            raise ConfigError("crash_after_batches must be >= 0")
        if self.slow_factor < 1.0:
            raise ConfigError(
                f"slow_factor must be >= 1, got {self.slow_factor}")
        if self.recover_jitter_s < 0.0:
            raise ConfigError(
                f"recover_jitter_s must be >= 0, got {self.recover_jitter_s}")
        # Tolerate lists from JSON round-trips.
        object.__setattr__(self, "nan_epochs", tuple(self.nan_epochs))
        object.__setattr__(self, "poison_graphs", tuple(self.poison_graphs))
        object.__setattr__(self, "crash_replicas",
                           tuple(self.crash_replicas))
        object.__setattr__(self, "slow_replicas",
                           tuple(self.slow_replicas))

    # ------------------------------------------------------------------
    # The deterministic coin
    # ------------------------------------------------------------------
    def roll(self, site: str, *coords) -> float:
        """Uniform [0, 1) draw, a pure function of (seed, site, coords)."""
        token = ":".join([str(self.seed), site] + [str(c) for c in coords])
        digest = hashlib.sha256(token.encode()).digest()
        return int.from_bytes(digest[:8], "big") / _SCALE

    def _transient(self, site: str, rate: float, attempt: int,
                   *coords) -> bool:
        if attempt >= self.max_faults_per_site:
            return False
        return self.roll(site, attempt, *coords) < rate

    # ------------------------------------------------------------------
    # Site-specific decisions
    # ------------------------------------------------------------------
    def should_crash_worker(self, chunk_index: int, attempt: int) -> bool:
        """Does preprocessing chunk ``chunk_index`` die on ``attempt``?"""
        return self._transient("worker", self.worker_crash_rate,
                               attempt, chunk_index)

    def should_io_error(self, graph_index: int, attempt: int) -> bool:
        """Does the serial compute of one graph hit transient I/O?"""
        return self._transient("io", self.io_error_rate,
                               attempt, graph_index)

    def should_corrupt_cache(self, key: str) -> bool:
        """Is cache entry ``key`` a corruption target for the harness?"""
        return self.roll("cache", key) < self.cache_corrupt_rate

    def should_break_pool(self, chunk_index: int) -> bool:
        """Does the executor break while collecting ``chunk_index``?"""
        return chunk_index == self.break_pool_chunk

    def nan_loss_at(self, epoch: int) -> bool:
        """Is ``epoch``'s training loss replaced with NaN?"""
        return epoch in self.nan_epochs

    def is_poisoned(self, graph_index: int) -> bool:
        """Does graph ``graph_index`` fail on every attempt?"""
        return graph_index in self.poison_graphs

    def node_fails(self, round_index: int, rank: int) -> bool:
        """Does device ``rank`` fail during aggregation ``round_index``?"""
        return (self.roll("node", round_index, rank)
                < self.node_failure_rate)

    def replica_fails(self, replica_id: int, batch_index: int,
                      incarnation: int = 0) -> bool:
        """Does serving replica ``replica_id`` crash when launching its
        ``batch_index``-th lifetime micro-batch?

        Pinned replicas (``crash_replicas``) crash deterministically
        once ``batch_index`` reaches ``crash_after_batches`` — but only
        in their first incarnation, so a recovered replica is not stuck
        in a pinned crash loop.  Everyone else rolls against
        ``replica_failure_rate``; ``batch_index`` counts launches
        across incarnations, so a recovered replica rolls fresh
        coordinates.  The cluster router re-routes a crashed replica's
        work; with ``recover_after_s`` set the replica later rejoins
        (see :meth:`recovery_delay`).
        """
        if (incarnation == 0 and replica_id in self.crash_replicas
                and batch_index >= self.crash_after_batches):
            return True
        return (self.roll("replica", replica_id, batch_index)
                < self.replica_failure_rate)

    @property
    def recovers(self) -> bool:
        """Do crashed serving replicas rejoin the fleet?"""
        return self.recover_after_s >= 0.0

    def recovery_delay(self, replica_id: int, incarnation: int = 0
                       ) -> float:
        """Seconds between ``replica_id``'s crash and its rejoin.

        ``recover_after_s`` plus a seeded per-``(replica, incarnation)``
        share of ``recover_jitter_s``; raises unless :attr:`recovers`.
        """
        if not self.recovers:
            raise ConfigError(
                "recovery_delay on a plan without recovery "
                "(recover_after_s < 0)")
        return (self.recover_after_s
                + self.roll("recover", replica_id, incarnation)
                * self.recover_jitter_s)

    def service_multiplier(self, replica_id: int, batch_index: int
                           ) -> float:
        """Straggler stretch for one batch launch (1.0 = healthy).

        Pinned ``slow_replicas`` straggle on every launch; others roll
        ``slow_rate`` per ``(replica, lifetime batch)``.  The cluster
        multiplies the analytic service time by the returned factor,
        which is what the per-replica circuit breaker observes.
        """
        if replica_id in self.slow_replicas:
            return self.slow_factor
        if (self.slow_rate > 0.0
                and self.roll("slow", replica_id, batch_index)
                < self.slow_rate):
            return self.slow_factor
        return 1.0

    def crash(self, site: str, *coords) -> None:
        """Raise the canonical injected (transient) fault for a site."""
        raise FaultInjectionError(
            f"injected fault at {site}"
            + (f" {coords}" if coords else ""))

    # ------------------------------------------------------------------
    # Serialisation (attach a failing scenario to a bug report)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        """A plan from a mapping of field values (a parsed JSON object).

        Raises :class:`ConfigError` on a non-mapping, an unknown field,
        or a field of the wrong type: ``int`` fields take integers,
        ``float`` fields any real number, tuple fields lists of
        integers (booleans count as none of these).
        """
        if not isinstance(data, dict):
            raise ConfigError(
                f"a FaultPlan is a JSON object, got {type(data).__name__}")
        types = {f.name: f.type for f in fields(cls)}
        unknown = set(data) - set(types)
        if unknown:
            raise ConfigError(f"unknown FaultPlan fields: {sorted(unknown)}")
        for name, value in data.items():
            if not _well_typed(value, types[name]):
                raise ConfigError(
                    f"FaultPlan field {name} must be {types[name]}, "
                    f"got {value!r}")
        return cls(**data)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid FaultPlan JSON: {exc}") from exc
        return cls.from_dict(data)


def _well_typed(value, annotation: str) -> bool:
    """Does ``value`` fit a :class:`FaultPlan` field annotated
    ``annotation`` (``"int"``, ``"float"`` or ``"Tuple[int, ...]"``)?"""
    def is_int(v) -> bool:
        return isinstance(v, int) and not isinstance(v, bool)

    if annotation == "int":
        return is_int(value)
    if annotation == "float":
        return is_int(value) or isinstance(value, float)
    return (isinstance(value, (list, tuple))
            and all(is_int(v) for v in value))


# ----------------------------------------------------------------------
# Cache-corruption harness
# ----------------------------------------------------------------------
#: Supported corruption modes, in the order the fault matrix documents
#: them (docs/resilience.md).
CORRUPTION_MODES = ("truncate", "flip", "tmp_litter", "unlink")


def corrupt_cache_entry(cache, key: str, mode: str = "flip") -> bool:
    """Deliberately damage one on-disk cache entry (test harness only).

    ``cache`` is any object with the :class:`ScheduleCache` disk layout
    (``payload_path(key)`` and a ``dir``); duck-typing keeps this
    module free of upward imports.  Returns True when damage was
    inflicted, False when the payload file does not exist.

    Modes
    -----
    ``truncate``   chop the payload in half (torn write / short read)
    ``flip``       XOR one mid-file byte (bit rot; checksum mismatch)
    ``tmp_litter`` drop a stale ``.tmp.`` sibling (killed writer)
    ``unlink``     delete the payload behind the index's back
    """
    if mode not in CORRUPTION_MODES:
        raise ConfigError(
            f"unknown corruption mode {mode!r}; one of {CORRUPTION_MODES}")
    path = cache.payload_path(key)
    if mode == "tmp_litter":
        litter = path.parent / (path.name + ".tmp.stale0000")
        litter.parent.mkdir(parents=True, exist_ok=True)
        litter.write_bytes(b"half-written payload from a killed writer")
        return True
    if not path.is_file():
        return False
    if mode == "unlink":
        os.unlink(path)
        return True
    data = bytearray(path.read_bytes())
    if mode == "truncate":
        del data[len(data) // 2:]
    else:  # flip
        data[len(data) // 2] ^= 0xFF
    path.write_bytes(bytes(data))
    return True
