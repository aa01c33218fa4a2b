"""Counters for the preprocessing pipeline.

Cache behaviour is part of the pipeline's observable contract — the CLI
prints these counters after every ``preprocess``/``train``/``compare``
run so a cold run (all misses) and a warm run (all hits) are
distinguishable without profiling.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import List


class Counters:
    """``merge`` and ``as_dict`` for a dataclass of integer counters.

    Both are generated from the dataclass fields, in field order, so
    adding a counter is a one-line change.
    """

    def merge(self, other):
        """Elementwise sum (accumulating across splits, runs or replicas)."""
        return type(self)(**{f.name: getattr(self, f.name)
                             + getattr(other, f.name) for f in fields(self)})

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass
class CacheStats(Counters):
    """Hit/miss/invalidation accounting for one :class:`ScheduleCache`.

    Attributes
    ----------
    hits:
        Entries served from disk with a verified checksum.
    misses:
        Keys not present in the cache (schedule had to be computed).
    invalidations:
        Entries that existed but were discarded — checksum mismatch,
        unreadable archive, or payload-version drift.  Each invalidation
        also counts as a miss (the schedule is recomputed).
    explicit_invalidations:
        Entries evicted through :meth:`~repro.pipeline.cache
        .ScheduleCache.invalidate` — keyed eviction requested by a
        caller (the streaming layer's versioned-key protocol), not
        corruption.  Never counts as a miss: nobody asked to read the
        entry.
    corrupt_checksum:
        Invalidations whose cause was a checksum mismatch against the
        index (bit rot, torn write under the real name).
    corrupt_payload:
        Invalidations whose cause was an undecodable/mis-shaped archive
        (truncated zip, version drift, section-length disagreement).
    stale_tmp:
        ``.tmp.`` litter from killed writers removed by the startup
        crash-recovery sweep.
    evictions:
        Entries removed by the LRU size cap.
    puts:
        Entries written.
    """

    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    explicit_invalidations: int = 0
    corrupt_checksum: int = 0
    corrupt_payload: int = 0
    stale_tmp: int = 0
    evictions: int = 0
    puts: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


@dataclass(frozen=True)
class QuarantineRecord:
    """One graph the pipeline gave up on (after bounded retries).

    ``index`` is the position in the input graph list; ``error`` the
    ``repr`` of the final exception.  Quarantined slots surface as
    ``None`` in :class:`~repro.pipeline.parallel.PipelineResult` so one
    pathological graph cannot kill a thousand-graph batch silently.
    """

    index: int
    error: str


@dataclass
class PipelineStats:
    """One pipeline run: cache counters plus wall-clock accounting.

    ``compute_s`` is the time spent inside Algorithm 1 (inline or across
    workers); ``total_s`` additionally includes cache probing, payload
    (de)serialisation and result materialisation.  ``retries`` counts
    re-attempted chunk/graph computations, ``degraded_to_serial``
    records a dead executor mid-run, and ``quarantined`` lists the
    graphs that failed even after retries.
    """

    cache: CacheStats = field(default_factory=CacheStats)
    num_graphs: int = 0
    computed: int = 0
    from_cache: int = 0
    deduplicated: int = 0
    workers: int = 1
    compute_s: float = 0.0
    total_s: float = 0.0
    retries: int = 0
    degraded_to_serial: bool = False
    quarantined: List[QuarantineRecord] = field(default_factory=list)

    def summary_line(self) -> str:
        """One-line report for CLI output."""
        cached = "off" if self.cache.lookups == 0 and self.from_cache == 0 \
            else (f"{self.cache.hits} hits / {self.cache.misses} misses"
                  + (f" / {self.cache.invalidations} invalidated"
                     if self.cache.invalidations else ""))
        line = (f"pipeline: {self.num_graphs} graphs, "
                f"{self.computed} computed ({self.workers} workers), "
                f"cache {cached}, {self.total_s:.2f}s")
        if self.cache.stale_tmp:
            line += (f", swept {self.cache.stale_tmp} stale tmp "
                     f"file(s)")
        if self.retries:
            line += f", {self.retries} retried"
        if self.degraded_to_serial:
            line += ", DEGRADED to serial (dead executor)"
        if self.quarantined:
            idx = ", ".join(str(q.index) for q in self.quarantined)
            line += (f", QUARANTINED {len(self.quarantined)} "
                     f"graph(s) [{idx}]")
        return line
