"""Persistent, content-addressed store for traversal schedules.

Layout on disk (everything lives under one cache directory)::

    <cache_dir>/
      index.json          key -> {size, sha256, last_used}
      <key>.npz           TraversalResult arrays (the schedule only)

Guarantees
----------
* **Atomic writes** — payloads and the index go through
  :func:`repro.core.atomic_io.atomic_write_bytes` (temporary sibling +
  ``os.replace``), so readers never observe a half-written file and a
  crash mid-write leaves the previous state.
* **Corruption is a miss, never a crash** — every read re-hashes the
  file and compares against the recorded checksum; mismatches,
  unreadable archives, and payload-version drift all delete the entry,
  count an invalidation (split into ``corrupt_checksum`` /
  ``corrupt_payload`` in :class:`CacheStats`), and fall back to
  recomputation.
* **Crash recovery** — opening a cache sweeps ``.tmp.`` litter left by
  writers killed mid-write (counted as ``stale_tmp``); a deleted cache
  directory mid-run degrades to all-miss behaviour and is recreated on
  the next write.
* **Bounded size** — with ``max_bytes`` set, least-recently-used
  entries are evicted after each write (LRU order comes from a logical
  clock in the index, so behaviour is deterministic).

The cache is safe for concurrent *readers*; concurrent writers do not
corrupt payloads (atomic rename) but may lose index bookkeeping to the
last writer.  The pipeline therefore funnels all writes through the
parent process.
"""

from __future__ import annotations

import io
import json
import os
from pathlib import Path
from typing import Dict, Optional, Union

import numpy as np

from repro.core.atomic_io import atomic_write_bytes, sweep_stale_tmp
from repro.core.schedule import TraversalResult
from repro.pipeline.hashing import CACHE_FORMAT_VERSION, file_checksum
from repro.pipeline.stats import CacheStats

_INDEX_NAME = "index.json"
_INDEX_VERSION = 1


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` or ``~/.cache/repro/schedules``."""
    # Deliberate impurity: the env var picks where the cache *lives*;
    # it never reaches a cache key.
    env = os.environ.get("REPRO_CACHE_DIR")  # megalint: sanctioned-impurity=env: selects the cache directory, never enters a cache key
    if env:
        return Path(env).expanduser()
    return Path("~/.cache/repro/schedules").expanduser()


# ----------------------------------------------------------------------
# Payload packing: schedule  <->  flat dict of arrays
#
# Exactly three archive members — per-member zipfile overhead dominates
# the warm-path read, so the int64 payloads are concatenated into one
# array with section lengths recorded in the meta header.  Only the
# schedule is stored: every plan is a cheap view of the materialised
# path representation's band.
# ----------------------------------------------------------------------
def pack_entry(result: TraversalResult) -> Dict[str, np.ndarray]:
    """Flatten one schedule into .npz-ready arrays."""
    cover = np.asarray(
        [[u, v, i, j] for (u, v), (i, j)
         in sorted(result.cover_positions.items())],
        dtype=np.int64).reshape(-1, 4)
    path = np.asarray(result.path, np.int64)
    meta = np.asarray(
        [CACHE_FORMAT_VERSION,
         result.window, result.covered_edges, result.total_edges,
         result.num_jumps, len(path), len(cover)],
        np.int64)
    return {"meta": meta,
            "ints": np.concatenate([path, cover.ravel()]),
            "flags": np.asarray(result.virtual_mask, np.int8)}


def unpack_entry(arrays) -> TraversalResult:
    """Inverse of :func:`pack_entry`; raises on version/shape drift."""
    meta = np.asarray(arrays["meta"]).ravel()
    if len(meta) != 7 or int(meta[0]) != CACHE_FORMAT_VERSION:
        raise ValueError(f"cache payload header {meta.tolist()}, "
                         f"expected version {CACHE_FORMAT_VERSION}")
    window, covered, total, jumps, n_path, n_cover = \
        (int(x) for x in meta[1:])
    ints = np.asarray(arrays["ints"], np.int64)
    flags = np.asarray(arrays["flags"], np.int8)
    if len(ints) != n_path + 4 * n_cover or len(flags) != n_path:
        raise ValueError("cache payload section lengths disagree")
    cover = ints[n_path:].reshape(-1, 4)
    return TraversalResult(
        path=ints[:n_path].copy(),
        virtual_mask=flags.astype(bool),
        cover_positions={(int(u), int(v)): (int(i), int(j))
                         for u, v, i, j in cover},
        window=window, covered_edges=covered,
        total_edges=total, num_jumps=jumps)


# ----------------------------------------------------------------------
class ScheduleCache:
    """On-disk schedule store addressed by content hash.

    ``get(key)`` / ``put(key, schedule)`` is the schedule-tier protocol
    of :class:`repro.serve.server.ScheduleStore`, so the cache plugs in
    as a tier as it is.

    Parameters
    ----------
    cache_dir:
        Directory for payloads and the index (created on demand).
    max_bytes:
        LRU size cap over payload bytes; ``None`` disables eviction.
    """

    def __init__(self, cache_dir: Union[str, Path, None] = None,
                 max_bytes: Optional[int] = None):
        self.dir = Path(cache_dir) if cache_dir else default_cache_dir()
        self.max_bytes = max_bytes
        self.stats = CacheStats()
        self._index: Dict[str, dict] = {}
        self._clock = 0
        self._dirty = False
        self._load_index()
        # Crash recovery: a writer killed mid-write leaves `.tmp.`
        # litter next to intact payloads.  Single-writer discipline
        # makes opening the cache a safe moment to sweep it.
        self.stats.stale_tmp += sweep_stale_tmp(self.dir)

    # ------------------------------------------------------------------
    # Index handling
    # ------------------------------------------------------------------
    def _index_path(self) -> Path:
        return self.dir / _INDEX_NAME

    def _load_index(self) -> None:
        try:
            with open(self._index_path()) as handle:
                data = json.load(handle)
            if data.get("version") != _INDEX_VERSION:
                raise ValueError("index version drift")
            self._index = dict(data.get("entries", {}))
            self._clock = int(data.get("clock", 0))
        except (OSError, ValueError, TypeError, json.JSONDecodeError):
            # Missing or unreadable index: start empty.  Payload files
            # already on disk are re-adopted lazily by `get`.
            self._index = {}
            self._clock = 0

    def flush(self) -> None:
        """Persist the index (atomic tmp + rename); no-op when clean."""
        if not self._dirty:
            return
        self.dir.mkdir(parents=True, exist_ok=True)
        payload = json.dumps({
            "version": _INDEX_VERSION,
            "clock": self._clock,
            "entries": self._index,
        })
        self._atomic_write(self._index_path(), payload.encode())
        self._dirty = False

    def _atomic_write(self, dest: Path, data: bytes) -> None:
        # fsync=False: entries are recomputable, so losing the newest
        # writes to a power failure is acceptable; torn files are not.
        atomic_write_bytes(dest, data, fsync=False)

    def _touch(self, key: str) -> None:
        self._clock += 1
        self._index[key]["last_used"] = self._clock
        self._dirty = True

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def payload_path(self, key: str) -> Path:
        """On-disk location of one entry's ``.npz`` payload.

        Public so the fault-injection harness
        (:func:`repro.resilience.corrupt_cache_entry`) and tests can
        target entries without relying on layout internals.
        """
        return self.dir / f"{key}.npz"

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, key: str) -> bool:
        return key in self._index or self.payload_path(key).exists()

    @property
    def total_bytes(self) -> int:
        """Sum of indexed payload sizes."""
        return sum(int(e.get("size", 0)) for e in self._index.values())

    def get(self, key: str) -> Optional[TraversalResult]:
        """Fetch and verify one entry; ``None`` on miss or corruption."""
        path = self.payload_path(key)
        entry = self._index.get(key)
        try:
            data = path.read_bytes()
        except OSError:
            if entry is not None:  # indexed but file vanished
                del self._index[key]
                self._dirty = True
                self.stats.invalidations += 1
            self.stats.misses += 1
            return None
        if entry is not None and file_checksum(data) != entry.get("sha256"):
            self._invalidate(key)
            self.stats.corrupt_checksum += 1
            self.stats.misses += 1
            return None
        try:
            with np.load(io.BytesIO(data)) as archive:
                unpacked = unpack_entry(archive)
        except Exception:
            # Truncated zip, missing arrays, version drift, bad shapes.
            self._invalidate(key)
            self.stats.corrupt_payload += 1
            self.stats.misses += 1
            return None
        if entry is None:
            # Orphan payload (index lost or written by another process):
            # adopt it now that it decoded cleanly.
            self._index[key] = {"size": len(data),
                                "sha256": file_checksum(data),
                                "last_used": 0}
        self._touch(key)
        self.stats.hits += 1
        return unpacked

    def put(self, key: str, result: TraversalResult,
            flush: bool = True) -> None:
        """Write one entry atomically, then enforce the size cap.

        ``flush=False`` defers the index write — batch writers (the
        pipeline) flush once at the end instead of rewriting the index
        per entry.  Payloads are durable either way; an unflushed index
        only costs a re-adoption on the next ``get``.
        """
        buffer = io.BytesIO()
        # Uncompressed: entries are small index arrays and the warm-path
        # read cost is what the cache exists to minimise.
        np.savez(buffer, **pack_entry(result))
        data = buffer.getvalue()
        self._atomic_write(self.payload_path(key), data)
        self._index[key] = {"size": len(data),
                            "sha256": file_checksum(data),
                            "last_used": 0}
        self._touch(key)
        self.stats.puts += 1
        self._evict_over_cap()
        if flush:
            self.flush()

    def invalidate(self, key: str, flush: bool = True) -> bool:
        """Evict one entry by key; True if anything was removed.

        The keyed-eviction half of the streaming layer's versioned-key
        protocol: when a graph's content key changes (an applied delta
        bumped its epoch), the *old* key's entry is dead weight — it can
        never be requested again, so it is removed eagerly instead of
        aging out through the LRU cap.  Orphan payloads (on disk but not
        indexed — a lost index, or litter from another process) are
        unlinked too, so an invalidate is final either way.  Counted as
        ``explicit_invalidations``, never as a miss.
        """
        indexed = key in self._index
        orphan = not indexed and self.payload_path(key).exists()
        if not indexed and not orphan:
            return False
        self._remove(key)
        self.stats.explicit_invalidations += 1
        if flush:
            self.flush()
        return True

    def _evict_over_cap(self) -> None:
        if self.max_bytes is None:
            return
        while self.total_bytes > self.max_bytes and len(self._index) > 1:
            victim = min(self._index,
                         key=lambda k: self._index[k]["last_used"])
            self._remove(victim)
            self.stats.evictions += 1

    def _invalidate(self, key: str) -> None:
        self._remove(key)
        self.stats.invalidations += 1

    def _remove(self, key: str) -> None:
        self._index.pop(key, None)
        self._dirty = True
        try:
            os.unlink(self.payload_path(key))
        except OSError:
            pass

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        keys = list(self._index)
        for key in keys:
            self._remove(key)
        self.flush()
        return len(keys)
