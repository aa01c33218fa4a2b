"""Persistent, content-addressed store for traversal schedules.

Layout on disk (everything lives under one cache directory)::

    <cache_dir>/
      index.json          key -> {size, sha256, last_used}
      <key>.npz           one flat payload: the schedule only (see
                          encode_entry; the suffix predates the layout)

Guarantees
----------
* **Atomic writes** — payloads and the index go through
  :func:`repro.core.atomic_io.atomic_write_bytes` (temporary sibling +
  ``os.replace``), so readers never observe a half-written file and a
  crash mid-write leaves the previous state.
* **Corruption is a miss, never a crash** — every read re-hashes the
  file and compares against the recorded checksum; mismatches,
  payloads that fail to decode, and payload-version drift all delete
  the entry, count an invalidation (split into ``corrupt_checksum`` /
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

import json
import os
import zlib
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
# Payload codec: schedule  <->  one flat little-endian byte string
#
#   header   7 x int64   version, window, covered, total, jumps,
#                        n_path, n_cover
#   path     n_path x int64
#   cover    n_cover x 4 x int64   (u, v, i, j), sorted by edge key
#   mask     n_path x int8         virtual_mask
#   crc      1 x uint32            zlib.crc32 of everything before it
#
# Only the schedule is stored: the path representation's band and every
# plan are rebuilt from it when the payload is read.  The trailer guards
# orphan payloads, which are adopted without an index checksum to compare.
# ----------------------------------------------------------------------
_INT = np.dtype("<i8")
_HEADER_WORDS = 7
_HEADER_BYTES = _HEADER_WORDS * _INT.itemsize
_CRC_BYTES = 4


def encode_entry(result: TraversalResult) -> bytes:
    """One schedule as a flat cache payload."""
    cover = np.asarray(
        [(u, v, i, j) for (u, v), (i, j)
         in sorted(result.cover_positions.items())],
        dtype=_INT).reshape(-1, 4)
    path = np.asarray(result.path, _INT)
    header = np.asarray(
        [CACHE_FORMAT_VERSION,
         result.window, result.covered_edges, result.total_edges,
         result.num_jumps, len(path), len(cover)], _INT)
    body = b"".join([header.tobytes(), path.tobytes(), cover.tobytes(),
                     np.asarray(result.virtual_mask, np.int8).tobytes()])
    return body + zlib.crc32(body).to_bytes(_CRC_BYTES, "little")


def decode_entry(data: bytes) -> TraversalResult:
    """Inverse of :func:`encode_entry`; ``ValueError`` on any drift.

    The version, both section lengths, the exact total length and the
    checksum must all agree.  The arrays returned are owned copies.
    """
    if len(data) < _HEADER_BYTES + _CRC_BYTES:
        raise ValueError(f"cache payload of {len(data)} bytes is shorter "
                         "than its header")
    version, window, covered, total, jumps, n_path, n_cover = \
        np.frombuffer(data, _INT, _HEADER_WORDS).tolist()
    if version != CACHE_FORMAT_VERSION:
        raise ValueError(f"cache payload version {version}, "
                         f"expected {CACHE_FORMAT_VERSION}")
    if n_path < 0 or n_cover < 0:
        raise ValueError(f"cache payload section lengths {n_path}, "
                         f"{n_cover}")
    n_ints = n_path + 4 * n_cover
    size = _HEADER_BYTES + n_ints * _INT.itemsize + n_path + _CRC_BYTES
    if len(data) != size:
        raise ValueError(f"cache payload of {len(data)} bytes, header "
                         f"says {size}")
    if zlib.crc32(data[:-_CRC_BYTES]) != \
            int.from_bytes(data[-_CRC_BYTES:], "little"):
        raise ValueError("cache payload checksum mismatch")
    ints = np.frombuffer(data, _INT, n_ints, _HEADER_BYTES)
    flags = np.frombuffer(data, np.int8, n_path,
                          _HEADER_BYTES + n_ints * _INT.itemsize)
    return TraversalResult(
        path=ints[:n_path].astype(np.int64),
        virtual_mask=flags.astype(bool),
        cover_positions={(u, v): (i, j) for u, v, i, j
                         in ints[n_path:].reshape(-1, 4).tolist()},
        window=window, covered_edges=covered,
        total_edges=total, num_jumps=jumps)


# ----------------------------------------------------------------------
class ScheduleCache:
    """On-disk schedule store addressed by content hash.

    The one store that keeps the bare :class:`TraversalResult`: every
    in-memory tier holds the path representation itself.  The serving
    resolver reaches it through :class:`repro.serve.server.DiskTier`.

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
        """On-disk location of one entry's payload.

        The ``.npz`` suffix is kept from the zip-archive layout, so a
        payload an older tree left behind is found, rejected by the
        version check and overwritten rather than orphaned.

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
            unpacked = decode_entry(data)
        except ValueError:
            # Truncation, version drift, bad lengths, flipped bytes.
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
        data = encode_entry(result)
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
