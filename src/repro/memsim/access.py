"""Memory-access traces: the bridge from kernels to the cache model.

A kernel's memory behaviour is described as a sequence of *row accesses*
into named regions (node-feature matrix, edge-feature matrix, path
buffer, weights...).  :class:`MemoryLayout` assigns each region a base
address; :class:`AccessTrace` expands row accesses into the aligned
sector addresses the cache model consumes.

The crucial property: traces are built from the *actual index arrays*
the algorithms use (CSR neighbour lists, band plans), so coalescing and
locality are consequences of the algorithm, not assumptions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.errors import SimulationError


class MemoryLayout:
    """Allocator assigning disjoint address ranges to named regions."""

    _ALIGN = 256

    def __init__(self) -> None:
        self._regions: Dict[str, Tuple[int, int]] = {}
        self._next = 0

    def allocate(self, name: str, nbytes: int) -> int:
        """Reserve ``nbytes`` for ``name``; returns the base address."""
        if nbytes < 0:
            raise SimulationError(f"negative allocation for {name!r}")
        if name in self._regions:
            raise SimulationError(f"region {name!r} already allocated")
        base = self._next
        size = int(np.ceil(max(nbytes, 1) / self._ALIGN)) * self._ALIGN
        self._regions[name] = (base, size)
        self._next += size
        return base

    def base(self, name: str) -> int:
        if name not in self._regions:
            raise SimulationError(f"unknown region {name!r}")
        return self._regions[name][0]

    def size(self, name: str) -> int:
        if name not in self._regions:
            raise SimulationError(f"unknown region {name!r}")
        return self._regions[name][1]

    @property
    def total_bytes(self) -> int:
        return self._next


@dataclass
class AccessTrace:
    """An ordered list of (address, nbytes) row accesses."""

    addresses: np.ndarray   # int64 byte addresses
    lengths: np.ndarray     # int64 byte lengths

    def __post_init__(self) -> None:
        self.addresses = np.asarray(self.addresses, dtype=np.int64)
        self.lengths = np.asarray(self.lengths, dtype=np.int64)
        if self.addresses.shape != self.lengths.shape:
            raise SimulationError("addresses and lengths must align")

    @property
    def num_accesses(self) -> int:
        return int(len(self.addresses))

    @property
    def total_bytes(self) -> int:
        return int(self.lengths.sum())

    def _sector_span(self, sector_bytes: int) -> Tuple[np.ndarray, np.ndarray]:
        """Per row: the first sector index and the number of sectors."""
        if sector_bytes <= 0:
            raise SimulationError("sector_bytes must be positive")
        first = self.addresses // sector_bytes
        last = (self.addresses + np.maximum(self.lengths, 1) - 1) // sector_bytes
        return first, last - first + 1

    def sector_counts(self, sector_bytes: int) -> np.ndarray:
        """Number of sectors each row access touches."""
        return self._sector_span(sector_bytes)[1]

    def sector_addresses(self, sector_bytes: int) -> np.ndarray:
        """Expand row accesses into aligned sector addresses, in order.

        Consecutive rows that fall in the same sector deduplicate at the
        cache (as hits); alignment itself models the transaction
        granularity: a 4-byte touch still moves a whole sector.
        """
        first, counts = self._sector_span(sector_bytes)
        if self.num_accesses == 0:
            return np.array([], dtype=np.int64)
        total = int(counts.sum())
        # repeat + cumulative offsets trick: sector index within each row
        row_starts = np.repeat(first, counts)
        offsets = np.arange(total) - np.repeat(
            np.concatenate([[0], np.cumsum(counts)[:-1]]), counts)
        return (row_starts + offsets) * sector_bytes

    @staticmethod
    def concatenate(traces: List["AccessTrace"]) -> "AccessTrace":
        traces = [t for t in traces if t.num_accesses]
        if not traces:
            return AccessTrace(np.array([], np.int64), np.array([], np.int64))
        return AccessTrace(
            np.concatenate([t.addresses for t in traces]),
            np.concatenate([t.lengths for t in traces]))


def row_gather_trace(base: int, row_indices: np.ndarray,
                     row_bytes: int) -> AccessTrace:
    """Trace for fetching rows ``row_indices`` of a matrix at ``base``.

    The order of ``row_indices`` is the order the kernel touches memory;
    scattered indices produce the irregular pattern the paper profiles,
    sorted/sequential indices produce the regularised one.
    """
    row_indices = np.asarray(row_indices, dtype=np.int64)
    addresses = base + row_indices * row_bytes
    lengths = np.full(len(row_indices), row_bytes, dtype=np.int64)
    return AccessTrace(addresses, lengths)


def sequential_trace(base: int, nbytes: int,
                     chunk_bytes: int = 4096) -> AccessTrace:
    """Trace for streaming a region start-to-end (dense kernels)."""
    if nbytes <= 0:
        return AccessTrace(np.array([], np.int64), np.array([], np.int64))
    starts = np.arange(0, nbytes, chunk_bytes, dtype=np.int64)
    lengths = np.minimum(chunk_bytes, nbytes - starts)
    return AccessTrace(base + starts, lengths)
