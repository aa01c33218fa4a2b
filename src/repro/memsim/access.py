"""Memory-access traces: the bridge from kernels to the cache model.

A kernel's memory behaviour is described as a sequence of *row accesses*
into named regions (node-feature matrix, edge-feature matrix, path
buffer, weights...).  :class:`MemoryLayout` assigns each region a base
address; :class:`AccessTrace` holds the row accesses and
:func:`sector_lines` expands any number of traces into the aligned
sectors the cache model consumes, in one vectorised step.

A trace keeps the parts it was built from: :class:`Sweep`, a region
streamed start to end in fixed-size rows (every dense kernel), and
:class:`Rows`, explicit rows.  A sweep holds three integers and no
array, concatenating traces joins their parts, and an aligned sweep
expands as one run of consecutive sectors; ``addresses`` and
``lengths`` are built only when read.

The crucial property: traces are built from the *actual index arrays*
the algorithms use (CSR neighbour lists, band plans), so coalescing and
locality are consequences of the algorithm, not assumptions.
"""

from __future__ import annotations

import operator
from typing import Dict, List, NamedTuple, Sequence, Tuple

import numpy as np

from repro.errors import SimulationError


class MemoryLayout:
    """Allocator assigning disjoint address ranges to named regions."""

    _ALIGN = 256

    def __init__(self) -> None:
        self._regions: Dict[str, Tuple[int, int]] = {}
        self._next = 0
        self._sweeps: Dict[Tuple[str, int], "AccessTrace"] = {}

    def allocate(self, name: str, nbytes: int) -> int:
        """Reserve ``nbytes`` for ``name``; returns the base address."""
        if nbytes < 0:
            raise SimulationError(f"negative allocation for {name!r}")
        if name in self._regions:
            raise SimulationError(f"region {name!r} already allocated")
        base = self._next
        size = int(-(-max(nbytes, 1) // self._ALIGN)) * self._ALIGN
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

    def sweep(self, name: str, nbytes: int) -> "AccessTrace":
        """The first ``nbytes`` of region ``name``, streamed start to end.

        One trace object per region and size, shared by every kernel of
        the layout that streams it.
        """
        key = (name, nbytes)
        trace = self._sweeps.get(key)
        if trace is None:
            trace = self._sweeps[key] = sequential_trace(self.base(name),
                                                         nbytes)
        return trace


class Sweep(NamedTuple):
    """A region streamed start to end in ``chunk``-byte rows."""

    base: int
    nbytes: int
    chunk: int

    def rows(self) -> Tuple[np.ndarray, np.ndarray]:
        """The sweep's row addresses and lengths."""
        starts = np.arange(0, self.nbytes, self.chunk, dtype=np.int64)
        return (self.base + starts,
                np.minimum(self.chunk, self.nbytes - starts))


class Rows:
    """Explicit row accesses: int64 byte addresses and lengths.

    Compared by identity, so a trace's parts are a hashable key.
    """

    __slots__ = ("addresses", "lengths")

    def __init__(self, addresses: np.ndarray, lengths: np.ndarray):
        self.addresses = addresses
        self.lengths = lengths

    def rows(self) -> Tuple[np.ndarray, np.ndarray]:
        return self.addresses, self.lengths


class AccessTrace:
    """An ordered list of (address, nbytes) row accesses.

    Built from arrays, or from parts by the trace builders below; the
    parts are never empty, so a trace with no parts has no accesses.
    """

    __slots__ = ("parts", "_rows")

    def __init__(self, addresses: np.ndarray, lengths: np.ndarray):
        addresses = np.asarray(addresses)
        lengths = np.asarray(lengths)
        if addresses.ndim != 1 or lengths.ndim != 1:
            raise SimulationError("addresses and lengths must be 1-D")
        if addresses.shape != lengths.shape:
            raise SimulationError("addresses and lengths must align")
        if len(addresses) and (addresses.dtype.kind not in "iu"
                               or lengths.dtype.kind not in "iu"):
            raise SimulationError(
                f"addresses and lengths must be integers, got "
                f"{addresses.dtype} and {lengths.dtype}")
        self.parts: Tuple = (Rows(addresses.astype(np.int64, copy=False),
                                  lengths.astype(np.int64, copy=False)),) \
            if len(addresses) else ()
        self._rows = None

    @classmethod
    def of(cls, parts: Tuple) -> "AccessTrace":
        """The trace of ``parts`` (non-empty :class:`Sweep`/:class:`Rows`)."""
        trace = cls.__new__(cls)
        trace.parts = parts
        trace._rows = None
        return trace

    def _expand_rows(self) -> Tuple[np.ndarray, np.ndarray]:
        if self._rows is None:
            rows = [part.rows() for part in self.parts]
            self._rows = ((np.concatenate([r[0] for r in rows]),
                           np.concatenate([r[1] for r in rows])) if rows
                          else (np.array([], np.int64),
                                np.array([], np.int64)))
        return self._rows

    @property
    def addresses(self) -> np.ndarray:
        """int64 byte address of each row."""
        return self._expand_rows()[0]

    @property
    def lengths(self) -> np.ndarray:
        """int64 byte length of each row."""
        return self._expand_rows()[1]

    @property
    def num_accesses(self) -> int:
        return sum(-(-part.nbytes // part.chunk) if type(part) is Sweep
                   else len(part.addresses) for part in self.parts)

    @property
    def total_bytes(self) -> int:
        return sum(part.nbytes if type(part) is Sweep
                   else int(part.lengths.sum()) for part in self.parts)

    def sector_counts(self, sector_bytes: int) -> np.ndarray:
        """Number of sectors each row access touches."""
        _check_sector_bytes(sector_bytes)
        addresses, lengths = self._expand_rows()
        _check_lengths(lengths)
        return _spans(addresses, lengths, sector_bytes)[1]

    def sector_addresses(self, sector_bytes: int) -> np.ndarray:
        """Expand row accesses into aligned sector addresses, in order.

        Consecutive rows that fall in the same sector deduplicate at the
        cache (as hits); alignment itself models the transaction
        granularity: a 4-byte touch still moves a whole sector.
        """
        return sector_lines([self], sector_bytes)[0] * sector_bytes

    @staticmethod
    def concatenate(traces: List["AccessTrace"]) -> "AccessTrace":
        return AccessTrace.of(tuple(part for trace in traces
                                    for part in trace.parts))


def _check_sector_bytes(sector_bytes: int) -> None:
    if sector_bytes <= 0:
        raise SimulationError("sector_bytes must be positive")


def _check_lengths(lengths: np.ndarray) -> None:
    if len(lengths) and int(lengths.min()) < 0:
        raise SimulationError("row lengths must be non-negative")


def _spans(addresses: np.ndarray, lengths: np.ndarray,
           sector_bytes: int) -> Tuple[np.ndarray, np.ndarray]:
    """Per row: the first sector index and the number of sectors."""
    first = addresses // sector_bytes
    last = (addresses + np.maximum(lengths, 1) - 1) // sector_bytes
    return first, last - first + 1


def sector_lines(traces: Sequence[AccessTrace], sector_bytes: int
                 ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Expand ``traces`` into the sector indices they touch, back to back.

    Returns the sector indices, then per trace an int64 array of its
    sector count and of its useful (requested) bytes.  Each row touches
    a run of consecutive sectors; an aligned sweep is one run as a
    whole, and every run expands in one step for all traces together.
    Negative row lengths are rejected here, the one pass that reads
    every explicit row.
    """
    _check_sector_bytes(sector_bytes)
    blocks: List[Tuple[np.ndarray, ...]] = []
    firsts: List[int] = []
    counts: List[int] = []
    sectors: List[int] = []
    useful: List[int] = []

    def flush() -> None:
        if firsts:
            blocks.append((np.array(firsts, dtype=np.int64),
                           np.array(counts, dtype=np.int64)))
            del firsts[:], counts[:]

    for trace in traces:
        total = nbytes = 0
        for part in trace.parts:
            if type(part) is Sweep and not (part.base % sector_bytes
                                            or part.chunk % sector_bytes):
                count = -(-part.nbytes // sector_bytes)
                firsts.append(part.base // sector_bytes)
                counts.append(count)
                total += count
                nbytes += part.nbytes
                continue
            addresses, lengths = part.rows()
            _check_lengths(lengths)
            flush()
            blocks.append(_spans(addresses, lengths, sector_bytes))
            total += int(blocks[-1][1].sum())
            nbytes += int(lengths.sum())
        sectors.append(total)
        useful.append(nbytes)
    flush()
    if not blocks:
        return (np.array([], dtype=np.int64),
                np.zeros(len(sectors), dtype=np.int64),
                np.zeros(len(sectors), dtype=np.int64))
    run_first, run_count = (blocks[0] if len(blocks) == 1 else
                            (np.concatenate(column)
                             for column in zip(*blocks)))
    # Each run's lines: its first line plus its rank in the run.
    offsets = np.add.accumulate(run_count) - run_count
    lines = np.repeat(run_first - offsets, run_count) \
        + np.arange(sum(sectors), dtype=np.int64)
    return (lines, np.array(sectors, dtype=np.int64),
            np.array(useful, dtype=np.int64))


def row_gather_trace(base: int, row_indices: np.ndarray,
                     row_bytes: int) -> AccessTrace:
    """Trace for fetching rows ``row_indices`` of a matrix at ``base``.

    The order of ``row_indices`` is the order the kernel touches memory;
    scattered indices produce the irregular pattern the paper profiles,
    sorted/sequential indices produce the regularised one.
    """
    row_indices = np.asarray(row_indices, dtype=np.int64)
    if not len(row_indices):
        return AccessTrace.of(())
    return AccessTrace.of((Rows(base + row_indices * row_bytes,
                                np.full(len(row_indices), row_bytes,
                                        dtype=np.int64)),))


def sequential_trace(base: int, nbytes: int,
                     chunk_bytes: int = 4096) -> AccessTrace:
    """Trace for streaming a region start-to-end (dense kernels)."""
    if not type(base) is type(nbytes) is type(chunk_bytes) is int:
        try:
            base, nbytes, chunk_bytes = (operator.index(base),
                                         operator.index(nbytes),
                                         operator.index(chunk_bytes))
        except TypeError as exc:
            raise SimulationError(
                f"sweep base, size and chunk must be integers: {exc}"
            ) from None
    if chunk_bytes <= 0:
        raise SimulationError(
            f"chunk_bytes must be positive, got {chunk_bytes}")
    if nbytes <= 0:
        return AccessTrace.of(())
    return AccessTrace.of((Sweep(base, nbytes, chunk_bytes),))
