"""Set-associative LRU cache model (the simulated L2).

Addresses are non-negative byte addresses; the cache operates on aligned
lines of ``line_bytes``.  Each set keeps its resident tags beside their
last-use stamps on a global access clock, so a set's LRU order is the
order of its stamps.

:meth:`LRUCache.access_trace` resolves a whole ordered sector stream in
one pass — a simulated batch submits every kernel trace back to back.
The stream arrives as its distinct pieces plus the order that replays
them, because a batch repeats the same traces layer after layer.
Pieces are renumbered in the order they are first played, so a line's
first stored position is its first position in the stream.

A set whose resident lines plus the stream's new distinct lines fit in
its ways can evict nothing, so there an access hits exactly when its
line is resident or appeared earlier in the stream.  When the stream's
lines span few enough lines that no set can take more than it holds
(every serving batch on a fresh device), that bound is read off the
span alone: the pass finds each line's first position in a table over
the span, without sorting, and it leaves writing the lines into their
sets until the cache is next read, so a cache used once never pays
for it.
Only when some set may overflow is the full stream expanded, and those
sets are walked access by access under exact LRU (see
:meth:`LRUCache._walk`).  Either way each access gets the outcome of
walking the stream one access at a time.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SimulationError

#: Per-segment counters :meth:`LRUCache.access_trace` returns.
COUNTERS = ("hits", "misses", "seq_misses", "seq_all", "repeat_all")

#: Fewest sets worth one lockstep round of the eviction walk.
_LOCKSTEP_SETS = 64


def _div(values: np.ndarray, divisor: int) -> np.ndarray:
    """``values // divisor``, as a shift when ``divisor`` is a power of 2."""
    if divisor & (divisor - 1):
        return values // divisor
    return values >> (divisor.bit_length() - 1)


def _steps(lines: np.ndarray, lengths: np.ndarray,
           ends: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per piece: accesses whose line follows, and equals, the previous.

    Counted from the steps that do not follow on, which are few in the
    sweeps kernels stream, so only those are gathered.
    """
    if len(lines) < 2:
        zeros = np.zeros(len(lengths), dtype=np.int64)
        return zeros, zeros
    step = lines[1:] - lines[:-1]
    breaks = (step != 1).nonzero()[0]
    repeats = breaks[step[breaks] == 0]
    # Steps p (comparing p+1 with p) inside a piece are those from its
    # first position up to, not including, its last.
    lo = ends - lengths
    hi = np.maximum(ends - 1, lo)
    inner = hi - lo
    return (inner - (breaks.searchsorted(hi) - breaks.searchsorted(lo)),
            repeats.searchsorted(hi) - repeats.searchsorted(lo))


def _distinct(lines: np.ndarray, lengths: np.ndarray, shift: np.ndarray,
              last_play: np.ndarray
              ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each distinct line of the stored pieces (see
    :meth:`LRUCache._resolve`), its first stored position, which is its
    first position in the stream, and its last position in the stream."""
    by_line = lines.argsort(kind="stable")
    ordered = lines[by_line]
    head = np.empty(len(lines), dtype=bool)
    head[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=head[1:])
    heads = head.nonzero()[0]
    last_at = by_line + np.repeat(shift[last_play], lengths)[by_line]
    return (ordered[heads], by_line[heads],
            np.maximum.reduceat(last_at, heads))


def _segments(stored: np.ndarray, ends: np.ndarray,
              first_play: np.ndarray) -> np.ndarray:
    """The first-play segment of each of the ascending ``stored``
    positions, for pieces ending at ``ends``."""
    upto = stored.searchsorted(ends)
    return np.repeat(first_play, upto - np.concatenate(([0], upto[:-1])))


def _ranks(counts: np.ndarray) -> np.ndarray:
    """0, 1, ... within each of ``len(counts)`` consecutive groups."""
    ends = np.cumsum(counts)
    return np.arange(int(ends[-1]) if len(ends) else 0) \
        - np.repeat(ends - counts, counts)


class LRUCache:
    """Exact set-associative cache with least-recently-used replacement."""

    def __init__(self, size_bytes: int, line_bytes: int, associativity: int):
        if size_bytes <= 0 or line_bytes <= 0 or associativity <= 0:
            raise SimulationError("cache dimensions must be positive")
        num_lines = size_bytes // line_bytes
        if num_lines < associativity:
            raise SimulationError(
                f"cache of {size_bytes} B cannot hold one {associativity}-way set "
                f"of {line_bytes} B lines")
        self.line_bytes = line_bytes
        self.associativity = associativity
        self.num_sets = max(1, num_lines // associativity)
        # Ways fill from the left and are never emptied again, so the
        # first ``_fill[s]`` ways of set ``s`` are its residents.  The
        # tag and stamp arrays are allocated by the first write.
        self._tags: Optional[np.ndarray] = None
        self._stamps: Optional[np.ndarray] = None
        self._fill = np.zeros(self.num_sets, dtype=np.int64)
        self._clock = 0
        #: The stream of a fresh calm pass, not yet written into the
        #: sets (see :meth:`_settle`).
        self._pending: Optional[Tuple[np.ndarray, ...]] = None
        self.hits = 0
        self.misses = 0

    def access(self, address: int) -> bool:
        """Touch one byte address; returns True on hit."""
        return bool(self.access_trace(np.array([address]))["hits"][0])

    def access_many(self, addresses: np.ndarray) -> Tuple[int, int]:
        """Touch many byte addresses; returns (hits, misses) for this batch."""
        stats = self.access_trace(addresses)
        return int(stats["hits"][0]), int(stats["misses"][0])

    def access_trace(self, addresses: np.ndarray,
                     segments: Optional[Sequence[int]] = None,
                     order: Optional[Sequence[int]] = None
                     ) -> Dict[str, np.ndarray]:
        """Touch an ordered stream of byte addresses and gather its statistics.

        ``addresses`` holds the stream's distinct pieces back to back
        (one per kernel trace) and ``segments`` gives their lengths;
        ``None`` makes it one piece.  ``order`` lists, segment by
        segment, which piece the stream replays, so a trace submitted
        many times is passed once; every piece must appear in it.
        ``None`` replays each piece once, in turn.  LRU state carries
        across segments exactly as across separate calls.  Returns, per
        stream segment, an int64 array of each counter:

        * ``hits`` / ``misses`` — L2 outcomes;
        * ``seq_misses`` — misses whose line directly follows the
          previous missed line of the segment (DRAM row-buffer streaming);
        * ``seq_all`` — accesses whose line follows the previous access's
          line (interconnect streaming efficiency, hits included);
        * ``repeat_all`` — accesses to the same line as the previous one
          (coalesced within a transaction, effectively free).

        The stream counters never look across a segment boundary.
        """
        lines = _div(np.asarray(addresses, dtype=np.int64), self.line_bytes)
        n = len(lines)
        lengths = np.array([n] if segments is None else segments,
                           dtype=np.int64)
        if lengths.ndim != 1 or (len(lengths) and int(lengths.min()) < 0) \
                or int(lengths.sum()) != n:
            raise SimulationError(
                f"segments must be non-negative lengths summing to {n}")
        pieces = len(lengths)
        plays = np.arange(pieces) if order is None \
            else np.asarray(order, dtype=np.int64)
        if plays.ndim != 1 or (len(plays) and (
                int(plays.min()) < 0 or int(plays.max()) >= pieces)):
            raise SimulationError(
                f"order must replay each of the {pieces} segments")
        replays = np.bincount(plays, minlength=pieces)
        if not replays.all():
            raise SimulationError(
                f"order must replay each of the {pieces} segments")
        if n and int(np.minimum.reduce(lines)) < 0:
            raise SimulationError("cache addresses must be non-negative")
        # Each piece's first and last play.
        by_piece = plays.argsort(kind="stable")
        tail = np.add.accumulate(replays)
        first_play = by_piece[tail - replays]
        last_play = by_piece[tail - 1]
        if (first_play[1:] < first_play[:-1]).any():
            # Renumber the pieces in the order they are first played.
            perm = first_play.argsort()
            renamed = np.empty(pieces, dtype=np.int64)
            renamed[perm] = np.arange(pieces)
            stored = np.add.accumulate(lengths) - lengths
            lengths = lengths[perm]
            lines = lines[np.arange(n) + np.repeat(
                stored[perm] - (np.add.accumulate(lengths) - lengths),
                lengths)]
            plays = renamed[plays]
            first_play, last_play = first_play[perm], last_play[perm]
        runs = lengths[plays]
        starts = np.add.accumulate(runs) - runs
        ends = np.add.accumulate(lengths)
        # Stream position minus stored position, per stream segment.
        shift = starts - (ends - lengths)[plays]
        seg, missed = self._resolve(lines, lengths, plays, runs, ends,
                                    shift, first_play, last_play)

        count = len(plays)
        chained = (seg[1:] == seg[:-1]) & (missed[1:] - missed[:-1] == 1)
        misses = np.bincount(seg, minlength=count)
        seq_all, repeat_all = _steps(lines, lengths, ends)
        hits = runs - misses
        self.hits += int(hits.sum())
        self.misses += len(seg)
        return {"hits": hits, "misses": misses,
                "seq_misses": np.bincount(seg[1:][chained], minlength=count),
                "seq_all": seq_all[plays], "repeat_all": repeat_all[plays]}

    def _settle(self) -> None:
        """Write a fresh calm pass's lines into their sets, if pending."""
        if self._pending is not None:
            pending, self._pending = self._pending, None
            uniq, _, last = _distinct(*pending)
            self._place(uniq, uniq % self.num_sets,
                        np.full(len(uniq), -1), last, 0, None)

    def _resolve(self, lines: np.ndarray, lengths: np.ndarray,
                 plays: np.ndarray, runs: np.ndarray, ends: np.ndarray,
                 shift: np.ndarray, first_play: np.ndarray,
                 last_play: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Run the stream through the sets; returns its misses.

        The stream replays the pieces of ``lines`` (of ``lengths``,
        ending at ``ends``) in the order ``plays``, ``runs`` long each,
        with pieces numbered by first play; ``shift`` maps a stored
        position to its stream position in each segment, and
        ``first_play``/``last_play`` give each piece's first and last
        segment.  Returns the misses in stream order: each one's
        segment and its line.
        """
        self._settle()
        n = int(runs.sum())
        if n == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        assoc = self.associativity
        num_sets = self.num_sets
        base = self._clock
        self._clock += n
        # A set takes at most one line in every num_sets of the span, so
        # a narrow span needs no count per set.
        low = int(np.minimum.reduce(lines))
        span = int(np.maximum.reduce(lines)) - low + 1
        if not base and -(-span // num_sets) <= assoc:
            # Fresh and no set can evict: each line misses once, at its
            # first stored position (its first in the stream), found
            # without sorting.
            at = lines - low
            stored = np.arange(len(lines))
            first = np.full(span, len(lines))
            np.minimum.at(first, at, stored)
            stored = (first[at] == stored).nonzero()[0]
            self._pending = (lines, lengths, shift, last_play)
            return _segments(stored, ends, first_play), lines[stored]

        uniq, first, last = _distinct(lines, lengths, shift, last_play)
        uset = uniq % num_sets
        # Which distinct lines are already resident, and in which way.
        way = np.full(len(uniq), -1, dtype=np.int64)
        if base:
            held = (self._fill[uset] > 0).nonzero()[0]
            match = self._tags[uset[held]] == uniq[held, None]
            found = match.any(axis=1)
            way[held[found]] = match[found].argmax(axis=1)
        fresh = (way < 0).nonzero()[0]
        overflow = self._fill + np.bincount(
            uset[fresh], minlength=num_sets) > assoc
        self._place(uniq, uset, way, last, base, overflow)
        if not overflow.any():
            # No set can evict: only first touches of new lines miss.
            stored = np.sort(first[fresh])
            return _segments(stored, ends, first_play), lines[stored]

        # Some set must be walked: expand the whole stream for it.
        missed = first[fresh[~overflow[uset[fresh]]]]
        missed = missed + shift[first_play[ends.searchsorted(
            missed, side="right")]]
        stream = lines[np.arange(n) - np.repeat(shift, runs)]
        order = np.argsort(stream, kind="stable")
        miss = np.zeros(n, dtype=bool)
        miss[missed] = True
        self._walk(stream, order, stream[order], base,
                   overflow.nonzero()[0], miss)
        missed = miss.nonzero()[0]
        seg = (np.add.accumulate(runs) - runs).searchsorted(
            missed, side="right") - 1
        return seg, stream[missed]

    def _place(self, uniq: np.ndarray, uset: np.ndarray, way: np.ndarray,
               last: np.ndarray, base: int,
               overflow: Optional[np.ndarray]) -> None:
        """Stamp the resolved lines of the sets that cannot evict.

        Resident lines (``way`` >= 0) take their last use; new lines
        fill their set's next free ways.  ``overflow`` marks the sets
        left to :meth:`_walk`; ``None`` means there are none.
        """
        if self._tags is None:
            shape = (self.num_sets, self.associativity)
            self._tags = np.full(shape, -1, dtype=np.int64)
            self._stamps = np.full(shape, -1, dtype=np.int64)
        calm = np.ones(len(uniq), dtype=bool) if overflow is None \
            else ~overflow[uset]
        kept = (calm & (way >= 0)).nonzero()[0]
        self._stamps[uset[kept], way[kept]] = base + last[kept]
        fresh = (calm & (way < 0)).nonzero()[0]
        by_set = fresh[uset[fresh].argsort(kind="stable")]
        sets = uset[by_set]
        new_lines = np.bincount(sets, minlength=self.num_sets)
        rank = np.arange(len(sets)) \
            - (np.add.accumulate(new_lines) - new_lines)[sets]
        slot = self._fill[sets] + rank
        self._tags[sets, slot] = uniq[by_set]
        self._stamps[sets, slot] = base + last[by_set]
        self._fill += new_lines

    def _walk(self, lines: np.ndarray, order: np.ndarray,
              ordered: np.ndarray, base: int, hot: np.ndarray,
              miss: np.ndarray) -> None:
        """Exact access-by-access LRU over the sets in ``hot``.

        ``order`` sorts the stream by line, stably, into ``ordered``;
        ``base`` is the clock at the stream's first access.

        A reuse of a line with fewer than ``associativity`` accesses to
        its set in between is a hit: too few lines came in to push it
        out.  Such reuses are skipped, and the access that starts a
        chain of them stamps the line with the chain's last use.  Until
        then the line is never its set's least recently used, so the
        early stamp changes no eviction.
        """
        n = len(lines)
        sets = lines % self.num_sets
        in_hot = np.zeros(self.num_sets, dtype=bool)
        in_hot[hot] = True
        walked = in_hot[sets]
        # Every walked access's rank among its set's accesses.
        by_set = np.flatnonzero(walked)
        by_set = by_set[np.argsort(sets[by_set], kind="stable")]
        rank = np.empty(n, dtype=np.int64)
        rank[by_set] = _ranks(
            np.bincount(sets[walked], minlength=self.num_sets)[hot])
        # Reuse chains: consecutive uses of a line, close within its set.
        on_line = walked[order]
        by_line = order[on_line]
        line_of = ordered[on_line]
        rank_of = rank[by_line]
        near = np.zeros(len(by_line), dtype=bool)
        near[1:] = ((line_of[1:] == line_of[:-1])
                    & (rank_of[1:] - rank_of[:-1] <= self.associativity))
        heads = np.flatnonzero(~near)
        stamp = np.empty(n, dtype=np.int64)
        stamp[by_line[heads]] = base + by_line[
            np.append(heads[1:], len(near)) - 1]
        skip = np.zeros(n, dtype=bool)
        skip[by_line[near]] = True
        steps = by_set[~skip[by_set]]
        miss[self._walk_steps(lines, stamp, steps, hot)] = True

    def _walk_steps(self, lines: np.ndarray, stamp: np.ndarray,
                    steps: np.ndarray, hot: np.ndarray) -> List[int]:
        """Resolve ``steps`` (grouped by set, in stream order); returns misses.

        The sets walk in lockstep: round ``k`` resolves the ``k``-th
        step of every set that has one, as array operations over the
        sets' tags and stamps.  Once fewer than ``_LOCKSTEP_SETS`` sets
        have steps left, the rest go one at a time in Python, which then
        costs less than a round.  ``stamp`` gives each step's LRU stamp.
        """
        # Columns: the hot sets, busiest first, so the sets still walking
        # in round k are a prefix of the columns.
        counts = np.bincount(lines[steps] % self.num_sets,
                             minlength=self.num_sets)[hot]
        cols = np.argsort(-counts, kind="stable")
        column = np.empty(len(hot), dtype=np.int64)
        column[cols] = np.arange(len(hot))
        depth = counts[cols]
        rounds = int(depth[_LOCKSTEP_SETS - 1]) if len(hot) >= _LOCKSTEP_SETS \
            else 0
        live = np.searchsorted(-depth, -np.arange(rounds))
        offsets = np.concatenate([[0], np.cumsum(live)])
        step_rank = _ranks(counts)
        tags = self._tags[hot[cols]]
        stamps = self._stamps[hot[cols]]

        lockstep = step_rank < rounds
        flat = np.empty(offsets[-1], dtype=np.int64)
        flat[offsets[step_rank[lockstep]]
             + np.repeat(column, counts)[lockstep]] = steps[lockstep]
        flat_lines = lines[flat]
        flat_stamps = stamp[flat]
        flat_hit = np.empty(len(flat), dtype=bool)
        rows = np.arange(len(hot))
        for k in range(rounds):
            lo, hi = offsets[k], offsets[k + 1]
            now = rows[:hi - lo]
            line = flat_lines[lo:hi]
            match = tags[:hi - lo] == line[:, None]
            way = match.argmax(axis=1)
            hit = match[now, way]
            cold = np.flatnonzero(~hit)
            way[cold] = stamps[cold].argmin(axis=1)
            tags[now, way] = line
            stamps[now, way] = flat_stamps[lo:hi]
            flat_hit[lo:hi] = hit
        missed = flat[~flat_hit].tolist()

        tail = steps[~lockstep]
        ends = np.cumsum(np.maximum(counts - rounds, 0)).tolist()
        start = 0
        for c, end in zip(column.tolist(), ends):
            if end == start:
                continue
            row_tags = tags[c].tolist()
            row_stamps = stamps[c].tolist()
            where = {line: w for w, line in enumerate(row_tags) if line >= 0}
            for j, line, t in zip(tail[start:end].tolist(),
                                  lines[tail[start:end]].tolist(),
                                  stamp[tail[start:end]].tolist()):
                w = where.get(line)
                if w is None:
                    missed.append(j)
                    w = row_stamps.index(min(row_stamps))
                    where.pop(row_tags[w], None)
                    where[line] = w
                    row_tags[w] = line
                row_stamps[w] = t
            tags[c] = row_tags
            stamps[c] = row_stamps
            start = end
        # A set overflows only by taking more distinct lines than it has
        # ways, so every walked set ends full.
        self._tags[hot[cols]] = tags
        self._stamps[hot[cols]] = stamps
        self._fill[hot] = self.associativity
        return missed

    @property
    def occupancy(self) -> int:
        """Number of resident lines."""
        self._settle()
        return int(self._fill.sum())

    def contains(self, address: int) -> bool:
        self._settle()
        if self._tags is None:
            return False
        line = address // self.line_bytes
        s = line % self.num_sets
        return bool((self._tags[s, :self._fill[s]] == line).any())

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
