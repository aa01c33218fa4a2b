"""Set-associative LRU cache model (the simulated L2).

Addresses are non-negative byte addresses; the cache operates on aligned
lines of ``line_bytes``.  Each set keeps its resident tags beside their
last-use stamps on a global access clock, so a set's LRU order is the
order of its stamps.

:meth:`LRUCache.access_trace` resolves a whole ordered sector stream in
one pass — a simulated batch submits every kernel trace back to back.
The stream arrives as its distinct pieces plus the order that replays
them, because a batch repeats the same traces layer after layer.  A set
whose resident lines plus the stream's new distinct lines fit in its
ways can evict nothing, so there an access hits exactly when its line
is resident or appeared earlier in the stream: only each line's first
and last position matter, and numpy finds both from the distinct pieces
for all such sets at once.  Only when some set may overflow is the full
stream expanded, and those sets are walked access by access under exact
LRU (see :meth:`LRUCache._walk`).  Either way each access gets the
outcome of walking the stream one access at a time.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SimulationError

#: Per-segment counters :meth:`LRUCache.access_trace` returns.
COUNTERS = ("hits", "misses", "seq_misses", "seq_all", "repeat_all")

#: Fewest sets worth one lockstep round of the eviction walk.
_LOCKSTEP_SETS = 64


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
        # first ``_fill[s]`` ways of set ``s`` are its residents.
        shape = (self.num_sets, associativity)
        self._tags = np.full(shape, -1, dtype=np.int64)
        self._stamps = np.full(shape, -1, dtype=np.int64)
        self._fill = np.zeros(self.num_sets, dtype=np.int64)
        self._clock = 0
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
        lines = np.asarray(addresses, dtype=np.int64) // self.line_bytes
        n = len(lines)
        lengths = np.asarray([n] if segments is None else segments,
                             dtype=np.int64)
        if lengths.ndim != 1 or (lengths < 0).any() or int(lengths.sum()) != n:
            raise SimulationError(
                f"segments must be non-negative lengths summing to {n}")
        pieces = len(lengths)
        plays = np.arange(pieces) if order is None \
            else np.asarray(order, dtype=np.int64)
        if plays.ndim != 1 or ((plays < 0) | (plays >= pieces)).any() \
                or len(np.unique(plays)) != pieces:
            raise SimulationError(
                f"order must replay each of the {pieces} segments")
        if n and int(lines.min()) < 0:
            raise SimulationError("cache addresses must be non-negative")
        runs = lengths[plays]
        starts = np.cumsum(runs) - runs
        # Stream position minus stored position, per stream segment.
        shift = starts - (np.cumsum(lengths) - lengths)[plays]
        missed = self._resolve(lines, lengths, plays, shift)

        count = len(plays)
        seg = np.searchsorted(starts, missed, side="right") - 1
        chained = (seg[1:] == seg[:-1]) \
            & (np.diff(lines[missed - shift[seg]]) == 1)
        misses = np.bincount(seg, minlength=count)
        piece = np.repeat(np.arange(pieces), lengths)
        inner = piece[1:] == piece[:-1]
        step = np.diff(lines)
        stats = {
            "hits": runs - misses,
            "misses": misses,
            "seq_misses": np.bincount(seg[1:][chained], minlength=count),
            "seq_all": np.bincount(piece[1:][inner & (step == 1)],
                                   minlength=pieces)[plays],
            "repeat_all": np.bincount(piece[1:][inner & (step == 0)],
                                      minlength=pieces)[plays],
        }
        self.hits += int(stats["hits"].sum())
        self.misses += int(misses.sum())
        return stats

    def _resolve(self, lines: np.ndarray, lengths: np.ndarray,
                 plays: np.ndarray, shift: np.ndarray) -> np.ndarray:
        """Run the stream through the sets; returns its misses' positions.

        The stream replays the pieces of ``lines`` (of ``lengths``) in
        the order ``plays``; ``shift`` maps a stored position to its
        stream position in each segment.  Positions come out ascending.
        """
        runs = lengths[plays]
        n = int(runs.sum())
        if n == 0:
            return np.empty(0, dtype=np.int64)
        assoc = self.associativity
        # Each stored access's stream position in its piece's first and
        # last play.
        stored = np.arange(len(lines))
        _, first_play = np.unique(plays, return_index=True)
        _, last_play = np.unique(plays[::-1], return_index=True)
        last_play = len(plays) - 1 - last_play
        first_at = stored + np.repeat(shift[first_play], lengths)
        last_at = stored + np.repeat(shift[last_play], lengths)
        # Distinct lines with their first and last position in the stream.
        by_line = np.argsort(lines, kind="stable")
        ordered = lines[by_line]
        head = np.ones(len(lines), dtype=bool)
        np.not_equal(ordered[1:], ordered[:-1], out=head[1:])
        starts = np.flatnonzero(head)
        uniq = ordered[starts]
        first = np.minimum.reduceat(first_at[by_line], starts)
        last = np.maximum.reduceat(last_at[by_line], starts)
        uset = uniq % self.num_sets

        # Which distinct lines are already resident, and in which way.
        way = np.full(len(uniq), -1, dtype=np.int64)
        held = np.flatnonzero(self._fill[uset] > 0)
        if held.size:
            match = self._tags[uset[held]] == uniq[held, None]
            found = match.any(axis=1)
            way[held[found]] = match[found].argmax(axis=1)
        resident = way >= 0
        new_lines = np.bincount(uset[~resident], minlength=self.num_sets)
        overflow = self._fill + new_lines > assoc

        base = self._clock
        self._clock += n
        calm = ~overflow[uset]
        # No eviction: only first touches of non-resident lines miss.
        fresh = np.flatnonzero(calm & ~resident)
        kept = np.flatnonzero(calm & resident)
        self._stamps[uset[kept], way[kept]] = base + last[kept]
        by_set = fresh[np.argsort(uset[fresh], kind="stable")]
        sets = uset[by_set]
        rank = np.arange(len(sets)) - np.searchsorted(sets, sets)
        slot = self._fill[sets] + rank
        self._tags[sets, slot] = uniq[by_set]
        self._stamps[sets, slot] = base + last[by_set]
        self._fill += np.where(overflow, 0, new_lines)

        hot = np.flatnonzero(overflow)
        if not hot.size:
            return np.sort(first[fresh])
        # Some set must be walked: expand the whole stream for it.
        stream = lines[np.arange(n) - np.repeat(shift, runs)]
        order = np.argsort(stream, kind="stable")
        miss = np.zeros(n, dtype=bool)
        miss[first[fresh]] = True
        self._walk(stream, order, stream[order], base, hot, miss)
        return np.flatnonzero(miss)

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
        return int(self._fill.sum())

    def contains(self, address: int) -> bool:
        line = address // self.line_bytes
        s = line % self.num_sets
        return bool((self._tags[s, :self._fill[s]] == line).any())

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
