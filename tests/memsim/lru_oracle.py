"""Reference L2 for differential tests: one access at a time.

:class:`OracleLRU` walks each sector through per-set ``OrderedDict``
LRU state, the most direct statement of the replacement policy.  It
answers the same questions as :class:`repro.memsim.cache.LRUCache` —
per-segment counters from ``access_trace`` (``order`` is answered by
expanding the replayed stream), cumulative ``hits`` / ``misses``,
``contains`` and ``occupancy`` — so tests can demand the two agree
exactly.
"""

from collections import OrderedDict
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.memsim.cache import COUNTERS


class OracleLRU:
    """Per-access ``OrderedDict`` LRU with the L2 model's interface."""

    def __init__(self, size_bytes: int, line_bytes: int, associativity: int):
        self.line_bytes = line_bytes
        self.associativity = associativity
        self.num_sets = max(1, (size_bytes // line_bytes) // associativity)
        self._sets: List[OrderedDict] = [OrderedDict()
                                         for _ in range(self.num_sets)]
        self.hits = 0
        self.misses = 0

    def _walk(self, lines: List[int]) -> Dict[str, int]:
        """One segment: the stream counters restart at its first access."""
        if len(lines) > 1:
            delta = np.diff(lines)
            seq_all = int((delta == 1).sum())
            repeat_all = int((delta == 0).sum())
        else:
            seq_all = repeat_all = 0
        hits = misses = seq_misses = 0
        prev_miss_line = -2
        for line in lines:
            s = self._sets[line % self.num_sets]
            if line in s:
                s.move_to_end(line)
                hits += 1
            else:
                misses += 1
                if line == prev_miss_line + 1:
                    seq_misses += 1
                prev_miss_line = line
                if len(s) >= self.associativity:
                    s.popitem(last=False)
                s[line] = True
        self.hits += hits
        self.misses += misses
        return {"hits": hits, "misses": misses, "seq_misses": seq_misses,
                "seq_all": seq_all, "repeat_all": repeat_all}

    def access_trace(self, addresses: np.ndarray,
                     segments: Optional[Sequence[int]] = None,
                     order: Optional[Sequence[int]] = None
                     ) -> Dict[str, np.ndarray]:
        """Expand the stream ``order`` replays; walk it segment by segment."""
        lines = (np.asarray(addresses, dtype=np.int64)
                 // self.line_bytes).tolist()
        lengths = [len(lines)] if segments is None else list(segments)
        pieces = []
        start = 0
        for length in lengths:
            pieces.append(lines[start:start + length])
            start += length
        plays = range(len(pieces)) if order is None else order
        rows = [self._walk(pieces[p]) for p in plays]
        return {key: np.array([row[key] for row in rows], dtype=np.int64)
                for key in COUNTERS}

    @property
    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets)

    def contains(self, address: int) -> bool:
        line = address // self.line_bytes
        return line in self._sets[line % self.num_sets]
