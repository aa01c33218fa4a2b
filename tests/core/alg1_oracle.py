"""Reference Algorithm 1 for differential tests: the rescanning traversal.

:func:`traverse_oracle` is the traversal as first written: every jump
scores each unvisited vertex with ``correlate``, membership sets come
from :meth:`Graph.adjacency_lists`, and a final branch handles "every
vertex seen but coverage unmet".  :func:`repro.core.schedule.traverse`
drops all three (the jump order is static, the sets come from the edge
loop, the branch is unreachable), so tests can demand the two return
identical schedules.
"""

from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.schedule import TraversalResult, resolve_start
from repro.errors import ScheduleError
from repro.graph.graph import Graph


def traverse_oracle(graph: Graph, window: int, coverage: float = 1.0,
                    start="max_degree",
                    rng: Optional[np.random.Generator] = None
                    ) -> TraversalResult:
    """Run Algorithm 1 and return the traversal schedule.

    Parameters mirror :class:`repro.core.config.MegaConfig`; ``rng`` only
    breaks ties, so two calls with equal seeds are identical.
    """
    if window < 1:
        raise ScheduleError(f"window must be >= 1, got {window}")
    if not 0.0 < coverage <= 1.0:
        raise ScheduleError(f"coverage must be in (0, 1], got {coverage}")
    n = graph.num_nodes
    if n == 0:
        return TraversalResult(np.array([], np.int64), np.array([], bool),
                               {}, window, 0, 0, 0)

    # Uncovered-neighbour sets: N in the paper's notation.  Self-loops are
    # trivially covered by any appearance, so they never enter the sets.
    uncovered: List[Set[int]] = [set() for _ in range(n)]
    loops: Set[Tuple[int, int]] = set()
    for s, d in zip(graph.src.tolist(), graph.dst.tolist()):
        if s == d:
            loops.add((s, d))
            continue
        uncovered[s].add(d)
        uncovered[d].add(s)
    total_countable = sum(len(x) for x in uncovered) // 2
    target_covered = int(np.ceil(coverage * total_countable))

    rng = rng or np.random.default_rng(0)
    start_vertex = resolve_start(graph, start)

    path: List[int] = []
    virtual: List[bool] = []
    cover_positions: Dict[Tuple[int, int], Tuple[int, int]] = {}
    stack: List[int] = []
    unvisited: Set[int] = set(range(n))
    covered = 0
    jumps = 0
    adjacency_sets = [set(a.tolist()) for a in graph.adjacency_lists()]

    def correlate(v: int, recent: List[int]) -> int:
        """Equation 2: |N(v) ∩ P[i-ω : i]| over uncovered edges."""
        return sum(1 for u in recent if u in uncovered[v])

    def append(v: int, is_virtual: bool) -> None:
        """Add v to the path and mark every newly band-covered edge."""
        nonlocal covered
        i = len(path)
        path.append(v)
        virtual.append(is_virtual)
        lo = max(0, i - window)
        for j in range(lo, i):
            u = path[j]
            if u in uncovered[v]:
                uncovered[v].discard(u)
                uncovered[u].discard(v)
                covered += 1
                cover_positions[(min(u, v), max(u, v))] = (j, i)
        unvisited.discard(v)
        if uncovered[v]:
            stack.append(v)

    append(start_vertex, is_virtual=False)

    # Safety cap: every iteration either covers an edge or visits a new
    # vertex except for bounded stack pops, so this is generous.
    max_steps = 10 * (n + total_countable) + 16
    steps = 0
    while unvisited or covered < target_covered:
        steps += 1
        if steps > max_steps:
            raise ScheduleError(
                f"traversal exceeded {max_steps} steps "
                f"(n={n}, m={total_countable}, covered={covered})")
        curr = path[-1]
        recent = path[-window:]
        neighbours = [v for v in uncovered[curr]]
        if neighbours:
            # Continue the walk: strongest band correlation first, then
            # unvisited vertices, then low id for determinism.
            best = max(neighbours,
                       key=lambda v: (correlate(v, recent), v in unvisited, -v))
            append(best, is_virtual=False)
            continue
        # Dead end: pop the stack until a revisitable vertex surfaces.
        while stack and not uncovered[stack[-1]]:
            stack.pop()
        if stack:
            resume = stack.pop()
            jumps += int(resume not in adjacency_sets[curr])
            append(resume, is_virtual=resume not in adjacency_sets[curr])
            continue
        if unvisited:
            # Commence a new path: prefer odd-degree vertices (better path
            # endpoints, Section III-B's first objective), then high degree.
            candidates = sorted(unvisited)
            best = max(candidates,
                       key=lambda v: (correlate(v, recent),
                                      len(uncovered[v]) % 2 == 1,
                                      len(uncovered[v]), -v))
            jumps += 1
            append(best, is_virtual=True)
            continue
        # All vertices seen but coverage target unmet: jump to any vertex
        # that still has uncovered edges.
        remaining = [v for v in range(n) if uncovered[v]]
        if not remaining:
            break  # nothing coverable is left (coverage target met)
        best = max(remaining, key=lambda v: (len(uncovered[v]), -v))
        jumps += 1
        append(best, is_virtual=True)

    # Self-loops: covered by the first appearance of their vertex.
    first_pos: Dict[int, int] = {}
    for i, v in enumerate(path):
        if v not in first_pos:
            first_pos[v] = i
    for (s, d) in loops:
        cover_positions[(s, d)] = (first_pos[s], first_pos[s])

    return TraversalResult(
        path=np.asarray(path, dtype=np.int64),
        virtual_mask=np.asarray(virtual, dtype=bool),
        cover_positions=cover_positions,
        window=window,
        covered_edges=covered + len(loops),
        total_edges=total_countable + len(loops),
        num_jumps=jumps)
