"""Algorithm 1: the objective graph traversal that derives MEGA's schedule.

The traversal agent walks the graph, preferring the unvisited neighbour
with the strongest correlation to the last ``ω`` path entries
(equation 2).  When the current vertex has no uncovered edges left the
agent backtracks through a LIFO stack of revisitable vertices; when the
stack is empty it jumps to an unvisited vertex through a *virtual edge*.
Traversal ends once every vertex has appeared and a fraction ``θ`` of
edges is covered by the diagonal band.

An edge counts as *covered* as soon as two appearances of its endpoints
fall within ``ω`` positions of each other — the condition under which the
diagonal attention of Section III-C will actually process that edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

import numpy as np

from repro.errors import ScheduleError
from repro.graph.graph import Graph
from repro.graph.traversal import pseudo_peripheral_vertex


@dataclass
class TraversalResult:
    """Output of Algorithm 1.

    Attributes
    ----------
    path:
        Vertex id per path position (with revisits).
    virtual_mask:
        ``virtual_mask[i]`` is True when the transition from position
        ``i-1`` to ``i`` does not follow an edge of the original graph
        (a stack resume or a jump) — the paper's virtual edges.
    cover_positions:
        For each covered undirected edge key ``(min(u,v), max(u,v))``,
        the representative position pair ``(i, j)`` with ``|i - j| <= ω``
        at which the band first covers it.
    window:
        The ``ω`` used during scheduling.
    covered_edges, total_edges:
        Band-coverage accounting (self-loops count as trivially covered).
    num_jumps:
        Number of virtual-edge transitions.
    """

    path: np.ndarray
    virtual_mask: np.ndarray
    cover_positions: Dict[Tuple[int, int], Tuple[int, int]]
    window: int
    covered_edges: int
    total_edges: int
    num_jumps: int

    @property
    def length(self) -> int:
        return int(len(self.path))

    @property
    def revisits(self) -> int:
        """Extra appearances beyond one per distinct visited vertex."""
        return int(len(self.path) - len(np.unique(self.path)))

    @property
    def coverage(self) -> float:
        if self.total_edges == 0:
            return 1.0
        return self.covered_edges / self.total_edges

    def multiplicity(self, num_nodes: int) -> np.ndarray:
        """Appearance count per vertex."""
        return np.bincount(self.path, minlength=num_nodes)


def resolve_start(graph: Graph, policy) -> int:
    """Translate a start policy into a concrete vertex id."""
    if isinstance(policy, (int, np.integer)) and not isinstance(policy, bool):
        v = int(policy)
        if not 0 <= v < graph.num_nodes:
            raise ScheduleError(
                f"start vertex {v} out of range [0, {graph.num_nodes})")
        return v
    deg = graph.degrees()
    if policy == "max_degree":
        return int(deg.argmax())
    if policy == "min_degree":
        return int(deg.argmin())
    if policy == "peripheral":
        return pseudo_peripheral_vertex(graph)
    if policy == "zero":
        return 0
    raise ScheduleError(f"unknown start policy {policy!r}")


def traverse(graph: Graph, window: int, coverage: float = 1.0,
             start="max_degree") -> TraversalResult:
    """Run Algorithm 1 and return the traversal schedule.

    Parameters mirror :class:`repro.core.config.MegaConfig`.  The walk
    draws no random numbers: every tie is broken by vertex id, so equal
    inputs always give the same schedule.
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
    # ``adjacency`` is the graph's own edge relation (one direction per
    # record when directed); it decides which transitions are virtual.
    uncovered: List[Set[int]] = [set() for _ in range(n)]
    adjacency: List[Set[int]] = [set() for _ in range(n)]
    loops: Set[Tuple[int, int]] = set()
    undirected = graph.undirected
    for s, d in zip(graph.src.tolist(), graph.dst.tolist()):
        adjacency[s].add(d)
        if undirected:
            adjacency[d].add(s)
        if s == d:
            loops.add((s, d))
            continue
        uncovered[s].add(d)
        uncovered[d].add(s)
    degree = np.fromiter(map(len, uncovered), np.int64, n)
    total_countable = int(degree.sum()) // 2
    target_covered = int(np.ceil(coverage * total_countable))

    # Jump order: odd-degree vertices first (better path endpoints,
    # Section III-B's first objective), then high degree, then low id.
    # A jump happens only with the stack empty, when no path entry has an
    # uncovered edge left, so equation 2 scores every candidate 0; and an
    # unvisited vertex still has all its edges uncovered.  The order
    # therefore never changes, and one sort serves every jump.
    jump_order = np.lexsort((np.arange(n), -degree, -(degree & 1))).tolist()
    next_jump = 0

    start_vertex = resolve_start(graph, start)

    path: List[int] = []
    virtual: List[bool] = []
    cover_positions: Dict[Tuple[int, int], Tuple[int, int]] = {}
    stack: List[int] = []
    visited = [False] * n
    unvisited = n
    covered = 0
    jumps = 0

    def correlate(v: int, recent: List[int]) -> int:
        """Equation 2: |N(v) ∩ P[i-ω : i]| over uncovered edges."""
        return sum(map(uncovered[v].__contains__, recent))

    def append(v: int, is_virtual: bool) -> None:
        """Add v to the path and mark every newly band-covered edge."""
        nonlocal covered, unvisited
        i = len(path)
        pending = uncovered[v]
        # Only entries in v's uncovered set can close an edge, so a
        # vertex with none left skips the window entirely.
        if pending:
            for j in range(i - window if i > window else 0, i):
                u = path[j]
                if u in pending:
                    pending.discard(u)
                    uncovered[u].discard(v)
                    covered += 1
                    cover_positions[(u, v) if u < v else (v, u)] = (j, i)
        path.append(v)
        virtual.append(is_virtual)
        if not visited[v]:
            visited[v] = True
            unvisited -= 1
        if pending:
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
        candidates = uncovered[curr]
        if candidates:
            # Continue the walk: strongest band correlation first, then
            # unvisited vertices, then low id for determinism.  A lone
            # candidate needs no ranking.
            if len(candidates) == 1:
                (best,) = candidates
            else:
                recent = path[-window:]
                best = max(candidates,
                           key=lambda v: (correlate(v, recent),
                                          not visited[v], -v))
            append(best, is_virtual=False)
            continue
        # Dead end: pop the stack until a revisitable vertex surfaces.
        while stack and not uncovered[stack[-1]]:
            stack.pop()
        if stack:
            resume = stack.pop()
            is_virtual = resume not in adjacency[curr]
            jumps += int(is_virtual)
            append(resume, is_virtual)
            continue
        # Empty stack: every uncovered edge has an unvisited endpoint, so
        # the loop condition left an unvisited vertex.  Commence a new
        # path at the first one in jump order.
        while visited[jump_order[next_jump]]:
            next_jump += 1
        jumps += 1
        append(jump_order[next_jump], is_virtual=True)

    # Self-loops: covered by the first appearance of their vertex.
    for (s, d) in loops:
        first = path.index(s)
        cover_positions[(s, d)] = (first, first)

    return TraversalResult(
        path=np.asarray(path, dtype=np.int64),
        virtual_mask=np.asarray(virtual, dtype=bool),
        cover_positions=cover_positions,
        window=window,
        covered_edges=covered + len(loops),
        total_edges=total_countable + len(loops),
        num_jumps=jumps)
