"""Incremental maintenance of path representations for dynamic graphs.

The paper's discussion points at latency-constrained dynamic workloads
(DYGAT-style streaming).  Rebuilding the schedule on every edge update
would defeat the purpose, so :class:`IncrementalPath` maintains a valid
band under edge insertions and deletions:

* **insert(u, v)** — if some appearance pair of (u, v) already sits
  within the window, the edge is adopted into the band in place;
  otherwise the two vertices are appended as a short patch segment at
  the end of the path (reachable via a virtual jump).  Re-inserting an
  edge that is already present is a **no-op** (counted, never an
  error) — streaming clients replay deltas at-least-once.
* **remove(u, v)** — the edge leaves the band; its path positions stay
  (stale but harmless).

Patches accumulate *staleness* (extra appearances and virtual jumps);
once the expansion exceeds a threshold, the tracker reruns
Algorithm 1 from scratch — amortising the full cost over many updates.

:meth:`IncrementalPath.repair_cost_estimate` prices a delta batch
*before* applying it, in the same deterministic ``work_units`` the
tracker meters while patching: probing appearance pairs, appending
patch positions, and (when staleness forces it) the full Algorithm 1
rebuild.  The estimate is what lets a caller — the streaming layer's
:class:`~repro.stream.repair.ScheduleRepairer` — decide *analytically*
whether patching beats recomputing, instead of guessing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.core.config import MegaConfig
from repro.core.path import PathRepresentation
from repro.core.schedule import TraversalResult
from repro.core.serialize import record_dict
from repro.errors import GraphError, ScheduleError
from repro.graph.graph import Graph

#: The two delta operations the tracker understands.  Streaming layers
#: pass ops as plain ``(op, u, v)`` tuples so the core stays free of
#: any dependency on the layers above it.
DELTA_OPS = ("insert", "delete")


@dataclass(frozen=True)
class RepairCostEstimate:
    """Analytic price of patching one delta batch vs. recomputing.

    All costs are in ``work_units`` — the deterministic operation meter
    :class:`IncrementalPath` keeps while patching (position-pair probes
    plus appended path positions; a rebuild costs
    ``num_nodes + 2 * num_edges``).  The estimate is computed against
    the *pre-delta* state without mutating it.

    Attributes
    ----------
    inserts / deletes / noops:
        Op counts after no-op filtering (duplicate inserts and deletes
        of absent edges price as no-ops).
    adoptions / patches:
        Projected in-band adoptions vs. appended patch segments.
    probe_units / patch_units:
        Work split: appearance-pair probes vs. appended positions.
    projected_length:
        Path length after the batch (patch positions included).
    triggers_rebuild:
        Whether the projected length crosses the tracker's
        ``rebuild_expansion`` threshold, i.e. patching would degenerate
        into a rebuild anyway.
    rebuild_cost:
        Price of a from-scratch Algorithm 1 run on the post-delta edge
        set (``num_nodes + 2 * num_edges_after``).
    """

    inserts: int
    deletes: int
    noops: int
    adoptions: int
    patches: int
    probe_units: int
    patch_units: int
    projected_length: int
    triggers_rebuild: bool
    rebuild_cost: int

    @property
    def repair_cost(self) -> int:
        """Total projected patching cost, rebuild-on-overflow included."""
        base = self.probe_units + self.patch_units
        return base + (self.rebuild_cost if self.triggers_rebuild else 0)

    @property
    def ratio(self) -> float:
        """``repair_cost / rebuild_cost`` — < 1 means patching is cheaper."""
        return self.repair_cost / max(self.rebuild_cost, 1)

    def as_dict(self) -> dict:
        """Plain-type view for ledgers and replay surfaces."""
        return record_dict(self, "repair_cost")


class IncrementalPath:
    """A path representation that absorbs edge updates in place."""

    def __init__(self, graph: Graph, config: Optional[MegaConfig] = None,
                 rebuild_expansion: float = 1.5,
                 representation: Optional[PathRepresentation] = None):
        """``rebuild_expansion`` is *relative*: a rebuild triggers when
        the path grows past ``rebuild_expansion x`` its length right
        after the previous rebuild (1.5 = 50% patch growth).

        ``representation`` is Algorithm 1's output for ``graph`` under
        ``config``, when the caller already has it: the tracker starts
        from it instead of running Algorithm 1 again, and meters the
        start as a rebuild all the same.  On an undirected graph with
        no repeated node pair, Algorithm 1 does not depend on record
        order or orientation, so this is the tracker's own first
        rebuild.
        """
        if rebuild_expansion <= 1.0:
            raise ScheduleError("rebuild_expansion must exceed 1.0")
        self.config = config or MegaConfig()
        self.rebuild_expansion = rebuild_expansion
        self._edges: Set[Tuple[int, int]] = set()
        self._num_nodes = graph.num_nodes
        for s, d in zip(graph.src.tolist(), graph.dst.tolist()):
            self._edges.add((min(s, d), max(s, d)))
        self.rebuilds = 0
        self.patches = 0
        self.removals = 0
        self.noop_inserts = 0
        self.noop_deletes = 0
        #: Deterministic operation meter: appearance-pair probes,
        #: appended patch positions, and full rebuilds (each priced at
        #: ``num_nodes + 2 * num_edges``).  The streaming bench gates
        #: the repair-vs-recompute crossover on deltas of this counter.
        self.work_units = 0
        self._rebuild_from_edges(representation)

    # ------------------------------------------------------------------
    def _current_graph(self) -> Graph:
        if self._edges:
            src, dst = zip(*sorted(self._edges))
        else:
            src, dst = (), ()
        return Graph(self._num_nodes, np.asarray(src, np.int64),
                     np.asarray(dst, np.int64), undirected=True)

    def _rebuild_from_edges(
            self, rep: Optional[PathRepresentation]) -> None:
        self.work_units += self.rebuild_cost()
        if rep is None:
            rep = PathRepresentation.from_graph(self._current_graph(),
                                                self.config)
        self.rep = rep
        self._path: List[int] = self.rep.path.tolist()
        self._virtual: List[bool] = self.rep.virtual_mask.tolist()
        self.window = self.rep.window
        # Covered pairs in band form: edge key -> (pos_i, pos_j).
        self._cover: Dict[Tuple[int, int], Tuple[int, int]] = dict(
            self.rep.schedule.cover_positions)
        self._positions_of: Dict[int, List[int]] = {}
        for pos, v in enumerate(self._path):
            self._positions_of.setdefault(v, []).append(pos)
        self.rebuilds += 1
        self.patches = 0
        self._base_length = max(len(self._path), 1)

    # ------------------------------------------------------------------
    @property
    def length(self) -> int:
        return len(self._path)

    @property
    def expansion(self) -> float:
        return self.length / max(self._num_nodes, 1)

    @property
    def coverage(self) -> float:
        if not self._edges:
            return 1.0
        return len(self._cover) / len(self._edges)

    def path_array(self) -> np.ndarray:
        """The current path (vertex id per position), as an array."""
        return np.asarray(self._path, dtype=np.int64)

    def edge_set(self) -> Set[Tuple[int, int]]:
        """Canonical (min, max) keys of the edges currently tracked."""
        return set(self._edges)

    def band_pairs(self) -> Dict[Tuple[int, int], Tuple[int, int]]:
        """Covered edge key -> representative position pair."""
        return dict(self._cover)

    # ------------------------------------------------------------------
    def _probe_band_pair(self, u: int, v: int
                         ) -> Tuple[Optional[Tuple[int, int]], int]:
        """A window-compatible position pair of (u, v) and the probe count.

        Read-only: callers meter the probes into ``work_units`` (or, for
        :meth:`repair_cost_estimate`, into the estimate) themselves.
        """
        pos_u = self._positions_of.get(u, [])
        pos_v = self._positions_of.get(v, [])
        probes = 0
        for i in pos_u:
            for j in pos_v:
                probes += 1
                if abs(i - j) <= self.window and (i != j or u == v):
                    return (min(i, j), max(i, j)), probes
        if u == v and pos_u:
            return (pos_u[0], pos_u[0]), probes
        return None, probes

    def _find_band_pair(self, u: int, v: int) -> Optional[Tuple[int, int]]:
        """A position pair of (u, v) within the window, if one exists."""
        pair, probes = self._probe_band_pair(u, v)
        self.work_units += probes
        return pair

    def insert(self, u: int, v: int) -> bool:
        """Add edge (u, v); returns True if it was adopted in place
        (no patch segment needed).

        Re-inserting a present edge is a no-op (counted in
        ``noop_inserts``) and reports True — the edge is already in the
        band, so "adopted without a patch" is literally what happened.
        """
        self._check(u, v)
        key = (min(u, v), max(u, v))
        if key in self._edges:
            self.noop_inserts += 1
            return True
        self._edges.add(key)
        pair = self._find_band_pair(u, v)
        if pair is not None:
            self._cover[key] = pair
            return True
        # Patch: append the two endpoints so the new edge is adjacent in
        # the path.  The jump to the patch is a virtual transition.
        i = len(self._path)
        self._append(u, virtual=True)
        if u != v:
            self._append(v, virtual=False)
            self._cover[key] = (i, i + 1)
        else:
            self._cover[key] = (i, i)
        self.patches += 1
        if len(self._path) > self.rebuild_expansion * self._base_length:
            self._rebuild_from_edges(None)
        return False

    def remove(self, u: int, v: int, missing_ok: bool = False) -> bool:
        """Remove edge (u, v) from the graph and the band.

        Returns True when an edge was actually removed.  With
        ``missing_ok`` a delete of an absent edge is a counted no-op
        instead of a :class:`~repro.errors.GraphError` — the contract
        streaming deltas want (at-least-once replay), while direct
        callers keep the strict default.
        """
        self._check(u, v)
        key = (min(u, v), max(u, v))
        if key not in self._edges:
            if missing_ok:
                self.noop_deletes += 1
                return False
            raise GraphError(f"edge {key} not present")
        self._edges.discard(key)
        self._cover.pop(key, None)
        self.removals += 1
        self.work_units += 1
        return True

    # ------------------------------------------------------------------
    def rebuild_cost(self) -> int:
        """Price of one Algorithm 1 rebuild, in ``work_units``.

        ``num_nodes + 2 * num_edges`` — the traversal visits every
        vertex and scans each undirected edge from both endpoints.
        """
        return self._num_nodes + 2 * len(self._edges)

    def repair_cost_estimate(self, ops: Iterable[Tuple[str, int, int]]
                             ) -> RepairCostEstimate:
        """Price a delta batch against the current state, without applying.

        ``ops`` is a sequence of ``(op, u, v)`` with ``op`` in
        :data:`DELTA_OPS`.  Inserts are probed against the *pre-delta*
        appearance positions, so the estimate is conservative: an insert
        that could adopt into an earlier op's patch segment is priced as
        its own patch.  Deletes and no-ops (duplicate inserts, deletes
        of absent edges) are priced at O(1).
        """
        edges = set(self._edges)
        inserts = deletes = noops = adoptions = patches = 0
        probe_units = patch_units = 0
        projected_length = len(self._path)
        for op, u, v in ops:
            if op not in DELTA_OPS:
                raise GraphError(
                    f"unknown delta op {op!r}; one of {DELTA_OPS}")
            self._check(u, v)
            key = (min(u, v), max(u, v))
            if op == "insert":
                if key in edges:
                    noops += 1
                    continue
                edges.add(key)
                inserts += 1
                pair, probes = self._probe_band_pair(u, v)
                probe_units += probes
                if pair is not None:
                    adoptions += 1
                else:
                    patches += 1
                    grown = 1 if u == v else 2
                    patch_units += grown
                    projected_length += grown
            else:
                if key not in edges:
                    noops += 1
                    continue
                edges.discard(key)
                deletes += 1
                probe_units += 1
        return RepairCostEstimate(
            inserts=inserts, deletes=deletes, noops=noops,
            adoptions=adoptions, patches=patches,
            probe_units=probe_units, patch_units=patch_units,
            projected_length=projected_length,
            triggers_rebuild=(projected_length
                              > self.rebuild_expansion * self._base_length),
            rebuild_cost=self._num_nodes + 2 * len(edges))

    # ------------------------------------------------------------------
    def _append(self, vertex: int, virtual: bool) -> None:
        self._positions_of.setdefault(vertex, []).append(len(self._path))
        self._path.append(vertex)
        self._virtual.append(virtual)

    def _check(self, u: int, v: int) -> None:
        for x in (u, v):
            if not 0 <= x < self._num_nodes:
                raise GraphError(
                    f"vertex {x} out of range [0, {self._num_nodes})")

    def to_representation(self, graph: Optional[Graph] = None
                          ) -> PathRepresentation:
        """Materialise the current state as a PathRepresentation.

        ``graph`` must hold the tracker's current edge set; its edge
        order becomes the band's edge ids.  By default the tracker
        builds that graph from its own edge set.
        """
        if graph is None:
            graph = self._current_graph()
        covered = sum(1 for k in self._cover if k in self._edges)
        result = TraversalResult(
            path=self.path_array(),
            virtual_mask=np.asarray(self._virtual, dtype=bool),
            cover_positions={k: p for k, p in self._cover.items()
                             if k in self._edges},
            window=self.window,
            covered_edges=covered,
            total_edges=len(self._edges),
            num_jumps=int(np.asarray(self._virtual).sum()))
        return PathRepresentation(graph, result)
