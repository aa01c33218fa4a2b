"""Two-tier schedule caching for the serving cluster.

"Cached Operator Reordering" (PAPERS.md) argues the schedule cache
should be a *shared* resource; a fleet of replicas makes that concrete
with two tiers:

* **L1** — a replica-local in-memory memo.  Hits are free and private;
  the whole point of the hash-affinity routing policy is to maximise
  them by sending repeat graphs back to the replica that already
  holds their schedule.
* **L2** — one shared store for the fleet.  A replica that L1-misses
  probes L2 before recomputing Algorithm 1, so a graph first seen by
  replica 0 is still a (slower) hit when round-robin later sends it to
  replica 2.  L2 is an in-memory table by default, over an on-disk
  :class:`~repro.pipeline.cache.ScheduleCache` when one is attached —
  in which case the disk cache's own counters move too.  The L2 memo
  keeps each disk read, so a run reads a key from disk at most once.

There is one resolver, :class:`~repro.serve.server.ScheduleStore`.
A :class:`ReplicaScheduleView` is that store with two tiers, its own
L1 memo and then the fleet's :class:`TieredScheduleCache`.
Single-node serving is a one-replica cluster, so it resolves through
the same two tiers.  Each lookup bumps one counter on the view
that made it; every :class:`TierStats` — per replica, per run and
fleet-wide — is folded from those counters.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.config import MegaConfig
from repro.core.path import PathRepresentation
from repro.graph.graph import Graph
from repro.pipeline.cache import ScheduleCache
from repro.pipeline.parallel import materialise
from repro.pipeline.stats import Counters
from repro.serve.server import ScheduleMemo, ScheduleStore

# Not called here: the one resolver lives in repro.serve.server.  The
# benchmarks/perf tracer patches these names in this module by
# attribute, so they must stay bound here.
from repro.pipeline.hashing import schedule_cache_key
from repro.pipeline.parallel import compute_schedule


@dataclass
class TierStats(Counters):
    """Per-tier attribution of schedule lookups.

    Attributes
    ----------
    l1_hits:
        Lookups served from the replica-local memo.
    l2_hits:
        L1 misses served from the shared tier (and promoted into L1).
    misses:
        Lookups that recomputed Algorithm 1 (then fed both tiers).
    l1_invalidations / l2_invalidations:
        Entries evicted by keyed invalidation
        (:meth:`TieredScheduleCache.invalidate`) from the replica-local
        memos and the shared tier respectively — the streaming layer's
        versioned-key protocol retiring a superseded graph epoch.
    seeds:
        Entries written through :meth:`TieredScheduleCache.seed` — a
        repaired schedule pre-warmed under its new content key, so the
        first post-delta admission is an L2 hit instead of a full
        Algorithm 1 miss.

    ``l2_puts``, the shared-tier writes, is ``misses`` (one each).
    """

    DERIVED = ("l2_puts",)

    l1_hits: int = 0
    l2_hits: int = 0
    misses: int = 0
    l1_invalidations: int = 0
    l2_invalidations: int = 0
    seeds: int = 0

    @property
    def l2_puts(self) -> int:
        return self.misses

    @property
    def lookups(self) -> int:
        return self.l1_hits + self.l2_hits + self.misses

    @property
    def l1_hit_rate(self) -> float:
        return self.l1_hits / self.lookups if self.lookups else 0.0

    @property
    def l2_hit_rate(self) -> float:
        return self.l2_hits / self.lookups if self.lookups else 0.0

    @property
    def hit_rate(self) -> float:
        """Any-tier hit rate (matches the single-node cache hit rate)."""
        hits = self.l1_hits + self.l2_hits
        return hits / self.lookups if self.lookups else 0.0


class TieredScheduleCache:
    """The fleet's shared L2 tier plus a factory for per-replica views.

    Both tiers hold path representations, so an L1 or L2 hit rebinds
    one to the requesting graph instead of rebuilding its band.
    ``backing`` attaches an on-disk :class:`ScheduleCache` under the
    L2 memo (cross-run persistence, corruption handling and all), which
    stores the bare schedule; without it the L2 is a plain in-process
    table, which is what the bench workloads and most tests want — no
    tmpdir needed.

    The tier counts only what no view sees: ``seeds`` and
    ``l2_invalidations``.  :attr:`tier` folds them with every view's
    counters.
    """

    def __init__(self, config: MegaConfig,
                 backing: Optional[ScheduleCache] = None):
        self.config = config
        self.backing = backing
        self._memo: Dict[str, PathRepresentation] = {}
        self.seeds = 0
        self.l2_invalidations = 0
        # Every view ever handed out, in creation order — keyed
        # invalidation must reach retired incarnations' L1 memos too
        # (they are dead engines, but determinism is cheaper than
        # reasoning about which views can still be probed).
        self._views: List["ReplicaScheduleView"] = []

    def view(self, replica_id: int) -> "ReplicaScheduleView":
        """The schedule store replica ``replica_id`` plugs into its engine."""
        return ReplicaScheduleView(self, replica_id)

    @property
    def tier(self) -> TierStats:
        """Fleet-wide attribution over every view ever handed out."""
        own = TierStats(l2_invalidations=self.l2_invalidations,
                        seeds=self.seeds)
        return functools.reduce(TierStats.merge,
                                (view.tier for view in self._views), own)

    # -- tier protocol (called by the views' resolver) -----------------
    def lookup(self, key: str, graph: Graph
               ) -> Optional[PathRepresentation]:
        rep = self._memo.get(key)
        if rep is not None:
            return rep.rebind(graph, self.config)
        if self.backing is None:
            return None
        entry = self.backing.get(key)
        if entry is None:
            return None
        # Memo the disk read so repeat L2 hits stay in-process.
        rep = self._memo[key] = materialise(graph, self.config, entry)
        return rep

    def put(self, key: str, rep: PathRepresentation) -> None:
        self._memo[key] = rep
        if self.backing is not None:
            self.backing.put(key, rep.schedule)

    # -- versioned-key protocol (called by repro.stream) ---------------
    def invalidate(self, key: str) -> Tuple[int, int, int]:
        """Evict ``key`` from every tier: (l1 entries, l2 entries, disk).

        The eviction half of the streaming invalidation protocol: the
        caller names exactly the superseded content key, so entries for
        untouched graphs are never disturbed.  In-flight requests are
        unaffected by construction — their path representation was
        resolved (and pinned) at admission.
        """
        l1_removed = 0
        for view in self._views:
            if view.tiers[0].pop(key, None) is not None:
                l1_removed += 1
                view.l1_invalidations += 1
        l2_removed = int(self._memo.pop(key, None) is not None)
        disk_removed = int(self.backing is not None
                           and self.backing.invalidate(key))
        self.l2_invalidations += l2_removed + disk_removed
        return l1_removed, l2_removed, disk_removed

    def seed(self, key: str, rep: PathRepresentation) -> None:
        """Install a ready-made representation under ``key`` in L2.

        The warm half of the protocol: a repaired (or recomputed)
        path representation goes straight into L2 — and its schedule
        into the disk backing when one is attached — so the first
        admission against the new epoch promotes it into a replica's
        L1 instead of running Algorithm 1.
        """
        self.put(key, rep)
        self.seeds += 1


class ReplicaScheduleView(ScheduleStore):
    """One replica's window onto the tiered cache.

    The one resolver with two tiers: this replica's L1 memo, then the
    fleet's shared :class:`TieredScheduleCache`.  A view adds only its
    ``replica_id``, its registration with the parent (so keyed
    invalidation reaches its L1) and the derived :attr:`tier`
    breakdown the cluster stats aggregate.
    """

    def __init__(self, parent: TieredScheduleCache, replica_id: int):
        super().__init__(parent.config,
                         tiers=(ScheduleMemo(parent.config), parent))
        self.replica_id = replica_id
        self.l1_invalidations = 0
        parent._views.append(self)

    @property
    def tier(self) -> TierStats:
        """This view's live counters as a :class:`TierStats`."""
        l1_hits, l2_hits = self.tier_hits
        return TierStats(l1_hits=l1_hits, l2_hits=l2_hits,
                         misses=self.misses,
                         l1_invalidations=self.l1_invalidations)
