"""Two-tier schedule cache: attribution, promotion, disk backing."""

import uuid

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import TieredScheduleCache, TierStats
from repro.core.config import MegaConfig
from repro.pipeline import CacheStats, ScheduleCache
from repro.pipeline.hashing import schedule_cache_key
from repro.pipeline.parallel import compute_schedule, materialise
from repro.serve import ScheduleStore


def key(graph):
    return schedule_cache_key(graph, MegaConfig())


class TestTierStats:
    def test_rates(self):
        tier = TierStats(l1_hits=6, l2_hits=2, misses=2, l2_puts=2)
        assert tier.lookups == 10
        assert tier.l1_hit_rate == 0.6
        assert tier.l2_hit_rate == 0.2
        assert tier.hit_rate == 0.8

    def test_empty_rates_are_zero(self):
        tier = TierStats()
        assert tier.l1_hit_rate == 0.0
        assert tier.hit_rate == 0.0

    def test_merge_is_elementwise(self):
        a = TierStats(l1_hits=1, l2_hits=2, misses=3, l2_puts=3)
        b = TierStats(l1_hits=10, l2_hits=0, misses=1, l2_puts=1)
        merged = a.merge(b)
        assert merged.as_dict() == {"l1_hits": 11, "l2_hits": 2,
                                    "misses": 4, "l2_puts": 4,
                                    "l1_invalidations": 0,
                                    "l2_invalidations": 0, "seeds": 0}


class TestTieredResolve:
    def test_first_lookup_misses_and_feeds_both_tiers(self, pool):
        tiered = TieredScheduleCache(MegaConfig())
        view = tiered.view(0)
        path, hit = view.resolve(pool[0], key(pool[0]))
        assert not hit
        assert view.tier.as_dict() == {"l1_hits": 0, "l2_hits": 0,
                                       "misses": 1, "l2_puts": 1,
                                       "l1_invalidations": 0,
                                       "l2_invalidations": 0, "seeds": 0}
        # Serve-compatible CacheStats moved in lockstep.
        assert view.stats.misses == 1 and view.stats.puts == 1

    def test_repeat_on_same_replica_hits_l1(self, pool):
        tiered = TieredScheduleCache(MegaConfig())
        view = tiered.view(0)
        view.resolve(pool[0], key(pool[0]))
        path, hit = view.resolve(pool[0], key(pool[0]))
        assert hit
        assert view.tier.l1_hits == 1 and view.tier.l2_hits == 0
        assert view.stats.hits == 1

    def test_cross_replica_lookup_hits_shared_l2(self, pool):
        tiered = TieredScheduleCache(MegaConfig())
        first, second = tiered.view(0), tiered.view(1)
        first.resolve(pool[0], key(pool[0]))
        path, hit = second.resolve(pool[0], key(pool[0]))
        assert hit
        assert second.tier.l2_hits == 1 and second.tier.l1_hits == 0
        # Promotion: the next lookup on replica 1 is replica-local.
        _, hit = second.resolve(pool[0], key(pool[0]))
        assert hit and second.tier.l1_hits == 1

    def test_global_tier_aggregates_views(self, pool):
        tiered = TieredScheduleCache(MegaConfig())
        a, b = tiered.view(0), tiered.view(1)
        a.resolve(pool[0], key(pool[0]))  # miss
        a.resolve(pool[0], key(pool[0]))  # L1 hit
        b.resolve(pool[0], key(pool[0]))  # L2 hit
        assert tiered.tier.as_dict() == {"l1_hits": 1, "l2_hits": 1,
                                         "misses": 1, "l2_puts": 1,
                                         "l1_invalidations": 0,
                                         "l2_invalidations": 0, "seeds": 0}
        merged = a.tier.merge(b.tier)
        assert merged.as_dict() == tiered.tier.as_dict()

    def test_resolved_paths_identical_across_tiers(self, pool):
        tiered = TieredScheduleCache(MegaConfig())
        a, b = tiered.view(0), tiered.view(1)
        p_miss, _ = a.resolve(pool[0], key(pool[0]))
        p_l1, _ = a.resolve(pool[0], key(pool[0]))
        p_l2, _ = b.resolve(pool[0], key(pool[0]))
        np.testing.assert_array_equal(p_miss.path, p_l1.path)
        np.testing.assert_array_equal(p_miss.path, p_l2.path)


class TestDiskBacking:
    def test_misses_write_through_to_disk(self, pool, tmp_path):
        disk = ScheduleCache(tmp_path / "l2")
        tiered = TieredScheduleCache(MegaConfig(), backing=disk)
        tiered.view(0).resolve(pool[0], key(pool[0]))
        assert len(disk) == 1

    def test_warm_disk_serves_as_l2(self, pool, tmp_path):
        disk = ScheduleCache(tmp_path / "l2")
        TieredScheduleCache(MegaConfig(), backing=disk) \
            .view(0).resolve(pool[0], key(pool[0]))
        # A fresh cluster (fresh L1s, fresh in-memory L2) still hits.
        warm = TieredScheduleCache(MegaConfig(),
                                   backing=ScheduleCache(tmp_path / "l2"))
        view = warm.view(0)
        _, hit = view.resolve(pool[0], key(pool[0]))
        assert hit and view.tier.l2_hits == 1


# ----------------------------------------------------------------------
# Differential: the one resolver against a plain-dict model.

GRAPHS = 4

operations = st.lists(st.one_of(
    st.tuples(st.just("resolve"), st.integers(0, 3),
              st.integers(0, GRAPHS - 1)),
    st.tuples(st.just("add_view")),
    st.tuples(st.just("restart")),
    st.tuples(st.just("invalidate"), st.integers(0, GRAPHS - 1)),
    st.tuples(st.just("seed"), st.integers(0, GRAPHS - 1)),
), max_size=40)


@pytest.fixture(scope="module")
def schedules(pool):
    """(graph, key, entry, reference path) for the first GRAPHS graphs."""
    config = MegaConfig()
    out = []
    for graph in pool[:GRAPHS]:
        entry = compute_schedule(graph, config)
        out.append((graph, key(graph), entry,
                    materialise(graph, config, entry).path))
    return out


class ModelView:
    """What one view should hold and count."""

    def __init__(self):
        self.l1 = set()
        self.counts = dict.fromkeys(
            ("l1_hits", "l2_hits", "misses", "l1_invalidations"), 0)
        self.first_l1_hit = -1

    @property
    def lookups(self):
        return (self.counts["l1_hits"] + self.counts["l2_hits"]
                + self.counts["misses"])

    def tier(self):
        return dict(self.counts, l2_puts=self.counts["misses"],
                    l2_invalidations=0, seeds=0)


class Fleet:
    """One TieredScheduleCache, its views and the model of both."""

    def __init__(self, disk):
        self.tiered = TieredScheduleCache(MegaConfig(), backing=disk)
        self.views, self.model = [], []
        self.l2 = set()
        self.seeds = self.l2_invalidations = 0
        self.add_view()

    def add_view(self):
        self.views.append(self.tiered.view(len(self.views)))
        self.model.append(ModelView())

    def check(self):
        fleet = dict.fromkeys(TierStats().as_dict(), 0)
        for view, m in zip(self.views, self.model):
            assert view.tier.as_dict() == m.tier()
            assert view.lookups == view.tier.lookups == m.lookups
            assert view.lookups_to_first_l1_hit == m.first_l1_hit
            assert view.stats.as_dict() == CacheStats(
                hits=m.counts["l1_hits"] + m.counts["l2_hits"],
                misses=m.counts["misses"],
                puts=m.counts["misses"]).as_dict()
            for name, value in m.tier().items():
                fleet[name] += value
        fleet.update(seeds=self.seeds,
                     l2_invalidations=self.l2_invalidations)
        assert self.tiered.tier.as_dict() == fleet


class TestResolverDifferential:
    @pytest.mark.parametrize("backed", [False, True])
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(ops=operations)
    def test_tiered_views_match_dict_model(self, schedules, tmp_path,
                                           backed, ops):
        directory = tmp_path / uuid.uuid4().hex

        def open_disk():
            return ScheduleCache(directory) if backed else None

        fleet = Fleet(open_disk())
        on_disk = set()
        for op in ops:
            if op[0] == "add_view":
                fleet.add_view()
                continue
            if op[0] == "restart":
                # A fresh fleet: cold L1s and L2 memo, warm disk.
                fleet.check()
                fleet = Fleet(open_disk())
                continue
            if op[0] == "resolve":
                index = op[1] % len(fleet.views)
                graph, k, _, want = schedules[op[2]]
                m = fleet.model[index]
                path, hit = fleet.views[index].resolve(graph, k)
                if k in m.l1:
                    if m.first_l1_hit < 0:
                        m.first_l1_hit = m.lookups
                    m.counts["l1_hits"] += 1
                    expect_hit = True
                elif k in fleet.l2 or k in on_disk:
                    m.counts["l2_hits"] += 1
                    expect_hit = True
                else:
                    m.counts["misses"] += 1
                    expect_hit = False
                    if backed:
                        on_disk.add(k)
                m.l1.add(k)
                fleet.l2.add(k)
                assert hit == expect_hit
                assert np.array_equal(path.path, want)
                continue
            _, k, entry, _ = schedules[op[1]]
            if op[0] == "seed":
                fleet.tiered.seed(k, entry)
                fleet.l2.add(k)
                if backed:
                    on_disk.add(k)
                fleet.seeds += 1
                continue
            removed = fleet.tiered.invalidate(k)
            l1_removed = 0
            for m in fleet.model:
                if k in m.l1:
                    m.l1.discard(k)
                    m.counts["l1_invalidations"] += 1
                    l1_removed += 1
            expected = (l1_removed, int(k in fleet.l2), int(k in on_disk))
            assert removed == expected
            fleet.l2.discard(k)
            on_disk.discard(k)
            fleet.l2_invalidations += expected[1] + expected[2]
        fleet.check()
        if backed:
            disk = fleet.tiered.backing
            assert {g[1] for g in schedules if g[1] in disk} == on_disk

    @pytest.mark.parametrize("backed", [False, True])
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(graphs=st.lists(st.integers(0, GRAPHS - 1), max_size=30))
    def test_single_node_store_matches_dict_model(self, schedules,
                                                  tmp_path, backed,
                                                  graphs):
        disk = (ScheduleCache(tmp_path / uuid.uuid4().hex)
                if backed else None)
        store = ScheduleStore(MegaConfig(), cache=disk)
        seen = set()
        hits = misses = 0
        first_hit = -1
        for index in graphs:
            graph, k, _, want = schedules[index]
            path, hit = store.resolve(graph, k)
            assert hit == (k in seen)
            assert np.array_equal(path.path, want)
            if k in seen:
                if first_hit < 0:
                    first_hit = hits + misses
                hits += 1
            else:
                misses += 1
                seen.add(k)
        assert store.tier_hits == [hits] and store.misses == misses
        assert store.lookups == hits + misses
        assert store.lookups_to_first_l1_hit == first_hit
        assert store.stats.as_dict() == CacheStats(
            hits=hits, misses=misses, puts=misses).as_dict()
        if backed:
            # Disk-only: every lookup re-read and verified the disk.
            assert (disk.stats.hits, disk.stats.misses,
                    disk.stats.puts) == (hits, misses, misses)
            assert {g[1] for g in schedules if g[1] in disk} == seen
