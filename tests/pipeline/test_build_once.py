"""Build once: every stage passes on the representation Algorithm 1 built.

A cold pass, a tier hit and a rebind must each hand back exactly what
binding the bare schedule to the requesting graph again would build
(:func:`repro.pipeline.parallel.materialise`), bound to the caller's
own graph object.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cache import TieredScheduleCache
from repro.core import MegaConfig
from repro.errors import GraphError
from repro.graph.graph import Graph
from repro.pipeline import (
    ScheduleCache,
    materialise,
    precompute_paths,
)
from tests.strategies import graphs


def assert_same_representation(rep, want):
    """Field-by-field equality of two path representations."""
    assert np.array_equal(rep.path, want.path)
    assert np.array_equal(rep.virtual_mask, want.virtual_mask)
    assert rep.window == want.window
    for field in ("pos_src", "pos_dst", "edge_ids"):
        assert np.array_equal(getattr(rep.band, field),
                              getattr(want.band, field)), field
    assert np.array_equal(rep.covered_edge_mask, want.covered_edge_mask)
    assert np.array_equal(rep.multiplicity, want.multiplicity)
    for got, expected in zip(rep.directed_band(), want.directed_band()):
        assert np.array_equal(got, expected)


def assert_bound_to_inputs(result, inputs, config):
    for graph, rep in zip(inputs, result.paths):
        assert rep.graph is graph
        assert_same_representation(
            rep, materialise(graph, config, rep.schedule))


def _with_twins(drawn):
    """The drawn graphs plus a structural copy of each (dedup groups)."""
    return list(drawn) + [g.copy() for g in drawn]


@settings(max_examples=40, deadline=None)
@given(drawn=st.lists(graphs(), min_size=1, max_size=5))
def test_cold_pass_equals_materialise_without_cache(drawn):
    config = MegaConfig()
    inputs = _with_twins(drawn)
    assert_bound_to_inputs(precompute_paths(inputs, config), inputs, config)


@settings(max_examples=25, deadline=None)
@given(drawn=st.lists(graphs(), min_size=1, max_size=5))
def test_cold_and_warm_pass_equal_materialise_with_cache(tmp_path_factory,
                                                         drawn):
    config = MegaConfig()
    inputs = _with_twins(drawn)
    cache = ScheduleCache(tmp_path_factory.mktemp("cache"))
    cold = precompute_paths(inputs, config, cache=cache)
    assert cold.stats.computed <= len(drawn)
    assert_bound_to_inputs(cold, inputs, config)
    warm = precompute_paths(inputs, config, cache=cache)
    assert warm.stats.computed == 0
    assert_bound_to_inputs(warm, inputs, config)


@settings(max_examples=4, deadline=None)
@given(drawn=st.lists(graphs(), min_size=4, max_size=8))
def test_cold_pass_equals_materialise_with_four_workers(drawn):
    config = MegaConfig()
    inputs = _with_twins(drawn)
    result = precompute_paths(inputs, config, workers=4)
    assert_bound_to_inputs(result, inputs, config)


def test_edge_drop_binds_each_caller_to_its_dropped_graph():
    g = Graph(6, [0, 1, 2, 3, 4, 0, 1], [1, 2, 3, 4, 5, 3, 4])
    config = MegaConfig(edge_drop=0.3, seed=2)
    result = precompute_paths([g, g.copy()], config)
    for rep in result.paths:
        assert rep.graph.num_edges < g.num_edges
        assert_same_representation(rep, materialise(g, config, rep.schedule))
    assert result.paths[0].graph is not result.paths[1].graph


class TestRepeatedNodePair:
    """The duplicate-pair check still runs where Algorithm 1 runs."""

    @staticmethod
    def inputs():
        ok = Graph(3, [0, 1], [1, 2])
        repeated = Graph(3, [0, 1, 1], [1, 2, 0])
        return [ok, repeated, ok.copy()]

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("cached", [False, True])
    def test_quarantined(self, tmp_path, workers, cached):
        result = precompute_paths(
            self.inputs(), workers=workers,
            cache_dir=tmp_path if cached else None,
            on_error="quarantine")
        assert [q.index for q in result.stats.quarantined] == [1]
        assert "GraphError" in result.stats.quarantined[0].error
        assert result.paths[1] is None
        assert result.paths[0] is not None and result.paths[2] is not None

    @pytest.mark.parametrize("workers", [1, 2])
    def test_raises(self, workers):
        with pytest.raises(GraphError, match="repeats"):
            precompute_paths(self.inputs(), workers=workers)


class TestTierHitsRebind:
    """A hit for another graph object with the same structure."""

    @pytest.fixture
    def twins(self):
        g = Graph(5, [0, 1, 2, 3, 3], [1, 2, 3, 4, 0])
        return g, g.copy(), g.copy()

    def test_single_node_memo(self, twins):
        config = MegaConfig()
        store = TieredScheduleCache(config).view(0)
        first, hit = store.resolve(twins[0])
        assert not hit and first.graph is twins[0]
        again, hit = store.resolve(twins[0])
        assert hit and again is first
        other, hit = store.resolve(twins[1])
        assert hit and other.graph is twins[1]
        assert other.band is first.band
        assert_same_representation(
            other, materialise(twins[1], config, first.schedule))

    def test_single_node_disk(self, twins, tmp_path):
        config = MegaConfig()
        store = TieredScheduleCache(
            config, backing=ScheduleCache(tmp_path)).view(0)
        first, _ = store.resolve(twins[0])
        other, hit = store.resolve(twins[1])
        assert hit and other.graph is twins[1]
        assert_same_representation(other, first)

    @pytest.mark.parametrize("backed", [False, True])
    def test_replica_views(self, twins, tmp_path, backed):
        config = MegaConfig()
        tiered = TieredScheduleCache(
            config, backing=ScheduleCache(tmp_path) if backed else None)
        views = [tiered.view(0), tiered.view(1)]
        first, _ = views[0].resolve(twins[0])
        l2_hit, _ = views[1].resolve(twins[1])
        l1_hit, _ = views[1].resolve(twins[2])
        assert [v.tier_hits for v in views] == [[0, 0], [1, 1]]
        assert l2_hit.graph is twins[1] and l1_hit.graph is twins[2]
        for rep in (l2_hit, l1_hit):
            assert rep.band is first.band
            assert_same_representation(rep, first)

    def test_disk_backed_l2_binds_its_first_read_once(self, twins,
                                                      tmp_path):
        config = MegaConfig()
        TieredScheduleCache(config, backing=ScheduleCache(tmp_path)) \
            .view(0).resolve(twins[0])
        restarted = TieredScheduleCache(config,
                                        backing=ScheduleCache(tmp_path))
        from_disk, hit = restarted.view(0).resolve(twins[1])
        assert hit and from_disk.graph is twins[1]
        memo_hit, hit = restarted.view(1).resolve(twins[2])
        assert hit and memo_hit.graph is twins[2]
        assert memo_hit.band is from_disk.band
        assert restarted.backing.stats.hits == 1
