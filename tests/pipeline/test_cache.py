"""Cache semantics: identity on hits, invalidation on change/corruption."""

import io
import json

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core import MegaConfig, PathRepresentation, make_attention_plan
from repro.graph.generators import molecular_like
from repro.graph.graph import Graph, from_edge_list
from repro.pipeline import (
    ScheduleCache,
    compute_schedule,
    graph_fingerprint,
    precompute_paths,
    schedule_cache_key,
)
from repro.pipeline.hashing import file_checksum
from repro.serve.server import ScheduleStore
from tests.strategies import graphs as any_graph


@pytest.fixture
def graphs():
    return [molecular_like(np.random.default_rng(i), 20) for i in range(6)]


def _assert_result_equal(a, b):
    assert np.array_equal(a.path, b.path)
    assert np.array_equal(a.virtual_mask, b.virtual_mask)
    assert a.cover_positions == b.cover_positions
    assert (a.window, a.covered_edges, a.total_edges, a.num_jumps) == \
        (b.window, b.covered_edges, b.total_edges, b.num_jumps)


def _assert_plan_equal(a, b):
    for attr in ("src_pos", "dst_pos", "edge_ids",
                 "unique_edge_rows", "mirror_index"):
        assert np.array_equal(getattr(a, attr), getattr(b, attr)), attr
    assert (a.num_positions, a.window) == (b.num_positions, b.window)


class TestRoundTrip:
    def test_hit_is_bit_identical_to_fresh_compute(self, tmp_path, graphs):
        config = MegaConfig()
        cache = ScheduleCache(tmp_path)
        for g in graphs:
            key = schedule_cache_key(g, config)
            fresh = compute_schedule(g, config)
            cache.put(key, fresh)
            cached = cache.get(key)
            assert cached is not None
            _assert_result_equal(fresh, cached)
        assert cache.stats.hits == len(graphs)

    def test_hit_survives_process_restart(self, tmp_path, graphs):
        config = MegaConfig()
        key = schedule_cache_key(graphs[0], config)
        fresh = compute_schedule(graphs[0], config)
        ScheduleCache(tmp_path).put(key, fresh)
        reopened = ScheduleCache(tmp_path)  # fresh index load from disk
        cached = reopened.get(key)
        assert cached is not None
        _assert_result_equal(fresh, cached)

    def test_pipeline_warm_run_identical(self, tmp_path, graphs):
        cold = precompute_paths(graphs, cache_dir=tmp_path)
        warm = precompute_paths(graphs, cache_dir=tmp_path)
        assert cold.stats.cache.misses == len(graphs)
        assert warm.stats.cache.hits == len(graphs)
        assert warm.stats.computed == 0
        for a, b in zip(cold.paths, warm.paths):
            _assert_result_equal(a.schedule, b.schedule)
            assert np.array_equal(a.band.pos_src, b.band.pos_src)
        for a, b in zip(cold.plans, warm.plans):
            _assert_plan_equal(a, b)


@settings(max_examples=40, deadline=None)
@given(graph=any_graph())
def test_put_get_round_trip_property(tmp_path_factory, graph):
    """A schedule survives a cache write/read unchanged."""
    cache = ScheduleCache(tmp_path_factory.mktemp("roundtrip"))
    config = MegaConfig()
    key = schedule_cache_key(graph, config)
    fresh = compute_schedule(graph, config)
    cache.put(key, fresh)
    cached = ScheduleCache(cache.dir).get(key)
    assert cached is not None
    _assert_result_equal(fresh, cached)


def _v1_payload(graph, config):
    """One entry in the version-1 layout: schedule plus attention plan."""
    rep = PathRepresentation.from_graph(graph, config)
    result, plan = rep.schedule, make_attention_plan(rep)
    cover = np.asarray([[u, v, i, j] for (u, v), (i, j)
                        in sorted(result.cover_positions.items())],
                       dtype=np.int64).reshape(-1, 4)
    meta = np.asarray([1, result.window, result.covered_edges,
                       result.total_edges, result.num_jumps,
                       len(result.path), len(cover), plan.num_positions,
                       plan.window, plan.num_messages], np.int64)
    ints = np.concatenate([result.path, cover.ravel(), plan.src_pos,
                           plan.dst_pos, plan.edge_ids, plan.mirror_index])
    flags = np.concatenate([result.virtual_mask.astype(np.int8),
                            plan.unique_edge_rows.astype(np.int8)])
    buffer = io.BytesIO()
    np.savez(buffer, meta=meta, ints=ints, flags=flags)
    return buffer.getvalue()


class TestVersionOnePayload:
    """A cache directory written by the schedule-plus-plan layout."""

    @pytest.fixture
    def v1_dir(self, tmp_path, graphs):
        config = MegaConfig()
        key = schedule_cache_key(graphs[0], config)
        data = _v1_payload(graphs[0], config)
        (tmp_path / f"{key}.npz").write_bytes(data)
        (tmp_path / "index.json").write_text(json.dumps({
            "version": 1, "clock": 1,
            "entries": {key: {"size": len(data),
                              "sha256": file_checksum(data),
                              "last_used": 1}}}))
        return tmp_path

    def test_reads_as_one_corrupt_payload_miss(self, v1_dir, graphs):
        first = precompute_paths(graphs[:1], cache_dir=v1_dir)
        counts = first.stats.cache
        assert (counts.hits, counts.misses, counts.corrupt_payload,
                counts.corrupt_checksum, counts.puts) == (0, 1, 1, 0, 1)
        again = precompute_paths(graphs[:1], cache_dir=v1_dir)
        assert (again.stats.cache.hits, again.stats.cache.misses) == (1, 0)
        fresh = compute_schedule(graphs[0], MegaConfig())
        _assert_result_equal(fresh, again.paths[0].schedule)

    def test_serving_store_recomputes_and_rewrites(self, v1_dir, graphs):
        config = MegaConfig()
        key = schedule_cache_key(graphs[0], config)
        cache = ScheduleCache(v1_dir)
        store = ScheduleStore(config, cache)
        _, hit = store.resolve(graphs[0], key)
        assert not hit
        assert (cache.stats.misses, cache.stats.corrupt_payload) == (1, 1)
        _, hit = store.resolve(graphs[0], key)
        assert hit and cache.stats.hits == 1


class TestKeySensitivity:
    def test_config_mutation_invalidates_key(self, graphs):
        g = graphs[0]
        base = schedule_cache_key(g, MegaConfig())
        assert schedule_cache_key(g, MegaConfig(window=3)) != base
        assert schedule_cache_key(g, MegaConfig(coverage=0.9)) != base
        assert schedule_cache_key(g, MegaConfig(seed=1)) != base
        assert schedule_cache_key(g, MegaConfig(start="zero")) != base
        # Equal configs agree.
        assert schedule_cache_key(g, MegaConfig()) == base

    def test_graph_mutation_invalidates_key(self):
        config = MegaConfig()
        g1 = from_edge_list([(0, 1), (1, 2), (2, 3)], num_nodes=4)
        g2 = from_edge_list([(0, 1), (1, 2), (2, 3), (3, 0)], num_nodes=4)
        g3 = from_edge_list([(0, 1), (1, 2), (2, 3)], num_nodes=5)
        keys = {schedule_cache_key(g, config) for g in (g1, g2, g3)}
        assert len(keys) == 3

    def test_features_do_not_change_key(self):
        # Algorithm 1 never reads features; identical structure hits.
        g1 = from_edge_list([(0, 1), (1, 2)], num_nodes=3,
                            node_features=np.zeros(3, np.int64))
        g2 = from_edge_list([(0, 1), (1, 2)], num_nodes=3,
                            node_features=np.ones(3, np.int64))
        assert graph_fingerprint(g1) == graph_fingerprint(g2)

    def test_empty_graph_has_key(self):
        key = schedule_cache_key(Graph(0, [], []), MegaConfig())
        assert isinstance(key, str) and len(key) == 64


class TestCorruption:
    def test_corrupted_npz_falls_back_to_recompute(self, tmp_path, graphs):
        config = MegaConfig()
        cold = precompute_paths(graphs, config, cache_dir=tmp_path)
        # Truncate every payload: unreadable archives must never crash.
        for payload in tmp_path.glob("*.npz"):
            payload.write_bytes(payload.read_bytes()[:16])
        again = precompute_paths(graphs, config, cache_dir=tmp_path)
        assert again.stats.cache.hits == 0
        assert again.stats.cache.invalidations == len(graphs)
        assert again.stats.computed == len(graphs)
        for a, b in zip(cold.paths, again.paths):
            _assert_result_equal(a.schedule, b.schedule)

    def test_checksum_mismatch_detected(self, tmp_path, graphs):
        config = MegaConfig()
        cache = ScheduleCache(tmp_path)
        key = schedule_cache_key(graphs[0], config)
        cache.put(key, compute_schedule(graphs[0], config))
        # Flip one byte mid-file: still a valid-looking zip prefix, but
        # the checksum catches it.
        payload = tmp_path / f"{key}.npz"
        data = bytearray(payload.read_bytes())
        data[len(data) // 2] ^= 0xFF
        payload.write_bytes(bytes(data))
        fresh = ScheduleCache(tmp_path)
        assert fresh.get(key) is None
        assert fresh.stats.invalidations == 1
        assert not payload.exists()  # corrupted entry deleted

    def test_missing_payload_is_miss(self, tmp_path, graphs):
        config = MegaConfig()
        cache = ScheduleCache(tmp_path)
        key = schedule_cache_key(graphs[0], config)
        cache.put(key, compute_schedule(graphs[0], config))
        (tmp_path / f"{key}.npz").unlink()
        assert cache.get(key) is None
        assert cache.stats.misses == 1


class TestInvalidate:
    def test_invalidate_removes_entry_and_counts(self, tmp_path, graphs):
        config = MegaConfig()
        cache = ScheduleCache(tmp_path)
        key = schedule_cache_key(graphs[0], config)
        cache.put(key, compute_schedule(graphs[0], config))
        assert cache.invalidate(key) is True
        assert key not in cache
        assert not cache.payload_path(key).exists()
        assert cache.stats.explicit_invalidations == 1
        # An explicit invalidation is not a corruption invalidation.
        assert cache.stats.invalidations == 0
        assert cache.get(key) is None

    def test_invalidate_missing_key_is_false(self, tmp_path):
        cache = ScheduleCache(tmp_path)
        assert cache.invalidate("0" * 64) is False
        assert cache.stats.explicit_invalidations == 0

    def test_invalidate_unlinks_orphan_payload(self, tmp_path, graphs):
        # Payload on disk, index lost: invalidate must still be final.
        config = MegaConfig()
        key = schedule_cache_key(graphs[0], config)
        ScheduleCache(tmp_path).put(key, compute_schedule(graphs[0],
                                                           config))
        (tmp_path / "index.json").unlink()
        reopened = ScheduleCache(tmp_path)
        assert reopened.invalidate(key) is True
        assert not reopened.payload_path(key).exists()
        assert reopened.get(key) is None  # cannot be re-adopted

    def test_invalidate_only_touches_named_key(self, tmp_path, graphs):
        config = MegaConfig()
        cache = ScheduleCache(tmp_path)
        keys = []
        for g in graphs[:3]:
            key = schedule_cache_key(g, config)
            cache.put(key, compute_schedule(g, config))
            keys.append(key)
        cache.invalidate(keys[0])
        for survivor in keys[1:]:
            assert cache.get(survivor) is not None
        assert cache.stats.explicit_invalidations == 1

    def test_invalidate_survives_restart(self, tmp_path, graphs):
        config = MegaConfig()
        key = schedule_cache_key(graphs[0], config)
        cache = ScheduleCache(tmp_path)
        cache.put(key, compute_schedule(graphs[0], config))
        cache.invalidate(key)
        assert ScheduleCache(tmp_path).get(key) is None

    def test_invalidate_of_corrupt_entry_is_safe(self, tmp_path, graphs):
        config = MegaConfig()
        cache = ScheduleCache(tmp_path)
        key = schedule_cache_key(graphs[0], config)
        cache.put(key, compute_schedule(graphs[0], config))
        cache.payload_path(key).write_bytes(b"\x00garbage")
        assert cache.invalidate(key) is True
        assert not cache.payload_path(key).exists()


class TestLRU:
    def test_size_cap_evicts_least_recently_used(self, tmp_path, graphs):
        config = MegaConfig()
        entries = [(schedule_cache_key(g, config),
                    compute_schedule(g, config)) for g in graphs[:4]]
        one_size = None
        cache = ScheduleCache(tmp_path)
        cache.put(*entries[0])
        one_size = cache.total_bytes
        cache.clear()
        # Cap at ~2.5 entries: the third put must evict the oldest.
        cache = ScheduleCache(tmp_path, max_bytes=int(one_size * 2.5))
        for key, entry in entries[:3]:
            cache.put(key, entry)
        assert cache.stats.evictions >= 1
        assert cache.total_bytes <= int(one_size * 2.5)
        # Most recent entry is still resident.
        assert cache.get(entries[2][0]) is not None

    def test_touch_on_get_protects_hot_entries(self, tmp_path, graphs):
        config = MegaConfig()
        entries = [(schedule_cache_key(g, config),
                    compute_schedule(g, config)) for g in graphs[:3]]
        probe = ScheduleCache(tmp_path)
        probe.put(*entries[0])
        one_size = probe.total_bytes
        probe.clear()
        cache = ScheduleCache(tmp_path, max_bytes=int(one_size * 2.5))
        cache.put(*entries[0])
        cache.put(*entries[1])
        cache.get(entries[0][0])  # entry 0 becomes most recent
        cache.put(*entries[2])  # evicts entry 1
        assert cache.get(entries[0][0]) is not None
        assert entries[1][0] not in cache
