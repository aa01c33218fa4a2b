"""Cache corruption recovery: every damaged entry is recomputed, counted.

The contract under test (docs/resilience.md): **corruption is a miss,
never a crash**.  Each scenario damages the on-disk store a different
way — truncated payload, flipped payload byte, stale ``.tmp`` litter,
the whole directory deleted mid-run — then re-runs the pipeline and
asserts it recomputes, repopulates, and counts the damage in
:class:`CacheStats`.
"""

import shutil

import numpy as np
import pytest

from repro.core import MegaConfig
from repro.graph.generators import molecular_like
from repro.pipeline import ScheduleCache, precompute_paths, schedule_cache_key
from repro.pipeline.cache import _INDEX_NAME
from repro.resilience import FaultPlan, corrupt_cache_entry

pytestmark = pytest.mark.faultinject


@pytest.fixture
def graphs():
    return [molecular_like(np.random.default_rng(i), 14) for i in range(5)]


@pytest.fixture
def warm(tmp_path, graphs):
    """A populated cache directory plus that run's entry keys."""
    cache_dir = tmp_path / "cache"
    first = precompute_paths(graphs, cache_dir=cache_dir)
    assert first.stats.cache.puts == len(graphs)
    keys = [schedule_cache_key(g, MegaConfig()) for g in graphs]
    return cache_dir, keys


def rerun(graphs, cache_dir):
    result = precompute_paths(graphs, cache_dir=cache_dir)
    assert result.ok and all(p is not None for p in result.paths)
    return result


class TestTruncatedPayload:
    def test_recompute_and_counter(self, warm, graphs):
        cache_dir, keys = warm
        corrupt_cache_entry(ScheduleCache(cache_dir), keys[0], "truncate")
        result = rerun(graphs, cache_dir)
        # Indexed entry: the checksum mismatch is caught before decode.
        assert result.stats.cache.corrupt_checksum == 1
        assert result.stats.cache.misses == 1
        assert result.stats.cache.hits == len(graphs) - 1
        assert result.stats.cache.puts == 1

    def test_orphan_truncation_counts_payload_corruption(self, warm,
                                                         graphs):
        cache_dir, keys = warm
        # No index -> no recorded checksum: the torn payload itself must
        # be detected at decode time (the corrupt_payload path).
        (cache_dir / _INDEX_NAME).unlink()
        corrupt_cache_entry(ScheduleCache(cache_dir), keys[0], "truncate")
        result = rerun(graphs, cache_dir)
        assert result.stats.cache.corrupt_payload == 1
        assert result.stats.cache.puts == 1


class TestFlippedByte:
    def test_checksum_catches_bit_rot(self, warm, graphs):
        cache_dir, keys = warm
        corrupt_cache_entry(ScheduleCache(cache_dir), keys[1], "flip")
        result = rerun(graphs, cache_dir)
        assert result.stats.cache.corrupt_checksum == 1
        assert result.stats.cache.invalidations == 1
        assert result.stats.cache.puts == 1
        # The recomputed entry is clean: a third run is all hits.
        third = rerun(graphs, cache_dir)
        assert third.stats.cache.hits == len(graphs)
        assert third.stats.cache.corrupt_checksum == 0


class TestStaleTmpLitter:
    def test_swept_at_open_and_counted(self, warm, graphs):
        cache_dir, keys = warm
        corrupt_cache_entry(ScheduleCache(cache_dir), keys[2], "tmp_litter")
        assert list(cache_dir.glob("*.tmp.*"))
        # The sweep happens when the next writer opens the cache.
        cache = ScheduleCache(cache_dir)
        assert cache.stats.stale_tmp == 1
        assert not list(cache_dir.glob("*.tmp.*"))
        # Litter never touched the intact payloads: all hits.
        result = precompute_paths(graphs, cache=cache)
        assert result.stats.cache.hits == len(graphs)


    def test_run_that_opens_the_cache_reports_its_sweep(self, warm,
                                                        graphs):
        # precompute_paths(cache_dir=...) opens the cache itself, so the
        # sweep its constructor makes belongs to the run's counters.
        cache_dir, keys = warm
        litter = cache_dir / f"{keys[0]}.npz.tmp.1.1"
        litter.write_bytes(b"half a payload")
        result = rerun(graphs, cache_dir)
        assert result.stats.cache.stale_tmp == 1
        assert result.stats.cache.hits == len(graphs)
        assert not litter.exists()
        assert "swept 1 stale tmp file(s)" in result.stats.summary_line()
        assert rerun(graphs, cache_dir).stats.cache.stale_tmp == 0


class TestUnlinkedPayload:
    def test_indexed_but_vanished_file(self, warm, graphs):
        cache_dir, keys = warm
        corrupt_cache_entry(ScheduleCache(cache_dir), keys[3], "unlink")
        result = rerun(graphs, cache_dir)
        assert result.stats.cache.invalidations == 1
        assert result.stats.cache.misses == 1
        assert result.stats.cache.puts == 1


class TestDirectoryDeletedMidRun:
    def test_all_miss_then_recreated(self, warm, graphs):
        cache_dir, _ = warm
        cache = ScheduleCache(cache_dir)
        shutil.rmtree(cache_dir)
        result = precompute_paths(graphs, cache=cache)
        assert result.ok
        assert result.stats.cache.misses == len(graphs)
        assert result.stats.cache.puts == len(graphs)
        # The directory came back with usable entries.
        again = rerun(graphs, cache_dir)
        assert again.stats.cache.hits == len(graphs)


class TestFaultPlanSweep:
    def test_seeded_corruption_targets_recover(self, warm, graphs):
        cache_dir, keys = warm
        plan = FaultPlan(seed=5, cache_corrupt_rate=0.6)
        cache = ScheduleCache(cache_dir)
        hit = [corrupt_cache_entry(cache, k, "flip")
               for k in keys if plan.should_corrupt_cache(k)]
        assert hit, "seed must pick at least one target"
        result = rerun(graphs, cache_dir)
        assert result.stats.cache.corrupt_checksum == len(hit)
        assert result.stats.cache.puts == len(hit)
