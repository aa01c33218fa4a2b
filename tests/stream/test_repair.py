"""Schedule repair: mode decision, versioned-key cache protocol."""

import json

import pytest

from repro.cluster import TieredScheduleCache
from repro.core import MegaConfig
from repro.core.path import PathRepresentation
from repro.errors import StreamError
from repro.graph.generators import ring_graph
from repro.graph.graph import from_edge_list
from repro.pipeline import ScheduleCache
from repro.stream import (DeltaBatch, EdgeDelta, GraphTable, RepairPolicy,
                          ScheduleRepairer)


def _setup(recompute_ratio=1.0, backing=None):
    config = MegaConfig()
    table = GraphTable({"a": ring_graph(10),
                        "b": ring_graph(12)}, config)
    tiered = TieredScheduleCache(config, backing=backing)
    repairer = ScheduleRepairer(table, tiered,
                                RepairPolicy(recompute_ratio=recompute_ratio))
    return table, tiered, repairer


def _batch(delta_id=0, name="a", ops=None, at=1.0):
    ops = ops or (EdgeDelta("insert", 0, 2),)
    return DeltaBatch(delta_id, name, ops=tuple(ops), submitted_s=at)


class TestRepairPolicy:
    def test_defaults_valid(self):
        policy = RepairPolicy()
        assert policy.recompute_ratio == 1.0

    def test_negative_ratio_rejected(self):
        with pytest.raises(StreamError):
            RepairPolicy(recompute_ratio=-0.5)

    def test_expansion_must_exceed_one(self):
        with pytest.raises(StreamError):
            RepairPolicy(rebuild_expansion=1.0)


class TestModeDecision:
    def test_small_delta_repairs_in_place(self):
        _, _, repairer = _setup(recompute_ratio=1.0)
        record = repairer.apply(_batch(), now_s=1.0)
        assert record.mode == "repair"
        assert record.estimate.ratio <= 1.0
        assert record.work_units < record.estimate.rebuild_cost

    def test_zero_ratio_forces_recompute(self):
        _, _, repairer = _setup(recompute_ratio=0.0)
        record = repairer.apply(_batch(), now_s=1.0)
        assert record.mode == "recompute"
        # Recompute meters a full Algorithm 1 rebuild.
        assert record.work_units == record.estimate.rebuild_cost

    def test_tracker_state_follows_the_table(self):
        table, _, repairer = _setup()
        repairer.apply(_batch(ops=(EdgeDelta("insert", 0, 2),
                                   EdgeDelta("delete", 0, 1))), now_s=1.0)
        assert repairer.tracker("a").edge_set() == \
            table.graph("a").edge_set()

    def test_epoch_advances_per_batch(self):
        table, _, repairer = _setup()
        repairer.apply(_batch(0, ops=(EdgeDelta("insert", 0, 2),)), 1.0)
        repairer.apply(_batch(1, ops=(EdgeDelta("insert", 0, 3),)), 2.0)
        assert table.epoch("a") == 2
        assert table.epoch("b") == 0


class TestVersionedKeyProtocol:
    def test_invalidates_old_key_and_seeds_new(self):
        table, tiered, repairer = _setup()
        view = tiered.view(0)
        view.resolve(table.graph("a"))  # miss: feeds L1, L2
        view.resolve(table.graph("b"))
        record = repairer.apply(_batch(), now_s=1.0)
        assert record.seeded
        assert (record.invalidated_l1, record.invalidated_l2,
                record.invalidated_disk) == (1, 1, 0)
        # The untouched graph's entry survives: next lookup is an L1 hit.
        _, hit = view.resolve(table.graph("b"))
        assert hit
        # The new key was seeded into L2: first post-delta admission
        # promotes instead of recomputing.
        before_l2 = view.tier.l2_hits
        _, hit = view.resolve(table.graph("a"))
        assert hit and view.tier.l2_hits == before_l2 + 1
        assert view.tier.misses == 2  # only the two cold lookups

    def test_disk_backing_invalidated_too(self, tmp_path):
        backing = ScheduleCache(tmp_path)
        table, tiered, repairer = _setup(backing=backing)
        tiered.view(0).resolve(table.graph("a"))
        old_key = table.key("a")
        assert old_key in backing
        record = repairer.apply(_batch(), now_s=1.0)
        assert record.invalidated_disk == 1
        assert old_key not in backing
        assert backing.stats.explicit_invalidations == 1
        # Seed wrote the new key through to disk.
        assert table.key("a") in backing

    def test_noop_batch_keeps_key_and_skips_invalidation(self):
        table, tiered, repairer = _setup()
        old_key = table.key("a")
        record = repairer.apply(
            _batch(ops=(EdgeDelta("insert", 0, 1),)), now_s=1.0)
        assert not record.seeded
        assert record.old_key == record.new_key == old_key == \
            table.key("a")
        assert (record.invalidated_l1, record.invalidated_l2,
                record.invalidated_disk) == (0, 0, 0)
        assert record.applied_noops == 1
        # The epoch still records that a batch was applied.
        assert table.epoch("a") == 1

    def test_replayed_batch_is_noop_second_time(self):
        table, _, repairer = _setup()
        first = repairer.apply(_batch(), now_s=1.0)
        second = repairer.apply(_batch(delta_id=1), now_s=2.0)
        assert first.seeded and not second.seeded
        assert second.old_key == second.new_key == first.new_key
        assert table.epoch("a") == 2


class TestRepairRecord:
    def test_as_dict_is_json_ready(self):
        _, _, repairer = _setup()
        record = repairer.apply(_batch(), now_s=1.0)
        surface = record.as_dict()
        json.dumps(surface)  # plain types only
        assert surface["mode"] in ("repair", "recompute")
        assert surface["estimate"]["rebuild_cost"] > 0
        assert surface["epoch"] == 1
        assert surface["old_key"] != surface["new_key"]

    def test_applied_counts_match_ops(self):
        _, _, repairer = _setup()
        record = repairer.apply(
            _batch(ops=(EdgeDelta("insert", 0, 2),
                        EdgeDelta("delete", 0, 1),
                        EdgeDelta("delete", 0, 7))), now_s=1.0)
        assert record.applied_inserts == 1
        assert record.applied_deletes == 1
        assert record.applied_noops == 1  # delete of an absent edge


class TestRecomputeFallbackRestart:
    def test_later_batches_patch_against_rebuilt_path(self):
        table, _, repairer = _setup(recompute_ratio=0.0)
        repairer.apply(_batch(0), now_s=1.0)
        # Flip back to always-repair and keep patching: the fresh
        # tracker must be in sync with the recomputed graph.
        repairer.policy = RepairPolicy(recompute_ratio=float("inf"))
        record = repairer.apply(
            _batch(1, ops=(EdgeDelta("insert", 0, 4),)), now_s=2.0)
        assert record.mode == "repair"
        assert repairer.tracker("a").edge_set() == \
            table.graph("a").edge_set()


class TestRecomputeRunsAlgorithm1Once:
    def test_recompute_builds_one_representation(self, monkeypatch):
        # The tracker restarts from the representation the recompute
        # built and seeded, instead of running Algorithm 1 again.
        _, _, repairer = _setup(recompute_ratio=0.0)
        repairer.tracker("a")
        calls = []
        original = PathRepresentation.from_graph.__func__
        monkeypatch.setattr(
            PathRepresentation, "from_graph",
            classmethod(lambda cls, *args, **kwargs: calls.append(1)
                        or original(cls, *args, **kwargs)))
        record = repairer.apply(_batch(), now_s=1.0)
        assert record.mode == "recompute"
        assert len(calls) == 1
        assert record.work_units == record.estimate.rebuild_cost


class TestLargeBatchCrossesOver:
    def test_bulk_insert_prefers_recompute(self):
        # A path graph at window 1 patches every far insert; enough of
        # them price above one rebuild.
        config = MegaConfig(window=1)
        table = GraphTable(
            {"p": from_edge_list([(i, i + 1) for i in range(9)])}, config)
        repairer = ScheduleRepairer(table, TieredScheduleCache(config),
                                    RepairPolicy(recompute_ratio=1.0))
        ops = tuple(EdgeDelta("insert", u, v)
                    for u, v in [(0, 9), (1, 8), (2, 7), (0, 5),
                                 (1, 6), (3, 8), (0, 7), (2, 9)])
        record = repairer.apply(_batch(name="p", ops=ops), now_s=1.0)
        assert record.estimate.ratio > 1.0
        assert record.mode == "recompute"
