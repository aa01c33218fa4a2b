"""Parallel fan-out determinism and stack integration."""

import numpy as np
import pytest

from repro.cli import main
from repro.core import (MegaConfig, PathRepresentation, load_schedules_npz,
                        make_attention_plan)
from repro.datasets import load_dataset
from repro.graph.generators import erdos_renyi, molecular_like
from repro.pipeline import precompute_paths
from repro.train import Trainer, build_model


@pytest.fixture(scope="module")
def graphs():
    return ([molecular_like(np.random.default_rng(i), 20)
             for i in range(10)]
            + [erdos_renyi(np.random.default_rng(100 + i), 30, 0.12)
               for i in range(6)])


def _schedules_equal(a, b):
    return (np.array_equal(a.path, b.path)
            and np.array_equal(a.virtual_mask, b.virtual_mask)
            and a.cover_positions == b.cover_positions
            and a.num_jumps == b.num_jumps)


class TestWorkerDeterminism:
    def test_workers_4_matches_workers_1(self, graphs):
        serial = precompute_paths(graphs, workers=1)
        parallel = precompute_paths(graphs, workers=4)
        assert len(serial) == len(parallel) == len(graphs)
        for a, b in zip(serial.paths, parallel.paths):
            assert _schedules_equal(a.schedule, b.schedule)
        for a, b in zip(serial.plans, parallel.plans):
            assert np.array_equal(a.src_pos, b.src_pos)
            assert np.array_equal(a.dst_pos, b.dst_pos)
            assert np.array_equal(a.edge_ids, b.edge_ids)

    def test_matches_direct_construction(self, graphs):
        config = MegaConfig()
        result = precompute_paths(graphs, config, workers=2)
        for g, rep, plan in zip(graphs, result.paths, result.plans):
            direct = PathRepresentation.from_graph(g, config)
            assert _schedules_equal(direct.schedule, rep.schedule)
            direct_plan = make_attention_plan(direct)
            assert np.array_equal(direct_plan.src_pos, plan.src_pos)

    def test_edge_drop_rematerialises_same_work_graph(self, graphs):
        # Cached schedules must reattach to the *dropped* graph.
        config = MegaConfig(edge_drop=0.2, seed=3)
        direct = [PathRepresentation.from_graph(g, config) for g in graphs]
        piped = precompute_paths(graphs, config, workers=2)
        for a, b in zip(direct, piped.paths):
            assert a.graph.num_edges == b.graph.num_edges
            assert np.array_equal(a.graph.src, b.graph.src)
            assert _schedules_equal(a.schedule, b.schedule)

    def test_empty_input(self):
        result = precompute_paths([], workers=4)
        assert result.paths == [] and result.plans == []

    def test_duplicate_structures_computed_once(self, tmp_path):
        g = molecular_like(np.random.default_rng(0), 20)
        copies = [g.copy() for _ in range(5)]
        result = precompute_paths(copies, cache_dir=tmp_path)
        assert result.stats.computed == 1
        assert result.stats.deduplicated == 4
        for rep in result.paths[1:]:
            assert _schedules_equal(result.paths[0].schedule, rep.schedule)


class TestDatasetHook:
    """Whole-dataset preprocessing: ``repro preprocess`` and its pipeline."""

    def test_precompute_splits_align(self, tmp_path):
        out = tmp_path / "schedules.npz"
        assert main(["preprocess", "--dataset", "ZINC", "--scale", "0.01",
                     "--workers", "2", "--cache-dir", str(tmp_path / "c"),
                     "--output", str(out)]) == 0
        ds = load_dataset("ZINC", scale=0.01)
        expected = [f"{split}/{i}" for split, graphs in ds.splits.items()
                    for i in range(len(graphs))]
        with np.load(out) as archive:
            keys = list(dict.fromkeys(name.rsplit("/", 1)[0]
                                      for name in archive.files))
        assert keys == expected
        schedules = load_schedules_npz(out)
        for split, graphs in ds.splits.items():
            for i, g in enumerate(graphs):
                path = schedules[f"{split}/{i}"].path
                assert set(path.tolist()) == set(range(g.num_nodes))

    def test_dataset_warm_second_call(self, tmp_path):
        graphs = load_dataset("ZINC", scale=0.01).all_graphs()
        cold = precompute_paths(graphs, cache_dir=tmp_path)
        warm = precompute_paths(graphs, cache_dir=tmp_path)
        assert cold.stats.cache.misses > 0
        assert warm.stats.cache.hits == len(graphs)
        assert warm.stats.computed == 0


class TestTrainerIntegration:
    def test_trainer_uses_cache(self, tmp_path):
        ds = load_dataset("ZINC", scale=0.005)
        model = build_model("GT", ds, hidden_dim=16, num_layers=2)
        t1 = Trainer(model, ds, method="mega", batch_size=8,
                     cache_dir=tmp_path)
        assert t1.pipeline_stats.cache.misses == ds.num_graphs
        t2 = Trainer(build_model("GT", ds, hidden_dim=16, num_layers=2),
                     ds, method="mega", batch_size=8, cache_dir=tmp_path)
        assert t2.pipeline_stats.cache.hits == ds.num_graphs
        # Same schedules either way.
        for g in ds.train:
            assert np.array_equal(t1._paths[id(g)].path,
                                  t2._paths[id(g)].path)

    def test_baseline_trainer_untouched(self, tmp_path):
        ds = load_dataset("ZINC", scale=0.005)
        model = build_model("GT", ds, hidden_dim=16, num_layers=2)
        trainer = Trainer(model, ds, method="baseline", batch_size=8,
                          cache_dir=tmp_path)
        assert trainer.pipeline_stats is None
        assert trainer.preprocess_s == 0.0
