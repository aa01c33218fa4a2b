"""Dataset generators vs the paper's Table II/III statistics."""

import numpy as np
import pytest

from repro.datasets import load_csl, load_cycles, load_dataset, load_zinc
from repro.datasets.base import GraphDataset
from repro.datasets.statistics import (
    directed_edge_count,
    directed_sparsity,
    table_three_row,
    table_two_row,
)
from repro.errors import ConfigError, GraphError
from repro.graph.graph import Graph


SCALE = 0.02


@pytest.fixture(scope="module")
def zinc():
    return load_dataset("ZINC", scale=SCALE)


@pytest.fixture(scope="module")
def aqsol():
    return load_dataset("AQSOL", scale=SCALE)


@pytest.fixture(scope="module")
def csl():
    return load_dataset("CSL")


@pytest.fixture(scope="module")
def cycles():
    return load_dataset("CYCLES", scale=SCALE)


class TestRegistry:
    def test_unknown_name(self):
        with pytest.raises(ConfigError):
            load_dataset("IMAGENET")

    def test_case_insensitive(self):
        ds = load_dataset("zinc", scale=0.005)
        assert ds.name == "ZINC"


class TestSplits:
    def test_zinc_split_ratio(self, zinc):
        assert len(zinc.train) > len(zinc.validation)
        assert len(zinc.validation) == len(zinc.test)

    def test_csl_default_sizes(self, csl):
        # ~90/30/30 like Table II.
        assert len(csl.train) == 92
        assert len(csl.validation) == 32
        assert len(csl.test) == 32

    def test_all_graphs_labelled(self, zinc, cycles):
        for ds in (zinc, cycles):
            for g in ds.all_graphs():
                assert g.label is not None

    def test_dataset_rejects_unlabelled(self):
        g = Graph(2, [0], [1])
        with pytest.raises(GraphError):
            GraphDataset("X", "regression", [g], [], [])

    def test_dataset_rejects_bad_task(self):
        g = Graph(2, [0], [1], label=0.0)
        with pytest.raises(GraphError):
            GraphDataset("X", "ranking", [g], [g], [g])


class TestTableTwo:
    """Generated statistics must sit near the published Table II row."""

    def test_zinc_row(self, zinc):
        row = table_two_row(zinc)
        assert row.mean_nodes == pytest.approx(23, abs=2)
        assert row.mean_edges == pytest.approx(50, abs=5)
        assert row.mean_sparsity == pytest.approx(0.096, abs=0.02)

    def test_aqsol_row(self, aqsol):
        row = table_two_row(aqsol)
        assert row.mean_nodes == pytest.approx(18, abs=2)
        assert row.mean_edges == pytest.approx(36, abs=5)
        assert row.mean_sparsity == pytest.approx(0.148, abs=0.05)

    def test_csl_row(self, csl):
        row = table_two_row(csl)
        assert row.mean_nodes == 41
        assert row.mean_edges == 164
        assert row.mean_sparsity == pytest.approx(0.098, abs=0.005)

    def test_cycles_row(self, cycles):
        row = table_two_row(cycles)
        assert row.mean_nodes == pytest.approx(49, abs=3)
        assert row.mean_sparsity == pytest.approx(0.036, abs=0.01)


class TestTableThree:
    def test_csl_perfectly_regular(self, csl):
        row = table_three_row(csl)
        assert row.mean_degree_std == 0.0
        assert row.std_min_degree == 0.0
        assert row.std_max_degree == 0.0
        assert row.mean_ks_similarity == pytest.approx(1.0)

    def test_molecular_consistency(self, zinc):
        row = table_three_row(zinc)
        # Degree distributions are interchangeable across molecules.
        assert row.mean_ks_similarity > 0.8
        assert row.std_mean_degree < 0.15

    def test_cycles_min_degree_constant(self, cycles):
        row = table_three_row(cycles)
        assert row.std_min_degree < 0.6  # leaves everywhere (paper: 0.0)


class TestFeatures:
    def test_zinc_vocabulary(self, zinc):
        for g in zinc.train[:10]:
            feats = np.asarray(g.node_features)
            assert feats.dtype.kind in "iu"
            assert feats.max() < zinc.num_node_types
            assert np.asarray(g.edge_features).max() < zinc.num_edge_types

    def test_csl_continuous_pe(self, csl):
        g = csl.train[0]
        feats = np.asarray(g.node_features)
        assert feats.ndim == 2 and feats.shape[1] == 8
        assert feats.dtype.kind == "f"

    def test_cycles_balanced_classes(self, cycles):
        labels = [g.label for g in cycles.train]
        assert 0.4 < np.mean(labels) < 0.6


class TestDeterminism:
    def test_same_seed_same_targets(self):
        a = load_zinc(num_train=20, num_val=5, num_test=5, seed=3)
        b = load_zinc(num_train=20, num_val=5, num_test=5, seed=3)
        assert [g.label for g in a.train] == [g.label for g in b.train]

    def test_different_seed_differs(self):
        a = load_zinc(num_train=20, num_val=5, num_test=5, seed=3)
        b = load_zinc(num_train=20, num_val=5, num_test=5, seed=4)
        assert [g.label for g in a.train] != [g.label for g in b.train]


class TestTargets:
    def test_zinc_targets_vary(self, zinc):
        labels = np.array([g.label for g in zinc.train])
        assert labels.std() > 0.1

    def test_target_depends_on_structure(self):
        """Same features, different wiring → different target."""
        from repro.datasets.zinc import _target

        feats = np.zeros(6, dtype=np.int64)
        efeat = np.zeros(6, dtype=np.int64)
        path = Graph(6, [0, 1, 2, 3, 4, 0], [1, 2, 3, 4, 5, 5],
                     node_features=feats, edge_features=efeat)
        star = Graph(6, [0, 0, 0, 0, 0, 1], [1, 2, 3, 4, 5, 2],
                     node_features=feats, edge_features=efeat)
        assert _target(path) != _target(star)

    def test_cycles_label_reflects_structure(self, cycles):
        """Positive and negative graphs have equal edge counts."""
        pos = [g for g in cycles.train if g.label == 1][:20]
        neg = [g for g in cycles.train if g.label == 0][:20]
        pos_ratio = np.mean([g.num_edges / g.num_nodes for g in pos])
        neg_ratio = np.mean([g.num_edges / g.num_nodes for g in neg])
        assert abs(pos_ratio - neg_ratio) < 0.05
