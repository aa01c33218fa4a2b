"""Diagonal attention plans: bandwidth, reuse, dense-slot exactness."""

import numpy as np
import pytest

from repro.core.config import MegaConfig
from repro.core.diagonal import (
    band_layout_matrix,
    make_attention_plan,
    make_dense_band_plan,
    workload_summary,
)
from repro.core.path import PathRepresentation
from repro.graph.generators import erdos_renyi, molecular_like, ring_graph


@pytest.fixture
def rep(molecule):
    return PathRepresentation.from_graph(molecule, MegaConfig(window=2))


class TestAttentionPlan:
    def test_messages_double_edges(self, rep, molecule):
        plan = make_attention_plan(rep)
        assert plan.num_messages == 2 * molecule.num_edges

    def test_bandwidth_bounded(self, rep):
        plan = make_attention_plan(rep)
        assert np.abs(plan.src_pos - plan.dst_pos).max() <= rep.window

    def test_sorted_by_destination(self, rep):
        plan = make_attention_plan(rep)
        assert np.all(np.diff(plan.dst_pos) >= 0)

    def test_symmetric_reuse_unique_edges(self, rep, molecule):
        plan = make_attention_plan(rep, symmetric_reuse=True)
        assert plan.num_unique_edges == molecule.num_edges
        # Mirror index maps every row to a representative slot.
        assert plan.mirror_index.max() == plan.num_unique_edges - 1

    def test_no_reuse_all_rows_unique(self, rep):
        plan = make_attention_plan(rep, symmetric_reuse=False)
        assert plan.unique_edge_rows.all()

    def test_mirror_broadcast_consistency(self, rep):
        """Representative values broadcast to both directions of an edge."""
        plan = make_attention_plan(rep, symmetric_reuse=True)
        rep_values = np.arange(plan.num_unique_edges)
        per_row = rep_values[plan.mirror_index]
        # Rows sharing an edge id share a value.
        for eid in np.unique(plan.edge_ids):
            rows = plan.edge_ids == eid
            assert len(np.unique(per_row[rows])) == 1


class TestDenseBandPlan:
    def test_shape(self, rep):
        dense = make_dense_band_plan(rep)
        assert dense.edge_slot.shape == (rep.length, 2 * rep.window + 1)
        assert dense.window == rep.window
        assert dense.length == rep.length

    def test_each_edge_twice(self, rep, molecule):
        dense = make_dense_band_plan(rep)
        filled = dense.edge_slot[dense.mask]
        counts = np.bincount(filled, minlength=molecule.num_edges)
        loops = molecule.src == molecule.dst
        assert np.all(counts[~loops] == 2)

    def test_masked_aggregation_matches_segment_sum(self, rep, molecule):
        """Dense band slots reproduce exact neighbour aggregation."""
        rng = np.random.default_rng(0)
        x = rng.normal(size=(molecule.num_nodes, 3))
        x_path = rep.scatter_to_path(x)
        dense = make_dense_band_plan(rep)
        src_pos = dense.source_positions()
        gathered = x_path[src_pos]                      # (L, 2w+1, 3)
        masked = gathered * dense.mask[:, :, None]
        per_position = masked.sum(axis=1)               # (L, 3)
        agg = rep.reduce_to_nodes(per_position, op="sum")
        # Reference: plain neighbour sum over directed edges.
        expected = np.zeros_like(x)
        s, d = molecule.directed_edges()
        np.add.at(expected, d, x[s])
        assert np.allclose(agg, expected)

    def test_fill_ratio_below_one(self, rep):
        dense = make_dense_band_plan(rep)
        assert 0 < dense.fill_ratio <= 1.0


class TestLayoutMatrix:
    def test_symmetric(self, rep):
        mat = band_layout_matrix(rep)
        assert np.array_equal(mat, mat.T)

    def test_banded(self, rep):
        mat = band_layout_matrix(rep)
        ii, jj = np.nonzero(mat)
        assert np.abs(ii - jj).max() <= rep.window

    def test_edge_count(self, rep, molecule):
        mat = band_layout_matrix(rep)
        loops = int((molecule.src == molecule.dst).sum())
        assert mat.sum() == 2 * (molecule.num_edges - loops) + loops


class TestWorkloadSummary:
    def test_keys_and_consistency(self, rep):
        s = workload_summary(rep)
        assert s["messages"] == 2 * rep.graph.num_edges
        assert s["band_slots"] >= s["messages"] / 2
        assert 0 < s["band_fill"] <= 2.0
        assert s["dense_saving"] <= 1.0

    def test_band_denser_than_global_for_sparse(self, rng):
        g = erdos_renyi(rng, 60, 0.05)
        rep = PathRepresentation.from_graph(g, MegaConfig(window=2))
        s = workload_summary(rep)
        # The band touches far fewer slots than dense n^2 attention.
        assert s["band_slots"] < 0.5 * s["dense_slots"]
