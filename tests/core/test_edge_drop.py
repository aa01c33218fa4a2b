"""DropEdge augmentation semantics."""

import numpy as np
import pytest

from repro.core.edge_drop import drop_edges
from repro.core.schedule import traverse
from repro.errors import GraphError
from repro.graph.generators import erdos_renyi, molecular_like
from repro.graph.graph import Graph


class TestDropEdges:
    def test_zero_fraction_is_copy(self, molecule):
        out = drop_edges(molecule, 0.0)
        assert out.num_edges == molecule.num_edges
        assert out is not molecule

    def test_drops_expected_count(self, rng):
        g = erdos_renyi(rng, 60, 0.3)
        out = drop_edges(g, 0.2, rng)
        assert out.num_edges == g.num_edges - int(round(0.2 * g.num_edges))

    def test_nodes_preserved(self, molecule, rng):
        out = drop_edges(molecule, 0.2, rng)
        assert out.num_nodes == molecule.num_nodes

    def test_remaining_edges_subset(self, molecule, rng):
        out = drop_edges(molecule, 0.3, rng)
        assert out.edge_set() <= molecule.edge_set()

    def test_edge_features_follow(self, rng):
        g = erdos_renyi(rng, 30, 0.3)
        feats = np.arange(g.num_edges)
        g = Graph(g.num_nodes, g.src, g.dst, edge_features=feats)
        out = drop_edges(g, 0.25, rng)
        # Surviving features still match their edges.
        orig = {(min(s, d), max(s, d)): f
                for s, d, f in zip(g.src, g.dst, feats)}
        for s, d, f in zip(out.src, out.dst, out.edge_features):
            assert orig[(min(s, d), max(s, d))] == f

    def test_connected_floor(self, rng):
        """Cannot drop below n-1 edges with the floor enabled."""
        g = molecular_like(rng, 20)
        out = drop_edges(g, 0.9, rng)
        assert out.num_edges >= g.num_nodes - 1

    def test_floor_disabled(self, rng):
        g = erdos_renyi(rng, 20, 0.5)
        out = drop_edges(g, 0.9, rng, keep_connected_floor=False)
        assert out.num_edges == g.num_edges - int(round(0.9 * g.num_edges))

    def test_invalid_fraction(self, molecule):
        with pytest.raises(GraphError):
            drop_edges(molecule, 1.0)
        with pytest.raises(GraphError):
            drop_edges(molecule, -0.1)

    def test_label_preserved(self, rng):
        g = erdos_renyi(rng, 15, 0.4)
        g.label = 2.5
        assert drop_edges(g, 0.2, rng).label == 2.5

    def test_deterministic_with_seed(self, rng):
        g = erdos_renyi(rng, 40, 0.3)
        a = drop_edges(g, 0.2, np.random.default_rng(9))
        b = drop_edges(g, 0.2, np.random.default_rng(9))
        assert a.edge_set() == b.edge_set()


class TestDropRateEffect:
    def test_workload_shrinks(self, rng):
        g = erdos_renyi(rng, 50, 0.3)
        dropped = drop_edges(g, 0.4, np.random.default_rng(0))
        full, heavy = traverse(g, window=2), traverse(dropped, window=2)
        assert dropped.num_edges < g.num_edges
        assert heavy.length <= full.length
        assert heavy.coverage == 1.0
