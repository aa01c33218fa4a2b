"""Reordering baselines: permutation correctness and locality effects."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph import reorder
from repro.graph.generators import grid_graph, ring_graph
from repro.graph.graph import from_edge_list


class TestOrders:
    @pytest.mark.parametrize("policy", sorted(reorder.REORDER_POLICIES))
    def test_orders_are_permutations(self, policy, molecule):
        order = reorder.REORDER_POLICIES[policy](molecule)
        assert sorted(order.tolist()) == list(range(molecule.num_nodes))

    def test_degree_sort_descending(self, star10):
        order = reorder.degree_sort_order(star10)
        assert order[0] == 0  # the hub first

    def test_degree_sort_ascending(self, star10):
        order = reorder.degree_sort_order(star10, descending=False)
        assert order[-1] == 0


class TestApplyOrder:
    def test_identity_keeps_graph(self, molecule):
        g = reorder.apply_order(molecule, np.arange(molecule.num_nodes))
        assert g.edge_set() == molecule.edge_set()

    def test_preserves_structure(self, molecule):
        rng = np.random.default_rng(0)
        order = rng.permutation(molecule.num_nodes)
        g = reorder.apply_order(molecule, order)
        assert g.num_edges == molecule.num_edges
        assert sorted(g.degrees().tolist()) == sorted(
            molecule.degrees().tolist())

    def test_node_features_follow(self):
        g = from_edge_list([(0, 1), (1, 2)],
                           node_features=np.array([[0.0], [1.0], [2.0]]))
        out = reorder.apply_order(g, np.array([2, 1, 0]))
        assert np.allclose(out.node_features.ravel(), [2.0, 1.0, 0.0])

    def test_rejects_non_permutation(self, ring12):
        with pytest.raises(GraphError):
            reorder.apply_order(ring12, np.zeros(12, dtype=np.int64))


class TestLocalityMetrics:
    def test_bandwidth_ring_natural_order(self):
        g = ring_graph(10)
        # natural ring ordering: bandwidth dominated by the wrap edge
        assert reorder.bandwidth(g) == 9

    def test_rcm_reduces_grid_bandwidth(self):
        g = grid_graph(6, 20)   # long thin grid: RCM shines
        shuffled = reorder.apply_order(
            g, np.random.default_rng(1).permutation(g.num_nodes))
        rcm = reorder.apply_order(shuffled, reorder.rcm_order(shuffled))
        assert reorder.bandwidth(rcm) < reorder.bandwidth(shuffled)

    def test_bfs_improves_mean_index_distance(self, er50):
        shuffled = reorder.apply_order(
            er50, np.random.default_rng(2).permutation(er50.num_nodes))
        improved = reorder.apply_order(shuffled,
                                       reorder.bfs_reorder(shuffled))
        def mean_index_distance(g):
            return np.abs(g.src - g.dst).mean()

        assert (mean_index_distance(improved)
                <= mean_index_distance(shuffled) + 1e-9)

    def test_empty_graph_metrics(self):
        from repro.graph.graph import Graph

        g = Graph(3, [], [])
        assert reorder.bandwidth(g) == 0
