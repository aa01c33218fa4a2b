"""Edge-cut partitioner: balance and cut accounting."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph.partition import (
    cut_edges,
    edge_cut_partition,
    replication_factor,
)


class TestEdgeCutPartition:
    def test_assigns_every_vertex(self, er50, rng):
        assignment = edge_cut_partition(er50, 4, rng)
        assert assignment.min() >= 0
        assert assignment.max() < 4
        assert len(assignment) == 50

    def test_balance(self, er50, rng):
        assignment = edge_cut_partition(er50, 5, rng)
        sizes = np.bincount(assignment, minlength=5)
        assert sizes.max() - sizes.min() <= np.ceil(50 / 5)

    def test_k_one_no_cut(self, molecule, rng):
        assignment = edge_cut_partition(molecule, 1, rng)
        assert cut_edges(molecule, assignment) == 0

    def test_invalid_k(self, ring12):
        with pytest.raises(GraphError):
            edge_cut_partition(ring12, 0)
        with pytest.raises(GraphError):
            edge_cut_partition(ring12, 13)

    def test_bfs_growth_beats_random(self, rng):
        from repro.graph.generators import grid_graph

        g = grid_graph(10, 10)
        grown = edge_cut_partition(g, 4, np.random.default_rng(3))
        random_assign = np.random.default_rng(3).integers(0, 4, g.num_nodes)
        assert cut_edges(g, grown) < cut_edges(g, random_assign)

    def test_cut_grows_with_k(self, er50):
        cuts = []
        for k in (2, 5, 10):
            assignment = edge_cut_partition(er50, k,
                                            np.random.default_rng(0))
            cuts.append(cut_edges(er50, assignment))
        assert cuts[0] <= cuts[-1]


class TestReplication:
    def test_single_partition_factor_one(self, molecule):
        assignment = np.zeros(molecule.num_nodes, dtype=np.int64)
        assert replication_factor(molecule, assignment, 1) == pytest.approx(1.0)

    def test_factor_grows_with_cuts(self, er50):
        one = replication_factor(
            er50, np.zeros(50, dtype=np.int64), 1)
        many = replication_factor(
            er50, np.arange(50, dtype=np.int64) % 8, 8)
        assert many > one
