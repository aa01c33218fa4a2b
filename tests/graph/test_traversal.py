"""Classic traversals, cross-validated against networkx."""

import networkx as nx
import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph import traversal as tv
from repro.graph.graph import from_edge_list
from tests.nx_bridge import to_networkx


class TestBFS:
    def test_visits_every_vertex_once(self, er50):
        order = tv.bfs_order(er50, 0)
        assert sorted(order.tolist()) == list(range(50))

    def test_level_structure_grid(self, grid4x5):
        order = tv.bfs_order(grid4x5, 0)
        dist = tv.bfs_distances(grid4x5, 0)
        # BFS order must be non-decreasing in distance.
        assert np.all(np.diff(dist[order]) >= 0) or True
        levels = dist[order]
        assert all(levels[i] <= levels[i + 1] for i in range(len(levels) - 1))

    def test_disconnected_appends_remaining(self):
        g = from_edge_list([(0, 1), (2, 3)], num_nodes=5)
        order = tv.bfs_order(g, 0)
        assert sorted(order.tolist()) == [0, 1, 2, 3, 4]

    def test_invalid_start(self, ring12):
        with pytest.raises(GraphError):
            tv.bfs_order(ring12, 50)


class TestDFS:
    def test_visits_every_vertex_once(self, molecule):
        order = tv.dfs_order(molecule, 0)
        assert sorted(order.tolist()) == list(range(molecule.num_nodes))

    def test_path_graph_is_linear(self):
        g = from_edge_list([(i, i + 1) for i in range(9)])
        order = tv.dfs_order(g, 0)
        assert order.tolist() == list(range(10))


class TestDistances:
    def test_matches_networkx(self, er50):
        dist = tv.bfs_distances(er50, 0)
        nx_dist = nx.single_source_shortest_path_length(to_networkx(er50), 0)
        for v, d in nx_dist.items():
            assert dist[v] == d

    def test_unreachable_is_minus_one(self):
        g = from_edge_list([(0, 1)], num_nodes=3)
        dist = tv.bfs_distances(g, 0)
        assert dist[2] == -1

    def test_eccentricity_ring(self, ring12):
        assert tv.bfs_distances(ring12, 0).max() == 6


class TestComponents:
    def test_single_component(self, molecule):
        comps = tv.connected_components(molecule)
        assert len(comps) == 1
        assert len(comps[0]) == molecule.num_nodes

    def test_multiple_components(self):
        g = from_edge_list([(0, 1), (2, 3)], num_nodes=6)
        comps = tv.connected_components(g)
        assert len(comps) == 4  # {0,1}, {2,3}, {4}, {5}
        sizes = sorted(len(c) for c in comps)
        assert sizes == [1, 1, 2, 2]

    def test_matches_networkx(self, rng):
        from repro.graph.generators import erdos_renyi

        g = erdos_renyi(rng, 40, 0.02, ensure_connected=False)
        ours = len(tv.connected_components(g))
        theirs = nx.number_connected_components(to_networkx(g))
        assert ours == theirs

    def test_is_connected(self, ring12):
        assert tv.is_connected(ring12)
        g = from_edge_list([(0, 1)], num_nodes=3)
        assert not tv.is_connected(g)

    def test_is_connected_empty_graph(self):
        # Regression: the empty graph has zero components ([]), which is
        # vacuously connected without any num_nodes special case.
        from repro.graph.graph import Graph

        g = Graph(0, [], [])
        assert tv.connected_components(g) == []
        assert tv.is_connected(g)

    def test_is_connected_single_vertex(self):
        from repro.graph.graph import Graph

        assert tv.is_connected(Graph(1, [], []))


class TestPeripheral:
    def test_path_graph_endpoint(self):
        g = from_edge_list([(i, i + 1) for i in range(9)])
        v = tv.pseudo_peripheral_vertex(g)
        assert v in (0, 9)

    def test_empty_graph_raises(self):
        from repro.graph.graph import Graph

        with pytest.raises(GraphError):
            tv.pseudo_peripheral_vertex(Graph(0, [], []))
