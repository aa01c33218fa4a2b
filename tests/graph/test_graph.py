"""Graph structure: construction, validation, derived quantities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graph.graph import Graph, complete_graph, from_edge_list
from tests.nx_bridge import to_networkx
from tests.strategies import directed_graphs, graphs


class TestConstruction:
    def test_from_edge_list_infers_nodes(self):
        g = from_edge_list([(0, 1), (1, 2)])
        assert g.num_nodes == 3
        assert g.num_edges == 2

    def test_empty_graph(self):
        g = Graph(0, [], [])
        assert g.num_nodes == 0
        assert g.num_edges == 0
        assert g.sparsity == 0.0

    def test_rejects_negative_nodes(self):
        with pytest.raises(GraphError):
            Graph(-1, [], [])

    def test_rejects_out_of_range_edges(self):
        with pytest.raises(GraphError):
            Graph(3, [0], [3])
        with pytest.raises(GraphError):
            Graph(3, [-1], [0])

    def test_rejects_mismatched_arrays(self):
        with pytest.raises(GraphError):
            Graph(3, [0, 1], [1])

    def test_fractional_endpoint_ids_are_not_truncated(self):
        """Regression: ``Graph(3, [0.5, 1.7], [1, 2])`` was accepted with
        its ids silently truncated to ``[0, 1]``."""
        with pytest.raises(GraphError, match="src ids must be integers"):
            Graph(3, [0.5, 1.7], [1, 2])
        with pytest.raises(GraphError, match="dst ids must be integers"):
            Graph(3, [0, 1], [1, float("nan")])
        with pytest.raises(GraphError):
            Graph(3, ["a"], [1])

    def test_integral_float_endpoint_ids_are_accepted(self):
        g = Graph(3, np.array([0.0, 1.0]), [1, 2])
        assert g.src.dtype == np.int64
        assert g.src.tolist() == [0, 1]

    def test_rejects_bad_feature_lengths(self):
        with pytest.raises(GraphError):
            Graph(3, [0], [1], node_features=np.zeros(2))
        with pytest.raises(GraphError):
            Graph(3, [0], [1], edge_features=np.zeros(2))

    def test_copy_is_independent(self):
        g = from_edge_list([(0, 1)], node_features=np.zeros(2))
        h = g.copy()
        h.src[0] = 1
        assert g.src[0] == 0


class TestDerivedQuantities:
    def test_degrees_ring(self, ring12):
        assert np.all(ring12.degrees() == 2)

    def test_degrees_star(self, star10):
        deg = star10.degrees()
        assert deg[0] == 10
        assert np.all(deg[1:] == 1)

    def test_degrees_self_loop_counts_once_per_endpoint(self):
        g = Graph(2, [0, 0], [0, 1])
        # self loop (0,0) + edge (0,1)
        assert g.degrees()[0] == 2

    @settings(max_examples=80, deadline=None)
    @given(graph=st.one_of(graphs(max_nodes=20), directed_graphs()))
    def test_degrees_match_add_at_reference(self, graph):
        # Self-loops count once undirected, twice (out + in) directed.
        want = np.zeros(graph.num_nodes, dtype=np.int64)
        np.add.at(want, graph.src, 1)
        np.add.at(want, graph.dst, 1)
        if graph.undirected:
            loops = graph.src == graph.dst
            np.add.at(want, graph.src[loops], -1)
        got = graph.degrees()
        assert got.dtype == np.int64
        assert np.array_equal(got, want)

    def test_sparsity_complete_graph(self, k8):
        assert k8.sparsity == pytest.approx(1.0)

    def test_sparsity_ring(self, ring12):
        assert ring12.sparsity == pytest.approx(12 / (12 * 11 / 2))

    def test_directed_edges_doubles_undirected(self, ring12):
        s, d = ring12.directed_edges()
        assert len(s) == 2 * ring12.num_edges

    def test_directed_edges_keeps_self_loops_single(self):
        g = Graph(2, [0, 0], [0, 1])
        s, d = g.directed_edges()
        assert len(s) == 3  # loop once + edge both ways

    def test_adjacency_lists_symmetric(self, er50):
        adj = er50.adjacency_lists()
        for v in range(er50.num_nodes):
            for w in adj[v]:
                assert v in adj[int(w)]

    def test_neighbors_bounds_check(self, ring12):
        with pytest.raises(GraphError):
            ring12.neighbors(100)

    def test_has_edge(self, ring12):
        assert ring12.has_edge(0, 1)
        assert ring12.has_edge(1, 0)
        assert not ring12.has_edge(0, 5)
        assert not ring12.has_edge(-1, 5)

    def test_edge_set_canonical(self):
        g = from_edge_list([(1, 0), (2, 1)])
        assert g.edge_set() == {(0, 1), (1, 2)}

    def test_adjacency_matrix_symmetric(self, molecule):
        mat = molecule.adjacency_matrix()
        assert np.array_equal(mat, mat.T)
        assert mat.sum() == 2 * molecule.num_edges


class TestHelpers:
    def test_complete_graph_edge_count(self):
        g = complete_graph(10)
        assert g.num_edges == 45
        assert np.all(g.degrees() == 9)

    def test_to_networkx_matches(self, molecule):
        nx_g = to_networkx(molecule)
        assert nx_g.number_of_nodes() == molecule.num_nodes
        assert nx_g.number_of_edges() == molecule.num_edges

    def test_repr_contains_counts(self, ring12):
        assert "n=12" in repr(ring12)
