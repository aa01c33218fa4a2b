"""Graph batching: disjoint union bookkeeping."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph.batch import GraphBatch
from repro.graph.generators import molecular_like, ring_graph
from repro.graph.graph import Graph


def labelled(g, label=1.0):
    g.label = label
    return g


class TestGraphBatch:
    def test_counts(self, rng):
        graphs = [molecular_like(rng, 10) for _ in range(5)]
        batch = GraphBatch(graphs)
        assert batch.num_graphs == 5
        assert batch.num_nodes == sum(g.num_nodes for g in graphs)
        assert batch.num_edges == sum(g.num_edges for g in graphs)

    def test_rejects_empty(self):
        with pytest.raises(GraphError):
            GraphBatch([])

    def test_edge_offsets_disjoint(self, rng):
        graphs = [ring_graph(5), ring_graph(7)]
        batch = GraphBatch(graphs)
        # No edge may cross between the two graphs.
        gid_src = batch.graph_ids[batch.graph.src]
        gid_dst = batch.graph_ids[batch.graph.dst]
        assert np.array_equal(gid_src, gid_dst)

    def test_graph_ids_partition(self):
        batch = GraphBatch([ring_graph(4), ring_graph(6)])
        assert np.array_equal(np.bincount(batch.graph_ids), [4, 6])

    def test_nodes_of(self):
        batch = GraphBatch([ring_graph(4), ring_graph(6)])
        assert batch.nodes_of(0).tolist() == [0, 1, 2, 3]
        assert batch.nodes_of(1).tolist() == list(range(4, 10))
        with pytest.raises(GraphError):
            batch.nodes_of(2)

    def test_features_stacked(self, rng):
        g1 = Graph(3, [0, 1], [1, 2], node_features=np.ones((3, 2)),
                   edge_features=np.zeros(2), label=0.0)
        g2 = Graph(2, [0], [1], node_features=np.full((2, 2), 5.0),
                   edge_features=np.ones(1), label=1.0)
        batch = GraphBatch([g1, g2])
        assert batch.graph.node_features.shape == (5, 2)
        assert np.allclose(batch.graph.node_features[3:], 5.0)
        assert np.allclose(batch.graph.edge_features, [0, 0, 1])

    def test_features_none_when_any_missing(self):
        g1 = Graph(2, [0], [1], node_features=np.ones((2, 1)), label=0.0)
        g2 = Graph(2, [0], [1], label=0.0)
        batch = GraphBatch([g1, g2])
        assert batch.graph.node_features is None

    def test_labels_stacked(self):
        batch = GraphBatch([labelled(ring_graph(3), 1.5),
                            labelled(ring_graph(4), -2.0)])
        assert np.allclose(batch.labels, [1.5, -2.0])

    def test_labels_none_when_missing(self):
        batch = GraphBatch([ring_graph(3)])
        assert batch.labels is None

    def test_edge_graph_ids(self):
        batch = GraphBatch([ring_graph(3), ring_graph(5)])
        assert np.array_equal(np.bincount(batch.edge_graph_ids), [3, 5])

