"""Aggregation runtimes: parity, declared op counts, message lists."""

import numpy as np
import pytest

from repro.core.config import MegaConfig
from repro.core.path import PathRepresentation
from repro.errors import GraphError
from repro.graph.batch import GraphBatch
from repro.graph.generators import molecular_like, ring_graph
from repro.models import GATLayer, GatedGCNLayer, GraphTransformerLayer
from repro.models.runtime import (BaselineRuntime, Gather, MegaRuntime,
                                  Scatter)
from repro.tensor import Tensor
from repro.tensor import functional as F


@pytest.fixture
def batch(rng):
    graphs = [molecular_like(rng, 12) for _ in range(4)]
    for g in graphs:
        g.label = 0.0
    return GraphBatch(graphs), graphs


def mega_runtime(batch, graphs, **cfg):
    paths = [PathRepresentation.from_graph(g, MegaConfig(**cfg))
             for g in graphs]
    return MegaRuntime(batch, paths)


class TestBaselineRuntime:
    def test_message_count(self, batch):
        b, _ = batch
        rt = BaselineRuntime(b)
        assert rt.num_messages == 2 * b.num_edges

    def test_messages_sorted_by_dst(self, batch):
        b, _ = batch
        rt = BaselineRuntime(b)
        assert np.all(np.diff(rt.msg_dst) >= 0)

    def test_each_directed_edge_once(self, batch):
        b, _ = batch
        rt = BaselineRuntime(b)
        pairs = set(zip(rt.msg_src.tolist(), rt.msg_dst.tolist()))
        s, d = b.graph.directed_edges()
        assert pairs == set(zip(s.tolist(), d.tolist()))

    def test_edge_ids_valid(self, batch):
        b, _ = batch
        rt = BaselineRuntime(b)
        assert rt.msg_edge.max() < b.num_edges


class TestMegaRuntime:
    def test_same_message_multiset(self, batch):
        """At full coverage MEGA processes exactly the baseline edges."""
        b, graphs = batch
        base = BaselineRuntime(b)
        mega = mega_runtime(b, graphs)
        base_set = sorted(zip(base.msg_src.tolist(), base.msg_dst.tolist()))
        mega_set = sorted(zip(mega.msg_src.tolist(), mega.msg_dst.tolist()))
        assert base_set == mega_set

    def test_band_positions_within_window(self, batch):
        b, graphs = batch
        mega = mega_runtime(b, graphs, window=2)
        assert np.abs(mega.pos_src - mega.pos_dst).max() <= mega.window

    def test_path_maps_positions_to_nodes(self, batch):
        b, graphs = batch
        mega = mega_runtime(b, graphs)
        assert np.array_equal(mega.msg_src, mega.path[mega.pos_src])
        assert np.array_equal(mega.msg_dst, mega.path[mega.pos_dst])

    def test_path_respects_node_offsets(self, batch):
        b, graphs = batch
        mega = mega_runtime(b, graphs)
        # Path positions of graph i only reference its node range.
        cursor = 0
        for i, g in enumerate(graphs):
            rep_len = len(mega.paths[i].path)
            segment = mega.path[cursor:cursor + rep_len]
            assert segment.min() >= b.node_offsets[i]
            assert segment.max() < b.node_offsets[i + 1]
            cursor += rep_len

    def test_coverage_property(self, batch):
        b, graphs = batch
        mega = mega_runtime(b, graphs)
        assert mega.coverage == 1.0
        assert mega.expansion >= 1.0

    def test_path_count_mismatch_rejected(self, batch):
        b, graphs = batch
        paths = [PathRepresentation.from_graph(graphs[0])]
        with pytest.raises(GraphError):
            MegaRuntime(b, paths)

    def test_wrong_graphs_rejected(self, batch):
        b, graphs = batch
        other = [ring_graph(5) for _ in graphs]
        paths = [PathRepresentation.from_graph(g) for g in other]
        with pytest.raises(GraphError):
            MegaRuntime(b, paths)

    def test_partial_coverage_fewer_messages(self, rng):
        graphs = [molecular_like(rng, 20) for _ in range(3)]
        for g in graphs:
            g.label = 0.0
        b = GraphBatch(graphs)
        full = mega_runtime(b, graphs, coverage=1.0)
        # edge_drop changes the graph, so drop via coverage target only.
        partial_paths = [PathRepresentation.from_graph(
            g, MegaConfig(window=1, coverage=0.7)) for g in graphs]
        partial = MegaRuntime(b, partial_paths)
        assert partial.num_messages <= full.num_messages


class TestOps:
    def test_scatter_counts(self):
        """Per-layer scatters are reads of each layer's declaration;
        edge-aligned ones count although they move no node rows."""
        layers = (GatedGCNLayer, GraphTransformerLayer, GATLayer)
        assert [cls.OPS.count(Scatter) for cls in layers] == [1, 5, 1]
        assert GraphTransformerLayer.OPS.ops.count(Scatter(0)) == 3

    def test_gather_counts(self):
        layers = (GatedGCNLayer, GraphTransformerLayer, GATLayer)
        assert [cls.OPS.count(Gather) for cls in layers] == [2, 2, 2]

    def test_aggregate_sum_matches_manual(self, batch):
        b, _ = batch
        rt = BaselineRuntime(b)
        msgs = np.random.default_rng(0).normal(size=(rt.num_messages, 3))
        out = rt.aggregate_sum(Tensor(msgs)).data
        expected = np.zeros((b.num_nodes, 3))
        np.add.at(expected, rt.msg_dst, msgs)
        assert np.allclose(out, expected)

    def test_edge_softmax_normalises_per_node(self, batch):
        b, _ = batch
        rt = BaselineRuntime(b)
        scores = Tensor(np.random.default_rng(1).normal(size=rt.num_messages))
        attn = rt.edge_softmax(scores).data
        sums = np.zeros(b.num_nodes)
        np.add.at(sums, rt.msg_dst, attn)
        touched = np.bincount(rt.msg_dst, minlength=b.num_nodes) > 0
        assert np.allclose(sums[touched], 1.0)

    def test_readout_mean(self, batch):
        b, _ = batch
        rt = BaselineRuntime(b)
        h = np.ones((b.num_nodes, 2))
        out = rt.readout_mean(Tensor(h)).data
        assert out.shape == (b.num_graphs, 2)
        assert np.allclose(out, 1.0)

