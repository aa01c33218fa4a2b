"""Layer-level semantics shared by both backends."""

import numpy as np
import pytest

from repro.graph.batch import GraphBatch
from repro.graph.generators import molecular_like, star_graph
from repro.models.layers import GatedGCNLayer, GraphTransformerLayer
from repro.models.runtime import BaselineRuntime, Gather, Scatter
from repro.tensor import Tensor


@pytest.fixture
def setting(rng):
    g = molecular_like(rng, 14)
    g.label = 0.0
    batch = GraphBatch([g])
    rt = BaselineRuntime(batch)
    h = Tensor(rng.normal(size=(batch.num_nodes, 16)), requires_grad=True)
    e = Tensor(rng.normal(size=(rt.num_messages, 16)), requires_grad=True)
    return batch, rt, h, e


class TestGatedGCNLayer:
    def test_shapes_preserved(self, setting, rng):
        batch, rt, h, e = setting
        layer = GatedGCNLayer(16, rng=rng)
        h2, e2 = layer(h, e, rt)
        assert h2.shape == h.shape
        assert e2.shape == e.shape

    def test_counter_profile(self):
        """Table I's call counts (1 scatter, 2 gathers), declared."""
        ops = GatedGCNLayer.OPS
        assert (ops.count(Scatter), ops.count(Gather)) == (1, 2)
        assert ops.weights_d2 == 5

    def test_gradient_flow(self, setting, rng):
        batch, rt, h, e = setting
        layer = GatedGCNLayer(16, rng=rng)
        h2, e2 = layer(h, e, rt)
        (h2.sum() + e2.sum()).backward()
        assert h.grad is not None and e.grad is not None
        assert layer.proj_a.weight.grad is not None

    def test_isolated_node_keeps_finite_output(self, rng):
        """The ε in the gate denominator protects degree-0 nodes."""
        from repro.graph.graph import Graph

        g = Graph(3, [0], [1], label=0.0)   # node 2 isolated
        batch = GraphBatch([g])
        rt = BaselineRuntime(batch)
        layer = GatedGCNLayer(8, rng=rng)
        h = Tensor(rng.normal(size=(3, 8)))
        e = Tensor(rng.normal(size=(rt.num_messages, 8)))
        h2, _ = layer(h, e, rt)
        assert np.isfinite(h2.data).all()


class TestGraphTransformerLayer:
    def test_shapes_preserved(self, setting, rng):
        batch, rt, h, e = setting
        layer = GraphTransformerLayer(16, num_heads=4, rng=rng)
        h2, e2 = layer(h, e, rt)
        assert h2.shape == h.shape
        assert e2.shape == e.shape

    def test_counter_profile_matches_table1(self):
        """Table I's call counts (5 scatters, 2 gathers), declared."""
        ops = GraphTransformerLayer.OPS
        assert (ops.count(Scatter), ops.count(Gather)) == (5, 2)
        assert ops.weights_d2 == 14

    def test_attention_is_convex_combination(self, rng):
        """With V = identity-ish inputs, aggregated rows stay bounded by
        the neighbourhood's value range (softmax convexity)."""
        g = star_graph(6)
        g.label = 0.0
        batch = GraphBatch([g])
        rt = BaselineRuntime(batch)
        layer = GraphTransformerLayer(8, num_heads=2, rng=rng)
        h = Tensor(rng.normal(size=(7, 8)))
        e = Tensor(np.zeros((rt.num_messages, 8)))
        h2, _ = layer(h, e, rt)
        assert np.isfinite(h2.data).all()

    def test_gradient_flow(self, setting, rng):
        batch, rt, h, e = setting
        layer = GraphTransformerLayer(16, num_heads=2, rng=rng)
        h2, e2 = layer(h, e, rt)
        (h2.sum() + e2.sum()).backward()
        assert h.grad is not None and e.grad is not None
        assert layer.proj_q.weight.grad is not None
        assert layer.ffn_e2.weight.grad is not None

    def test_head_split_roundtrip(self, rng):
        layer = GraphTransformerLayer(12, num_heads=3, rng=rng)
        x = Tensor(rng.normal(size=(5, 12)))
        split = layer._split_heads(x)
        assert split.shape == (5, 3, 4)
        assert np.allclose(split.reshape(5, 12).data, x.data)
