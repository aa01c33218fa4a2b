"""Property tests: runtime equivalence over random graphs (hypothesis)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MegaConfig, PathRepresentation
from repro.graph.batch import GraphBatch
from repro.graph.generators import erdos_renyi
from repro.graph.graph import Graph
from repro.models import GAT, GatedGCN, GraphTransformer, ModelConfig
from repro.models.runtime import BaselineRuntime, MegaRuntime
from repro.tensor import Tensor, no_grad
from tests.strategies import batches


def build_batch(num_graphs, n, p, seed):
    rng = np.random.default_rng(seed)
    graphs = []
    for _ in range(num_graphs):
        g = erdos_renyi(rng, n, p)
        g.label = 0.0
        graphs.append(g)
    batch = GraphBatch(graphs)
    paths = [PathRepresentation.from_graph(g, MegaConfig())
             for g in graphs]
    return batch, BaselineRuntime(batch), MegaRuntime(batch, paths)


@settings(max_examples=15, deadline=None)
@given(n=st.integers(4, 18), p=st.floats(0.1, 0.5),
       seed=st.integers(0, 100))
def test_message_multisets_equal(n, p, seed):
    """MEGA at full coverage processes exactly the baseline's messages."""
    _, base, mega = build_batch(3, n, p, seed)
    a = sorted(zip(base.msg_src.tolist(), base.msg_dst.tolist(),
                   base.msg_edge.tolist()))
    b = sorted(zip(mega.msg_src.tolist(), mega.msg_dst.tolist(),
                   mega.msg_edge.tolist()))
    assert a == b


@settings(max_examples=10, deadline=None)
@given(n=st.integers(4, 14), p=st.floats(0.15, 0.5),
       seed=st.integers(0, 50), dim=st.integers(1, 6))
def test_aggregation_equal(n, p, seed, dim):
    """Segment sums agree between the two schedules for any features."""
    batch, base, mega = build_batch(2, n, p, seed)
    rng = np.random.default_rng(seed + 1)
    messages = rng.normal(size=(base.num_messages, dim))
    # Align message rows by (src, dst, edge) key to feed both runtimes
    # the same per-edge values in their own orders.
    def key_order(rt):
        keys = list(zip(rt.msg_src.tolist(), rt.msg_dst.tolist(),
                        rt.msg_edge.tolist()))
        return np.argsort(
            np.array([hash(k) for k in keys]), kind="stable")

    base_sorted = key_order(base)
    mega_sorted = key_order(mega)
    base_vals = np.empty_like(messages)
    base_vals[base_sorted] = messages
    mega_vals = np.empty_like(messages)
    mega_vals[mega_sorted] = messages
    out_base = base.aggregate_sum(Tensor(base_vals)).data
    out_mega = mega.aggregate_sum(Tensor(mega_vals)).data
    assert np.allclose(out_base, out_mega, atol=1e-9)


@settings(max_examples=10, deadline=None)
@given(n=st.integers(4, 14), p=st.floats(0.15, 0.5),
       seed=st.integers(0, 50))
def test_band_positions_valid(n, p, seed):
    _, _, mega = build_batch(2, n, p, seed)
    # Positions inside the batched path, window respected, mapping holds.
    assert mega.pos_src.max(initial=0) < mega.path_length
    assert np.abs(mega.pos_src - mega.pos_dst).max(initial=0) <= mega.window
    assert np.array_equal(mega.path[mega.pos_dst], mega.msg_dst)


@settings(max_examples=10, deadline=None)
@given(n=st.integers(4, 12), seed=st.integers(0, 50))
def test_expansion_bounded_for_sparse(n, seed):
    rng = np.random.default_rng(seed)
    g = erdos_renyi(rng, n, 2.5 / n)
    rep = PathRepresentation.from_graph(g, MegaConfig())
    assert rep.expansion <= 3.0


MODEL_CONFIG = ModelConfig(hidden_dim=8, num_layers=2, num_heads=2,
                           num_node_types=5, num_edge_types=3)
MODELS = [cls(MODEL_CONFIG) for cls in (GatedGCN, GraphTransformer, GAT)]


@settings(max_examples=25, deadline=None)
@given(members=batches(), seed=st.integers(0, 2 ** 16))
def test_model_predictions_equal(members, seed):
    """At θ=1 with no edge drop, MEGA and the baseline predict the same
    for every model, on any batch shape (empty and edgeless included)."""
    rng = np.random.default_rng(seed)
    graphs = [Graph(g.num_nodes, g.src, g.dst,
                    node_features=rng.integers(0, 5, g.num_nodes),
                    edge_features=rng.integers(0, 3, g.num_edges),
                    label=0.0) for g in members]
    batch = GraphBatch(graphs)
    paths = [PathRepresentation.from_graph(g, MegaConfig(coverage=1.0))
             for g in graphs]
    base, mega = BaselineRuntime(batch), MegaRuntime(batch, paths)
    for model in MODELS:
        model.eval()
        with no_grad():
            a = model(batch, base).data
            b = model(batch, mega).data
        assert np.allclose(a, b, atol=1e-10)
