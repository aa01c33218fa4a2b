"""Property tests: runtime equivalence over random graphs (hypothesis).

Graphs come from the shared strategies (:mod:`tests.strategies`), so
the batches include empty, edgeless, disconnected, self-looped and
skewed-degree members.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MegaConfig, PathRepresentation
from repro.graph.batch import GraphBatch
from repro.graph.generators import erdos_renyi
from repro.graph.graph import Graph
from repro.models import GAT, GatedGCN, GraphTransformer, ModelConfig
from repro.models.runtime import BaselineRuntime, MegaRuntime
from repro.tensor import Tensor, no_grad
from tests.strategies import batches, graphs


def build_batch(members):
    graphs = [Graph(g.num_nodes, g.src, g.dst, label=0.0) for g in members]
    batch = GraphBatch(graphs)
    paths = [PathRepresentation.from_graph(g, MegaConfig())
             for g in graphs]
    return batch, BaselineRuntime(batch), MegaRuntime(batch, paths)


@settings(max_examples=15, deadline=None)
@given(members=st.lists(graphs(max_nodes=18), min_size=3, max_size=3))
def test_message_multisets_equal(members):
    """MEGA at full coverage processes exactly the baseline's messages."""
    _, base, mega = build_batch(members)
    a = sorted(zip(base.msg_src.tolist(), base.msg_dst.tolist(),
                   base.msg_edge.tolist()))
    b = sorted(zip(mega.msg_src.tolist(), mega.msg_dst.tolist(),
                   mega.msg_edge.tolist()))
    assert a == b


@settings(max_examples=10, deadline=None)
@given(members=st.lists(graphs(), min_size=2, max_size=2),
       seed=st.integers(0, 50), dim=st.integers(1, 6))
def test_aggregation_equal(members, seed, dim):
    """Segment sums agree between the two schedules for any features."""
    batch, base, mega = build_batch(members)
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


def check_band_positions(mega):
    """Positions inside the batched path, window respected, mapping holds."""
    assert (mega.pos_src < mega.path_length).all()
    assert (mega.pos_dst < mega.path_length).all()
    assert np.abs(mega.pos_src - mega.pos_dst).max(initial=0) <= mega.window
    assert np.array_equal(mega.path[mega.pos_dst], mega.msg_dst)


@settings(max_examples=10, deadline=None)
@given(members=st.lists(graphs(), min_size=2, max_size=2))
def test_band_positions_valid(members):
    _, _, mega = build_batch(members)
    check_band_positions(mega)


def test_band_positions_valid_empty_batch():
    """Shrunk counterexample to the property's old form: two empty
    graphs give an empty path, and ``pos_src.max(initial=0) <
    path_length`` read 0 < 0 although no position exists."""
    _, _, mega = build_batch([Graph(0, [], []), Graph(0, [], [])])
    assert mega.path_length == 0
    check_band_positions(mega)


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


def featured(members, seed):
    """``members`` with seeded node/edge types and labels, batched, and
    both runtimes over the batch at θ = 1."""
    rng = np.random.default_rng(seed)
    graphs = [Graph(g.num_nodes, g.src, g.dst,
                    node_features=rng.integers(0, 5, g.num_nodes),
                    edge_features=rng.integers(0, 3, g.num_edges),
                    label=float(rng.normal())) for g in members]
    batch = GraphBatch(graphs)
    paths = [PathRepresentation.from_graph(g, MegaConfig(coverage=1.0))
             for g in graphs]
    return batch, BaselineRuntime(batch), MegaRuntime(batch, paths)


@settings(max_examples=25, deadline=None)
@given(members=batches(), seed=st.integers(0, 2 ** 16))
def test_model_predictions_equal(members, seed):
    """At θ=1 with no edge drop, MEGA and the baseline predict the same
    for every model, on any batch shape (empty and edgeless included)."""
    batch, base, mega = featured(members, seed)
    for model in MODELS:
        model.eval()
        with no_grad():
            a = model(batch, base).data
            b = model(batch, mega).data
        assert np.allclose(a, b, atol=1e-10)


@settings(max_examples=25, deadline=None)
@given(members=batches(), seed=st.integers(0, 2 ** 16))
def test_model_gradients_equal(members, seed):
    """Training equivalence: one loss's parameter gradients agree
    between the runtimes for every model, on the same draws as the
    predictions.  Eval mode, so nothing random runs in the forward.
    The Figs. 11-14 trajectories being identical rests on this."""
    batch, base, mega = featured(members, seed)
    for model in MODELS:
        model.eval()
        grads = []
        for runtime in (base, mega):
            model.zero_grad()
            model.loss(model(batch, runtime), batch.labels).backward()
            grads.append([p.grad for p in model.parameters()])
        for a, b in zip(*grads):
            assert (a is None) == (b is None)
            if a is not None:
                assert np.allclose(a, b, atol=1e-10)
