"""Releasing the tape on backward: same gradient bits, less memory.

``Tensor.backward()`` releases each interior node once its closure has
run, interior gradients may alias, and ``Linear`` records one node.
The oracle below is the engine without those changes: it retains the
whole tape, copies every first gradient, records ``x @ W + b`` as two
nodes and gathers embeddings with ``np.add.at``.  Every parameter
gradient must match it bit for bit.
"""

import contextlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import MegaConfig
from repro.core.path import PathRepresentation
from repro.errors import GradError
from repro.graph.batch import GraphBatch
from repro.graph.graph import Graph
from repro.models import (
    GAT,
    BaselineRuntime,
    GatedGCN,
    GraphTransformer,
    MegaRuntime,
    ModelConfig,
)
from repro.tensor import Embedding, Linear, Tensor, no_grad
from repro.tensor.optim import SGD
from repro.tensor.tensor import _unbroadcast

from tests.strategies import batches

MODELS = {"GCN": GatedGCN, "GT": GraphTransformer, "GAT": GAT}
NODE_TYPES, EDGE_TYPES = 5, 3


# ----------------------------------------------------------------------
# The oracle engine
# ----------------------------------------------------------------------
def _oracle_backward(self, grad=None):
    """Retain-all backward: topo-sort, then run every closure in reverse."""
    topo, visited = [], set()
    stack = [(self, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    self._accumulate(np.ones_like(self.data) if grad is None else grad)
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


def _oracle_accumulate(self, grad):
    """Copy every first gradient, leaf or interior."""
    if not self.requires_grad:
        return
    grad = _unbroadcast(np.asarray(grad, dtype=self.data.dtype), self.shape)
    self.grad = grad.copy() if self.grad is None else self.grad + grad


def _oracle_linear(self, x):
    out = x @ self.weight
    return out if self.bias is None else out + self.bias


def _oracle_embedding(self, ids):
    return self.weight[np.asarray(ids, dtype=np.int64)]


@contextlib.contextmanager
def oracle_engine():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Tensor, "backward", _oracle_backward)
        patch.setattr(Tensor, "_accumulate", _oracle_accumulate)
        patch.setattr(Linear, "forward", _oracle_linear)
        patch.setattr(Embedding, "forward", _oracle_embedding)
        yield


# ----------------------------------------------------------------------
# Gradient bits
# ----------------------------------------------------------------------
def _featured(members, seed):
    """The drawn graphs with categorical features and a label each."""
    rng = np.random.default_rng(seed)
    return [Graph(g.num_nodes, g.src, g.dst,
                  node_features=rng.integers(0, NODE_TYPES, g.num_nodes),
                  edge_features=rng.integers(0, EDGE_TYPES, g.num_edges),
                  label=float(rng.normal()))
            for g in members]


def _runtime(kind, batch, graphs):
    if kind == "baseline":
        return BaselineRuntime(batch)
    return MegaRuntime(batch, [PathRepresentation.from_graph(g, MegaConfig())
                               for g in graphs])


def _parameter_grads(name, kind, graphs):
    config = ModelConfig(hidden_dim=8, num_layers=2, num_heads=2,
                         num_node_types=NODE_TYPES,
                         num_edge_types=EDGE_TYPES, seed=1)
    model = MODELS[name](config).train()
    batch = GraphBatch(graphs)
    runtime = _runtime(kind, batch, graphs)
    model.loss(model(batch, runtime), batch.labels).backward()
    return [(pname, p.grad) for pname, p in model.named_parameters()]


@pytest.mark.parametrize("kind", ["baseline", "mega"])
@pytest.mark.parametrize("name", sorted(MODELS))
@settings(max_examples=12, deadline=None)
# One edge at least: ``BatchNorm1d`` has no statistics over zero rows.
@given(members=batches().filter(lambda gs: any(g.num_edges for g in gs)),
       seed=st.integers(0, 2 ** 16))
def test_parameter_gradients_match_the_oracle_bit_for_bit(name, kind,
                                                          members, seed):
    graphs = _featured(members, seed)
    got = _parameter_grads(name, kind, graphs)
    with oracle_engine():
        want = _parameter_grads(name, kind, graphs)
    assert [n for n, _ in got] == [n for n, _ in want]
    for (pname, g), (_, w) in zip(got, want):
        assert (g is None) == (w is None), pname
        if g is not None:
            assert g.dtype == w.dtype, pname
            assert np.array_equal(g, w), pname


@pytest.mark.parametrize("bias", [True, False])
@pytest.mark.parametrize("shape", [(7, 4), (4,), (2, 3, 4)])
def test_one_node_linear_matches_the_two_node_tape(shape, bias):
    rng = np.random.default_rng(len(shape))
    linear = Linear(4, 5, bias=bias, rng=rng)
    if bias:
        linear.bias.data = rng.normal(size=5)
    x0 = rng.normal(size=shape)
    seed = rng.normal(size=shape[:-1] + (5,))

    def run():
        linear.zero_grad()
        x = Tensor(x0, requires_grad=True)
        out = linear(x)
        out.backward(seed)
        return out.data, [x.grad] + [p.grad for p in linear.parameters()]

    out, grads = run()
    with oracle_engine():
        want_out, want = run()
    assert np.array_equal(out, want_out)
    for g, w in zip(grads, want):
        assert g.shape == w.shape and np.array_equal(g, w)


def test_linear_records_one_node():
    x = Tensor(np.ones((4, 3)), requires_grad=True)
    for linear in (Linear(3, 2), Linear(3, 2, bias=False)):
        assert linear(x)._parents == (x, *linear.parameters())


# ----------------------------------------------------------------------
# Release and ownership
# ----------------------------------------------------------------------
class TestRelease:
    def test_second_backward_through_a_retained_tensor_raises(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        y = x * 2
        y.sum().backward()
        with pytest.raises(GradError, match="already released"):
            y.sum().backward()
        assert np.array_equal(x.grad, [2.0])

    def test_second_graph_over_a_released_tensor_raises(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        y = x * 2
        (y * 3).sum().backward()
        with pytest.raises(GradError, match="already released"):
            (y * 5).sum().backward()
        assert np.array_equal(x.grad, [6.0])

    def test_interior_tensors_are_released(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        w = Tensor(np.ones((3, 2)), requires_grad=True)
        hidden = (x @ w).exp()
        shared = hidden * hidden + hidden
        loss = shared.sum()
        loss.backward()
        for node in (hidden, shared, loss):
            assert node.grad is None
            assert node._parents == ()
        assert x.grad is not None and w.grad is not None

    def test_a_model_tape_is_released(self):
        members = [Graph(4, [0, 1, 2], [1, 2, 3]), Graph(3, [0, 1], [1, 2])]
        graphs = _featured(members, 0)
        config = ModelConfig(hidden_dim=8, num_layers=2, num_heads=2,
                             num_node_types=NODE_TYPES,
                             num_edge_types=EDGE_TYPES)
        model = GraphTransformer(config)
        batch = GraphBatch(graphs)
        predictions = model(batch, BaselineRuntime(batch))
        loss = model.loss(predictions, batch.labels)
        loss.backward()
        for node in (predictions, loss):
            assert node.grad is None and node._parents == ()
        assert any(p.grad is not None for p in model.parameters())


class TestLeafOwnership:
    def test_leaves_receiving_one_array_get_their_own_copies(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        (a + b).sum().backward()
        assert a.grad is not b.grad
        assert not np.shares_memory(a.grad, b.grad)
        assert a.grad.flags.writeable and b.grad.flags.writeable

    def test_clip_grad_norm_scales_each_gradient_once(self):
        a = Tensor(np.full(4, 3.0), requires_grad=True)
        b = Tensor(np.full(4, 3.0), requires_grad=True)
        (a + b).sum().backward()
        opt = SGD([a, b], lr=0.1)
        norm = opt.clip_grad_norm(1.0)
        assert norm == pytest.approx(np.sqrt(8.0))
        want = np.full(4, 1.0 / norm)
        assert np.array_equal(a.grad, want)
        assert np.array_equal(b.grad, want)

    def test_leaf_gradient_never_aliases_the_seed(self):
        x = Tensor(np.ones(3), requires_grad=True)
        seed = np.array([1.0, 2.0, 3.0])
        x.backward(seed)
        assert not np.shares_memory(x.grad, seed)


# ----------------------------------------------------------------------
# Memory
# ----------------------------------------------------------------------
def test_backward_frees_the_tape_and_stays_under_it():
    ring = np.arange(24)
    graphs = _featured([Graph(24, ring, (ring + 1) % 24)] * 8, 5)
    config = ModelConfig(hidden_dim=32, num_layers=3, num_heads=4,
                         num_node_types=NODE_TYPES,
                         num_edge_types=EDGE_TYPES)
    model = GraphTransformer(config).train()
    batch = GraphBatch(graphs)
    runtime = _runtime("mega", batch, graphs)
    with no_grad():
        model(batch, runtime)          # any lazy runtime state, untraced

    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        loss = model.loss(model(batch, runtime), batch.labels)
        tape = tracemalloc.get_traced_memory()[0] - before
        tracemalloc.reset_peak()
        loss.backward()
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    grads = sum(p.grad.nbytes for p in model.parameters()
                if p.grad is not None)
    assert tape > 10 * grads
    assert after - before <= grads + tape // 20
    assert peak - before <= 1.10 * tape
