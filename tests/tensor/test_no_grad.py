"""Tape-free mode: ``no_grad`` results equal taped ones, bit for bit."""

import numpy as np
import pytest

from repro.core.config import MegaConfig
from repro.core.path import PathRepresentation
from repro.datasets import load_dataset
from repro.graph.batch import GraphBatch
from repro.models import (
    GAT,
    BaselineRuntime,
    GatedGCN,
    GlobalAttentionRuntime,
    GraphTransformer,
    MegaRuntime,
    ModelConfig,
)
from repro.models.model_stats import compute_model_stats
from repro.tensor import LayerNorm, Linear, Tensor, grad_enabled, no_grad
from repro.tensor.optim import Adam

MODELS = {"GCN": GatedGCN, "GT": GraphTransformer, "GAT": GAT}
RUNTIMES = ("baseline", "mega", "global")


@pytest.fixture(scope="module")
def zinc():
    return load_dataset("ZINC", scale=0.005)


def _runtime(kind, graphs):
    batch = GraphBatch(graphs)
    if kind == "baseline":
        return batch, BaselineRuntime(batch)
    if kind == "mega":
        paths = [PathRepresentation.from_graph(g, MegaConfig())
                 for g in graphs]
        return batch, MegaRuntime(batch, paths)
    return batch, GlobalAttentionRuntime(batch)


def _model(name, dataset):
    config = ModelConfig.for_dataset(dataset, hidden_dim=16, num_layers=2,
                                     num_heads=4, seed=0)
    return MODELS[name](config)


def _recording() -> bool:
    recorded = (Tensor([1.0], requires_grad=True) * 2.0).requires_grad
    assert grad_enabled() == recorded
    return recorded


#: The last GT layer's edge stream: nothing downstream reads it.
EDGE_TAIL = ("proj_oe", "norm_e1", "norm_e2", "ffn_e1", "ffn_e2")


class TestForwardExactness:
    @pytest.mark.parametrize("name", sorted(MODELS))
    @pytest.mark.parametrize("kind", RUNTIMES)
    def test_eval_forward_bit_identical(self, zinc, name, kind):
        model = _model(name, zinc).eval()
        batch, runtime = _runtime(kind, zinc.train[:5])
        taped = model(batch, runtime)
        assert taped.requires_grad and taped._parents
        with no_grad():
            free = model(batch, runtime)
        assert np.array_equal(free.data, taped.data)
        assert free.data.dtype == taped.data.dtype

    def test_results_are_plain_leaves(self, zinc):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        with no_grad():
            results = [x + 1, x * x, x @ x.T, x[[0, 0, 1]], x.sum(axis=0),
                       x.mean(), x.exp(), x.reshape(3, 2), x.max(axis=1)]
            model = _model("GT", zinc).eval()
            batch, runtime = _runtime("mega", zinc.train[:3])
            results.append(model(batch, runtime))
        for out in results:
            assert not out.requires_grad
            assert out._parents == ()
            assert out._backward is None


class TestFlag:
    def test_default_is_recording(self):
        assert _recording()

    def test_restored_after_exception(self):
        with pytest.raises(RuntimeError):
            with no_grad():
                assert not _recording()
                raise RuntimeError("boom")
        assert _recording()

    def test_nested_blocks(self):
        with no_grad():
            with no_grad():
                assert not _recording()
            assert not _recording()
        assert _recording()


class TestAfterTheBlock:
    def test_gradients_match_a_run_that_never_entered(self, zinc):
        batch, runtime = _runtime("mega", zinc.train[:4])

        def grads(enter_block):
            model = _model("GT", zinc).eval()
            if enter_block:
                with no_grad():
                    model(batch, runtime)
            loss = model.loss(model(batch, runtime), batch.labels)
            loss.backward()
            return [p.grad for p in model.parameters()]

        plain, after = grads(False), grads(True)
        assert len(plain) == len(after)
        assert any(g is not None for g in plain)
        for a, b in zip(plain, after):
            assert (a is None) == (b is None)
            assert a is None or np.array_equal(a, b)


class TestTapeFreeModules:
    """``Linear``/``LayerNorm`` finish in place when tape-free."""

    def _modules(self):
        rng = np.random.default_rng(7)
        linear = Linear(6, 5, rng=rng)
        linear.bias.data = rng.normal(size=5)
        norm = LayerNorm(6)
        norm.gamma.data = rng.normal(size=6)
        norm.beta.data = rng.normal(size=6)
        return [linear, Linear(6, 5, rng=rng), norm]

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("rows", [0, 1, 37])
    def test_bit_identical_to_the_taped_path(self, rows, dtype):
        data = np.random.default_rng(rows).normal(size=(rows, 6)) * 1e3
        x = Tensor(data.astype(dtype))
        for module in self._modules():
            taped = module(x)
            assert taped.requires_grad
            with no_grad():
                free = module(x)
            assert not free.requires_grad and free._parents == ()
            assert free.data.dtype == taped.data.dtype
            assert np.array_equal(free.data, taped.data)

    def test_never_writes_into_its_input_or_parameters(self):
        x = np.random.default_rng(3).normal(size=(9, 6))
        for module in self._modules():
            before = [x.copy()] + [p.data.copy() for p in module.parameters()]
            with no_grad():
                out = module(Tensor(x))
            after = [x] + [p.data for p in module.parameters()]
            for old, new in zip(before, after):
                assert np.array_equal(old, new)
                assert not np.shares_memory(out.data, new)


class TestLastGTLayer:
    def _full_forward(self, model, batch, runtime):
        """The forward with every layer computing its edge stream."""
        h, e = model.encode(batch, runtime)
        for layer in model.layers:
            layer.edge_out = True
            h, e = layer(h, e, runtime)
            assert e is not None
        return model.head(runtime.readout_mean(h)).reshape(batch.num_graphs)

    def test_only_the_last_layer_drops_its_edges(self, zinc):
        model = _model("GT", zinc)
        assert [layer.edge_out for layer in model.layers] == [True, False]

    @pytest.mark.parametrize("kind", RUNTIMES)
    def test_forward_equals_all_layers_full(self, zinc, kind):
        batch, runtime = _runtime(kind, zinc.train[:5])
        model = _model("GT", zinc).eval()
        with no_grad():
            skipped = model(batch, runtime)
            full = self._full_forward(model, batch, runtime)
        assert np.array_equal(skipped.data, full.data)

    def test_edge_tail_gets_no_gradient_after_a_step(self, zinc):
        batch, runtime = _runtime("mega", zinc.train[:4])
        model = _model("GT", zinc).train()
        opt = Adam(model.parameters(), lr=1e-3)
        before = {name: p.data.copy() for name, p in model.named_parameters()}
        loss = model.loss(model(batch, runtime), batch.labels)
        opt.zero_grad()
        loss.backward()
        opt.step()
        last = f"layer{len(model.layers) - 1}"
        for name, param in model.named_parameters():
            layer, module = name.split(".")[:2]
            if layer == last and module in EDGE_TAIL:
                assert param.grad is None, name
                assert np.array_equal(param.data, before[name]), name
            elif layer == last:
                assert param.grad is not None, name

    def test_table_one_counts_unchanged(self):
        stats = compute_model_stats(GraphTransformer, hidden_dim=16,
                                    num_layers=3)
        assert stats.scatter_calls_per_layer == 5
        assert stats.gather_calls_per_layer == 2
