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
from repro.tensor import Tensor, no_grad

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
    return (Tensor([1.0], requires_grad=True) * 2.0).requires_grad


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
