"""Module system: registration, modes, state dicts, layer semantics."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.tensor import (
    BatchNorm1d,
    Embedding,
    LayerNorm,
    Linear,
    MLP,
    Module,
    Parameter,
    Tensor,
)
from repro.tensor import functional as F


class _Chain(Module):
    """Two modules registered as attributes ``layer0``/``layer1``."""

    def __init__(self, first: Module, second: Module):
        super().__init__()
        self.layer0 = first
        self.layer1 = second

    def forward(self, x):
        return self.layer1(self.layer0(x))


class TestModule:
    def test_parameter_registration(self):
        lin = Linear(3, 2)
        names = [n for n, _ in lin.named_parameters()]
        assert names == ["weight", "bias"]

    def test_nested_registration(self):
        seq = _Chain(Linear(3, 4), Linear(4, 2))
        names = [n for n, _ in seq.named_parameters()]
        assert "layer0.weight" in names and "layer1.bias" in names

    def test_num_parameters(self):
        lin = Linear(3, 2)
        assert lin.num_parameters() == 3 * 2 + 2

    def test_train_eval_propagates(self):
        seq = _Chain(Linear(2, 2), LayerNorm(2))
        seq.eval()
        assert all(not m.training for m in seq.modules())
        seq.train()
        assert all(m.training for m in seq.modules())

    def test_zero_grad(self):
        lin = Linear(2, 2)
        out = lin(Tensor(np.ones((1, 2))))
        out.sum().backward()
        assert lin.weight.grad is not None
        lin.zero_grad()
        assert lin.weight.grad is None

    def test_state_dict_roundtrip(self):
        a = Linear(3, 2, rng=np.random.default_rng(0))
        b = Linear(3, 2, rng=np.random.default_rng(99))
        b.load_state_dict(a.state_dict())
        x = Tensor(np.ones((2, 3)))
        assert np.allclose(a(x).data, b(x).data)

    def test_state_dict_missing_key(self):
        a = Linear(3, 2)
        with pytest.raises(KeyError):
            a.load_state_dict({})

    def test_state_dict_shape_mismatch(self):
        a = Linear(3, 2)
        state = a.state_dict()
        state["weight"] = np.zeros((2, 3))
        with pytest.raises(ShapeError):
            a.load_state_dict(state)

    def test_state_dict_includes_buffers(self):
        bn = BatchNorm1d(2)
        bn(Tensor(np.full((8, 2), 50.0)))   # momentum 0.1: mean -> 5
        state = bn.state_dict()
        assert np.allclose(state["running_mean"], 5.0)

        fresh = BatchNorm1d(2)
        fresh.load_state_dict(state)
        assert np.allclose(fresh.running_mean, 5.0)
        assert np.array_equal(fresh.running_var, bn.running_var)

    def test_state_dict_missing_buffer_key(self):
        bn = BatchNorm1d(2)
        state = bn.state_dict()
        del state["running_var"]
        with pytest.raises(KeyError, match="running_var"):
            bn.load_state_dict(state)

    def test_state_dict_buffer_shape_mismatch(self):
        bn = BatchNorm1d(2)
        state = bn.state_dict()
        state["running_mean"] = np.zeros(3)
        with pytest.raises(ShapeError):
            bn.load_state_dict(state)

    def test_buffer_reassignment_stays_registered(self):
        bn = BatchNorm1d(2)
        bn(Tensor(np.full((4, 2), 50.0)))  # forward reassigns the buffers
        assert np.allclose(dict(bn.named_buffers())["running_mean"], 5.0)


class TestLinear:
    def test_shapes(self):
        lin = Linear(5, 7)
        assert lin(Tensor(np.zeros((3, 5)))).shape == (3, 7)

    def test_gradients_reach_parameters(self):
        lin = Linear(3, 2)
        lin(Tensor(np.ones((4, 3)))).sum().backward()
        assert lin.weight.grad.shape == (3, 2)
        assert np.allclose(lin.bias.grad, 4.0)


class TestLayerNorm:
    def test_normalises_rows(self):
        ln = LayerNorm(8)
        x = Tensor(np.random.default_rng(0).normal(2.0, 3.0, size=(5, 8)))
        out = ln(x).data
        assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-6)
        assert np.allclose(out.std(axis=-1), 1.0, atol=1e-2)

    def test_gamma_beta_affect_output(self):
        ln = LayerNorm(4)
        ln.gamma.data = np.full(4, 2.0)
        ln.beta.data = np.full(4, 1.0)
        out = ln(Tensor(np.random.default_rng(1).normal(size=(3, 4)))).data
        assert np.allclose(out.mean(axis=-1), 1.0, atol=1e-6)

    def test_backward_flows(self):
        ln = LayerNorm(4)
        x = Tensor(np.random.default_rng(2).normal(size=(3, 4)),
                   requires_grad=True)
        ln(x).sum().backward()
        assert x.grad is not None and ln.gamma.grad is not None


class TestBatchNorm:
    def test_train_normalises_columns(self):
        bn = BatchNorm1d(3)
        x = Tensor(np.random.default_rng(0).normal(5.0, 2.0, size=(64, 3)))
        out = bn(x).data
        assert np.allclose(out.mean(axis=0), 0.0, atol=1e-6)
        assert np.allclose(out.std(axis=0), 1.0, atol=1e-2)

    def test_running_stats_update(self):
        bn = BatchNorm1d(2)
        x = Tensor(np.full((8, 2), 50.0))
        bn(x)
        assert BatchNorm1d.MOMENTUM == 0.1
        assert np.allclose(bn.running_mean, 5.0)

    def test_eval_uses_running_stats(self):
        bn = BatchNorm1d(2)
        for _ in range(50):
            bn(Tensor(np.random.default_rng(3).normal(4.0, 1.0, size=(32, 2))))
        bn.eval()
        out = bn(Tensor(np.full((1, 2), 4.0))).data
        assert np.abs(out).max() < 0.5


class TestEmbedding:
    def test_lookup_shape(self):
        emb = Embedding(10, 6)
        out = emb(np.array([0, 5, 9]))
        assert out.shape == (3, 6)

    def test_out_of_range_rejected(self):
        emb = Embedding(4, 2)
        with pytest.raises(ShapeError):
            emb(np.array([4]))
        with pytest.raises(ShapeError):
            emb(np.array([-1]))

    def test_grad_accumulates_for_repeated_ids(self):
        emb = Embedding(3, 2)
        emb(np.array([1, 1, 1])).sum().backward()
        assert np.allclose(emb.weight.grad[1], 3.0)
        assert np.allclose(emb.weight.grad[0], 0.0)


class TestMLP:
    def test_output_shape(self):
        mlp = MLP(6, 8, 3, num_layers=3)
        assert mlp(Tensor(np.zeros((2, 6)))).shape == (2, 3)

    def test_single_layer_is_linear(self):
        mlp = MLP(4, 9, 2, num_layers=1)
        assert len(mlp.linears) == 1

    def test_can_fit_xor(self):
        """The classic nonlinearity check: reduces loss on XOR."""
        from repro.tensor.optim import Adam

        rng = np.random.default_rng(0)
        mlp = MLP(2, 16, 1, num_layers=2, rng=rng)
        x = Tensor(np.array([[0, 0], [0, 1], [1, 0], [1, 1]], float))
        y = Tensor(np.array([[0.0], [1.0], [1.0], [0.0]]))
        opt = Adam(mlp.parameters(), lr=0.05)
        first = None
        for _ in range(200):
            pred = mlp(x)
            loss = F.mse_loss(pred, y)
            if first is None:
                first = loss.item()
            opt.zero_grad()
            loss.backward()
            opt.step()
        assert loss.item() < 0.05 < first
