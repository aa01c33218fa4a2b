"""Tensor arithmetic and autograd correctness (vs numeric gradients)."""

import numpy as np
import pytest

from repro.errors import GradError, ShapeError
from repro.tensor import Tensor

from tests.conftest import numeric_gradient


def check_grad(build, shape, seed=0, atol=1e-6):
    """Compare autograd gradient against central differences."""
    rng = np.random.default_rng(seed)
    x0 = rng.normal(size=shape)

    def f(arr):
        return float(build(Tensor(arr.copy(), requires_grad=True)).data.sum())

    x = Tensor(x0.copy(), requires_grad=True)
    out = build(x)
    out.backward(np.ones_like(out.data))
    num = numeric_gradient(f, x0)
    assert np.allclose(x.grad, num, atol=atol), (
        f"max diff {np.abs(x.grad - num).max()}")


class TestBasics:
    def test_construction_defaults(self):
        t = Tensor([1, 2, 3])
        assert t.shape == (3,)
        assert t.dtype == np.float64
        assert not t.requires_grad

    def test_repr_mentions_grad(self):
        assert "requires_grad" in repr(Tensor([1.0], requires_grad=True))
        assert "requires_grad" not in repr(Tensor([1.0]))

    def test_item_and_len(self):
        assert Tensor([[3.5]]).item() == 3.5
        assert len(Tensor(np.zeros((4, 2)))) == 4

    def test_detach_cuts_tape(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = (x * 2).detach()
        z = (y * 3).sum()
        with pytest.raises(GradError):
            z.backward()
        assert x.grad is None

    def test_backward_seed_shape_mismatch(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = x * 2
        with pytest.raises(ShapeError):
            y.backward(np.ones(3))


class TestArithmetic:
    def test_add_values(self):
        assert np.allclose((Tensor([1.0]) + Tensor([2.0])).data, [3.0])

    def test_scalar_coercion(self):
        x = Tensor([1.0, 2.0])
        assert np.allclose((x + 1).data, [2.0, 3.0])
        assert np.allclose((1 + x).data, [2.0, 3.0])
        assert np.allclose((2 * x).data, [2.0, 4.0])
        assert np.allclose((3 - x).data, [2.0, 1.0])
        assert np.allclose((2 / x).data, [2.0, 1.0])

    def test_add_grad(self):
        check_grad(lambda x: x + x * 2, (3, 4))

    def test_mul_grad(self):
        check_grad(lambda x: x * x, (5,))

    def test_div_grad(self):
        check_grad(lambda x: x / (x * x + 2.0), (4,))

    def test_pow_grad(self):
        check_grad(lambda x: (x * x + 1.0) ** 1.5, (3,))

    def test_neg_sub_grad(self):
        check_grad(lambda x: -x - (x * 0.5), (2, 3))

    def test_pow_rejects_tensor_exponent(self):
        with pytest.raises(TypeError):
            Tensor([2.0]) ** Tensor([2.0])


class TestBroadcasting:
    def test_broadcast_add_row(self):
        x = Tensor(np.ones((3, 4)), requires_grad=True)
        b = Tensor(np.arange(4.0), requires_grad=True)
        (x + b).sum().backward()
        assert np.allclose(x.grad, np.ones((3, 4)))
        assert np.allclose(b.grad, [3, 3, 3, 3])

    def test_broadcast_mul_column(self):
        x = Tensor(np.ones((3, 4)), requires_grad=True)
        c = Tensor(np.ones((3, 1)), requires_grad=True)
        (x * c).sum().backward()
        assert c.grad.shape == (3, 1)
        assert np.allclose(c.grad, 4.0)

    def test_broadcast_scalar_tensor(self):
        s = Tensor(2.0, requires_grad=True)
        x = Tensor(np.ones((2, 2)))
        (x * s).sum().backward()
        assert np.allclose(s.grad, 4.0)


class TestMatmul:
    def test_matmul_values(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[1.0, 0.0], [0.0, 1.0]])
        assert np.allclose((a @ b).data, a.data)

    def test_matmul_grad(self):
        rng = np.random.default_rng(1)
        w0 = rng.normal(size=(4, 2))

        def build(x):
            return x @ Tensor(w0)

        check_grad(build, (3, 4))

    def test_matmul_weight_grad(self):
        rng = np.random.default_rng(2)
        x0 = rng.normal(size=(3, 4))

        def build(w):
            return Tensor(x0) @ w

        check_grad(build, (4, 2))


class TestShapeOps:
    def test_reshape_roundtrip_grad(self):
        check_grad(lambda x: x.reshape(6).reshape(2, 3) * 2, (2, 3))

    def test_reshape_accepts_tuple(self):
        assert Tensor(np.zeros((2, 3))).reshape((3, 2)).shape == (3, 2)

    def test_transpose_grad(self):
        check_grad(lambda x: x.T * Tensor(np.arange(6.0).reshape(3, 2)), (2, 3))

    def test_transpose_axes(self):
        x = Tensor(np.zeros((2, 3, 4)))
        assert x.transpose(1, 0, 2).shape == (3, 2, 4)

    def test_getitem_gather_repeated_indices(self):
        x = Tensor(np.arange(4.0), requires_grad=True)
        idx = np.array([0, 0, 2])
        x[idx].sum().backward()
        assert np.allclose(x.grad, [2, 0, 1, 0])

    def test_getitem_2d_rows(self):
        x = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
        y = x[np.array([1, 1, 3])]
        assert y.shape == (3, 3)
        y.sum().backward()
        assert np.allclose(x.grad[1], 2.0)
        assert np.allclose(x.grad[0], 0.0)


class TestReductions:
    def test_sum_axis_grad(self):
        check_grad(lambda x: x.sum(axis=0), (3, 4))
        check_grad(lambda x: x.sum(axis=1, keepdims=True), (3, 4))

    def test_mean_matches_sum(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        assert np.allclose(x.mean(axis=1).data, [1.0, 4.0])

    def test_mean_grad(self):
        check_grad(lambda x: x.mean(), (4, 4))

    def test_max_grad_unique(self):
        rng = np.random.default_rng(3)
        x0 = rng.normal(size=(5,))

        def build(x):
            return x.max()

        x = Tensor(x0, requires_grad=True)
        build(x).backward()
        expected = np.zeros(5)
        expected[x0.argmax()] = 1.0
        assert np.allclose(x.grad, expected)

    def test_max_splits_ties(self):
        x = Tensor(np.array([1.0, 1.0, 0.0]), requires_grad=True)
        x.max().backward()
        assert np.allclose(x.grad, [0.5, 0.5, 0.0])


class TestElementwiseMath:
    def test_exp_grad(self):
        check_grad(lambda x: (x * 0.3).exp(), (4,))

    def test_log_grad(self):
        check_grad(lambda x: (x * x + 1.0).log(), (4,))

    def test_sqrt_grad(self):
        check_grad(lambda x: (x * x + 0.5).sqrt(), (4,))

    def test_abs_grad_away_from_zero(self):
        x = Tensor(np.array([-2.0, 3.0]), requires_grad=True)
        x.abs().sum().backward()
        assert np.allclose(x.grad, [-1.0, 1.0])

    def test_clip_grad_masks_outside(self):
        x = Tensor(np.array([-2.0, 0.5, 2.0]), requires_grad=True)
        x.clip(-1.0, 1.0).sum().backward()
        assert np.allclose(x.grad, [0.0, 1.0, 0.0])


class TestGraphReuse:
    def test_diamond_graph_accumulates(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = x * 3
        z = (y + y * y).sum()   # two paths through y
        z.backward()
        # d/dx (3x + 9x^2) = 3 + 18x = 39
        assert np.allclose(x.grad, [39.0])

    def test_grad_accumulates_across_backwards(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        (x * 2).sum().backward()
        (x * 3).sum().backward()
        assert np.allclose(x.grad, [5.0])

    def test_zero_grad_resets(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        (x * 2).sum().backward()
        x.zero_grad()
        assert x.grad is None

    def test_deep_chain_no_recursion_error(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        y = x
        for _ in range(3000):
            y = y + 0.001
        y.sum().backward()
        assert np.allclose(x.grad, [1.0])
