"""ELU: values and gradients."""

import numpy as np
import pytest

from repro.tensor import Tensor
from repro.tensor import functional as F

from tests.conftest import numeric_gradient


def check_grad(build, shape, seed=0, atol=1e-5):
    rng = np.random.default_rng(seed)
    x0 = rng.normal(size=shape)

    def f(arr):
        return float(build(Tensor(arr.copy(), requires_grad=True)).data.sum())

    x = Tensor(x0.copy(), requires_grad=True)
    out = build(x)
    out.backward(np.ones_like(out.data))
    num = numeric_gradient(f, x0)
    assert np.allclose(x.grad, num, atol=atol)


class TestELU:
    def test_positive_identity(self):
        out = F.elu(Tensor([0.5, 2.0]))
        assert np.allclose(out.data, [0.5, 2.0])

    def test_negative_saturates(self):
        out = F.elu(Tensor([-100.0]))
        assert out.data[0] == pytest.approx(-1.0, abs=1e-6)

    def test_continuous_at_zero(self):
        eps = 1e-7
        a = F.elu(Tensor([-eps])).data[0]
        b = F.elu(Tensor([eps])).data[0]
        assert abs(a - b) < 1e-6

    def test_alpha_scales(self):
        out = F.elu(Tensor([-100.0]), alpha=2.0)
        assert out.data[0] == pytest.approx(-2.0, abs=1e-5)

    def test_grad(self):
        check_grad(F.elu, (7,))

