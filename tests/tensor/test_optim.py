"""Optimisers: convergence, clipping, plateau scheduling."""

import numpy as np
import pytest

from repro.tensor import Parameter, Tensor
from repro.tensor.optim import SGD, Adam, ReduceLROnPlateau


def quadratic_loss(p):
    return ((p - Tensor(np.array([3.0, -1.0]))) ** 2).sum()


class TestSGD:
    def test_requires_params(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)

    def test_requires_positive_lr(self):
        with pytest.raises(ValueError):
            SGD([Parameter(np.zeros(2))], lr=0.0)

    def test_converges_on_quadratic(self):
        p = Parameter(np.zeros(2))
        opt = SGD([p], lr=0.1)
        for _ in range(100):
            loss = quadratic_loss(p)
            opt.zero_grad()
            loss.backward()
            opt.step()
        assert np.allclose(p.data, [3.0, -1.0], atol=1e-3)

    def test_momentum_accelerates(self):
        def run(momentum):
            p = Parameter(np.zeros(2))
            opt = SGD([p], lr=0.01, momentum=momentum)
            for _ in range(50):
                loss = quadratic_loss(p)
                opt.zero_grad()
                loss.backward()
                opt.step()
            return quadratic_loss(p).item()

        assert run(0.9) < run(0.0)

    def test_weight_decay_shrinks(self):
        p = Parameter(np.array([10.0]))
        opt = SGD([p], lr=0.1, weight_decay=1.0)
        # No data gradient: only decay acts.
        p.grad = np.zeros(1)
        opt.step()
        assert p.data[0] < 10.0

    def test_skips_params_without_grad(self):
        p = Parameter(np.array([1.0]))
        opt = SGD([p], lr=0.1)
        opt.step()  # no grad: no change, no crash
        assert p.data[0] == 1.0


class TestAdam:
    def test_converges_on_quadratic(self):
        p = Parameter(np.zeros(2))
        opt = Adam([p], lr=0.2)
        for _ in range(200):
            loss = quadratic_loss(p)
            opt.zero_grad()
            loss.backward()
            opt.step()
        assert np.allclose(p.data, [3.0, -1.0], atol=1e-2)

    def test_bias_correction_first_step(self):
        p = Parameter(np.array([0.0]))
        opt = Adam([p], lr=0.1)
        p.grad = np.array([1.0])
        opt.step()
        # With bias correction the first step has magnitude ~lr.
        assert np.isclose(abs(p.data[0]), 0.1, rtol=1e-3)


class TestClipGradNorm:
    def test_clips_large_gradients(self):
        p = Parameter(np.zeros(4))
        opt = SGD([p], lr=0.1)
        p.grad = np.full(4, 10.0)
        norm = opt.clip_grad_norm(1.0)
        assert norm == pytest.approx(20.0)
        assert np.isclose(np.linalg.norm(p.grad), 1.0)

    def test_leaves_small_gradients(self):
        p = Parameter(np.zeros(2))
        opt = SGD([p], lr=0.1)
        p.grad = np.array([0.1, 0.1])
        opt.clip_grad_norm(5.0)
        assert np.allclose(p.grad, 0.1)


class TestScheduler:
    def test_reduces_after_patience(self):
        p = Parameter(np.zeros(1))
        opt = Adam([p], lr=1.0)
        sched = ReduceLROnPlateau(opt)
        sched.step(1.0)
        for _ in range(ReduceLROnPlateau.PATIENCE + 1):
            reduced = sched.step(1.0)   # no improvement
        assert reduced
        assert opt.lr == pytest.approx(0.5)

    def test_improvement_resets_counter(self):
        p = Parameter(np.zeros(1))
        opt = Adam([p], lr=1.0)
        sched = ReduceLROnPlateau(opt)
        sched.step(1.0)
        for _ in range(ReduceLROnPlateau.PATIENCE):
            sched.step(1.0)
        sched.step(0.5)   # improvement
        for _ in range(ReduceLROnPlateau.PATIENCE):
            sched.step(0.6)
        assert opt.lr == 1.0

    def test_respects_min_lr(self):
        p = Parameter(np.zeros(1))
        opt = Adam([p], lr=1e-6)
        sched = ReduceLROnPlateau(opt)
        for _ in range(ReduceLROnPlateau.PATIENCE + 2):
            sched.step(1.0)
        assert opt.lr == pytest.approx(1e-6)
