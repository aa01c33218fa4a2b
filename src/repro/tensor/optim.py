"""Optimisers and learning-rate schedules.

The paper's training recipe (from the "Benchmarking GNNs" suite it cites)
uses Adam with reduce-on-plateau; both are provided, plus plain SGD.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

import numpy as np

from repro.tensor.nn import Parameter


class Optimizer:
    """Base optimiser holding a parameter list."""

    def __init__(self, params: Iterable[Parameter], lr: float):
        self.params: List[Parameter] = list(params)
        if not self.params:
            raise ValueError("optimizer received no parameters")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def clip_grad_norm(self, max_norm: float) -> float:
        """Clip global gradient norm in place; returns the pre-clip norm."""
        total = 0.0
        for p in self.params:
            if p.grad is not None:
                total += float((p.grad ** 2).sum())
        norm = float(np.sqrt(total))
        if norm > max_norm and norm > 0:
            scale = max_norm / norm
            for p in self.params:
                if p.grad is not None:
                    p.grad *= scale
        return norm


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum."""

    def __init__(self, params: Iterable[Parameter], lr: float = 1e-2,
                 momentum: float = 0.0, weight_decay: float = 0.0):
        super().__init__(params, lr)
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        for p, vel in zip(self.params, self._velocity):
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            if self.momentum:
                vel *= self.momentum
                vel += grad
                grad = vel
            p.data = p.data - self.lr * grad


class Adam(Optimizer):
    """Adam (Kingma & Ba) with bias correction."""

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, params: Iterable[Parameter], lr: float = 1e-3):
        super().__init__(params, lr)
        self._step = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        self._step += 1
        bc1 = 1.0 - self.BETA1 ** self._step
        bc2 = 1.0 - self.BETA2 ** self._step
        for p, m, v in zip(self.params, self._m, self._v):
            if p.grad is None:
                continue
            grad = p.grad
            m *= self.BETA1
            m += (1 - self.BETA1) * grad
            v *= self.BETA2
            v += (1 - self.BETA2) * grad * grad
            m_hat = m / bc1
            v_hat = v / bc2
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.EPS)


class ReduceLROnPlateau:
    """Halve the learning rate when the monitored metric stops improving.

    The rate drops once more than :attr:`PATIENCE` consecutive epochs
    fail to improve on the best metric, never below :attr:`MIN_LR`.
    """

    FACTOR = 0.5
    PATIENCE = 5
    MIN_LR = 1e-6

    def __init__(self, optimizer: Optimizer):
        self.optimizer = optimizer
        self._best: Optional[float] = None
        self._bad_epochs = 0

    def step(self, metric: float) -> bool:
        """Record one epoch's metric; returns True if the LR was reduced."""
        if self._best is None or metric < self._best - 1e-12:
            self._best = metric
            self._bad_epochs = 0
            return False
        self._bad_epochs += 1
        if self._bad_epochs > self.PATIENCE:
            new_lr = max(self.optimizer.lr * self.FACTOR, self.MIN_LR)
            reduced = new_lr < self.optimizer.lr
            self.optimizer.lr = new_lr
            self._bad_epochs = 0
            return reduced
        return False
