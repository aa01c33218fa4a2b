"""Numpy-backed autograd engine: the neural-operation substrate.

The paper runs its models on PyTorch; this package provides the same
facilities (tensors with reverse-mode gradients, layers, optimisers) so
the reproduction is self-contained and offline.
"""

from repro.tensor.tensor import Tensor, grad_enabled, no_grad
from repro.tensor import functional
from repro.tensor import init
from repro.tensor.nn import (
    BatchNorm1d,
    Dropout,
    Embedding,
    LayerNorm,
    Linear,
    MLP,
    Module,
    Parameter,
    Sequential,
)
from repro.tensor.optim import Adam, Optimizer, ReduceLROnPlateau, SGD

__all__ = [
    "Tensor",
    "no_grad",
    "grad_enabled",
    "functional",
    "init",
    "Module",
    "Parameter",
    "Linear",
    "LayerNorm",
    "BatchNorm1d",
    "Embedding",
    "Dropout",
    "Sequential",
    "MLP",
    "Optimizer",
    "SGD",
    "Adam",
    "ReduceLROnPlateau",
]
