"""Neural-network module system on top of the autograd engine.

Mirrors the small subset of ``torch.nn`` the paper's models need:
``Linear``, ``LayerNorm``, ``BatchNorm1d``, ``Embedding``, ``Dropout``,
and a ``Module`` base with parameter traversal and train/eval modes.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.errors import ShapeError
from repro.tensor import functional as F
from repro.tensor import init
from repro.tensor.tensor import Tensor, grad_enabled


class Parameter(Tensor):
    """A tensor registered as trainable state of a module."""

    def __init__(self, data, name: str = ""):
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class with recursive parameter and submodule registration."""

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "_buffers", OrderedDict())
        object.__setattr__(self, "training", True)

    def __setattr__(self, key: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[key] = value
        elif isinstance(value, Module):
            self._modules[key] = value
        elif key in getattr(self, "_buffers", ()):
            value = np.asarray(value)
            self._buffers[key] = value
        object.__setattr__(self, key, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Register non-trainable state (e.g. BatchNorm running stats).

        Buffers travel with ``state_dict``/``load_state_dict`` — without
        this, eval-time statistics silently reset on checkpoint resume —
        and later plain assignments to ``name`` stay registered.
        """
        array = np.asarray(value)
        self._buffers[name] = array
        object.__setattr__(self, name, array)

    # -- traversal ------------------------------------------------------
    def parameters(self) -> Iterator[Parameter]:
        for _, param in self.named_parameters():
            yield param

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def named_buffers(
            self, prefix: str = "") -> Iterator[Tuple[str, np.ndarray]]:
        for name in self._buffers:
            yield (f"{prefix}{name}", getattr(self, name))
        for name, module in self._modules.items():
            yield from module.named_buffers(prefix=f"{prefix}{name}.")

    def _buffer_slots(
            self, prefix: str = "") -> Iterator[Tuple[str, "Module", str]]:
        """(flat name, owning module, attribute) for every buffer."""
        for name in self._buffers:
            yield (f"{prefix}{name}", self, name)
        for name, module in self._modules.items():
            yield from module._buffer_slots(prefix=f"{prefix}{name}.")

    def modules(self) -> Iterator["Module"]:
        yield self
        for child in self._modules.values():
            yield from child.modules()

    def num_parameters(self) -> int:
        """Total trainable parameter count (the paper's 'parameter volume')."""
        return sum(p.size for p in self.parameters())

    # -- modes ----------------------------------------------------------
    def train(self) -> "Module":
        for module in self.modules():
            object.__setattr__(module, "training", True)
        return self

    def eval(self) -> "Module":
        for module in self.modules():
            object.__setattr__(module, "training", False)
        return self

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    # -- state dict -----------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        state = {name: param.data.copy()
                 for name, param in self.named_parameters()}
        state.update((name, buf.copy())
                     for name, buf in self.named_buffers())
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        own = dict(self.named_parameters())
        slots = list(self._buffer_slots())
        missing = (set(own) | {name for name, _, _ in slots}) - set(state)
        if missing:
            raise KeyError(f"state dict missing parameters: {sorted(missing)}")
        for name, param in own.items():
            value = np.asarray(state[name])
            if value.shape != param.shape:
                raise ShapeError(
                    f"parameter {name}: shape {value.shape} != {param.shape}")
            param.data = value.astype(param.data.dtype, copy=True)
        for name, module, attr in slots:
            value = np.asarray(state[name])
            current = getattr(module, attr)
            if value.shape != current.shape:
                raise ShapeError(
                    f"buffer {name}: shape {value.shape} != {current.shape}")
            setattr(module, attr, value.astype(current.dtype, copy=True))

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError


class Linear(Module):
    """Affine map ``y = x W + b`` (W stored as (in, out))."""

    def __init__(self, in_features: int, out_features: int,
                 bias: bool = True, rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            init.xavier_uniform(rng, (in_features, out_features)), name="weight")
        self.bias = Parameter(init.zeros((out_features,)), name="bias") if bias else None

    def forward(self, x: Tensor) -> Tensor:
        """One tape node: ``x @ W`` with the bias added in place.

        The closure gives the bias, ``x`` and ``W`` their gradients in
        the order the two-node ``x @ W + b`` tape would, with the same
        IEEE operations, so the gradients are bit-identical to it.
        """
        weight, bias = self.weight, self.bias
        out = x.data @ weight.data
        if bias is not None:
            out += bias.data

        def backward(grad: np.ndarray) -> None:
            if bias is not None:
                bias._accumulate(grad)
            if x.requires_grad:
                x._accumulate(grad @ weight.data.T)
            if weight.requires_grad:
                weight._accumulate(
                    np.swapaxes(x.data, -1, -2) @ grad if x.ndim > 1
                    else np.outer(x.data, grad))

        parents = (x, weight) if bias is None else (x, weight, bias)
        return Tensor._make(out, parents, backward)


class LayerNorm(Module):
    """Layer normalisation over the last dimension."""

    def __init__(self, dim: int, eps: float = 1e-5):
        super().__init__()
        self.dim = dim
        self.eps = eps
        self.gamma = Parameter(init.ones((dim,)), name="gamma")
        self.beta = Parameter(init.zeros((dim,)), name="beta")

    def forward(self, x: Tensor) -> Tensor:
        if not grad_enabled():
            # Tape-free: the taped ops in the same order, each written
            # into an array this branch allocated (never into x or a
            # parameter).
            # ``np.float64`` promotes like the taped path's 0-d operand.
            scale = np.float64(1.0 / x.shape[-1])
            mean = x.data.sum(axis=-1, keepdims=True) * scale
            out = x.data - mean
            var = (out * out).sum(axis=-1, keepdims=True)
            var *= scale
            var += self.eps
            np.sqrt(var, out=var)
            out /= var
            out *= self.gamma.data
            out += self.beta.data
            return Tensor(out)
        mean = x.mean(axis=-1, keepdims=True)
        centred = x - mean
        var = (centred * centred).mean(axis=-1, keepdims=True)
        normed = centred / (var + self.eps).sqrt()
        return normed * self.gamma + self.beta


class BatchNorm1d(Module):
    """Batch normalisation over the row dimension with running stats."""

    def __init__(self, dim: int, eps: float = 1e-5, momentum: float = 0.1):
        super().__init__()
        self.dim = dim
        self.eps = eps
        self.momentum = momentum
        self.gamma = Parameter(init.ones((dim,)), name="gamma")
        self.beta = Parameter(init.zeros((dim,)), name="beta")
        self.register_buffer("running_mean", np.zeros(dim))
        self.register_buffer("running_var", np.ones(dim))

    def forward(self, x: Tensor) -> Tensor:
        if self.training:
            mean = x.mean(axis=0, keepdims=True)
            centred = x - mean
            var = (centred * centred).mean(axis=0, keepdims=True)
            self.running_mean = ((1 - self.momentum) * self.running_mean
                                 + self.momentum * mean.data.ravel())
            self.running_var = ((1 - self.momentum) * self.running_var
                                + self.momentum * var.data.ravel())
        else:
            mean = Tensor(self.running_mean.reshape(1, -1))
            centred = x - mean
            var = Tensor(self.running_var.reshape(1, -1))
        normed = centred / (var + self.eps).sqrt()
        return normed * self.gamma + self.beta


class Embedding(Module):
    """Lookup table mapping integer ids to dense vectors."""

    def __init__(self, num_embeddings: int, dim: int,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.num_embeddings = num_embeddings
        self.dim = dim
        self.weight = Parameter(rng.normal(0, 0.1, size=(num_embeddings, dim)),
                                name="weight")

    def forward(self, ids: np.ndarray) -> Tensor:
        """Rows ``weight[ids]``; the backward sums repeated ids in order.

        ``ids`` is a 1-D integer array; one out of ``[0,
        num_embeddings)`` raises :class:`~repro.errors.ShapeError`.
        """
        return F.gather_rows(self.weight, F.SlotPlan(ids, self.num_embeddings))


class Dropout(Module):
    """Inverted dropout; identity in eval mode."""

    def __init__(self, p: float = 0.0, rng: Optional[np.random.Generator] = None):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self.rng = rng or np.random.default_rng(0)

    def forward(self, x: Tensor) -> Tensor:
        if not self.training or self.p == 0.0:
            return x
        mask = (self.rng.random(x.shape) >= self.p) / (1.0 - self.p)
        return x * Tensor(mask)


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *layers: Module):
        super().__init__()
        self.layers: List[Module] = []
        for i, layer in enumerate(layers):
            setattr(self, f"layer{i}", layer)
            self.layers.append(layer)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x


class MLP(Module):
    """Multi-layer perceptron with ReLU activations (readout head)."""

    def __init__(self, in_dim: int, hidden_dim: int, out_dim: int,
                 num_layers: int = 2, rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        dims = [in_dim] + [hidden_dim] * (num_layers - 1) + [out_dim]
        self.linears: List[Linear] = []
        for i in range(num_layers):
            layer = Linear(dims[i], dims[i + 1], rng=rng)
            setattr(self, f"linear{i}", layer)
            self.linears.append(layer)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.linears[:-1]:
            x = F.relu(layer(x))
        return self.linears[-1](x)
