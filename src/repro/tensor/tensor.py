"""A small reverse-mode automatic-differentiation engine on numpy.

This module is the "neural operations" substrate of the reproduction: the
paper runs GatedGCN and Graph Transformer models on PyTorch; we run the
same compute graphs on this engine.  Only the features those models need
are implemented, but they are implemented correctly: full broadcasting,
fancy-index gather with accumulating backward, segment scatter, and the
usual dense ops.

The engine is tape-based and runs in one of two modes:

* **Recording** (the default).  Each :class:`Tensor` created by an
  operation on a tensor that requires grad stores its parent tensors and
  a closure that propagates the output gradient to the parents.
  ``Tensor.backward()`` topologically sorts the tape and runs the
  closures in reverse order, releasing the tape as it goes: once an
  interior node's closure has run, the node drops its gradient, its
  closure and its parents, so each activation is freed as soon as the
  last closure that reads it is done.  A released node's closure is a
  sentinel, so a second ``backward()`` through it raises
  :class:`~repro.errors.GradError` instead of re-propagating a stale
  gradient.  Only leaves own their gradients: a leaf copies the first
  gradient it receives (optimisers scale it in place), while an interior
  gradient is read once by its own closure and may alias another's, so
  no closure writes into the gradient it is given.
* **Tape-free**, inside a :func:`no_grad` block.  Operations run the same
  numpy calls, so values are bit-identical, but every result is a plain
  leaf: no parents, no closure, ``requires_grad=False``.  Forwards that
  have no backward (serving, evaluation, statistics) run this way.

``Tensor._make`` is where every operation consults the mode.
``LayerNorm`` also reads it through :func:`grad_enabled`: its tape-free
branch runs the same IEEE operations in the same order but finishes in
arrays it allocated itself, so it skips the temporaries a tape would
keep.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import (Callable, Iterable, Iterator, Optional, Sequence, Tuple,
                    Union)

import numpy as np

from repro.errors import GradError, ShapeError

ArrayLike = Union[np.ndarray, float, int, Sequence]

DEFAULT_DTYPE = np.float64

#: Whether operations record the tape; toggled only by :func:`no_grad`.
_grad_enabled = True


@contextmanager
def no_grad() -> Iterator[None]:
    """Run the enclosed operations tape-free.

    Results carry the same values but no parents, no backward closure
    and ``requires_grad=False``.  The previous mode is restored on exit,
    also when the block raises, so blocks nest.
    """
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


def grad_enabled() -> bool:
    """Whether operations record the tape (``False`` inside :func:`no_grad`).

    Read-only: modules whose tape-free forward finishes in place branch
    on it; only :func:`no_grad` changes the mode.
    """
    return _grad_enabled


def _released(grad: np.ndarray) -> None:
    """The closure of a node whose tape ``backward()`` already released."""
    raise GradError("graph already released by backward(); "
                    "run the forward again to differentiate it again")


def _as_array(data: ArrayLike, dtype=None) -> np.ndarray:
    if isinstance(data, np.ndarray):
        arr = data
    else:
        arr = np.asarray(data)
    if dtype is not None:
        arr = arr.astype(dtype, copy=False)
    elif arr.dtype.kind not in "fc":
        arr = arr.astype(DEFAULT_DTYPE)
    return arr


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` to undo numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum over leading axes added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size 1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """An n-dimensional array with reverse-mode gradient support.

    Parameters
    ----------
    data:
        Array contents (anything ``np.asarray`` accepts).
    requires_grad:
        Whether gradients should flow into this tensor.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(self, data: ArrayLike, requires_grad: bool = False,
                 dtype=None, name: str = ""):
        self.data = _as_array(data, dtype)
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple["Tensor", ...] = ()
        self.name = name

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.item())

    def detach(self) -> "Tensor":
        """Return a tensor sharing data but cut from the tape."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # Tape plumbing
    # ------------------------------------------------------------------
    @staticmethod
    def _make(data: np.ndarray, parents: Iterable["Tensor"],
              backward: Callable[[np.ndarray], None]) -> "Tensor":
        if not _grad_enabled:
            return Tensor(data)
        parents = tuple(parents)
        requires = any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._parents = parents
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if not self.requires_grad:
            return
        grad = _unbroadcast(np.asarray(grad, dtype=self.data.dtype), self.shape)
        if self.grad is None:
            # A leaf owns its gradient (optimisers scale it in place); an
            # interior one is read once by its closure, so it may alias.
            self.grad = grad.copy() if self._backward is None else grad
        else:
            self.grad = self.grad + grad

    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Run reverse-mode autodiff from this tensor.

        ``grad`` defaults to ones (so ``loss.backward()`` works for
        scalar losses and for element-wise seeding alike).  Raises
        :class:`~repro.errors.GradError` when this tensor does not
        require grad, e.g. a result computed inside :func:`no_grad`, or
        when the graph reaches a node an earlier ``backward()`` released.

        Each interior node is released once its closure has run: its
        ``grad`` reads ``None``, its parents ``()``.  Leaves keep (and
        accumulate) their gradients.
        """
        if not self.requires_grad:
            raise GradError(
                "backward() on a tensor that does not require grad "
                "(detached, or computed inside no_grad())")
        if grad is None:
            grad = np.ones_like(self.data)
        else:
            grad = _as_array(grad, self.data.dtype)
            if grad.shape != self.shape:
                raise ShapeError(
                    f"backward seed shape {grad.shape} != tensor shape {self.shape}")

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[Tuple[Tensor, bool]] = [(self, False)]
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

        self._accumulate(grad)
        # Popping drops the list's reference too, so a node's arrays are
        # freed as soon as the closures that read them have run.
        while topo:
            node = topo.pop()
            backward = node._backward
            if backward is None:
                continue
            node_grad = node.grad
            node.grad = None
            node._backward = _released
            node._parents = ()
            if node_grad is not None:
                backward(node_grad)

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    @staticmethod
    def _coerce(other: ArrayLike) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def __add__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad)
            other._accumulate(grad)

        return Tensor._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            self._accumulate(-grad)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data - other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad)
            other._accumulate(-grad)

        return Tensor._make(out_data, (self, other), backward)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return self._coerce(other) - self

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * other.data)
            other._accumulate(grad * self.data)

        return Tensor._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad / other.data)
            other._accumulate(-grad * self.data / (other.data ** 2))

        return Tensor._make(out_data, (self, other), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return self._coerce(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data ** exponent

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return Tensor._make(out_data, (self,), backward)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        other = self._coerce(other)
        out_data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                if other.data.ndim == 1:
                    self._accumulate(np.outer(grad, other.data)
                                     if self.data.ndim == 2 else grad * other.data)
                else:
                    self._accumulate(grad @ np.swapaxes(other.data, -1, -2))
            if other.requires_grad:
                if self.data.ndim == 1:
                    other._accumulate(np.outer(self.data, grad))
                else:
                    g = np.swapaxes(self.data, -1, -2) @ grad
                    other._accumulate(g)

        return Tensor._make(out_data, (self, other), backward)

    # ------------------------------------------------------------------
    # Shape ops
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        old_shape = self.shape
        out_data = self.data.reshape(shape)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(old_shape))

        return Tensor._make(out_data, (self,), backward)

    def transpose(self, *axes: int) -> "Tensor":
        axes_t = tuple(axes) if axes else tuple(reversed(range(self.ndim)))
        inverse = tuple(np.argsort(axes_t))
        out_data = self.data.transpose(axes_t)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.transpose(inverse))

        return Tensor._make(out_data, (self,), backward)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __getitem__(self, index) -> "Tensor":
        """Indexing, including fancy-index gather.

        Gradient accumulates with ``np.add.at`` so repeated indices are
        handled correctly for any index numpy accepts (slices, masks,
        tuples).  Row gathers on the model path go through
        :func:`~repro.tensor.functional.gather_rows` with a ``SlotPlan``
        instead, which reduces the same bits without ``ufunc.at``.
        """
        out_data = self.data[index]
        shape = self.shape
        dtype = self.data.dtype

        def backward(grad: np.ndarray) -> None:
            full = np.zeros(shape, dtype=dtype)
            np.add.at(full, index, grad)
            self._accumulate(full)

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)
        shape = self.shape

        def backward(grad: np.ndarray) -> None:
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, shape))

        return Tensor._make(out_data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = math.prod(self.shape[a] for a in axes)
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            g = grad
            out = out_data
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
                out = np.expand_dims(out, axis)
            mask = (self.data == out)
            # Split the gradient among ties, matching subgradient convention.
            counts = mask.sum(axis=axis, keepdims=True) if axis is not None \
                else mask.sum()
            self._accumulate(mask * g / counts)

        return Tensor._make(out_data, (self,), backward)

    def min(self, axis=None, keepdims: bool = False) -> "Tensor":
        return -((-self).max(axis=axis, keepdims=keepdims))

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Population variance (ddof = 0), differentiable."""
        mean = self.mean(axis=axis, keepdims=True)
        centred = self - mean
        out = (centred * centred).mean(axis=axis, keepdims=keepdims)
        return out

    def std(self, axis=None, keepdims: bool = False,
            eps: float = 0.0) -> "Tensor":
        """Population standard deviation; ``eps`` stabilises the sqrt."""
        return (self.var(axis=axis, keepdims=keepdims) + eps).sqrt()

    # ------------------------------------------------------------------
    # Element-wise math
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data)

        return Tensor._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad / self.data)

        return Tensor._make(out_data, (self,), backward)

    def sqrt(self) -> "Tensor":
        out_data = np.sqrt(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * 0.5 / out_data)

        return Tensor._make(out_data, (self,), backward)

    def abs(self) -> "Tensor":
        out_data = np.abs(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * np.sign(self.data))

        return Tensor._make(out_data, (self,), backward)

    def clip(self, low: float, high: float) -> "Tensor":
        out_data = np.clip(self.data, low, high)

        def backward(grad: np.ndarray) -> None:
            mask = (self.data >= low) & (self.data <= high)
            self._accumulate(grad * mask)

        return Tensor._make(out_data, (self,), backward)
