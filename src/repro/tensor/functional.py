"""Functional (stateless) operations for the autograd engine.

These cover the activations, losses, and — most importantly for a GNN
library — the *segment* operations that implement message passing:
``gather_rows`` (node → edge scatter in the paper's terminology) and
``segment_sum``/``segment_max``/``segment_softmax``/``segment_mean``
(edge → node gather).

Every segment reduction runs through a :class:`SlotPlan`: the messages
grouped once by their rank within their segment, so a reduction is a
few dense sweeps (one per rank) instead of a ragged ``ufunc.at``
scatter, with each segment still folded in message order — the results
are bit-identical.  The segment ops take raw ids (and build a plan per
call) or a plan a caller built once and reuses; ``gather_rows`` given a
plan reduces its backward through it.  Ids are validated when the plan
is built, so malformed ids raise :class:`~repro.errors.ShapeError`.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.errors import ShapeError
from repro.tensor.tensor import Tensor


# ----------------------------------------------------------------------
# Activations
# ----------------------------------------------------------------------
def relu(x: Tensor) -> Tensor:
    out_data = np.maximum(x.data, 0.0)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * (x.data > 0))

    return Tensor._make(out_data, (x,), backward)


def leaky_relu(x: Tensor, slope: float = 0.01) -> Tensor:
    out_data = np.where(x.data > 0, x.data, slope * x.data)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * np.where(x.data > 0, 1.0, slope))

    return Tensor._make(out_data, (x,), backward)


def elu(x: Tensor, alpha: float = 1.0) -> Tensor:
    exp_part = alpha * (np.exp(np.minimum(x.data, 0.0)) - 1.0)
    out_data = np.where(x.data > 0, x.data, exp_part)

    def backward(grad: np.ndarray) -> None:
        slope = np.where(x.data > 0, 1.0, exp_part + alpha)
        x._accumulate(grad * slope)

    return Tensor._make(out_data, (x,), backward)


def sigmoid(x: Tensor) -> Tensor:
    out_data = 1.0 / (1.0 + np.exp(-np.clip(x.data, -60.0, 60.0)))

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * out_data * (1.0 - out_data))

    return Tensor._make(out_data, (x,), backward)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    out_data = exp / exp.sum(axis=axis, keepdims=True)

    def backward(grad: np.ndarray) -> None:
        dot = (grad * out_data).sum(axis=axis, keepdims=True)
        x._accumulate(out_data * (grad - dot))

    return Tensor._make(out_data, (x,), backward)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - log_z

    def backward(grad: np.ndarray) -> None:
        soft = np.exp(out_data)
        x._accumulate(grad - soft * grad.sum(axis=axis, keepdims=True))

    return Tensor._make(out_data, (x,), backward)


# ----------------------------------------------------------------------
# Structure ops
# ----------------------------------------------------------------------
def concatenate(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = list(tensors)
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(grad: np.ndarray) -> None:
        pieces = np.split(grad, splits, axis=axis)
        for t, piece in zip(tensors, pieces):
            t._accumulate(piece)

    return Tensor._make(out_data, tensors, backward)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = list(tensors)
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        pieces = np.split(grad, len(tensors), axis=axis)
        for t, piece in zip(tensors, pieces):
            t._accumulate(np.squeeze(piece, axis=axis))

    return Tensor._make(out_data, tensors, backward)


def where(cond: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    cond = np.asarray(cond, dtype=bool)
    out_data = np.where(cond, a.data, b.data)

    def backward(grad: np.ndarray) -> None:
        a._accumulate(grad * cond)
        b._accumulate(grad * ~cond)

    return Tensor._make(out_data, (a, b), backward)


# ----------------------------------------------------------------------
# Gather / segment operations (the graph-operation substrate)
# ----------------------------------------------------------------------
class SlotPlan:
    """An order-preserving reduction plan over fixed segment ids.

    Message ``i`` belongs to segment ``ids[i]``.  Its *rank* is the
    number of earlier messages with the same id.  The plan lists the
    segments by descending size, so the segments holding a rank-``r``
    message are always the first ``c_r`` of that list, and it orders the
    messages by (rank, segment position).  A reduction then needs no
    ragged scatter: it gathers the messages into that order once, starts
    an accumulator with ``ufunc(fill, rank-0 rows)``, folds each later
    rank in place into the accumulator's first ``c_r`` rows, and writes
    the accumulator to its segments.  Each segment thus folds its
    messages in message order, exactly as ``ufunc.at`` does: results are
    bit-identical, signed zeros and infinities included, at O(m·d)
    memory.  (Which of two NaN operands survives is the one thing IEEE
    754 leaves open, and numpy's own loops differ on it.)

    The ids are validated once, here; every reduction and gather then
    only checks that the row count matches.  The grouping is built on
    the first reduction, so a plan that only gathers (a tape-free
    :func:`gather_rows`, e.g. an embedding lookup) never pays for it.
    """

    __slots__ = ("ids", "num_segments", "counts", "_grouping")

    def __init__(self, ids, num_segments: int):
        ids = np.asarray(ids)
        if ids.ndim != 1:
            raise ShapeError(f"segment ids must be 1-D, got shape {ids.shape}")
        if ids.size and ids.dtype.kind not in "iu":
            raise ShapeError(f"segment ids must be integers, got {ids.dtype}")
        num_segments = int(num_segments)
        ids = ids.astype(np.int64, copy=False)
        if num_segments < 0 or ids.size and (
                ids.min() < 0 or ids.max() >= num_segments):
            raise ShapeError(
                f"segment ids must lie in [0, {num_segments})")
        self.ids = ids
        self.num_segments = num_segments
        #: Messages per segment.
        self.counts = np.bincount(ids, minlength=num_segments)
        self._grouping: Optional[tuple] = None

    def _group(self) -> tuple:
        """``(order, segments, ranks)``, built once on first use."""
        if self._grouping is None:
            ids, counts = self.ids, self.counts
            by_id = np.argsort(ids, kind="stable")
            starts = np.cumsum(counts) - counts
            rank = np.empty_like(ids)
            rank[by_id] = np.arange(len(ids)) - starts[ids[by_id]]
            by_size = np.argsort(-counts, kind="stable")
            position = np.empty_like(by_size)
            position[by_size] = np.arange(self.num_segments)
            sizes = np.bincount(rank)
            bounds = np.cumsum(sizes)
            self._grouping = (
                np.lexsort((position[ids], rank)),
                by_size[:sizes[0] if len(sizes) else 0],
                tuple(zip((bounds - sizes).tolist(), bounds.tolist())))
        return self._grouping

    @property
    def order(self) -> np.ndarray:
        """Message ids grouped by rank, each rank in segment-position order."""
        return self._group()[0]

    @property
    def segments(self) -> np.ndarray:
        """Segment of each accumulator row (the non-empty segments)."""
        return self._group()[1]

    @property
    def ranks(self) -> tuple:
        """``(start, stop)`` of each rank's slice of ``order``."""
        return self._group()[2]

    def reduce(self, ufunc: np.ufunc, x: np.ndarray,
               fill: float = 0.0) -> np.ndarray:
        """``ufunc.at(full(fill), ids, x)``, swept one rank at a time."""
        if len(x) != len(self.ids):
            raise ShapeError(
                f"segment ids length {len(self.ids)} != rows {len(x)}")
        out = np.full((self.num_segments,) + x.shape[1:], fill, dtype=x.dtype)
        order, segments, ranks = self._group()
        if not ranks:
            return out
        grouped = x[order]
        (start, stop), *later = ranks
        # ``out`` still holds ``fill`` everywhere: this is ufunc(fill, x).
        acc = ufunc(out[:stop - start], grouped[start:stop])
        for start, stop in later:
            rows = acc[:stop - start]
            ufunc(rows, grouped[start:stop], out=rows)
        out[segments] = acc
        return out


def _plan(segment_ids, num_segments: Optional[int]) -> SlotPlan:
    if isinstance(segment_ids, SlotPlan):
        if num_segments is not None and num_segments != segment_ids.num_segments:
            raise ShapeError(
                f"plan has {segment_ids.num_segments} segments, "
                f"not {num_segments}")
        return segment_ids
    if num_segments is None:
        raise ShapeError("num_segments is required with raw segment ids")
    return SlotPlan(segment_ids, num_segments)


def gather_rows(x: Tensor, index) -> Tensor:
    """Select rows ``x[index]`` with accumulating backward.

    This is the "scatter to edges" primitive: fetching source/destination
    node embeddings for every edge.  Indices may repeat.  Given a
    :class:`SlotPlan` over ``len(x)`` segments, the backward sums the
    gradient rows through the plan instead of ``Tensor.__getitem__``'s
    ragged scatter (same bits, in the same order).
    """
    if not isinstance(index, SlotPlan):
        return x[np.asarray(index, dtype=np.int64)]
    plan = index
    if len(x) != plan.num_segments:
        raise ShapeError(
            f"plan has {plan.num_segments} segments, tensor has {len(x)} rows")

    def backward(grad: np.ndarray) -> None:
        x._accumulate(plan.reduce(np.add, grad))

    return Tensor._make(x.data[plan.ids], (x,), backward)


def segment_sum(x: Tensor, segment_ids, num_segments: Optional[int] = None
                ) -> Tensor:
    """Sum rows of ``x`` into ``num_segments`` buckets.

    This is the "gather to nodes" primitive: reducing edge messages onto
    destination nodes.  ``segment_ids`` need not be sorted; pass a
    :class:`SlotPlan` (then ``num_segments`` may be omitted) to reuse
    its grouping across calls.
    """
    plan = _plan(segment_ids, num_segments)
    out_data = plan.reduce(np.add, x.data)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad[plan.ids])

    return Tensor._make(out_data, (x,), backward)


def segment_mean(x: Tensor, segment_ids, num_segments: Optional[int] = None
                 ) -> Tensor:
    plan = _plan(segment_ids, num_segments)
    counts = np.maximum(plan.counts.astype(x.data.dtype), 1.0)
    total = segment_sum(x, plan)
    return total * Tensor(1.0 / counts.reshape((-1,) + (1,) * (x.ndim - 1)))


def segment_max(x: Tensor, segment_ids, num_segments: Optional[int] = None,
                fill: float = -1e30) -> Tensor:
    plan = _plan(segment_ids, num_segments)
    out_data = plan.reduce(np.maximum, x.data, fill)

    def backward(grad: np.ndarray) -> None:
        mask = (x.data == out_data[plan.ids])
        # Split ties evenly within each segment.
        tie_counts = plan.reduce(np.add, mask.astype(x.data.dtype))
        tie_counts = np.maximum(tie_counts, 1.0)
        x._accumulate(mask * grad[plan.ids] / tie_counts[plan.ids])

    return Tensor._make(out_data, (x,), backward)


def segment_softmax(x: Tensor, segment_ids,
                    num_segments: Optional[int] = None) -> Tensor:
    """Softmax over rows of ``x`` grouped by segment (attention weights)."""
    plan = _plan(segment_ids, num_segments)
    seg_max = segment_max(x, plan)
    shifted = x - gather_rows(seg_max, plan)
    exp = shifted.exp()
    denom = segment_sum(exp, plan)
    denom_safe = denom + 1e-16
    return exp / gather_rows(denom_safe, plan)


# ----------------------------------------------------------------------
# Losses
# ----------------------------------------------------------------------
def mse_loss(pred: Tensor, target: Tensor) -> Tensor:
    diff = pred - target
    return (diff * diff).mean()


def l1_loss(pred: Tensor, target: Tensor) -> Tensor:
    return (pred - target).abs().mean()


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy of ``logits`` (N, C) against integer ``labels``."""
    labels = np.asarray(labels, dtype=np.int64)
    if logits.ndim != 2:
        raise ShapeError(f"logits must be 2-D, got shape {logits.shape}")
    logp = log_softmax(logits, axis=-1)
    picked = logp[np.arange(len(labels)), labels]
    return -picked.mean()


def accuracy(logits: Tensor, labels: np.ndarray) -> float:
    labels = np.asarray(labels, dtype=np.int64)
    pred = logits.data.argmax(axis=-1)
    return float((pred == labels).mean())
