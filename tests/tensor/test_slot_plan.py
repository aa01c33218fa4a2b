"""Slot plans: typed errors at the segment boundary, and bit-identity
with the ragged ``np.add.at``/``np.maximum.at`` oracle.

Comparisons are bitwise (``.view(np.int64)``), so signed zeros and NaN
bits count.  Which of two NaN operands a ufunc returns is left open by
IEEE 754, and numpy's own loops disagree on it (``np.add.at`` and an
in-place ``np.add`` pick different ones), so the bitwise properties use
one NaN bit pattern: the one this platform's ``inf - inf`` makes, which
is also the NaN an invalid sum inside a reduction produces.  A separate
property mixes in ``np.nan`` and checks where the NaNs land.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError, ShapeError
from repro.tensor import Tensor
from repro.tensor import functional as F
from repro.tensor.functional import SlotPlan

#: The NaN this platform's invalid operations produce.
with np.errstate(invalid="ignore"):
    DEFAULT_NAN = (np.array([np.inf]) - np.array([np.inf]))[0]
SPECIALS = (0.0, -0.0, DEFAULT_NAN, np.inf, -np.inf)
OPS = ((np.add, 0.0), (np.maximum, -1e30))


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.int64)


def _oracle(ufunc, ids, x, n, fill):
    out = np.full((n,) + x.shape[1:], fill, dtype=x.dtype)
    ufunc.at(out, ids, x)
    return out


@st.composite
def segment_cases(draw, nan=DEFAULT_NAN):
    """(ids, num_segments, values) over the awkward shapes."""
    n = draw(st.integers(1, 40))
    m = draw(st.integers(0, 200))
    layout = draw(st.sampled_from(("random", "sorted", "star", "few")))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    if layout == "star":                      # one hub: k = m
        ids = np.full(m, rng.integers(0, n))
    elif layout == "few":                     # repeated ids, empty segments
        ids = rng.integers(0, max(1, n // 4), m)
    else:
        ids = rng.integers(0, n, m)
        if layout == "sorted":
            ids = np.sort(ids)
    width = draw(st.sampled_from((None, 1, 2, 4, 7, 64, 128)))
    shape = (m,) if width is None else (m, width)
    x = rng.normal(size=shape) * 10.0 ** draw(st.integers(-3, 6))
    special = rng.random(shape) < draw(st.sampled_from((0.0, 0.05, 0.3)))
    picks = np.array(SPECIALS[:2] + (nan,) + SPECIALS[3:])
    x[special] = picks[rng.integers(0, len(picks), int(special.sum()))]
    return ids, n, x


class TestDifferential:
    @settings(max_examples=150, deadline=None)
    @given(segment_cases())
    def test_reduce_is_bitwise_ufunc_at(self, case):
        ids, n, x = case
        plan = SlotPlan(ids, n)
        with np.errstate(invalid="ignore"):
            for ufunc, fill in OPS:
                expect = _oracle(ufunc, ids, x, n, fill)
                got = plan.reduce(ufunc, x, fill)
                assert got.shape == expect.shape
                assert np.array_equal(_bits(got), _bits(expect))

    @settings(max_examples=60, deadline=None)
    @given(segment_cases(nan=np.nan))
    def test_mixed_nans_land_where_the_oracle_puts_them(self, case):
        ids, n, x = case
        plan = SlotPlan(ids, n)
        with np.errstate(invalid="ignore"):
            for ufunc, fill in OPS:
                expect = _oracle(ufunc, ids, x, n, fill)
                got = plan.reduce(ufunc, x, fill)
                nan = np.isnan(expect)
                assert np.array_equal(np.isnan(got), nan)
                assert np.array_equal(_bits(got)[~nan], _bits(expect)[~nan])

    @settings(max_examples=80, deadline=None)
    @given(segment_cases())
    def test_planned_gather_backward_is_bitwise_add_at(self, case):
        ids, n, grad = case
        x = Tensor(np.zeros((n,) + grad.shape[1:]), requires_grad=True)
        out = F.gather_rows(x, SlotPlan(ids, n))
        assert np.array_equal(out.data, x.data[ids])
        with np.errstate(invalid="ignore"):
            out.backward(grad)
            expect = _oracle(np.add, ids, grad, n, 0.0)
        assert np.array_equal(_bits(x.grad), _bits(expect))

    def test_empty_message_list(self):
        plan = SlotPlan(np.array([], dtype=np.int64), 3)
        assert plan.ranks == ()
        for ufunc, fill in OPS:
            got = plan.reduce(ufunc, np.zeros((0, 2)), fill)
            assert np.array_equal(got, np.full((3, 2), fill))

    def test_star_has_one_rank_per_message(self):
        plan = SlotPlan(np.zeros(50, dtype=np.int64), 2)
        assert len(plan.ranks) == 50
        x = np.arange(50.0)
        assert plan.reduce(np.add, x)[0] == x.sum()

    def test_segment_ops_take_a_plan_or_raw_ids(self):
        rng = np.random.default_rng(0)
        ids = rng.integers(0, 6, 40)
        plan = SlotPlan(ids, 6)
        x = Tensor(rng.normal(size=(40, 3)))
        for op in (F.segment_sum, F.segment_mean, F.segment_max,
                   F.segment_softmax):
            assert np.array_equal(op(x, plan).data, op(x, ids, 6).data)

    def test_segment_max_tie_split_matches_oracle(self):
        ids = np.array([0, 0, 1, 0, 1, 2])
        data = np.array([[3.0], [3.0], [1.0], [2.0], [1.0], [5.0]])
        x = Tensor(data, requires_grad=True)
        F.segment_max(x, ids, 3).sum().backward()
        ties = np.zeros((3, 1))
        mask = data == np.array([[3.0], [1.0], [5.0]])[ids]
        np.add.at(ties, ids, mask.astype(float))
        assert np.array_equal(x.grad, mask / ties[ids])


class TestTypedErrors:
    def test_negative_id_raises(self):
        # Used to add row 1 into the last segment, silently.
        with pytest.raises(ShapeError, match=r"\[0, 3\)"):
            F.segment_sum(Tensor(np.ones((2, 1))), [0, -1], 3)

    def test_id_past_the_end_raises(self):
        # Used to raise numpy's IndexError from deep inside np.add.at.
        with pytest.raises(ShapeError, match=r"\[0, 3\)"):
            F.segment_sum(Tensor(np.ones((2, 1))), [0, 5], 3)

    @pytest.mark.parametrize("op", [F.segment_max, F.segment_softmax])
    def test_length_mismatch_raises(self, op):
        # Used to raise numpy's broadcasting ValueError.
        with pytest.raises(ShapeError, match="length 2 != rows 3"):
            op(Tensor(np.ones(3)), np.array([0, 1]), 2)

    def test_two_dimensional_ids_raise(self):
        with pytest.raises(ShapeError, match="1-D"):
            SlotPlan(np.zeros((2, 2), dtype=np.int64), 2)

    def test_float_ids_raise(self):
        with pytest.raises(ShapeError, match="integers"):
            SlotPlan(np.array([0.0, 1.5]), 2)

    def test_plan_segment_count_must_agree(self):
        plan = SlotPlan([0, 1], 2)
        with pytest.raises(ShapeError, match="2 segments"):
            F.segment_sum(Tensor(np.ones(2)), plan, 3)
        with pytest.raises(ShapeError, match="2 segments"):
            F.gather_rows(Tensor(np.ones(5)), plan)

    def test_raw_ids_need_a_segment_count(self):
        with pytest.raises(ShapeError, match="num_segments"):
            F.segment_sum(Tensor(np.ones(2)), np.array([0, 1]))

    def test_errors_are_repro_errors(self):
        assert issubclass(ShapeError, ReproError)
