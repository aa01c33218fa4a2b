"""The batched L2 against the one-access-at-a-time reference (hypothesis).

:class:`~repro.memsim.cache.LRUCache` resolves a whole segmented stream
in one pass: sets that cannot evict are decided in bulk, the rest walk
in lockstep or one access at a time.  Every counter it reports must
equal what :class:`tests.memsim.lru_oracle.OracleLRU` finds walking the
same stream access by access, over any sequence of calls.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.memsim.cache import COUNTERS, LRUCache
from tests.memsim.lru_oracle import OracleLRU

LINE = 16


@st.composite
def segments(draw, span):
    """One kernel trace's lines, in one of the shapes kernels produce."""
    kind = draw(st.sampled_from(
        ["empty", "single", "random", "sequential", "duplicates", "sweep"]))
    if kind == "empty":
        return []
    if kind == "single":
        return [draw(st.integers(0, span))]
    if kind == "random":
        return draw(st.lists(st.integers(0, span), max_size=120))
    if kind == "duplicates":
        lines = draw(st.lists(st.integers(0, span), min_size=1, max_size=30))
        return list(np.repeat(lines, draw(st.integers(2, 4))))
    start = draw(st.integers(0, span))
    length = draw(st.integers(1, 400 if kind == "sweep" else 60))
    stride = draw(st.sampled_from([1, 1, 2, 3, 7]))
    return list(start + stride * np.arange(length))


@st.composite
def geometries(draw):
    """Sets, ways and a line span for the stream."""
    num_sets = draw(st.sampled_from([1, 2, 3, 4, 8, 16, 64]))
    ways = draw(st.sampled_from([1, 2, 4, 16]))
    # Spans near the capacity mix fitting sets with evicting ones.
    capacity = num_sets * ways
    span = draw(st.sampled_from([2, capacity // 2 + 1, capacity,
                                 2 * capacity, 8 * capacity]))
    return num_sets, ways, span


@st.composite
def workloads(draw):
    """A cache geometry plus calls, each a list of segments."""
    num_sets, ways, span = draw(geometries())
    calls = draw(st.lists(st.lists(segments(span), max_size=5),
                          min_size=1, max_size=4))
    return num_sets, ways, calls


@st.composite
def replays(draw, span):
    """Distinct pieces plus an order replaying each at least once.

    Extra plays repeat pieces, back to back or interleaved with others.
    """
    pieces = draw(st.lists(segments(span), min_size=1, max_size=5))
    extra = draw(st.lists(st.integers(0, len(pieces) - 1), max_size=8))
    order = draw(st.permutations(list(range(len(pieces))) + extra))
    return pieces, order


def _stream(rng, segment_lines):
    """Byte addresses anywhere inside each line, plus segment lengths."""
    lines = np.concatenate([np.asarray(s, dtype=np.int64)
                            for s in segment_lines] + [np.empty(0, np.int64)])
    offsets = rng.integers(0, LINE, size=len(lines))
    return lines * LINE + offsets, [len(s) for s in segment_lines]


def _assert_same(cache, oracle, addresses, lengths, probe, order=None):
    got = cache.access_trace(addresses, lengths, order)
    want = oracle.access_trace(addresses, lengths, order)
    for key in COUNTERS:
        assert got[key].tolist() == want[key].tolist(), key
    assert (cache.hits, cache.misses) == (oracle.hits, oracle.misses)
    assert cache.occupancy == oracle.occupancy
    for line in probe:
        assert cache.contains(line * LINE) == oracle.contains(line * LINE)


@settings(max_examples=300, deadline=None)
@given(workload=workloads(), seed=st.integers(0, 2**16))
def test_matches_reference_over_calls(workload, seed):
    num_sets, ways, calls = workload
    rng = np.random.default_rng(seed)
    size = num_sets * ways * LINE
    cache, oracle = LRUCache(size, LINE, ways), OracleLRU(size, LINE, ways)
    seen = set()
    for segment_lines in calls:
        addresses, lengths = _stream(rng, segment_lines)
        seen.update((addresses // LINE).tolist())
        _assert_same(cache, oracle, addresses, lengths, sorted(seen))


@settings(max_examples=300, deadline=None)
@given(geometry=geometries(), warm=st.booleans(), data=st.data(),
       seed=st.integers(0, 2**16))
def test_replayed_pieces_match_expanded_stream(geometry, warm, data, seed):
    """``order`` replays stored pieces: the same outcome as the oracle
    walking the expanded stream, on a fresh or a pre-warmed cache."""
    num_sets, ways, span = geometry
    rng = np.random.default_rng(seed)
    size = num_sets * ways * LINE
    cache, oracle = LRUCache(size, LINE, ways), OracleLRU(size, LINE, ways)
    seen = set()
    if warm:
        addresses, lengths = _stream(rng, [rng.integers(0, span + 1,
                                                        3 * span)])
        seen.update((addresses // LINE).tolist())
        _assert_same(cache, oracle, addresses, lengths, [])
    for pieces, order in data.draw(st.lists(replays(span), min_size=1,
                                            max_size=4)):
        addresses, lengths = _stream(rng, pieces)
        seen.update((addresses // LINE).tolist())
        _assert_same(cache, oracle, addresses, lengths, sorted(seen), order)


def test_replayed_piece_is_stamped_at_its_last_play():
    """Line 0 is replayed after line 1, so it is the most recently used
    when line 2 arrives; line 1 is the one evicted."""
    cache, oracle = LRUCache(2 * LINE, LINE, 2), OracleLRU(2 * LINE, LINE, 2)
    for addresses, lengths, order in (([0, LINE], [1, 1], [0, 1, 0]),
                                      ([2 * LINE], [1], None)):
        _assert_same(cache, oracle, np.array(addresses), lengths, [0, 1, 2],
                     order)
    assert cache.contains(0) and not cache.contains(LINE)


@pytest.mark.parametrize("order", [[0], [0, 1, 3], [0, 0, 2], [[0, 1]]])
def test_order_must_replay_every_segment(order):
    with pytest.raises(SimulationError):
        LRUCache(1024, 64, 4).access_trace(np.arange(2) * 64, [1, 1], order)


@pytest.mark.parametrize("ways", [2, 16])
def test_lockstep_walk_matches_reference(ways):
    """Hundreds of overflowing sets: the walk runs in lockstep rounds."""
    rng = np.random.default_rng(ways)
    num_sets = 256
    size = num_sets * ways * LINE
    cache, oracle = LRUCache(size, LINE, ways), OracleLRU(size, LINE, ways)
    capacity = num_sets * ways
    for _ in range(3):
        parts = [rng.integers(0, 3 * capacity, size=4000),
                 np.arange(5 * capacity) % (2 * capacity),
                 np.repeat(rng.integers(0, 3 * capacity, size=1500), 2),
                 rng.integers(0, capacity // 4, size=3000)]
        addresses, lengths = _stream(rng, parts)
        _assert_same(cache, oracle, addresses, lengths,
                     range(0, 3 * capacity, 7))


def test_single_access_is_one_segment():
    cache = LRUCache(1024, 64, 4)
    stats = cache.access_trace(np.array([64]))
    assert {key: stats[key].tolist() for key in COUNTERS} == {
        "hits": [0], "misses": [1], "seq_misses": [0], "seq_all": [0],
        "repeat_all": [0]}


def test_stream_counters_restart_per_segment():
    cache = LRUCache(4096, 64, 4)
    stats = cache.access_trace(np.arange(6) * 64, [3, 3])
    assert stats["seq_all"].tolist() == [2, 2]
    assert stats["seq_misses"].tolist() == [2, 2]


@pytest.mark.parametrize("segments", [[1, 2], [-1, 3], [[2]]])
def test_segments_must_cover_the_stream(segments):
    with pytest.raises(SimulationError):
        LRUCache(1024, 64, 4).access_trace(np.arange(2) * 64, segments)


def test_negative_addresses_rejected():
    with pytest.raises(SimulationError):
        LRUCache(1024, 64, 4).access_trace(np.array([-64]))
