"""Property test: the incremental tracker stays valid under random
update streams (hypothesis)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MegaConfig
from repro.core.incremental import IncrementalPath
from repro.core.path import PathRepresentation
from repro.graph.generators import erdos_renyi
from tests.strategies import graphs


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 200), num_ops=st.integers(1, 40),
       n=st.integers(6, 25))
def test_random_update_stream_keeps_invariants(seed, num_ops, n):
    rng = np.random.default_rng(seed)
    g = erdos_renyi(rng, n, 0.2)
    tracker = IncrementalPath(g, MegaConfig(window=2))
    for _ in range(num_ops):
        u, v = sorted(rng.integers(0, n, size=2).tolist())
        if u == v:
            continue
        if (u, v) in tracker._edges:
            if rng.random() < 0.4:
                tracker.remove(u, v)
        else:
            tracker.insert(u, v)
    # Invariant 1: every current edge is band-covered.
    assert tracker.coverage == 1.0
    # Invariant 2: cover pairs respect the window and the path contents.
    path = tracker.path_array()
    for (a, b), (i, j) in tracker.band_pairs().items():
        if (a, b) not in tracker._edges:
            continue
        assert abs(i - j) <= tracker.window
        assert {int(path[i]), int(path[j])} == {a, b} or (
            a == b and path[i] == a)
    # Invariant 3: materialisation produces a consistent representation.
    rep = tracker.to_representation()
    assert rep.graph.edge_set() == set(tracker._edges)
    assert rep.coverage == 1.0


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 100))
def test_insert_remove_insert_roundtrip(seed):
    rng = np.random.default_rng(seed)
    g = erdos_renyi(rng, 15, 0.25)
    tracker = IncrementalPath(g, MegaConfig(window=2))
    edges_before = set(tracker._edges)
    target = next(iter(edges_before))
    tracker.remove(*target)
    tracker.insert(*target)
    assert set(tracker._edges) == edges_before
    assert tracker.coverage == 1.0


@settings(max_examples=60, deadline=None)
@given(graph=graphs(), window=st.sampled_from([None, 1, 2]))
def test_seeded_tracker_equals_rebuilt_tracker(graph, window):
    """A tracker started from ``from_graph(graph)`` is the tracker that
    runs Algorithm 1 on its own edge-sorted copy, whatever the record
    order and orientation."""
    config = MegaConfig(window=window)
    rebuilt = IncrementalPath(graph, config)
    seeded = IncrementalPath(
        graph, config,
        representation=PathRepresentation.from_graph(graph, config))
    assert seeded.path_array().tolist() == rebuilt.path_array().tolist()
    assert (seeded.to_representation().virtual_mask.tolist()
            == rebuilt.to_representation().virtual_mask.tolist())
    assert seeded.band_pairs() == rebuilt.band_pairs()
    assert seeded.window == rebuilt.window
    assert seeded.work_units == rebuilt.work_units
