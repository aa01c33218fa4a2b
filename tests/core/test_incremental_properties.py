"""Property test: the incremental tracker stays valid under random
update streams (hypothesis)."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import MegaConfig
from repro.core.incremental import IncrementalPath
from repro.core.path import PathRepresentation
from tests.strategies import graphs


@settings(max_examples=60, deadline=None)
@given(graph=graphs(max_nodes=25), data=st.data())
def test_random_update_stream_keeps_invariants(graph, data):
    tracker = IncrementalPath(graph, MegaConfig(window=2))
    n = graph.num_nodes
    ops = (data.draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                  st.booleans()), max_size=40)) if n else [])
    for a, b, drop in ops:
        u, v = sorted((a, b))
        if u == v:
            continue
        if (u, v) in tracker._edges:
            if drop:
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


@settings(max_examples=40, deadline=None)
@given(graph=graphs(), data=st.data())
def test_insert_remove_insert_roundtrip(graph, data):
    assume(graph.num_edges > 0)
    tracker = IncrementalPath(graph, MegaConfig(window=2))
    edges_before = set(tracker._edges)
    target = data.draw(st.sampled_from(sorted(edges_before)))
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
