"""Algorithm 1 invariants: coverage, adjacency, termination, determinism."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import MegaConfig
from repro.core.path import PathRepresentation
from repro.core.schedule import TraversalResult, resolve_start, traverse
from repro.datasets.cycles import _make_instance as make_cycles_instance
from repro.errors import ScheduleError
from repro.graph.generators import (
    erdos_renyi,
    grid_graph,
    molecular_like,
    ring_graph,
    star_graph,
)
from repro.graph.graph import Graph, complete_graph, from_edge_list
from tests.core.alg1_oracle import traverse_oracle
from tests.strategies import directed_graphs, graphs


def check_invariants(graph, result: TraversalResult):
    """Structural invariants every schedule must satisfy."""
    path = result.path
    # Every vertex appears at least once.
    assert set(path.tolist()) == set(range(graph.num_nodes))
    # Non-virtual transitions follow real edges.
    adj = graph.adjacency_lists()
    for i in range(1, len(path)):
        if not result.virtual_mask[i]:
            assert path[i] in adj[path[i - 1]], (
                f"non-virtual transition {path[i-1]}->{path[i]} is not an edge")
    # Cover positions are within the window and consistent with the path.
    for (u, v), (i, j) in result.cover_positions.items():
        assert abs(j - i) <= result.window
        assert {int(path[i]), int(path[j])} == {u, v} or (
            u == v and path[i] == u)


class TestBasicGraphs:
    def test_ring_full_coverage(self):
        g = ring_graph(12)
        res = traverse(g, window=1)
        check_invariants(g, res)
        assert res.coverage == 1.0
        assert res.revisits <= 2

    def test_ring_path_nearly_minimal(self):
        g = ring_graph(20)
        res = traverse(g, window=1)
        assert res.length <= 22  # n + wrap revisit + slack

    def test_star_requires_revisits(self):
        g = star_graph(8)
        res = traverse(g, window=1)
        check_invariants(g, res)
        assert res.coverage == 1.0
        # The hub must reappear to cover all 8 spokes at window 1.
        assert res.multiplicity(g.num_nodes)[0] >= 4

    def test_star_wide_window_fewer_revisits(self):
        g = star_graph(8)
        narrow = traverse(g, window=1)
        wide = traverse(g, window=8)
        assert wide.revisits <= narrow.revisits

    def test_complete_graph(self):
        g = complete_graph(9)
        res = traverse(g, window=4)
        check_invariants(g, res)
        assert res.coverage == 1.0

    def test_grid(self):
        g = grid_graph(5, 6)
        res = traverse(g, window=2)
        check_invariants(g, res)
        assert res.coverage == 1.0

    def test_disconnected_graph_jumps(self):
        g = from_edge_list([(0, 1), (2, 3), (4, 5)], num_nodes=6)
        res = traverse(g, window=1)
        check_invariants(g, res)
        assert res.coverage == 1.0
        assert res.num_jumps >= 2  # at least one jump per extra component

    def test_self_loops_counted_covered(self):
        g = Graph(3, [0, 0, 1], [0, 1, 2])
        res = traverse(g, window=1)
        assert res.coverage == 1.0
        assert (0, 0) in res.cover_positions

    def test_empty_graph(self):
        res = traverse(Graph(0, [], []), window=1)
        assert res.length == 0
        assert res.coverage == 1.0

    def test_single_vertex(self):
        res = traverse(Graph(1, [], []), window=1)
        assert res.path.tolist() == [0]


class TestParameters:
    def test_invalid_window(self, ring12):
        with pytest.raises(ScheduleError):
            traverse(ring12, window=0)

    def test_invalid_coverage(self, ring12):
        with pytest.raises(ScheduleError):
            traverse(ring12, window=1, coverage=0.0)
        with pytest.raises(ScheduleError):
            traverse(ring12, window=1, coverage=1.5)

    def test_partial_coverage_shorter_path(self, er50):
        full = traverse(er50, window=2, coverage=1.0)
        partial = traverse(er50, window=2, coverage=0.6)
        assert partial.coverage >= 0.6 - 1e-9
        assert partial.length <= full.length
        # All vertices must still appear.
        assert set(partial.path.tolist()) == set(range(50))

    def test_start_policies(self, molecule):
        for policy in ("max_degree", "min_degree", "peripheral", "zero"):
            res = traverse(molecule, window=2, start=policy)
            assert res.coverage == 1.0

    def test_explicit_start_vertex(self, molecule):
        res = traverse(molecule, window=2, start=7)
        assert res.path[0] == 7

    def test_resolve_start_bounds(self, ring12):
        with pytest.raises(ScheduleError):
            resolve_start(ring12, 100)
        with pytest.raises(ScheduleError):
            resolve_start(ring12, "nonsense")

    def test_max_degree_start(self, star10):
        assert resolve_start(star10, "max_degree") == 0


class TestDeterminism:
    def test_same_seed_same_path(self, er50):
        # The seed drives edge dropping only: Algorithm 1 breaks ties by
        # vertex id, so any two seeds give one path, and traverse takes
        # no generator at all.
        a = PathRepresentation.from_graph(er50, MegaConfig(window=2, seed=3))
        b = PathRepresentation.from_graph(er50, MegaConfig(window=2, seed=4))
        assert np.array_equal(a.path, b.path)
        assert np.array_equal(a.path, traverse(er50, window=2).path)
        with pytest.raises(TypeError):
            traverse(er50, window=2, rng=np.random.default_rng(3))

    def test_rng_optional(self, molecule):
        a = traverse(molecule, window=2)
        b = traverse(molecule, window=2)
        assert np.array_equal(a.path, b.path)


class TestCoverageAccounting:
    def test_counts_match_cover_positions(self, molecule):
        res = traverse(molecule, window=2)
        assert len(res.cover_positions) == res.covered_edges
        assert res.total_edges == molecule.num_edges

    def test_expansion_reasonable(self, rng):
        """Path length stays within a small multiple of n for sparse graphs."""
        for _ in range(5):
            g = molecular_like(rng, 30)
            res = traverse(g, window=2)
            assert res.length <= 2.5 * g.num_nodes

    def test_window_reduces_length(self, rng):
        g = erdos_renyi(rng, 40, 0.2)
        narrow = traverse(g, window=1)
        wide = traverse(g, window=4)
        assert wide.length <= narrow.length


@settings(max_examples=25, deadline=None)
@given(graph=graphs(max_nodes=24))
def test_random_graph_invariants(graph):
    """Property: full coverage and adjacency hold on arbitrary graphs."""
    res = traverse(graph, window=2)
    check_invariants(graph, res)
    assert res.coverage == 1.0


@settings(max_examples=15, deadline=None)
@given(graph=graphs(max_nodes=20), window=st.integers(1, 5))
def test_window_bound_respected(graph, window):
    res = traverse(graph, window=window)
    for (_, _), (i, j) in res.cover_positions.items():
        assert abs(j - i) <= window


ORACLE_GRID = list(itertools.product((1, 2, 3, 5), (0.6, 1.0),
                                     ("max_degree", "peripheral", "zero")))


def assert_same_as_oracle(graph):
    """The static jump order returns the rescanning oracle's schedule."""
    for window, coverage, start in ORACLE_GRID:
        got = traverse(graph, window, coverage, start)
        want = traverse_oracle(graph, window, coverage, start)
        where = (window, coverage, start)
        assert np.array_equal(got.path, want.path), where
        assert np.array_equal(got.virtual_mask, want.virtual_mask), where
        assert list(got.cover_positions.items()) == \
            list(want.cover_positions.items()), where
        assert (got.covered_edges, got.total_edges, got.num_jumps) == \
            (want.covered_edges, want.total_edges, want.num_jumps), where


@st.composite
def cycles_graphs(draw):
    """One CYCLES benchmark instance: degrees mostly 2 or less, so most
    steps at ω = 1 (in the grid) have a single candidate."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    return make_cycles_instance(rng, draw(st.integers(8, 60)),
                                positive=draw(st.booleans()))


@settings(max_examples=90, deadline=None)
@given(graph=st.one_of(graphs(max_nodes=18), cycles_graphs()))
def test_matches_rescanning_oracle(graph):
    assert_same_as_oracle(graph)


@settings(max_examples=40, deadline=None)
@given(graph=directed_graphs(max_nodes=14))
def test_matches_rescanning_oracle_directed(graph):
    assert_same_as_oracle(graph)
