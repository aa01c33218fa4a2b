"""Adaptive window selection and the paper's revisit bound."""

import numpy as np
import pytest

from repro.core.schedule import traverse
from repro.core.window import adaptive_window, theoretical_revisit_bound
from repro.errors import ConfigError
from repro.graph.generators import erdos_renyi, ring_graph, star_graph
from repro.graph.graph import Graph, complete_graph


class TestAdaptiveWindow:
    def test_ring_small_window(self, ring12):
        assert adaptive_window(ring12) == 1

    def test_complete_graph_large_window(self):
        g = complete_graph(17)
        assert adaptive_window(g) == 8  # ceil(16 / 2)

    def test_clamped_by_max(self):
        g = complete_graph(100)
        assert adaptive_window(g, max_window=8) == 8

    def test_empty_graph(self):
        assert adaptive_window(Graph(0, [], [])) == 1
        assert adaptive_window(Graph(5, [], [])) == 1

    def test_invalid_max(self, ring12):
        with pytest.raises(ConfigError):
            adaptive_window(ring12, max_window=0)

    def test_grows_with_density(self, rng):
        sparse = erdos_renyi(rng, 40, 0.05)
        dense = erdos_renyi(rng, 40, 0.5)
        assert adaptive_window(dense) > adaptive_window(sparse)


class TestRevisitBound:
    def test_formula(self):
        # Σ ceil(d/ω) − n with d = [3, 1, 2], ω = 2 → (2+1+1) − 3 = 1.
        assert theoretical_revisit_bound(np.array([3, 1, 2]), 2) == 1

    def test_zero_for_wide_window(self):
        deg = np.array([2, 2, 2])
        assert theoretical_revisit_bound(deg, 4) == 0

    def test_isolated_vertices_still_counted(self):
        assert theoretical_revisit_bound(np.array([0, 0]), 1) == 0

    def test_invalid_window(self):
        with pytest.raises(ConfigError):
            theoretical_revisit_bound(np.array([1]), 0)

    def test_star_bound_tracks_schedule(self):
        """The schedule's revisits stay within the paper's estimate for
        the worst-case hub topology."""
        g = star_graph(12)
        bound = theoretical_revisit_bound(g.degrees(), 1)
        res = traverse(g, window=1)
        assert res.revisits <= bound + 1

    def test_bound_decreases_with_window(self):
        deg = np.array([8, 8, 8, 8])
        bounds = [theoretical_revisit_bound(deg, w) for w in (1, 2, 4, 8)]
        assert bounds == sorted(bounds, reverse=True)
