"""Path-aware batching and text visualisation."""

import numpy as np
import pytest

from repro.core import MegaConfig, PathRepresentation, padding_waste, viz
from repro.errors import GraphError
from repro.graph.generators import ring_graph


class TestPaddingWaste:
    def test_uniform_lengths_no_waste(self):
        assert padding_waste([5, 5, 5]) == 0.0

    def test_known_value(self):
        # pad [2, 4] to 4 -> 8 slots, 6 useful.
        assert padding_waste([2, 4]) == pytest.approx(0.25)

    def test_empty(self):
        assert padding_waste([]) == 0.0


class TestBatchingEdgeCases:
    """Boundary behaviour the serving micro-batcher leans on."""

    def test_single_oversized_path(self):
        # One path far longer than the rest: sorting by length pushes it
        # into the final batch so it only pads its own batch.
        reps = [PathRepresentation.from_graph(ring_graph(8))
                for _ in range(7)]
        reps.append(PathRepresentation.from_graph(ring_graph(120)))
        lengths = [rep.length for rep in reps]
        order = np.argsort(lengths, kind="stable")
        assert order[-1] == 7                  # the giant sorts last
        first = [lengths[i] for i in order[:4]]
        assert padding_waste(first) == 0.0     # short batch unpolluted
        # A singleton batch pads to itself: zero waste by definition.
        assert padding_waste([lengths[7]]) == 0.0

    def test_all_equal_lengths_zero_waste(self):
        lengths = [PathRepresentation.from_graph(ring_graph(10)).length
                   for _ in range(9)]
        for start in range(0, len(lengths), 4):
            assert padding_waste(lengths[start:start + 4]) == 0.0


class TestViz:
    def test_adjacency_dimensions(self, ring12):
        art = viz.render_adjacency(ring12)
        lines = art.splitlines()
        assert len(lines) == 12
        assert all(len(l.split()) == 12 for l in lines)

    def test_band_is_banded(self):
        rep = PathRepresentation.from_graph(ring_graph(8),
                                            MegaConfig(window=1))
        art = viz.render_band(rep)
        for i, line in enumerate(art.splitlines()):
            cells = line.split()
            for j, c in enumerate(cells):
                if c == "#":
                    assert abs(i - j) <= 1

    def test_render_rejects_nonsquare(self):
        with pytest.raises(GraphError):
            viz.render_matrix(np.zeros((2, 3)))

    def test_render_rejects_huge(self):
        with pytest.raises(GraphError):
            viz.render_matrix(np.zeros((100, 100)), max_size=60)

    def test_side_by_side_width(self):
        out = viz.side_by_side("ab\ncd", "xy\nzw", gap=2)
        lines = out.splitlines()
        assert lines[0].endswith("xy")
        assert lines[0].startswith("ab")

    def test_bar_chart(self):
        chart = viz.render_bar_chart(["a", "bb"], [1.0, 2.0], width=10)
        lines = chart.splitlines()
        assert lines[1].count("#") == 10       # max value fills the bar
        assert lines[0].count("#") == 5

    def test_bar_chart_validation(self):
        with pytest.raises(GraphError):
            viz.render_bar_chart(["a"], [1.0, 2.0])

    def test_render_path_marks_virtual(self):
        from repro.graph.graph import from_edge_list

        g = from_edge_list([(0, 1), (2, 3)], num_nodes=4)
        rep = PathRepresentation.from_graph(g, MegaConfig(window=1))
        art = viz.render_path(rep)
        assert "~>" in art   # the jump between components
        assert "->" in art
