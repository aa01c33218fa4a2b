"""Path representation: band plans, feature movement, coverage."""

import numpy as np
import pytest

from repro.core.config import MegaConfig
from repro.core.path import PathRepresentation
from repro.errors import ConfigError, GraphError, ScheduleError
from repro.graph.generators import erdos_renyi, molecular_like, ring_graph
from repro.graph.graph import Graph, complete_graph


@pytest.fixture
def path_rep(molecule):
    return PathRepresentation.from_graph(molecule, MegaConfig(window=2))


class TestConstruction:
    def test_full_coverage_default(self, path_rep):
        assert path_rep.coverage == 1.0
        assert path_rep.covered_edge_mask.all()

    def test_band_one_row_per_edge(self, path_rep, molecule):
        assert path_rep.band.num_edges == molecule.num_edges
        assert sorted(path_rep.band.edge_ids.tolist()) == list(
            range(molecule.num_edges))

    def test_band_within_window(self, path_rep):
        delta = np.abs(path_rep.band.pos_src - path_rep.band.pos_dst)
        assert delta.max() <= path_rep.window

    def test_band_positions_realise_edges(self, path_rep, molecule):
        for i, j, e in zip(path_rep.band.pos_src, path_rep.band.pos_dst,
                           path_rep.band.edge_ids):
            endpoints = {int(path_rep.path[i]), int(path_rep.path[j])}
            expected = {int(molecule.src[e]), int(molecule.dst[e])}
            assert endpoints == expected

    def test_multiplicity_sums_to_length(self, path_rep):
        assert path_rep.multiplicity.sum() == path_rep.length

    def test_expansion(self, path_rep, molecule):
        assert path_rep.expansion == path_rep.length / molecule.num_nodes
        assert path_rep.expansion >= 1.0

    def test_adaptive_window_used_when_none(self, molecule):
        rep = PathRepresentation.from_graph(molecule, MegaConfig(window=None))
        assert rep.window >= 1

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            MegaConfig(window=0)
        with pytest.raises(ConfigError):
            MegaConfig(coverage=0.0)
        with pytest.raises(ConfigError):
            MegaConfig(edge_drop=1.0)
        with pytest.raises(ConfigError):
            MegaConfig(start="bogus")


class TestFeatureMovement:
    def test_scatter_replicates_rows(self, path_rep, molecule):
        x = np.arange(molecule.num_nodes * 3.0).reshape(-1, 3)
        xp = path_rep.scatter_to_path(x)
        assert xp.shape == (path_rep.length, 3)
        assert np.allclose(xp, x[path_rep.path])

    def test_scatter_length_check(self, path_rep):
        with pytest.raises(ScheduleError):
            path_rep.scatter_to_path(np.zeros((3, 2)))

    def test_reduce_mean_roundtrip(self, path_rep, molecule):
        """scatter → reduce(mean) is the identity on node features."""
        x = np.random.default_rng(0).normal(size=(molecule.num_nodes, 4))
        back = path_rep.reduce_to_nodes(path_rep.scatter_to_path(x), op="mean")
        assert np.allclose(back, x)

    def test_reduce_sum_weights_by_multiplicity(self, path_rep, molecule):
        x = np.ones((molecule.num_nodes, 1))
        summed = path_rep.reduce_to_nodes(path_rep.scatter_to_path(x), op="sum")
        assert np.allclose(summed.ravel(), path_rep.multiplicity)

    def test_reduce_length_check(self, path_rep):
        with pytest.raises(ScheduleError):
            path_rep.reduce_to_nodes(np.zeros((3, 2)))

    def test_reduce_unknown_op(self, path_rep):
        with pytest.raises(ScheduleError):
            path_rep.reduce_to_nodes(
                np.zeros((path_rep.length, 1)), op="median")


class TestBandGraph:
    def test_full_coverage_band_graph_equals_original(self, path_rep, molecule):
        band = path_rep.band_graph(include_virtual=False)
        assert band.edge_set() == molecule.edge_set()

    def test_virtual_edges_add_pairs(self, rng):
        # A disconnected graph forces at least one virtual edge.
        from repro.graph.graph import from_edge_list

        g = from_edge_list([(0, 1), (2, 3)], num_nodes=4)
        rep = PathRepresentation.from_graph(g, MegaConfig(window=1))
        with_virtual = rep.band_graph(include_virtual=True)
        assert with_virtual.num_edges > g.num_edges

    def test_directed_band_doubles_edges(self, path_rep, molecule):
        s, d, e = path_rep.directed_band()
        loops = (molecule.src == molecule.dst).sum()
        assert len(s) == 2 * molecule.num_edges - loops


class TestPartialCoverage:
    def test_theta_below_one(self, rng):
        g = erdos_renyi(rng, 40, 0.3)
        rep = PathRepresentation.from_graph(
            g, MegaConfig(window=2, coverage=0.5))
        assert 0.5 - 1e-9 <= rep.coverage <= 1.0
        # Uncovered edges are excluded from the band.
        assert rep.band.num_edges == int(rep.covered_edge_mask.sum())

    def test_edge_drop_shrinks_graph(self, rng):
        g = erdos_renyi(rng, 40, 0.3)
        rep = PathRepresentation.from_graph(
            g, MegaConfig(window=2, edge_drop=0.3))
        assert rep.graph.num_edges < g.num_edges


class TestRepeatedNodePairs:
    """The band holds one edge per node pair; a repeat must not vanish."""

    def test_repeated_undirected_edge_raises(self):
        # Used to read coverage 0.667 at θ=1, and MegaRuntime had 4
        # messages where BaselineRuntime had 6.
        with pytest.raises(GraphError, match=r"\(0, 1\) repeats as edges "
                                             r"0 and 1"):
            PathRepresentation.from_graph(Graph(3, [0, 0, 1], [1, 1, 2]))

    def test_directed_antiparallel_pair_raises(self):
        # Used to read coverage 0.5: both directions keyed as (0, 1).
        g = Graph(2, [0, 1], [1, 0], undirected=False)
        with pytest.raises(GraphError, match=r"\(0, 1\) repeats as edges "
                                             r"0 and 1"):
            PathRepresentation.from_graph(g)

    def test_pipeline_quarantines_the_repeat(self):
        from repro.pipeline import precompute_paths

        result = precompute_paths([Graph(3, [0, 0, 1], [1, 1, 2]),
                                   ring_graph(5)], on_error="quarantine")
        assert result.paths[0] is None and result.paths[1] is not None
        assert "GraphError" in result.stats.quarantined[0].error


class TestRepr:
    def test_repr_fields(self, path_rep):
        text = repr(path_rep)
        assert "coverage=1.000" in text
        assert "window=2" in text
