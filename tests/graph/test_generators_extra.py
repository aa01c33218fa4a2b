"""SBM and Watts-Strogatz generators."""

import networkx as nx
import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph.generators import (
    erdos_renyi,
    stochastic_block_model,
    watts_strogatz,
)
from repro.graph.traversal import is_connected
from tests.nx_bridge import to_networkx


def _diameter(graph):
    """Longest shortest path over all components (the networkx oracle)."""
    g = to_networkx(graph)
    return max(nx.diameter(g.subgraph(c)) for c in nx.connected_components(g))


class TestSBM:
    def test_counts(self, rng):
        g = stochastic_block_model(rng, [20, 20, 20], 0.3, 0.01)
        assert g.num_nodes == 60

    def test_community_structure(self, rng):
        g = stochastic_block_model(rng, [25, 25], 0.4, 0.01,
                                   ensure_connected=False)
        labels = np.array([0] * 25 + [1] * 25)
        same = labels[g.src] == labels[g.dst]
        assert same.mean() > 0.85

    def test_connected_by_default(self, rng):
        g = stochastic_block_model(rng, [15, 15], 0.3, 0.0)
        assert is_connected(g)

    def test_validation(self, rng):
        with pytest.raises(GraphError):
            stochastic_block_model(rng, [], 0.2, 0.1)
        with pytest.raises(GraphError):
            stochastic_block_model(rng, [5], 1.5, 0.1)

    def test_mega_friendly(self, rng):
        """Block structure keeps the path expansion modest."""
        from repro.core import MegaConfig, PathRepresentation

        g = stochastic_block_model(rng, [20, 20, 20], 0.25, 0.01)
        rep = PathRepresentation.from_graph(g, MegaConfig())
        assert rep.coverage == 1.0
        assert rep.expansion < 3.0


class TestWattsStrogatz:
    def test_zero_rewire_is_lattice(self, rng):
        g = watts_strogatz(rng, 20, k=4, rewire_p=0.0)
        assert np.all(g.degrees() == 4)
        assert g.num_edges == 40

    def test_rewire_preserves_edge_count(self, rng):
        g = watts_strogatz(rng, 30, k=4, rewire_p=0.5)
        assert g.num_edges == 60

    def test_small_world_properties(self, rng):
        lattice = watts_strogatz(rng, 60, k=6, rewire_p=0.0)
        small = watts_strogatz(rng, 60, k=6, rewire_p=0.2)
        # Rewiring shrinks the diameter while keeping clustering high
        # relative to an ER graph of the same density.
        assert _diameter(small) <= _diameter(lattice)
        er = erdos_renyi(rng, 60, 6 / 59)
        assert (nx.average_clustering(to_networkx(small))
                > nx.average_clustering(to_networkx(er)))

    def test_validation(self, rng):
        with pytest.raises(GraphError):
            watts_strogatz(rng, 10, k=3)       # odd k
        with pytest.raises(GraphError):
            watts_strogatz(rng, 10, k=12)      # k >= n
        with pytest.raises(GraphError):
            watts_strogatz(rng, 10, k=4, rewire_p=2.0)
