"""The networkx bridge the test suite cross-validates against.

networkx is a test dependency only: ``src/repro`` never imports it.
"""

import networkx as nx


def to_networkx(graph):
    """Convert a :class:`~repro.graph.Graph` to a networkx graph."""
    g = nx.Graph() if graph.undirected else nx.DiGraph()
    g.add_nodes_from(range(graph.num_nodes))
    g.add_edges_from(zip(graph.src.tolist(), graph.dst.tolist()))
    return g
