"""Graph substrate: COO/CSR structures, batching, generators, traversals."""

from repro.graph.graph import Graph, complete_graph, from_edge_list
from repro.graph.csr import CSRAdjacency, build_csr
from repro.graph.batch import GraphBatch
from repro.graph import generators
from repro.graph import traversal
from repro.graph import reorder
from repro.graph import partition

__all__ = [
    "Graph",
    "from_edge_list",
    "complete_graph",
    "CSRAdjacency",
    "build_csr",
    "GraphBatch",
    "generators",
    "traversal",
    "reorder",
    "partition",
]
