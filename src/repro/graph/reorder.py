"""Node-reordering baselines.

GNNAdvisor (cited in Section II-B2) improves locality by renumbering
vertices so densely connected vertices get consecutive ids.  These
policies are the comparison points for MEGA's path representation in the
ablation benchmarks: a *relabeling* changes which ids are near each
other, whereas MEGA changes the *schedule itself*.
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np

from repro.errors import GraphError
from repro.graph.graph import Graph
from repro.graph.traversal import bfs_order, dfs_order, pseudo_peripheral_vertex


def identity_order(graph: Graph) -> np.ndarray:
    return np.arange(graph.num_nodes, dtype=np.int64)


def degree_sort_order(graph: Graph, descending: bool = True) -> np.ndarray:
    """Order vertices by degree (hubs first)."""
    deg = graph.degrees()
    key = -deg if descending else deg
    return np.argsort(key, kind="stable").astype(np.int64)


def bfs_reorder(graph: Graph) -> np.ndarray:
    """BFS numbering from a pseudo-peripheral vertex (locality heuristic)."""
    start = pseudo_peripheral_vertex(graph) if graph.num_nodes else 0
    return bfs_order(graph, start)


def dfs_reorder(graph: Graph) -> np.ndarray:
    start = pseudo_peripheral_vertex(graph) if graph.num_nodes else 0
    return dfs_order(graph, start)


def rcm_order(graph: Graph) -> np.ndarray:
    """Reverse Cuthill–McKee: the classic bandwidth-minimising ordering."""
    adj = graph.adjacency_lists()
    deg = graph.degrees()
    visited = np.zeros(graph.num_nodes, dtype=bool)
    order = []
    seeds = sorted(range(graph.num_nodes), key=lambda v: deg[v])
    for seed in seeds:
        if visited[seed]:
            continue
        queue = [seed]
        visited[seed] = True
        while queue:
            v = queue.pop(0)
            order.append(v)
            nbrs = [int(w) for w in adj[v] if not visited[w]]
            nbrs.sort(key=lambda w: deg[w])
            for w in nbrs:
                visited[w] = True
            queue.extend(nbrs)
    return np.asarray(order[::-1], dtype=np.int64)


def apply_order(graph: Graph, order: np.ndarray) -> Graph:
    """Relabel vertices so old vertex ``order[i]`` becomes new vertex ``i``.

    Node features are permuted accordingly; edge records keep their
    position (only endpoints are renamed), so edge features are unchanged.
    """
    order = np.asarray(order, dtype=np.int64)
    if sorted(order.tolist()) != list(range(graph.num_nodes)):
        raise GraphError("order must be a permutation of all vertices")
    inverse = np.empty_like(order)
    inverse[order] = np.arange(graph.num_nodes)
    node_feats = None
    if graph.node_features is not None:
        node_feats = np.asarray(graph.node_features)[order]
    return Graph(
        graph.num_nodes, inverse[graph.src], inverse[graph.dst],
        undirected=graph.undirected,
        node_features=node_feats,
        edge_features=graph.edge_features,
        label=graph.label)


def bandwidth(graph: Graph) -> int:
    """Adjacency-matrix bandwidth max |src - dst| (locality proxy)."""
    if graph.num_edges == 0:
        return 0
    return int(np.abs(graph.src - graph.dst).max())


def community_order(graph: Graph, max_rounds: int = 10,
                    seed: int = 0) -> np.ndarray:
    """Rabbit-order-style community clustering by label propagation.

    Runs synchronous label propagation until stable (or ``max_rounds``),
    then numbers vertices community-by-community (largest first),
    ordered by degree inside each community — co-locating densely
    connected vertices like GNNAdvisor's reordering pass.
    """
    n = graph.num_nodes
    if n == 0:
        return np.array([], dtype=np.int64)
    rng = np.random.default_rng(seed)
    adj = graph.adjacency_lists()
    labels = np.arange(n, dtype=np.int64)
    order_scan = np.arange(n)
    for _ in range(max_rounds):
        rng.shuffle(order_scan)
        changed = 0
        for v in order_scan:
            neighbours = adj[v]
            if len(neighbours) == 0:
                continue
            counts: Dict[int, int] = {}
            for w in neighbours:
                lab = int(labels[w])
                counts[lab] = counts.get(lab, 0) + 1
            best = max(counts.items(), key=lambda kv: (kv[1], -kv[0]))[0]
            if best != labels[v]:
                labels[v] = best
                changed += 1
        if changed == 0:
            break
    deg = graph.degrees()
    sizes: Dict[int, int] = {}
    for lab in labels:
        sizes[int(lab)] = sizes.get(int(lab), 0) + 1
    keys = [(-sizes[int(labels[v])], int(labels[v]), -int(deg[v]), v)
            for v in range(n)]
    return np.array([v for *_, v in sorted(keys)], dtype=np.int64)


REORDER_POLICIES: Dict[str, Callable[[Graph], np.ndarray]] = {
    "identity": identity_order,
    "degree": degree_sort_order,
    "bfs": bfs_reorder,
    "dfs": dfs_reorder,
    "rcm": rcm_order,
    "community": community_order,
}
