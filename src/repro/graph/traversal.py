"""Classic graph traversals (BFS/DFS/components/peripheral vertices).

These support the MEGA scheduler (which needs connectivity facts), the
reordering baselines, and the test suite's cross-checks.
"""

from __future__ import annotations

from collections import deque
from typing import List

import numpy as np

from repro.errors import GraphError
from repro.graph.graph import Graph


def bfs_order(graph: Graph, start: int = 0) -> np.ndarray:
    """Breadth-first visit order from ``start`` (unreached nodes appended)."""
    _check_start(graph, start)
    adj = graph.adjacency_lists()
    visited = np.zeros(graph.num_nodes, dtype=bool)
    order: List[int] = []
    for seed in [start] + [v for v in range(graph.num_nodes) if v != start]:
        if visited[seed]:
            continue
        queue = deque([seed])
        visited[seed] = True
        while queue:
            v = queue.popleft()
            order.append(v)
            for w in adj[v]:
                if not visited[w]:
                    visited[w] = True
                    queue.append(int(w))
    return np.asarray(order, dtype=np.int64)


def dfs_order(graph: Graph, start: int = 0) -> np.ndarray:
    """Iterative depth-first visit order from ``start``."""
    _check_start(graph, start)
    adj = graph.adjacency_lists()
    visited = np.zeros(graph.num_nodes, dtype=bool)
    order: List[int] = []
    for seed in [start] + [v for v in range(graph.num_nodes) if v != start]:
        if visited[seed]:
            continue
        stack = [seed]
        while stack:
            v = stack.pop()
            if visited[v]:
                continue
            visited[v] = True
            order.append(v)
            # Push in reverse so low-id neighbours are visited first.
            for w in adj[v][::-1]:
                if not visited[w]:
                    stack.append(int(w))
    return np.asarray(order, dtype=np.int64)


def connected_components(graph: Graph) -> List[np.ndarray]:
    """Vertex sets of connected components, largest-seed first."""
    adj = graph.adjacency_lists()
    visited = np.zeros(graph.num_nodes, dtype=bool)
    components: List[np.ndarray] = []
    for seed in range(graph.num_nodes):
        if visited[seed]:
            continue
        queue = deque([seed])
        visited[seed] = True
        members = [seed]
        while queue:
            v = queue.popleft()
            for w in adj[v]:
                if not visited[w]:
                    visited[w] = True
                    members.append(int(w))
                    queue.append(int(w))
        components.append(np.asarray(members, dtype=np.int64))
    return components


def is_connected(graph: Graph) -> bool:
    """True when the graph has at most one connected component.

    The empty graph has zero components and is vacuously connected, so
    a single comparison covers it — no special case needed.
    """
    return len(connected_components(graph)) <= 1


def bfs_distances(graph: Graph, start: int) -> np.ndarray:
    """Hop distances from ``start``; unreachable vertices get -1."""
    _check_start(graph, start)
    adj = graph.adjacency_lists()
    dist = np.full(graph.num_nodes, -1, dtype=np.int64)
    dist[start] = 0
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if dist[w] < 0:
                dist[w] = dist[v] + 1
                queue.append(int(w))
    return dist


def pseudo_peripheral_vertex(graph: Graph) -> int:
    """Vertex far from the graph centre (good RCM / traversal start)."""
    if graph.num_nodes == 0:
        raise GraphError("empty graph has no vertices")
    v = 0
    ecc = -1
    for _ in range(4):  # a few sweeps converge in practice
        dist = bfs_distances(graph, v)
        far = int(dist.argmax())
        if dist[far] <= ecc:
            break
        ecc = int(dist[far])
        v = far
    return v


def _check_start(graph: Graph, start: int) -> None:
    if graph.num_nodes == 0:
        raise GraphError("cannot traverse an empty graph")
    if not 0 <= start < graph.num_nodes:
        raise GraphError(
            f"start vertex {start} out of range [0, {graph.num_nodes})")
