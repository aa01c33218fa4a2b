"""Graph partitioners for the distributed-communication analysis (§IV-B6).

Two strategies are compared:

* :func:`edge_cut_partition` — balanced BFS-grown node partition, the
  conventional distributed-GNN layout whose cross-partition edges force
  all-to-all neighbour exchange.
* contiguous *path* partitioning lives in
  :mod:`repro.distributed.path_partition` because it operates on MEGA's
  path representation rather than the raw graph.
"""

from __future__ import annotations

from collections import deque
from typing import List

import numpy as np

from repro.errors import GraphError
from repro.graph.graph import Graph


def edge_cut_partition(graph: Graph, k: int,
                       rng: np.random.Generator = None) -> np.ndarray:
    """Assign each vertex a partition id in [0, k) with near-equal sizes.

    BFS-grows each part from a random seed so parts are locally clustered
    (a favourable baseline — random assignment would cut far more edges).
    """
    if k <= 0:
        raise GraphError(f"k must be positive, got {k}")
    if k > graph.num_nodes:
        raise GraphError(f"cannot split {graph.num_nodes} nodes into {k} parts")
    rng = rng or np.random.default_rng(0)
    target = int(np.ceil(graph.num_nodes / k))
    adj = graph.adjacency_lists()
    assignment = np.full(graph.num_nodes, -1, dtype=np.int64)
    unassigned = set(range(graph.num_nodes))
    for part in range(k):
        if not unassigned:
            break
        seed = int(rng.choice(sorted(unassigned)))
        queue = deque([seed])
        size = 0
        while queue and size < target:
            v = queue.popleft()
            if assignment[v] != -1:
                continue
            assignment[v] = part
            unassigned.discard(v)
            size += 1
            for w in adj[v]:
                if assignment[w] == -1:
                    queue.append(int(w))
        # BFS exhausted its component before filling the part: steal the
        # lowest-id nodes (set.pop() order would be interpreter-defined).
        while size < target and unassigned:
            v = min(unassigned)
            unassigned.discard(v)
            assignment[v] = part
            size += 1
    # Any stragglers go to the last part.
    assignment[assignment == -1] = k - 1
    return assignment


def cut_edges(graph: Graph, assignment: np.ndarray) -> int:
    """Count edges whose endpoints live in different partitions."""
    assignment = np.asarray(assignment)
    return int((assignment[graph.src] != assignment[graph.dst]).sum())


def replication_factor(graph: Graph, assignment: np.ndarray, k: int) -> float:
    """Average number of partitions each vertex must be visible in.

    A vertex appears in its own partition plus every partition holding a
    neighbour — the classic vertex-replication metric for edge-cut
    layouts (Bourse et al., cited by the paper).
    """
    assignment = np.asarray(assignment)
    seen: List[set] = [set() for _ in range(graph.num_nodes)]
    for s, d in zip(graph.src, graph.dst):
        seen[s].add(int(assignment[d]))
        seen[d].add(int(assignment[s]))
    total = sum(len(seen[v] | {int(assignment[v])}) for v in range(graph.num_nodes))
    return total / max(graph.num_nodes, 1)
