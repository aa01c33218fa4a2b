"""Dataset statistics: the quantities behind Tables II and III.

Edge counts follow the paper's convention of counting *directed* edge
records (an undirected bond contributes 2), and sparsity is the mean
per-graph ratio of directed edges to ``n(n-1)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.datasets.base import GraphDataset
from repro.graph.graph import Graph


@dataclass(frozen=True)
class TableTwoRow:
    """One row of Table II."""

    name: str
    train: int
    validation: int
    test: int
    mean_nodes: float
    mean_edges: float
    mean_sparsity: float


@dataclass(frozen=True)
class TableThreeRow:
    """One row of Table III (degree-distribution consistency)."""

    name: str
    mean_degree_std: float      # μ(σ(d))
    std_min_degree: float       # σ(d_min)
    std_max_degree: float       # σ(d_max)
    std_mean_degree: float      # σ(d_mean)
    mean_ks_similarity: float   # μ(ε)


def directed_edge_count(graph: Graph) -> int:
    """Directed edge records (paper's edge-count convention)."""
    s, _ = graph.directed_edges()
    return int(len(s))


def directed_sparsity(graph: Graph) -> float:
    n = graph.num_nodes
    if n < 2:
        return 0.0
    return directed_edge_count(graph) / float(n * (n - 1))


def table_two_row(dataset: GraphDataset) -> TableTwoRow:
    graphs = dataset.all_graphs()
    nodes = np.array([g.num_nodes for g in graphs], dtype=float)
    edges = np.array([directed_edge_count(g) for g in graphs], dtype=float)
    sparsity = np.array([directed_sparsity(g) for g in graphs])
    return TableTwoRow(
        name=dataset.name,
        train=len(dataset.train),
        validation=len(dataset.validation),
        test=len(dataset.test),
        mean_nodes=float(nodes.mean()),
        mean_edges=float(edges.mean()),
        mean_sparsity=float(sparsity.mean()))


def table_three_row(dataset: GraphDataset, max_graphs: int = 400,
                    max_ks_pairs: int = 200, seed: int = 0) -> TableThreeRow:
    """Degree-distribution consistency statistics.

    ``μ(ε)`` averages ``1 − D`` of the two-sample Kolmogorov-Smirnov
    statistic over random pairs of per-graph degree sequences —
    proximity to 1 means the degree distributions are interchangeable
    across instances (the property that justifies one unfolding policy
    per dataset).
    """
    # Imported here: scipy costs every process that imports the
    # datasets ~1 s and ~65 MB, and this is its one use.
    from scipy import stats as sps

    rng = np.random.default_rng(seed)
    graphs = dataset.all_graphs()
    if len(graphs) > max_graphs:
        idx = rng.choice(len(graphs), size=max_graphs, replace=False)
        graphs = [graphs[i] for i in idx]
    degree_seqs = [g.degrees() for g in graphs]
    stds = np.array([d.std() for d in degree_seqs])
    mins = np.array([d.min() for d in degree_seqs], dtype=float)
    maxs = np.array([d.max() for d in degree_seqs], dtype=float)
    means = np.array([d.mean() for d in degree_seqs])

    num_pairs = min(max_ks_pairs, len(graphs) * (len(graphs) - 1) // 2)
    eps: List[float] = []
    for _ in range(num_pairs):
        i, j = rng.choice(len(graphs), size=2, replace=False)
        d = sps.ks_2samp(degree_seqs[i], degree_seqs[j]).statistic
        eps.append(1.0 - float(d))
    return TableThreeRow(
        name=dataset.name,
        mean_degree_std=float(stds.mean()),
        std_min_degree=float(mins.std()),
        std_max_degree=float(maxs.std()),
        std_mean_degree=float(means.std()),
        mean_ks_similarity=float(np.mean(eps)) if eps else 1.0)
