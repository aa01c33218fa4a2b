"""Structural node features (positional encodings).

CSL graphs are regular, so message passing cannot separate their classes
from degrees alone; the benchmark convention (Dwivedi & Bresson, cited
as [18]/[45]) attaches Laplacian positional encodings.  We implement the
same here on top of numpy's symmetric eigensolver.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphError
from repro.graph.graph import Graph


def laplacian_pe(graph: Graph, k: int,
                 rng: np.random.Generator = None) -> np.ndarray:
    """First ``k`` non-trivial Laplacian eigenvectors as (n, k) features.

    Eigenvector signs are arbitrary; following the benchmark convention
    they are randomised (or fixed positive when ``rng`` is None) so the
    model cannot overfit a canonical sign.
    """
    n = graph.num_nodes
    if k < 1:
        raise GraphError(f"k must be >= 1, got {k}")
    if n == 0:
        return np.zeros((0, k))
    adj = graph.adjacency_matrix().astype(np.float64)
    adj = np.maximum(adj, adj.T)
    deg = adj.sum(axis=1)
    with np.errstate(divide="ignore"):
        inv_sqrt = np.where(deg > 0, 1.0 / np.sqrt(np.maximum(deg, 1e-12)), 0.0)
    lap = np.eye(n) - inv_sqrt[:, None] * adj * inv_sqrt[None, :]
    vals, vecs = np.linalg.eigh(lap)
    order = np.argsort(vals)
    take = order[1:k + 1] if n > k else order[1:]
    pe = vecs[:, take]
    if pe.shape[1] < k:
        pe = np.pad(pe, ((0, 0), (0, k - pe.shape[1])))
    if rng is not None:
        signs = rng.choice([-1.0, 1.0], size=pe.shape[1])
        pe = pe * signs[None, :]
    return pe
