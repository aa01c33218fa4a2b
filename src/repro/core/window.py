"""Adaptive diagonal-window selection (Section III-C).

The paper tunes the attention-window width from the mean degree of the
input graph: wide enough that a typical vertex's whole neighbourhood
fits in one band visit, narrow enough that the band stays sparse
relative to the full adjacency matrix.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.graph.graph import Graph


def adaptive_window(graph: Graph, max_window: int = 32) -> int:
    """Choose ``ω`` from the mean degree.

    Each path position covers up to ``2ω`` band neighbours (ω on each
    side), so ``ω = ceil(mean_degree / 2)`` lets an average vertex cover
    its neighbourhood in a single appearance.  Clamped to
    ``[1, max_window]``.
    """
    if max_window < 1:
        raise ConfigError(f"max_window must be >= 1, got {max_window}")
    if graph.num_nodes == 0 or graph.num_edges == 0:
        return 1
    mean_degree = float(graph.degrees().mean())
    omega = int(np.ceil(mean_degree / 2.0))
    return int(min(max(omega, 1), max_window))


def theoretical_revisit_bound(degrees: np.ndarray, window: int) -> int:
    """The paper's revisit estimate ``Σ ceil(d_i / ω) − n``.

    Quoting Section III-B: "The theoretical lower bound of revisiting
    number can be optimistically achieved with a window size ω, expressed
    as Σ ceil(d_i/ω) − n".  It assumes each appearance of a vertex covers
    at most ``ω`` of its incident edges; the symmetric band can cover up
    to ``2ω``, so real schedules often do better.  We report it as the
    paper does and treat it as a calibration quantity, not an invariant.
    """
    degrees = np.asarray(degrees)
    if window < 1:
        raise ConfigError(f"window must be >= 1, got {window}")
    appearances = np.ceil(degrees / float(window)).astype(np.int64)
    appearances = np.maximum(appearances, 1)  # every vertex appears once
    return int(appearances.sum() - len(degrees))
