"""Path partitioning: MEGA's distributed layout.

A path representation is a 1-D sequence, so distributing it is a matter
of cutting it into ``k`` contiguous chunks.  Diagonal attention only
looks ``ω`` positions to each side, so a chunk exchanges exactly one
halo of ``ω`` rows with each neighbouring chunk — two communications per
interior partition, O(k) total — versus the all-to-all neighbourhood
exchange an edge-cut node partition needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.core.path import PathRepresentation
from repro.errors import GraphError


@dataclass(frozen=True)
class PathPartition:
    """Contiguous chunks of a path representation."""

    boundaries: np.ndarray        # k+1 cut positions
    window: int

    def chunk(self, i: int) -> Tuple[int, int]:
        return int(self.boundaries[i]), int(self.boundaries[i + 1])

    def sizes(self) -> np.ndarray:
        return np.diff(self.boundaries)


def partition_path(path_rep: PathRepresentation, k: int) -> PathPartition:
    """Cut the path into ``k`` near-equal contiguous chunks."""
    if k <= 0:
        raise GraphError(f"k must be positive, got {k}")
    if k > max(path_rep.length, 1):
        raise GraphError(
            f"cannot cut a path of length {path_rep.length} into {k} chunks")
    boundaries = np.linspace(0, path_rep.length, k + 1).round().astype(np.int64)
    return PathPartition(boundaries=boundaries, window=path_rep.window)


def path_communication(path_rep: PathRepresentation, k: int,
                       feature_dim: int = 1) -> dict:
    """Communication report for a k-way path partition.

    Each pair of adjacent chunks exchanges a halo of ``ω`` positions per
    direction per round; messages crossing a boundary farther than ω
    cannot exist by construction.  Volume is in feature rows
    (multiply by 4·dim for bytes).
    """
    part = partition_path(path_rep, k)
    pairs = max(k - 1, 0)
    halo_rows = 2 * part.window * pairs  # both directions
    # Count band messages that actually cross a boundary (≤ halo bound).
    chunk_of = np.searchsorted(part.boundaries[1:-1],
                               np.arange(path_rep.length), side="right")
    i, j = path_rep.band.pos_src, path_rep.band.pos_dst
    crossing = int((chunk_of[i] != chunk_of[j]).sum()) if len(i) else 0
    return {
        "partitions": k,
        "communication_pairs": pairs,
        "halo_rows": halo_rows * feature_dim,
        "crossing_messages": crossing,
        "max_load": int(part.sizes().max()) if k else 0,
        "min_load": int(part.sizes().min()) if k else 0,
    }
