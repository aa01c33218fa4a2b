"""Synthetic dataset substitutes matched to the paper's Table II/III.

The real ZINC/AQSOL/CSL/CYCLES files are not available offline; these
generators reproduce the statistics the paper actually consumes (sizes,
sparsity, degree-distribution consistency) with learnable targets.  CSL
is generated exactly (it is synthetic in its source paper as well).
"""

import math
from typing import Callable, Dict

from repro.datasets.base import GraphDataset
from repro.datasets.zinc import load_zinc
from repro.datasets.aqsol import load_aqsol
from repro.datasets.csl import load_csl
from repro.datasets.cycles import load_cycles
from repro.datasets import features
from repro.datasets import statistics
from repro.errors import ConfigError

LOADERS: Dict[str, Callable[..., GraphDataset]] = {
    "ZINC": load_zinc,
    "AQSOL": load_aqsol,
    "CSL": load_csl,
    "CYCLES": load_cycles,
}


def check_scale(scale: float) -> None:
    """Raise :class:`ConfigError` unless ``scale`` is finite and > 0.

    The loaders round ``size * scale`` and floor each split at a few
    graphs, so NaN would crash deep in ``int(round(...))`` and zero or
    a negative would silently build the floor instead of failing.
    """
    if not (isinstance(scale, (int, float)) and math.isfinite(scale)
            and scale > 0):
        raise ConfigError(f"scale must be finite and > 0, got {scale!r}")


def load_dataset(name: str, scale: float = 1.0, **kwargs) -> GraphDataset:
    """Load a dataset by name (case-insensitive); see the per-dataset loaders."""
    key = name.upper()
    if key not in LOADERS:
        raise ConfigError(
            f"unknown dataset {name!r}; available: {sorted(LOADERS)}")
    check_scale(scale)
    return LOADERS[key](scale=scale, **kwargs)


__all__ = [
    "GraphDataset",
    "check_scale",
    "load_dataset",
    "features",
    "statistics",
]
