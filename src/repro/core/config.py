"""Configuration for the MEGA preprocessing stage.

Every config constructor (this one, the serving and cluster configs)
checks its numeric fields with :func:`require_int`/:func:`require_finite`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional, Type

from repro.errors import ConfigError, ReproError


def require_int(name: str, value, error: Type[ReproError] = ConfigError,
                minimum: Optional[int] = None) -> None:
    """Raise ``error`` unless ``value`` is an integer (numpy's too, not
    ``bool``) of at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{name} must be an integer, got {value!r}")
    _require_minimum(name, value, error, minimum)


def require_finite(name: str, value, error: Type[ReproError] = ConfigError,
                   minimum: Optional[float] = None) -> None:
    """Raise ``error`` unless ``value`` is a finite real number of at
    least ``minimum``."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value)):
        raise error(f"{name} must be a finite number, got {value!r}")
    _require_minimum(name, value, error, minimum)


def _require_minimum(name: str, value, error, minimum) -> None:
    if minimum is not None and value < minimum:
        raise error(f"{name} must be >= {minimum}, got {value}")


@dataclass(frozen=True)
class MegaConfig:
    """Parameters of the graph-reorganisation preprocessing (Section III-B).

    Attributes
    ----------
    window:
        Diagonal attention half-width ``ω``: a path position attends to
        positions within ``ω`` of itself.  ``None`` selects the width
        adaptively from the graph's mean degree (Section III-C).
    coverage:
        Edge-coverage target ``θ`` in (0, 1]: traversal stops once this
        fraction of edges is covered by the band *and* every vertex has
        appeared.  The paper's end-to-end runs use ``θ=1`` ("path
        representations encompassed all nodes and edges").
    edge_drop:
        Fraction of edges randomly dropped before scheduling (Fig. 15's
        DropEdge-style augmentation).  0 disables dropping.
    start:
        Starting vertex policy: ``"max_degree"``, ``"min_degree"``,
        ``"peripheral"``, ``"zero"`` or an explicit vertex id.
    max_window:
        Upper clamp for the adaptive window.
    seed:
        RNG seed for edge dropping.  Algorithm 1 itself draws no
        random numbers: it breaks every tie by vertex id.
    symmetric_reuse:
        Reuse per-edge computations across both directions of an
        undirected edge (Section III-C's bidirectional-redundancy
        elimination).
    """

    window: Optional[int] = None
    coverage: float = 1.0
    edge_drop: float = 0.0
    start: object = "max_degree"
    max_window: int = 32
    seed: int = 0
    symmetric_reuse: bool = True

    def __post_init__(self) -> None:
        if self.window is not None:
            require_int("window", self.window, minimum=1)
        require_int("max_window", self.max_window, minimum=1)
        require_int("seed", self.seed)
        require_finite("coverage", self.coverage)
        require_finite("edge_drop", self.edge_drop)
        if not 0.0 < self.coverage <= 1.0:
            raise ConfigError(f"coverage must be in (0, 1], got {self.coverage}")
        if not 0.0 <= self.edge_drop < 1.0:
            raise ConfigError(f"edge_drop must be in [0, 1), got {self.edge_drop}")
        if isinstance(self.start, str):
            if self.start not in ("max_degree", "min_degree", "peripheral", "zero"):
                raise ConfigError(f"unknown start policy {self.start!r}")
        elif not isinstance(self.start, (int,)):
            raise ConfigError("start must be a policy name or a vertex id")
