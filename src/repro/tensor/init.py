"""Weight initialisers (numpy Generator based, fully deterministic)."""

from __future__ import annotations

from typing import Tuple

import numpy as np


def xavier_uniform(rng: np.random.Generator, shape: Tuple[int, ...],
                   gain: float = 1.0) -> np.ndarray:
    """Glorot/Xavier uniform initialisation."""
    fan_in, fan_out = _fans(shape)
    bound = gain * np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


def zeros(shape: Tuple[int, ...]) -> np.ndarray:
    return np.zeros(shape)


def ones(shape: Tuple[int, ...]) -> np.ndarray:
    return np.ones(shape)


def _fans(shape: Tuple[int, ...]) -> Tuple[int, int]:
    if len(shape) == 1:
        return shape[0], shape[0]
    if len(shape) == 2:
        return shape[0], shape[1]
    receptive = int(np.prod(shape[2:]))
    return shape[1] * receptive, shape[0] * receptive
