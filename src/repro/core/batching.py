"""Path-aware batching: the padding waste of a path-length group.

Section III (datasets) notes that the consistent degree distributions
across instances allow "a similar unfolding policy across graphs within
each dataset, enabling batching for higher parallelism while minimizing
padding waste".  When band tensors are padded to a common length per
batch (the dense-kernel layout), mixing short and long paths wastes
slots; :func:`padding_waste` measures that waste for one batch
(the serving batcher reports it per launch).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def padding_waste(lengths: Sequence[int]) -> float:
    """Wasted fraction when padding this group to its maximum length."""
    lengths = np.asarray(lengths)
    if lengths.size == 0:
        return 0.0
    total = lengths.max() * lengths.size
    return float(1.0 - lengths.sum() / total) if total else 0.0

