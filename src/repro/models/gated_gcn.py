"""The GatedGCN model ("GCN" in the paper's evaluation)."""

from __future__ import annotations

import numpy as np

from repro.models.base import GNNModel
from repro.models.layers import GatedGCNLayer


class GatedGCN(GNNModel):
    """Stack of residual gated graph-convolution layers.

    Per-layer parameter volume is 5d² (projections A, B, C, U, V),
    matching Table I.
    """

    model_name = "GCN"

    def _build_layers(self, rng: np.random.Generator) -> None:
        for i in range(self.config.num_layers):
            layer = GatedGCNLayer(self.config.hidden_dim, rng=rng)
            setattr(self, f"layer{i}", layer)
            self.layers.append(layer)
