"""The Graph Transformer model ("GT" in the paper's evaluation)."""

from __future__ import annotations

import numpy as np

from repro.models.base import GNNModel
from repro.models.layers import GraphTransformerLayer


class GraphTransformer(GNNModel):
    """Stack of multi-head graph-attention layers with edge channels.

    Per-layer parameter volume is 14d² (Q, K, V, O, E, O_e plus the two
    2-layer FFNs), matching Table I; per layer it issues 5 scatter and
    2 gather calls.
    """

    model_name = "GT"

    def _build_layers(self, rng: np.random.Generator) -> None:
        last = self.config.num_layers - 1
        for i in range(self.config.num_layers):
            # The readout pools nodes only: the last edge output is dead.
            layer = GraphTransformerLayer(
                self.config.hidden_dim, num_heads=self.config.num_heads,
                rng=rng, edge_out=i < last)
            setattr(self, f"layer{i}", layer)
            self.layers.append(layer)
