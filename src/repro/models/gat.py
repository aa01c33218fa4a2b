"""Graph Attention Network (Veličković et al., the paper's citation [14]).

The canonical graph-attention model: per-edge attention logits from a
LeakyReLU-scored linear form over the projected endpoints, softmax over
each destination's in-neighbourhood, multi-head concatenation.  Included
as a third model over the same runtime abstraction — MEGA's scheduling
is model-agnostic, so GAT runs under the baseline, MEGA, and global
runtimes unchanged.

Per layer: one d×d projection plus two per-head score vectors (≈1d²
parameters), 1 scatter and 2 gathers — the lightest of the three models.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.models.base import GNNModel
from repro.models.runtime import (AggregationRuntime, Gather, LayerOps,
                                  Pointwise, Project, Scatter)
from repro.tensor import Linear, Module, Parameter, Tensor
from repro.tensor import functional as F
from repro.tensor import init


class GATLayer(Module):
    """Multi-head graph attention with edge-feature score bias."""

    OPS = LayerOps(weights_d2=2, ops=(
        Project("nodes"), Pointwise("nodes"),   # Wh; per-node scores
        Scatter(2), Gather(), Gather(with_src=True),  # scores; softmax; Σ
        Pointwise("nodes")))                    # ELU, residual

    def __init__(self, dim: int, num_heads: int = 4,
                 rng: Optional[np.random.Generator] = None,
                 negative_slope: float = 0.2, residual: bool = True):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        if dim % num_heads != 0:
            raise ConfigError(
                f"dim {dim} not divisible by num_heads {num_heads}")
        self.dim = dim
        self.num_heads = num_heads
        self.head_dim = dim // num_heads
        self.negative_slope = negative_slope
        self.residual = residual
        self.proj = Linear(dim, dim, rng=rng)
        self.attn_src = Parameter(
            init.xavier_uniform(rng, (num_heads, self.head_dim)),
            name="attn_src")
        self.attn_dst = Parameter(
            init.xavier_uniform(rng, (num_heads, self.head_dim)),
            name="attn_dst")
        self.attn_edge = Parameter(
            init.xavier_uniform(rng, (num_heads, self.head_dim)),
            name="attn_edge")

    def forward(self, h: Tensor, e: Tensor,
                runtime: AggregationRuntime) -> Tuple[Tensor, Tensor]:
        wh = self.proj(h)
        heads = wh.reshape(len(wh), self.num_heads, self.head_dim)
        # Per-node partial scores (the a^T [Wh_i || Wh_j] decomposition).
        score_src = (heads * self.attn_src).sum(axis=-1)   # (n, H)
        score_dst = (heads * self.attn_dst).sum(axis=-1)
        e_heads = e.reshape(len(e), self.num_heads, self.head_dim)
        score_edge = (e_heads * self.attn_edge).sum(axis=-1)  # (m, H)
        # One scatter: move both partial scores to message space.
        src_part, dst_part = runtime.scatter_to_edges(src=score_src,
                                                      dst=score_dst)
        logits = F.leaky_relu(src_part + dst_part + score_edge,
                              self.negative_slope)
        attn = runtime.edge_softmax(logits)                # gather 1
        values = runtime.fetch_src(wh).reshape(
            runtime.num_messages, self.num_heads, self.head_dim)
        weighted = values * attn.reshape(runtime.num_messages,
                                         self.num_heads, 1)
        agg = runtime.aggregate_sum(                        # gather 2
            weighted.reshape(runtime.num_messages, self.dim))
        out = F.elu(agg)
        if self.residual:
            out = out + h
        return out, e


class GAT(GNNModel):
    """Stack of GAT layers (edge state is static in this model)."""

    model_name = "GAT"

    def _build_layers(self, rng: np.random.Generator) -> None:
        for i in range(self.config.num_layers):
            layer = GATLayer(self.config.hidden_dim,
                             num_heads=self.config.num_heads, rng=rng)
            setattr(self, f"layer{i}", layer)
            self.layers.append(layer)
