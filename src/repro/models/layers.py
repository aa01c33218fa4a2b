"""Backend-agnostic GNN layers: GatedGCN and Graph Transformer.

Both layers speak only to the :class:`AggregationRuntime` interface, so
the identical parameterisation runs under the baseline schedule and
under MEGA — the paper's requirement that "both methods employed models
with identical parameter counts".

Layer definitions follow the models the paper evaluates:

* **GatedGCN** (Bresson & Laurent, [33]): five d×d projections (A, B, C,
  U, V), edge-gated aggregation, batch norm, residual on nodes and
  edges.  Parameter volume 5d² and 1 scatter / 2 gathers per layer
  (Table I).
* **Graph Transformer** (Dwivedi & Bresson, [18]): multi-head attention
  with edge channels (Q, K, V, O, E, O_e) plus two 2-layer FFNs —
  14d² parameters, 5 scatters / 2 gathers per layer.

Each layer's ``OPS`` declares those ops once, in launch order: the
kernel plans price it and Table I counts it.  The numpy forward below
is written by hand and kept to the declaration by a drift test.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.models.runtime import (AggregationRuntime, Gather, LayerOps,
                                  Pointwise, Project, Scatter)
from repro.tensor import BatchNorm1d, LayerNorm, Linear, Module, Tensor
from repro.tensor import functional as F


class GatedGCNLayer(Module):
    """Residual gated graph convolution over nodes and directed edges."""

    OPS = LayerOps(weights_d2=5, ops=(
        *[Project("nodes")] * 4, Project("edges"),   # A, B, U, V; C
        Scatter(2), Pointwise("edges"),      # e' = Ah_dst + Bh_src + Ce; σ
        Gather(with_src=True), Gather(),     # Σ σ ⊙ Vh_src; Σ σ
        Pointwise("nodes"), Pointwise("edges")))     # BN, ReLU, residual

    #: Keeps the gate denominator of a degree-0 node away from zero.
    EPS = 1e-6

    def __init__(self, dim: int, rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.dim = dim
        self.proj_a = Linear(dim, dim, rng=rng)   # A h_i   (dst)
        self.proj_b = Linear(dim, dim, rng=rng)   # B h_j   (src)
        self.proj_c = Linear(dim, dim, rng=rng)   # C e_ij
        self.proj_u = Linear(dim, dim, rng=rng)   # U h_i   (self)
        self.proj_v = Linear(dim, dim, rng=rng)   # V h_j   (neighbour)
        self.bn_h = BatchNorm1d(dim)
        self.bn_e = BatchNorm1d(dim)

    def forward(self, h: Tensor, e: Tensor,
                runtime: AggregationRuntime) -> Tuple[Tensor, Tensor]:
        """One message-passing step.

        ``h`` is (num_nodes, d); ``e`` is (num_messages, d) — per
        *directed* edge, the DGL convention.
        """
        ah = self.proj_a(h)
        bh = self.proj_b(h)
        vh = self.proj_v(h)
        # Edge update (scatter to edges): e' = A h_dst + B h_src + C e.
        b_src, a_dst = runtime.scatter_to_edges(src=bh, dst=ah)
        e_new = a_dst + b_src + self.proj_c(e)
        sigma = F.sigmoid(e_new)
        # Gated aggregation (two gathers): Σ σ⊙Vh_src / Σ σ.  The V-row
        # fetch is fused into DGL's update_all, not a scatter.
        v_src = runtime.fetch_src(vh)
        numer = runtime.aggregate_sum(sigma * v_src)
        denom = runtime.aggregate_sum(sigma)
        agg = numer / (denom + self.EPS)
        h_new = self.proj_u(h) + agg
        h_new = F.relu(self.bn_h(h_new))
        e_out = F.relu(self.bn_e(e_new))
        return h + h_new, e + e_out


class GraphTransformerLayer(Module):
    """Multi-head graph attention with edge features (GT layer)."""

    # The edge tail (O_e, the edge FFN and its norms) is priced on every
    # layer, though the last layer's forward skips it (``edge_out``).
    OPS = LayerOps(weights_d2=14, ops=(
        *[Project("nodes")] * 4,                             # Q, K, V, O
        Project("edges"), Project("edges", edge_tail=True),  # E, O_e
        *[Project("nodes", width=2)] * 2,                    # FFN h
        *[Project("edges", width=2, edge_tail=True)] * 2,    # FFN e
        # K_src/Q_dst, raw score, edge mixing, V_src, weighting V:
        Scatter(2), Scatter(0), Scatter(0), Scatter(1), Scatter(0),
        Gather(), Gather(with_src=True),     # softmax; aggregate
        Pointwise("nodes"), Pointwise("edges", edge_tail=True)))

    def __init__(self, dim: int, num_heads: int = 4,
                 rng: Optional[np.random.Generator] = None,
                 edge_out: bool = True):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        if dim % num_heads != 0:
            raise ConfigError(
                f"dim {dim} not divisible by num_heads {num_heads}")
        self.dim = dim
        self.num_heads = num_heads
        self.head_dim = dim // num_heads
        #: Whether anything reads this layer's edge output.  The model
        #: clears it on its last layer, which then skips the m-row
        #: ``proj_oe`` → ``norm_e1`` → FFN → ``norm_e2`` tail and returns
        #: ``None`` for ``e``; those parameters got no gradient anyway.
        #: ``OPS`` marks that tail ``edge_tail``.
        self.edge_out = edge_out
        self.proj_q = Linear(dim, dim, rng=rng)
        self.proj_k = Linear(dim, dim, rng=rng)
        self.proj_v = Linear(dim, dim, rng=rng)
        self.proj_e = Linear(dim, dim, rng=rng)
        self.proj_o = Linear(dim, dim, rng=rng)
        self.proj_oe = Linear(dim, dim, rng=rng)
        self.norm_h1 = LayerNorm(dim)
        self.norm_h2 = LayerNorm(dim)
        self.norm_e1 = LayerNorm(dim)
        self.norm_e2 = LayerNorm(dim)
        self.ffn_h1 = Linear(dim, 2 * dim, rng=rng)
        self.ffn_h2 = Linear(2 * dim, dim, rng=rng)
        self.ffn_e1 = Linear(dim, 2 * dim, rng=rng)
        self.ffn_e2 = Linear(2 * dim, dim, rng=rng)

    def _split_heads(self, x: Tensor) -> Tensor:
        return x.reshape(len(x), self.num_heads, self.head_dim)

    def forward(self, h: Tensor, e: Tensor, runtime: AggregationRuntime
                ) -> Tuple[Tensor, Optional[Tensor]]:
        q = self.proj_q(h)
        k = self.proj_k(h)
        v = self.proj_v(h)
        e_proj = self.proj_e(e)
        # The five scatters of ``OPS``; the edge-aligned ones (2, 3, 5)
        # move no node rows.
        k_src, q_dst = runtime.scatter_to_edges(src=k, dst=q)      # 1
        w = self._split_heads(k_src) * self._split_heads(q_dst)    # 2: raw score
        w = w * self._split_heads(e_proj)                          # 3: edge mixing
        scores = w.sum(axis=-1) * (1.0 / np.sqrt(self.head_dim))
        scores = scores.clip(-8.0, 8.0)
        v_src, _ = runtime.scatter_to_edges(src=v)                 # 4
        attn = runtime.edge_softmax(scores)                        # gather 1
        weighted = self._split_heads(v_src) * attn.reshape(        # 5: weighting V
            runtime.num_messages, self.num_heads, 1)
        agg = runtime.aggregate_sum(
            weighted.reshape(runtime.num_messages, self.dim))      # gather 2
        h_attn = self.proj_o(agg)
        h_new = self.norm_h1(h + h_attn)
        h_ffn = self.ffn_h2(F.relu(self.ffn_h1(h_new)))
        h_out = self.norm_h2(h_new + h_ffn)
        if not self.edge_out:
            return h_out, None

        e_attn = self.proj_oe(w.reshape(runtime.num_messages, self.dim))
        e_new = self.norm_e1(e + e_attn)
        e_ffn = self.ffn_e2(F.relu(self.ffn_e1(e_new)))
        e_out = self.norm_e2(e_new + e_ffn)
        return h_out, e_out
