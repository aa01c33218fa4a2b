"""Tutorial: writing your own GNN on the runtime abstraction.

Any model expressed through the :class:`AggregationRuntime` interface
(scatter-to-edges / aggregate / edge-softmax) runs unmodified under the
DGL-style baseline schedule, MEGA's diagonal band, and global attention
— and inherits MEGA's speedup for free.  This example defines a simple
mean-aggregation GNN ("GraphSAGE-mean" flavoured), checks cross-runtime
parity, and trains it briefly.

Run:  python examples/custom_model.py
"""

import numpy as np

from repro.core import MegaConfig, PathRepresentation
from repro.datasets import load_dataset
from repro.graph.batch import GraphBatch
from repro.models import BaselineRuntime, MegaRuntime
from repro.models.base import GNNModel, ModelConfig
from repro.tensor import Linear, Module, Tensor
from repro.tensor import functional as F
from repro.tensor.optim import Adam


class MeanSageLayer(Module):
    """h'_u = ReLU(W_self h_u + W_neigh · mean_{v∈N(u)} h_v)."""

    def __init__(self, dim, rng=None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.w_self = Linear(dim, dim, rng=rng)
        self.w_neigh = Linear(dim, dim, rng=rng)

    def forward(self, h, e, runtime):
        # One scatter: fetch source rows per message.
        src_rows, _ = runtime.scatter_to_edges(src=h)
        # One gather: sum messages, then normalise by in-degree.
        total = runtime.aggregate_sum(src_rows)
        counts = np.bincount(runtime.msg_dst,
                             minlength=runtime.num_nodes).astype(float)
        inv = Tensor((1.0 / np.maximum(counts, 1.0)).reshape(-1, 1))
        mean_neigh = total * inv
        out = F.relu(self.w_self(h) + self.w_neigh(mean_neigh))
        return out, e   # edge state untouched in this model


class MeanSage(GNNModel):
    """Stack of mean-aggregation layers; everything else is inherited."""

    model_name = "SAGE"

    def _build_layers(self, rng):
        for i in range(self.config.num_layers):
            layer = MeanSageLayer(self.config.hidden_dim, rng=rng)
            setattr(self, f"layer{i}", layer)
            self.layers.append(layer)


def main():
    ds = load_dataset("ZINC", scale=0.008)
    cfg = ModelConfig.for_dataset(ds, hidden_dim=32, num_layers=3)
    model = MeanSage(cfg)

    graphs = ds.train[:32]
    batch = GraphBatch(graphs)
    paths = [PathRepresentation.from_graph(g, MegaConfig())
             for g in graphs]
    base_rt = BaselineRuntime(batch)
    mega_rt = MegaRuntime(batch, paths)

    # 1. The same parameters compute the same function on both schedules.
    model.eval()
    a = model(batch, base_rt).data
    b = model(batch, mega_rt).data
    print(f"cross-runtime parity: max |Δ| = {np.abs(a - b).max():.2e}")

    # 2. Train under MEGA.
    model.train()
    opt = Adam(model.parameters(), lr=3e-3)
    print("training MeanSage under the MEGA schedule:")
    for step in range(15):
        loss = model.loss(model(batch, mega_rt), batch.labels)
        opt.zero_grad()
        loss.backward()
        opt.step()
        if step % 5 == 0 or step == 14:
            print(f"  step {step:2d}: loss {loss.item():.4f}")

    # 3. And the simulated-GPU story carries over: MEGA's banded kernels
    #    replace the scattered gathers for *any* model on this interface.
    from repro.memsim import GPUDevice
    from repro.models.kernel_plans import simulate_batch

    # MeanSage declares no ``OPS``, so it has no plan of its own; its op
    # profile is closest to GAT's declared one (1 scatter, gathers, one
    # projection), so use that plan for the cost picture.
    t_base = simulate_batch("GAT", base_rt, GPUDevice(), 32, 3).total_time
    t_mega = simulate_batch("GAT", mega_rt, GPUDevice(), 32, 3).total_time
    print(f"simulated batch: baseline {t_base * 1e3:.3f} ms vs "
          f"mega {t_mega * 1e3:.3f} ms ({t_base / t_mega:.2f}x)")


if __name__ == "__main__":
    main()
