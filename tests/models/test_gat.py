"""GAT model: the third architecture over the runtime abstraction."""

import numpy as np
import pytest

from repro.core import MegaConfig, PathRepresentation
from repro.datasets import load_dataset
from repro.errors import ConfigError
from repro.graph.batch import GraphBatch
from repro.models import (
    GAT,
    BaselineRuntime,
    GlobalAttentionRuntime,
    MegaRuntime,
    ModelConfig,
    compute_model_stats,
)
from repro.tensor.optim import Adam


@pytest.fixture(scope="module")
def setting():
    ds = load_dataset("ZINC", scale=0.005)
    graphs = ds.train[:6]
    batch = GraphBatch(graphs)
    paths = [PathRepresentation.from_graph(g, MegaConfig()) for g in graphs]
    return ds, batch, paths


class TestStructure:
    def test_heads_must_divide(self):
        cfg = ModelConfig(hidden_dim=30, num_heads=4, num_node_types=4)
        with pytest.raises(ConfigError):
            GAT(cfg)

    def test_call_profile(self):
        """1 scatter and 2 gathers per layer, read off the declaration."""
        stats = compute_model_stats(GAT, hidden_dim=16, num_layers=3)
        assert stats.scatter_calls_per_layer == 1
        assert stats.gather_calls_per_layer == 2

    def test_lightest_parameterisation(self):
        stats = compute_model_stats(GAT)
        # One d x d projection plus score vectors: far below GCN's 5d^2.
        assert stats.parameter_volume_d2 < 2.0


class TestBehaviour:
    def test_runtime_parity(self, setting):
        ds, batch, paths = setting
        cfg = ModelConfig.for_dataset(ds, hidden_dim=16, num_layers=2)
        model = GAT(cfg)
        model.eval()
        a = model(batch, BaselineRuntime(batch)).data
        b = model(batch, MegaRuntime(batch, paths)).data
        assert np.allclose(a, b, atol=1e-12)

    def test_attention_sums_to_one(self, setting):
        """Per-destination attention weights form a distribution."""
        from repro.models.gat import GATLayer
        from repro.tensor import Tensor
        from repro.tensor import functional as F

        _, batch, _ = setting
        rt = BaselineRuntime(batch)
        rng = np.random.default_rng(0)
        layer = GATLayer(16, num_heads=2, rng=rng)
        h = Tensor(rng.normal(size=(batch.num_nodes, 16)))
        wh = layer.proj(h)
        heads = wh.reshape(len(wh), 2, 8)
        s_src = (heads * layer.attn_src).sum(axis=-1)
        s_dst = (heads * layer.attn_dst).sum(axis=-1)
        src_p, dst_p = rt.scatter_to_edges(src=s_src, dst=s_dst)
        logits = F.leaky_relu(src_p + dst_p, 0.2)
        attn = rt.edge_softmax(logits).data
        sums = np.zeros((batch.num_nodes, 2))
        np.add.at(sums, rt.msg_dst, attn)
        touched = np.bincount(rt.msg_dst, minlength=batch.num_nodes) > 0
        assert np.allclose(sums[touched], 1.0)

    def test_global_runtime_works(self, setting):
        ds, batch, _ = setting
        cfg = ModelConfig.for_dataset(ds, hidden_dim=16, num_layers=2)
        model = GAT(cfg)
        model.eval()
        out = model(batch, GlobalAttentionRuntime(batch))
        assert np.isfinite(out.data).all()

    def test_learns(self, setting):
        ds, batch, _ = setting
        cfg = ModelConfig.for_dataset(ds, hidden_dim=32, num_layers=2)
        model = GAT(cfg)
        rt = BaselineRuntime(batch)
        opt = Adam(model.parameters(), lr=5e-3)
        first = None
        for _ in range(25):
            loss = model.loss(model(batch, rt), batch.labels)
            if first is None:
                first = loss.item()
            opt.zero_grad()
            loss.backward()
            opt.step()
        assert loss.item() < 0.6 * first

    def test_kernel_plan_runs_and_mega_wins(self, setting):
        from repro.memsim import GPUDevice
        from repro.models.kernel_plans import simulate_batch

        _, batch, paths = setting
        base = simulate_batch("GAT", BaselineRuntime(batch),
                              GPUDevice(), 64, 3)
        mega = simulate_batch("GAT", MegaRuntime(batch, paths),
                              GPUDevice(), 64, 3)
        assert mega.total_time < base.total_time
