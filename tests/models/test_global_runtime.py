"""Global-attention comparator runtime."""

import numpy as np
import pytest

from repro.datasets import load_dataset
from repro.graph.batch import GraphBatch
from repro.models import (
    GatedGCN,
    GlobalAttentionRuntime,
    GraphTransformer,
    ModelConfig,
)


@pytest.fixture(scope="module")
def setting():
    ds = load_dataset("ZINC", scale=0.005)
    graphs = ds.train[:4]
    return ds, GraphBatch(graphs)


class TestMessageList:
    def test_all_pairs_per_graph(self, setting):
        _, batch = setting
        rt = GlobalAttentionRuntime(batch)
        expected = sum(
            (batch.node_offsets[i + 1] - batch.node_offsets[i]) ** 2
            - (batch.node_offsets[i + 1] - batch.node_offsets[i])
            for i in range(batch.num_graphs))
        assert rt.num_messages == expected

    def test_no_cross_graph_pairs(self, setting):
        _, batch = setting
        rt = GlobalAttentionRuntime(batch)
        gid_src = batch.graph_ids[rt.msg_src]
        gid_dst = batch.graph_ids[rt.msg_dst]
        assert np.array_equal(gid_src, gid_dst)

    def test_include_self_adds_diagonal(self, setting):
        _, batch = setting
        without = GlobalAttentionRuntime(batch, include_self=False)
        with_self = GlobalAttentionRuntime(batch, include_self=True)
        assert (with_self.num_messages
                == without.num_messages + batch.num_nodes)

    def test_edge_types_use_virtual_slot(self, setting):
        ds, batch = setting
        rt = GlobalAttentionRuntime(batch)
        edge_types = np.asarray(batch.graph.edge_features)
        virtual = ds.num_edge_types
        out = rt.message_edge_types(edge_types, virtual_type=virtual)
        real = rt.msg_edge >= 0
        assert np.all(out[~real] == virtual)
        assert np.all(out[real] < virtual)


class TestModelsUnderGlobalAttention:
    @pytest.mark.parametrize("model_cls", [GatedGCN, GraphTransformer])
    def test_forward_runs(self, setting, model_cls):
        ds, batch = setting
        cfg = ModelConfig.for_dataset(ds, hidden_dim=16, num_layers=2)
        model = model_cls(cfg)
        model.eval()
        out = model(batch, GlobalAttentionRuntime(batch))
        assert out.shape == (batch.num_graphs,)
        assert np.isfinite(out.data).all()

    def test_global_differs_from_sparse(self, setting):
        """Mixing over all pairs computes a different function."""
        from repro.models import BaselineRuntime

        ds, batch = setting
        cfg = ModelConfig.for_dataset(ds, hidden_dim=16, num_layers=2)
        model = GraphTransformer(cfg)
        model.eval()
        sparse = model(batch, BaselineRuntime(batch)).data
        dense = model(batch, GlobalAttentionRuntime(batch)).data
        assert not np.allclose(sparse, dense)

    def test_trainable(self, setting):
        from repro.tensor.optim import Adam

        ds, batch = setting
        cfg = ModelConfig.for_dataset(ds, hidden_dim=16, num_layers=2)
        model = GatedGCN(cfg)
        rt = GlobalAttentionRuntime(batch)
        opt = Adam(model.parameters(), lr=3e-3)
        first = None
        for _ in range(10):
            loss = model.loss(model(batch, rt), batch.labels)
            if first is None:
                first = loss.item()
            opt.zero_grad()
            loss.backward()
            opt.step()
        assert loss.item() < first
