"""Kernel plans: structure, names, and the performance orderings."""

import numpy as np
import pytest

from repro.core.config import MegaConfig
from repro.core.path import PathRepresentation
from repro.datasets import load_dataset
from repro.errors import SimulationError
from repro.graph.batch import GraphBatch
from repro.memsim.device import GPUDevice
from repro.models.kernel_plans import (
    make_layout,
    simulate_batch,
)
from repro.models.runtime import BaselineRuntime, MegaRuntime


@pytest.fixture(scope="module")
def runtimes():
    ds = load_dataset("ZINC", scale=0.005)
    graphs = ds.train[:32]
    batch = GraphBatch(graphs)
    paths = [PathRepresentation.from_graph(g, MegaConfig()) for g in graphs]
    return BaselineRuntime(batch), MegaRuntime(batch, paths)


class TestPlanStructure:
    def test_unknown_model_rejected(self, runtimes):
        base, _ = runtimes
        with pytest.raises(SimulationError):
            simulate_batch("MLP", base, GPUDevice(), 64, 2)

    def test_baseline_kernel_names(self, runtimes):
        base, _ = runtimes
        prof = simulate_batch("GCN", base, GPUDevice(), 64, 2)
        names = set(prof.call_counts())
        assert {"sgemm", "dgl::scatter", "dgl::gather", "cub::sort",
                "Memcpy", "elementwise"} <= names
        assert not any(n.startswith("mega") for n in names)

    def test_mega_kernel_names(self, runtimes):
        _, mega = runtimes
        prof = simulate_batch("GCN", mega, GPUDevice(), 64, 2)
        names = set(prof.call_counts())
        assert {"mega::band", "mega::reduce", "sgemm"} <= names
        assert "cub::sort" not in names   # schedule precomputed on CPU
        assert "dgl::gather" not in names

    def test_gather_calls_match_table1(self, runtimes):
        base, _ = runtimes
        layers = 3
        for model, expected in [("GCN", 2 * layers), ("GT", 2 * layers)]:
            prof = simulate_batch(model, base, GPUDevice(), 64, layers)
            assert prof.call_counts()["dgl::gather"] == expected

    def test_gt_scatter_calls_exceed_gcn(self, runtimes):
        base, _ = runtimes
        gcn = simulate_batch("GCN", base, GPUDevice(), 64, 2)
        gt = simulate_batch("GT", base, GPUDevice(), 64, 2)
        assert (gt.call_counts()["dgl::scatter"]
                > gcn.call_counts()["dgl::scatter"])

    def test_scatter_calls_match_table1_exactly(self, runtimes):
        """The simulated kernel plan issues exactly Table I's scatter
        calls per layer: GCN x1, GT x5, GAT x1."""
        base, _ = runtimes
        layers = 3
        for model, per_layer in (("GCN", 1), ("GT", 5), ("GAT", 1)):
            prof = simulate_batch(model, base, GPUDevice(), 64, layers)
            assert (prof.call_counts()["dgl::scatter"]
                    == per_layer * layers), model

    def test_h2d_optional(self, runtimes):
        base, _ = runtimes
        prof = simulate_batch("GCN", base, GPUDevice(), 64, 2,
                              include_h2d=False)
        assert "Memcpy" not in prof.call_counts()


class TestPerformanceOrderings:
    """The relative results the paper's evaluation rests on."""

    @pytest.mark.parametrize("model", ["GCN", "GT"])
    def test_mega_faster(self, runtimes, model):
        base, mega = runtimes
        t_base = simulate_batch(model, base, GPUDevice(), 128, 4).total_time
        t_mega = simulate_batch(model, mega, GPUDevice(), 128, 4).total_time
        assert t_mega < t_base

    def test_mega_higher_sm_efficiency(self, runtimes):
        base, mega = runtimes
        p_base = simulate_batch("GT", base, GPUDevice(), 128, 4)
        p_mega = simulate_batch("GT", mega, GPUDevice(), 128, 4)
        assert (p_mega.normalized_metric("sm_efficiency")
                > p_base.normalized_metric("sm_efficiency"))
        assert (p_mega.normalized_metric("memory_stall_pct")
                < p_base.normalized_metric("memory_stall_pct"))

    def test_sgemm_most_efficient_kernel_baseline(self, runtimes):
        base, _ = runtimes
        prof = simulate_batch("GCN", base, GPUDevice(), 128, 4)
        aggs = prof.by_kernel()
        assert aggs["sgemm"].sm_efficiency > aggs["dgl::gather"].sm_efficiency
        assert aggs["sgemm"].sm_efficiency > aggs["cub::sort"].sm_efficiency

    def test_graph_kernels_dominate_baseline_time(self, runtimes):
        base, _ = runtimes
        prof = simulate_batch("GT", base, GPUDevice(), 128, 4)
        pct = prof.time_percentages()
        graph_share = sum(v for k, v in pct.items()
                          if k.startswith(("dgl", "cub")))
        assert graph_share > 0.35

    def test_mega_graph_share_smaller(self, runtimes):
        base, mega = runtimes
        p_base = simulate_batch("GT", base, GPUDevice(), 128, 4)
        p_mega = simulate_batch("GT", mega, GPUDevice(), 128, 4)
        share_base = sum(v for k, v in p_base.time_percentages().items()
                         if k.startswith(("dgl", "cub")))
        share_mega = sum(v for k, v in p_mega.time_percentages().items()
                         if k.startswith("mega"))
        assert share_mega < share_base


class TestLayout:
    def test_regions_present(self):
        layout = make_layout(10, 20, 15, 8, 100)
        for region in ("nodes", "edges", "path", "weights", "workspace"):
            assert layout.size(region) > 0
