"""Layer declarations: the lowering against hand-kept plans, and the
numpy forward against the declaration.

``_plan_{gcn,gt,gat}_layer`` below are the per-model launch lists the
kernel plans used before each layer declared its ops (``OPS``); they
stay here verbatim as the oracle the lowering must reproduce, launch
for launch.  The drift test records what a forward actually executes
and checks it against the same declaration.
"""

from typing import List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import MegaConfig
from repro.core.path import PathRepresentation
from repro.datasets import load_dataset
from repro.graph.batch import GraphBatch
from repro.memsim.access import MemoryLayout, row_gather_trace, \
    sequential_trace
from repro.memsim.device import GPUDevice, GTX_1080, KernelLaunch
from repro.memsim.kernels import (FLOAT_BYTES, cub_sort_launch,
                                  elementwise_launch, sgemm_launch)
from repro.models import GAT, GatedGCN, GraphTransformer, ModelConfig
from repro.models.kernel_plans import (
    _baseline_apply_edges,
    _baseline_update_all,
    _mega_band_kernel,
    _mega_band_reduce,
    _mega_sync,
    _node_rows,
    batch_launches,
    make_layout,
)
from repro.models.runtime import (AggregationRuntime, BaselineRuntime,
                                  Gather, GlobalAttentionRuntime, MegaRuntime,
                                  Project, Scatter)
from repro.tensor import Linear, no_grad
from tests.strategies import batches

DIM = 16


# ----------------------------------------------------------------------
# The oracle: the hand-kept plans, as they were
# ----------------------------------------------------------------------
def _baseline_edge_op(layout: MemoryLayout, rt: BaselineRuntime,
                      dim: int) -> KernelLaunch:
    """Edge-only apply_edges: per-message op through the id indirection."""
    row = dim * FLOAT_BYTES
    loads = row_gather_trace(layout.base("edges"), rt.msg_edge, row)
    stores = sequential_trace(layout.base("edges"), rt.num_messages * row)
    flops = float(rt.num_messages * dim * 2)
    return KernelLaunch("dgl::scatter", flops, loads=loads, stores=stores,
                        parallel_items=rt.num_messages * dim)


def _plan_gcn_layer(layout: MemoryLayout, rt: AggregationRuntime, dim: int,
                    node_rows: int, is_mega: bool,
                    gemm: float) -> List[KernelLaunch]:
    # Projections A, B, U, V on node rows; C on message rows.
    plan = [sgemm_launch(layout, node_rows, dim, dim, gemm)] * 4
    plan.append(sgemm_launch(layout, rt.num_messages, dim, dim, gemm))
    if is_mega:
        # Edge update + sigmoid fused into one banded sweep; the two
        # gated reductions sweep the band again; one sync kernel.
        plan += [_mega_band_kernel(layout, rt, dim, operands=2),
                 _mega_band_reduce(layout, rt, dim, with_src=True),
                 _mega_band_reduce(layout, rt, dim, with_src=False),
                 _mega_sync(layout, rt, dim)]
    else:
        plan += [_baseline_apply_edges(layout, rt, dim, operands=2),
                 elementwise_launch(layout, "edges", rt.num_messages, dim),
                 _baseline_update_all(layout, rt, dim, with_src=True),
                 _baseline_update_all(layout, rt, dim, with_src=False)]
    # BN/ReLU/residual on nodes and edges.
    plan += [elementwise_launch(layout, "nodes", node_rows, dim),
             elementwise_launch(layout, "edges", rt.num_messages, dim)]
    return plan


def _plan_gat_layer(layout: MemoryLayout, rt: AggregationRuntime, dim: int,
                    node_rows: int, is_mega: bool,
                    gemm: float) -> List[KernelLaunch]:
    """GAT: one projection, one score scatter, softmax + weighted gather."""
    plan = [sgemm_launch(layout, node_rows, dim, dim, gemm),
            elementwise_launch(layout, "nodes", node_rows, dim)]
    if is_mega:
        plan += [_mega_band_kernel(layout, rt, dim, operands=2),
                 _mega_band_reduce(layout, rt, dim, with_src=False),
                 _mega_band_reduce(layout, rt, dim, with_src=True),
                 _mega_sync(layout, rt, dim)]
    else:
        plan += [_baseline_apply_edges(layout, rt, dim, operands=2),
                 _baseline_update_all(layout, rt, dim, with_src=False),
                 _baseline_update_all(layout, rt, dim, with_src=True)]
    plan.append(elementwise_launch(layout, "nodes", node_rows, dim))
    return plan


def _plan_gt_layer(layout: MemoryLayout, rt: AggregationRuntime, dim: int,
                   node_rows: int, is_mega: bool,
                   gemm: float) -> List[KernelLaunch]:
    # Q, K, V, O on node rows; E, O_e on message rows; FFNs on both.
    plan = [sgemm_launch(layout, node_rows, dim, dim, gemm)] * 4
    plan += [sgemm_launch(layout, rt.num_messages, dim, dim, gemm)] * 2
    # FFN h: d->2d->d ; FFN e: d->2d->d.
    plan += [sgemm_launch(layout, node_rows, 2 * dim, dim, gemm)] * 2
    plan += [sgemm_launch(layout, rt.num_messages, 2 * dim, dim, gemm)] * 2
    if is_mega:
        # Score computation, edge mixing and V-weighting fuse into two
        # banded sweeps; softmax + aggregation sweep the band again.
        plan += [_mega_band_kernel(layout, rt, dim, operands=2),
                 _mega_band_kernel(layout, rt, dim, operands=1),
                 _mega_band_reduce(layout, rt, dim, with_src=False),
                 _mega_band_reduce(layout, rt, dim, with_src=True),
                 _mega_sync(layout, rt, dim)]
    else:
        # Five apply_edges scatters (Table I): two fetch node rows, three
        # are edge-space ops routed through the edge-id indirection.
        edge_op = _baseline_edge_op(layout, rt, dim)
        plan += [_baseline_apply_edges(layout, rt, dim, operands=2),
                 edge_op, edge_op,
                 _baseline_apply_edges(layout, rt, dim, operands=1),
                 edge_op,
                 # ... and the two softmax/aggregate gathers.
                 _baseline_update_all(layout, rt, dim, with_src=False),
                 _baseline_update_all(layout, rt, dim, with_src=True)]
    # Norm/residual + FFN activations.
    plan += [elementwise_launch(layout, "nodes", node_rows, dim),
             elementwise_launch(layout, "edges", rt.num_messages, dim)]
    return plan


_LAYER_PLANS = {"GCN": _plan_gcn_layer, "GT": _plan_gt_layer,
                "GAT": _plan_gat_layer}


def oracle_launches(model_name: str, runtime: AggregationRuntime,
                    dim: int, num_layers: int) -> List[KernelLaunch]:
    """``batch_launches`` as it read before the declarations."""
    is_mega = isinstance(runtime, MegaRuntime)
    n = runtime.num_nodes
    m = runtime.num_messages
    length = _node_rows(runtime)
    params_per_layer = {"GCN": 5, "GT": 14, "GAT": 2}[model_name]
    params = params_per_layer * dim * dim * num_layers
    layout = make_layout(n, m, length if is_mega else 1, dim, params)
    gemm = GTX_1080.gemm_efficiency
    launches = [] if is_mega else [cub_sort_launch(layout, m)]
    layer = _LAYER_PLANS[model_name](layout, runtime, dim, length, is_mega,
                                     gemm)
    launches.extend(layer * num_layers)
    launches.append(sgemm_launch(layout, max(n // 4, 1), dim, dim, gemm))
    launches.append(elementwise_launch(layout, "nodes", n, dim))
    return launches


def _runtimes(members):
    batch = GraphBatch(members)
    paths = [PathRepresentation.from_graph(g, MegaConfig())
             for g in members]
    return (BaselineRuntime(batch), MegaRuntime(batch, paths),
            GlobalAttentionRuntime(batch))


def _distinct_traces(launches) -> int:
    return len({id(t) for k in launches for t in (k.loads, k.stores)
                if t is not None})


@settings(max_examples=25, deadline=None)
@given(members=batches(), num_layers=st.sampled_from([1, 4]))
def test_lowering_matches_hand_kept_plans(members, num_layers):
    """Same launch names and ``==`` records, on a fresh device per plan,
    from no more distinct trace objects than the hand-kept plans."""
    for runtime in _runtimes(members):
        for model in ("GCN", "GT", "GAT"):
            want = oracle_launches(model, runtime, DIM, num_layers)
            got = batch_launches(model, runtime, GTX_1080, DIM, num_layers)
            assert [k.name for k in got] == [k.name for k in want]
            assert (GPUDevice(GTX_1080).run_kernels(got)
                    == GPUDevice(GTX_1080).run_kernels(want))
            assert _distinct_traces(got) <= _distinct_traces(want)


# ----------------------------------------------------------------------
# Drift: the numpy forward executes what its layer declares
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def zinc():
    return load_dataset("ZINC", scale=0.005)


def _record_forward(model, batch, runtime, monkeypatch):
    """Per layer: executed projections (row space, volume in d²),
    node operands per scatter, and the gather count."""
    d2 = model.config.hidden_dim ** 2
    space = {runtime.num_nodes: "nodes", runtime.num_messages: "edges"}
    assert len(space) == 2, "node and message counts must differ"
    log = {"project": [], "scatter": [], "gather": 0}
    linear_forward = Linear.forward

    def project(self, x):
        log["project"].append((space[len(x)], self.weight.data.size // d2))
        return linear_forward(self, x)

    def wrap(name, record):
        method = getattr(runtime, name)

        def recorded(*args, **kwargs):
            record(*args, **kwargs)
            return method(*args, **kwargs)
        monkeypatch.setattr(runtime, name, recorded)

    def scatter(src=None, dst=None):
        log["scatter"].append((src is not None) + (dst is not None))

    def gather(_):
        log["gather"] += 1

    wrap("scatter_to_edges", scatter)
    wrap("aggregate_sum", gather)
    wrap("edge_softmax", gather)
    monkeypatch.setattr(Linear, "forward", project)
    layers = []
    with no_grad():
        h, e = model.encode(batch, runtime)
        for layer in model.layers:
            log.update(project=[], scatter=[], gather=0)
            h, e = layer(h, e, runtime)
            layers.append(dict(log))
    return layers


def _declared(layer):
    """What ``layer.OPS`` says its forward executes."""
    ops = [op for op in layer.OPS.ops if getattr(layer, "edge_out", True)
           or not getattr(op, "edge_tail", False)]
    return {"project": sorted((op.rows, op.width) for op in ops
                              if isinstance(op, Project)),
            "scatter": [op.operands for op in ops
                        if isinstance(op, Scatter) and op.operands],
            "gather": sum(isinstance(op, Gather) for op in ops)}


@pytest.mark.parametrize("model_cls", [GatedGCN, GraphTransformer, GAT])
@pytest.mark.parametrize("kind", ["baseline", "mega"])
def test_forward_executes_the_declaration(zinc, model_cls, kind,
                                          monkeypatch):
    """Every layer, minus GT's edge tail on the last one."""
    cfg = ModelConfig.for_dataset(zinc, hidden_dim=DIM, num_layers=3)
    model = model_cls(cfg)
    model.eval()
    base, mega, _ = _runtimes(zinc.train[:6])
    runtime = base if kind == "baseline" else mega
    executed = _record_forward(model, base.batch, runtime, monkeypatch)
    for layer, got in zip(model.layers, executed):
        got["project"].sort()
        assert got == _declared(layer)
    if model_cls is GraphTransformer:   # the last layer's tail is dead
        assert len(executed[-1]["project"]) < len(executed[0]["project"])


@pytest.mark.parametrize("model_cls", [GatedGCN, GraphTransformer])
def test_declared_weights_cover_the_projections(model_cls):
    """GCN's 5d² and GT's 14d² are exactly their projections' widths."""
    config = ModelConfig(hidden_dim=8, num_layers=1, num_node_types=4)
    layer = model_cls(config).layers[0]
    widths = sum(op.width for op in layer.OPS.ops if isinstance(op, Project))
    assert widths == layer.OPS.weights_d2
    volume = sum(p.size for _, p in layer.named_parameters()
                 if p.data.ndim == 2)
    assert volume == widths * 8 * 8
