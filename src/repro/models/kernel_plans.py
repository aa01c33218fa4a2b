"""Simulated GPU execution plans for each (model, runtime) pair.

A *kernel plan* replays, on the :mod:`repro.memsim` device, the sequence
of GPU kernels one training batch launches — with the actual index
arrays the runtime uses, so the simulated cache/coalescing behaviour is
produced by the real schedules, not by assumption.  A layer's plan is
its declared ops (``OPS``, a :class:`~repro.models.runtime.LayerOps`)
lowered for the runtime:

* **Baseline** (the DGL pipeline the paper profiles): a per-batch
  ``cub`` index sort, then one launch per op — ``sgemm`` projections,
  ``apply_edges`` scatters over scattered rows, ``update_all`` gathers
  with atomic stores, ``elementwise`` pointwise ops.
* **MEGA** keeps the neural ops (on the expanded path buffer, length
  L ≥ N — the paper's accepted redundancy).  Each scatter with node
  operands opens a banded sweep, into which the edge-aligned scatters
  and edge pointwise ops that follow fold; each gather is a band
  reduction, and one position→node sync follows the last.  There is
  no sort: the schedule is precomputed on the CPU.

A batch submits its :class:`~repro.memsim.device.KernelLaunch` records
in one device call.  Equal ops share one launch and every layer repeats
one plan, so the device expands each distinct trace only once.
"""

from __future__ import annotations

import functools
from typing import List, Optional

import numpy as np

from repro.errors import SimulationError
from repro.memsim.access import (
    AccessTrace,
    MemoryLayout,
    row_gather_trace,
    sequential_trace,
)
from repro.memsim.device import DeviceSpec, GPUDevice, KernelLaunch
from repro.memsim.kernels import (FLOAT_BYTES, cub_sort_launch,
                                  elementwise_launch, sgemm_launch)
from repro.memsim.profiler import Profiler
from repro.models.gat import GATLayer
from repro.models.layers import GatedGCNLayer, GraphTransformerLayer
from repro.models.runtime import (AggregationRuntime, BaselineRuntime, Gather,
                                  LayerOps, MegaRuntime, Pointwise, Project,
                                  Scatter)

# Training-step multiplier over the forward pass: forward (1x) plus a
# backward of about twice the forward's cost.
BACKWARD_FACTOR = 3.0


def _interleave(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.empty(2 * len(a), dtype=np.int64)
    out[0::2] = a
    out[1::2] = b
    return out


def make_layout(num_nodes: int, num_messages: int, path_length: int,
                dim: int, param_count: int) -> MemoryLayout:
    """Allocate the regions one training batch touches."""
    layout = MemoryLayout()
    row = dim * FLOAT_BYTES
    layout.allocate("nodes", max(num_nodes, 1) * row)
    layout.allocate("edges", max(num_messages, 1) * row)
    layout.allocate("path", max(path_length, 1) * row)
    layout.allocate("weights", max(param_count, 1) * FLOAT_BYTES)
    layout.allocate("workspace", 8 * (num_nodes + num_messages
                                      + path_length + 1) * row + 4096)
    return layout


def _imbalance(msg_dst: np.ndarray, num_nodes: int) -> float:
    """Warp-imbalance factor from the destination-degree skew."""
    if len(msg_dst) == 0:
        return 1.0
    counts = np.bincount(msg_dst, minlength=num_nodes)
    counts = counts[counts > 0]
    if counts.size == 0:
        return 1.0
    return float(np.clip(counts.max() / counts.mean(), 1.0, 3.0) ** 0.5)


# ----------------------------------------------------------------------
# Baseline (DGL-style) kernels
# ----------------------------------------------------------------------
def _baseline_apply_edges(layout: MemoryLayout, rt: BaselineRuntime,
                          dim: int, operands: int) -> KernelLaunch:
    """apply_edges: read ``operands`` (2, 1 or 0) scattered node rows and
    the edge row per message.

    Edge-feature rows are reached through the edge-id indirection left
    by the destination sort, so they are scattered too — the redundant
    data transactions Section II-B profiles.
    """
    row = dim * FLOAT_BYTES
    parts = [row_gather_trace(layout.base("edges"), rt.msg_edge, row)]
    if operands:
        rows = (_interleave(rt.msg_dst, rt.msg_src) if operands == 2
                else rt.msg_src)
        parts.insert(0, row_gather_trace(layout.base("nodes"), rows, row))
    stores = sequential_trace(layout.base("edges"), rt.num_messages * row)
    flops = float(rt.num_messages * dim * (max(operands, 1) + 1))
    return KernelLaunch("dgl::scatter", flops,
                        loads=AccessTrace.concatenate(parts), stores=stores,
                        parallel_items=rt.num_messages * dim)


def _baseline_update_all(layout: MemoryLayout, rt: BaselineRuntime,
                         dim: int, with_src: bool) -> KernelLaunch:
    """update_all: edge values (× source rows) reduced onto dst nodes."""
    row = dim * FLOAT_BYTES
    parts = [sequential_trace(layout.base("edges"), rt.num_messages * row)]
    if with_src:
        parts.append(row_gather_trace(layout.base("nodes"), rt.msg_src, row))
    loads = AccessTrace.concatenate(parts)
    stores = row_gather_trace(layout.base("nodes"), rt.msg_dst, row)
    flops = float(rt.num_messages * dim * (3 if with_src else 2))
    return KernelLaunch(
        "dgl::gather", flops, loads=loads, stores=stores,
        atomic_stores=True,
        imbalance=_imbalance(rt.msg_dst, rt.num_nodes),
        parallel_items=rt.num_messages * dim)


# ----------------------------------------------------------------------
# MEGA kernels
# ----------------------------------------------------------------------
_BAND_TILE = 128  # path positions per thread block


def _band_flops(rt: MegaRuntime, dim: int, per_slot: float) -> float:
    """Band compute includes the masked slots: the regular-access tax."""
    slots = rt.path_length * (2 * rt.window + 1)
    return float(slots * dim * per_slot)


def _band_sweep_loads(layout: MemoryLayout, rt: MegaRuntime,
                      row: int, with_edges: bool) -> AccessTrace:
    """Tiled sequential sweep of the path buffer.

    Each thread block stages a contiguous tile of path rows plus a
    2ω halo into shared memory, so external traffic is one sequential
    pass with a small halo-overlap factor.
    """
    halo = 1.0 + 2.0 * rt.window / _BAND_TILE
    nbytes = int(rt.path_length * row * halo)
    parts = [sequential_trace(layout.base("path"), nbytes)]
    if with_edges:
        parts.append(sequential_trace(layout.base("edges"),
                                      rt.num_messages * row))
    return AccessTrace.concatenate(parts)


def _mega_band_kernel(layout: MemoryLayout, rt: MegaRuntime, dim: int,
                      operands: int) -> KernelLaunch:
    """Banded edge computation over a tiled sequential path sweep."""
    row = dim * FLOAT_BYTES
    loads = _band_sweep_loads(layout, rt, row, with_edges=True)
    stores = sequential_trace(layout.base("edges"), rt.num_messages * row)
    flops = _band_flops(rt, dim, per_slot=operands + 1)
    return KernelLaunch("mega::band", flops, loads=loads, stores=stores,
                        parallel_items=rt.path_length * dim)


def _mega_band_reduce(layout: MemoryLayout, rt: MegaRuntime, dim: int,
                      with_src: bool) -> KernelLaunch:
    """Band aggregation: per-position reduction along the diagonal.

    Messages are destination-position sorted, so the store side is a
    segmented (atomic-free) sequential sweep over path positions.
    """
    row = dim * FLOAT_BYTES
    loads = _band_sweep_loads(layout, rt, row, with_edges=True) if with_src \
        else AccessTrace.concatenate(
            [sequential_trace(layout.base("edges"), rt.num_messages * row)])
    stores = sequential_trace(layout.base("path"), rt.path_length * row)
    flops = _band_flops(rt, dim, per_slot=3 if with_src else 2)
    return KernelLaunch("mega::band", flops, loads=loads, stores=stores,
                        parallel_items=rt.path_length * dim)


def _mega_sync(layout: MemoryLayout, rt: MegaRuntime,
               dim: int) -> KernelLaunch:
    """Position→node reduction synchronising repeated appearances."""
    row = dim * FLOAT_BYTES
    loads = sequential_trace(layout.base("path"), rt.path_length * row)
    stores = row_gather_trace(layout.base("nodes"), rt.path, row)
    return KernelLaunch("mega::reduce", float(rt.path_length * dim * 2),
                        loads=loads, stores=stores,
                        parallel_items=rt.path_length * dim)


# ----------------------------------------------------------------------
# Lowering a layer declaration
# ----------------------------------------------------------------------
_LAYERS = {"GCN": GatedGCNLayer, "GT": GraphTransformerLayer,
           "GAT": GATLayer}
#: Ops that fold into an open MEGA band sweep instead of launching.
_FOLDS = (Scatter(0), Pointwise("edges"))


def _lower(decl: LayerOps, layout: MemoryLayout, rt: AggregationRuntime,
           dim: int, node_rows: int, is_mega: bool,
           gemm: float) -> List[KernelLaunch]:
    """One layer's launches, in declaration order (see the module doc)."""
    rows = {"nodes": node_rows, "edges": rt.num_messages}

    @functools.cache    # equal ops share one launch
    def build(op) -> KernelLaunch:
        if isinstance(op, Project):
            return sgemm_launch(layout, rows[op.rows], op.width * dim, dim,
                                gemm)
        if isinstance(op, Pointwise):
            return elementwise_launch(layout, op.rows, rows[op.rows], dim)
        if isinstance(op, Scatter) and is_mega:
            return _mega_band_kernel(layout, rt, dim, op.operands)
        if isinstance(op, Scatter):
            return _baseline_apply_edges(layout, rt, dim, op.operands)
        if is_mega:
            return _mega_band_reduce(layout, rt, dim, op.with_src)
        return _baseline_update_all(layout, rt, dim, op.with_src)

    last_gather = max(i for i, op in enumerate(decl.ops)
                      if isinstance(op, Gather))
    plan: List[KernelLaunch] = []
    sweep = False
    for i, op in enumerate(decl.ops):
        if is_mega and sweep and op in _FOLDS:
            continue        # folds into the open band sweep
        if isinstance(op, (Scatter, Gather)):
            sweep = isinstance(op, Scatter)
        plan.append(build(op))
        if is_mega and i == last_gather:
            plan.append(_mega_sync(layout, rt, dim))
    return plan


# ----------------------------------------------------------------------
# Per-model batch plans
# ----------------------------------------------------------------------
def _node_rows(runtime: AggregationRuntime) -> int:
    """Rows the neural ops run on: MEGA's path copy, else the nodes."""
    if isinstance(runtime, MegaRuntime):
        return runtime.path_length
    return runtime.num_nodes


def batch_launches(model_name: str, runtime: AggregationRuntime,
                   spec: DeviceSpec, dim: int, num_layers: int
                   ) -> List[KernelLaunch]:
    """Every L2-touching kernel of one forward batch, in launch order.

    ``model_name`` is ``"GCN"``, ``"GT"`` or ``"GAT"``.  The host-to-device
    copy is not a launch: it never touches the L2.  The layers share one
    plan's launch objects, so the batch's distinct traces do not grow
    with ``num_layers``.
    """
    if model_name not in _LAYERS:
        raise SimulationError(f"unknown model {model_name!r}")
    decl = _LAYERS[model_name].OPS
    is_mega = isinstance(runtime, MegaRuntime)
    n = runtime.num_nodes
    m = runtime.num_messages
    length = _node_rows(runtime)
    params = decl.weights_d2 * dim * dim * num_layers
    layout = make_layout(n, m, length if is_mega else 1, dim, params)

    # DGL sorts edge indices per batch to fetch neighbours quickly.
    launches = [] if is_mega else [cub_sort_launch(layout, m)]
    # Every layer launches the same plan.
    gemm = spec.gemm_efficiency
    launches += _lower(decl, layout, runtime, dim, length, is_mega,
                       gemm) * num_layers
    # Readout + head.
    launches.append(sgemm_launch(layout, max(n // 4, 1), dim, dim, gemm))
    launches.append(elementwise_launch(layout, "nodes", n, dim))
    return launches


def simulate_batch(model_name: str, runtime: AggregationRuntime,
                   device: GPUDevice, dim: int, num_layers: int,
                   profiler: Optional[Profiler] = None,
                   include_h2d: bool = True) -> Profiler:
    """Replay one forward batch of ``model_name`` under ``runtime``.

    ``model_name`` is ``"GCN"``, ``"GT"`` or ``"GAT"``.  The batch's
    kernels go to the device in one :meth:`GPUDevice.run_kernels` call:
    one L2 pass over its distinct traces, then one pricing pass.
    Returns the profiler with all kernel records appended.
    """
    launches = batch_launches(model_name, runtime, device.spec, dim,
                              num_layers)
    profiler = profiler or Profiler()
    if include_h2d:
        # Features + topology (baseline) or path buffers (MEGA).
        m = runtime.num_messages
        nbytes = (_node_rows(runtime) + m) * dim * FLOAT_BYTES + m * 16
        profiler.record(device.memcpy(nbytes))
    profiler.extend(device.run_kernels(launches))
    return profiler
