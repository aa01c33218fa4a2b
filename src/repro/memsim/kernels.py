"""Kernel launch builders: the GPU-side vocabulary of GNN training.

Each ``*_launch`` builder describes one simulated kernel as a
:class:`KernelLaunch`; plans submit many at once through
:meth:`GPUDevice.run_kernels`.  Kernel names follow the paper's
profiling nomenclature: ``sgemm`` (dense linear projection), ``cub``
(index sorting), ``elementwise`` (neural pointwise ops).  The graph
kernels (``dgl``, MEGA's ``band``) are built from the runtime's index
arrays in :mod:`repro.models.kernel_plans`; the H2D copy is
:meth:`GPUDevice.memcpy`.
"""

from __future__ import annotations

from repro.memsim.access import AccessTrace, MemoryLayout
from repro.memsim.device import KernelLaunch

FLOAT_BYTES = 4


def sgemm_launch(layout: MemoryLayout, m: int, n: int, k: int,
                 efficiency: float, name: str = "sgemm") -> KernelLaunch:
    """Dense matrix multiply (m×k)·(k×n): compute-bound, streaming access."""
    flops = 2.0 * m * n * k
    a = layout.sweep("workspace", m * k * FLOAT_BYTES)
    b = layout.sweep("weights", k * n * FLOAT_BYTES)
    out = layout.sweep("workspace", m * n * FLOAT_BYTES)
    loads = AccessTrace.concatenate([a, b])
    return KernelLaunch(name, flops, loads=loads, stores=out,
                        efficiency=efficiency, parallel_items=m * n)


def cub_sort_launch(layout: MemoryLayout, num_keys: int,
                    name: str = "cub::sort") -> KernelLaunch:
    """Radix sort of edge indices (DGL's neighbour-ordering step)."""
    key_bytes = 8
    passes = 4
    nbytes = num_keys * key_bytes
    loads = AccessTrace.concatenate(
        [layout.sweep("workspace", nbytes)] * passes)
    stores = AccessTrace.concatenate(
        [layout.sweep("workspace", nbytes)] * passes)
    flops = float(passes * num_keys * 8)  # digit extraction + histogram
    return KernelLaunch(name, flops, loads=loads, stores=stores,
                        parallel_items=num_keys)


def elementwise_launch(layout: MemoryLayout, region: str, rows: int,
                       dim: int, flops_per_element: float = 6.0
                       ) -> KernelLaunch:
    """Pointwise neural op (activation, residual, norm) over rows×dim
    of ``region``; an empty region still streams one row."""
    nbytes = max(rows, 1) * dim * FLOAT_BYTES
    loads = layout.sweep(region, nbytes)
    stores = layout.sweep(region, nbytes)
    return KernelLaunch("elementwise", float(rows * dim * flops_per_element),
                        loads=loads, stores=stores,
                        parallel_items=rows * dim)
