"""Kernel cost models: the GPU-side vocabulary of GNN training.

Each function executes one simulated kernel on a :class:`GPUDevice` and
returns its :class:`KernelStats`; the ``*_launch`` builders describe a
kernel as a :class:`KernelLaunch` for plans that submit many at once.
Kernel names follow the paper's profiling nomenclature: ``sgemm``
(dense linear projection), ``dgl`` (graph gather/scatter), ``cub``
(index sorting), ``elementwise`` (neural pointwise ops), ``Memcpy`` —
plus MEGA's ``band`` kernels.
"""

from __future__ import annotations

import numpy as np

from repro.memsim.access import (
    AccessTrace,
    MemoryLayout,
    row_gather_trace,
    sequential_trace,
)
from repro.memsim.device import GPUDevice, KernelLaunch, KernelStats

FLOAT_BYTES = 4


def sgemm_launch(layout: MemoryLayout, m: int, n: int, k: int,
                 efficiency: float, name: str = "sgemm") -> KernelLaunch:
    """Dense matrix multiply (m×k)·(k×n): compute-bound, streaming access."""
    flops = 2.0 * m * n * k
    a = sequential_trace(layout.base("workspace"), m * k * FLOAT_BYTES)
    b = sequential_trace(layout.base("weights"), k * n * FLOAT_BYTES)
    out = sequential_trace(layout.base("workspace"), m * n * FLOAT_BYTES)
    loads = AccessTrace.concatenate([a, b])
    return KernelLaunch(name, flops, loads=loads, stores=out,
                        efficiency=efficiency, parallel_items=m * n)


def sgemm(device: GPUDevice, layout: MemoryLayout, m: int, n: int, k: int,
          name: str = "sgemm") -> KernelStats:
    """Run :func:`sgemm_launch` at the device's GEMM efficiency."""
    return device.run_kernels([sgemm_launch(
        layout, m, n, k, device.spec.gemm_efficiency, name)])[0]


def gather_rows(device: GPUDevice, layout: MemoryLayout, region: str,
                row_indices: np.ndarray, dim: int,
                name: str = "dgl::gather") -> KernelStats:
    """Fetch feature rows by index (neighbour aggregation's read side).

    The locality of ``row_indices`` — the actual CSR or band order —
    determines the cache behaviour, hence the kernel's efficiency.
    """
    row_bytes = dim * FLOAT_BYTES
    loads = row_gather_trace(layout.base(region), np.asarray(row_indices),
                             row_bytes)
    stores = sequential_trace(layout.base("workspace"),
                              len(row_indices) * row_bytes)
    flops = float(len(row_indices) * dim)  # copy/accumulate cost
    return device.run_kernel(name, flops, loads=loads, stores=stores,
                             parallel_items=len(row_indices) * dim)


def cub_sort_launch(layout: MemoryLayout, num_keys: int,
                    name: str = "cub::sort") -> KernelLaunch:
    """Radix sort of edge indices (DGL's neighbour-ordering step)."""
    key_bytes = 8
    passes = 4
    nbytes = num_keys * key_bytes
    loads = AccessTrace.concatenate(
        [sequential_trace(layout.base("workspace"), nbytes)] * passes)
    stores = AccessTrace.concatenate(
        [sequential_trace(layout.base("workspace"), nbytes)] * passes)
    flops = float(passes * num_keys * 8)  # digit extraction + histogram
    return KernelLaunch(name, flops, loads=loads, stores=stores,
                        parallel_items=num_keys)


def cub_sort(device: GPUDevice, layout: MemoryLayout, num_keys: int,
             name: str = "cub::sort") -> KernelStats:
    """Run :func:`cub_sort_launch`."""
    return device.run_kernels([cub_sort_launch(layout, num_keys, name)])[0]


def elementwise(device: GPUDevice, layout: MemoryLayout, rows: int, dim: int,
                flops_per_element: float = 4.0,
                name: str = "elementwise") -> KernelStats:
    """Pointwise neural op (activation, residual, norm) over rows×dim."""
    nbytes = rows * dim * FLOAT_BYTES
    loads = sequential_trace(layout.base("workspace"), nbytes)
    stores = sequential_trace(layout.base("workspace"), nbytes)
    flops = float(rows * dim * flops_per_element)
    return device.run_kernel(name, flops, loads=loads, stores=stores,
                             parallel_items=rows * dim)


def band_gather(device: GPUDevice, layout: MemoryLayout, region: str,
                length: int, window: int, dim: int,
                name: str = "mega::band") -> KernelStats:
    """MEGA's diagonal gather: each position reads its 2ω+1 band rows.

    The trace enumerates every band access; the overlap between
    consecutive windows is real reuse the simulated L2 discovers, which
    is exactly how the regularised layout earns its speedup.
    """
    row_bytes = dim * FLOAT_BYTES
    positions = np.arange(length, dtype=np.int64)
    rows = positions[:, None] + np.arange(-window, window + 1, dtype=np.int64)
    rows = np.clip(rows, 0, max(length - 1, 0)).reshape(-1)
    loads = row_gather_trace(layout.base(region), rows, row_bytes)
    stores = sequential_trace(layout.base("workspace"), length * row_bytes)
    flops = float(length * (2 * window + 1) * dim)
    return device.run_kernel(name, flops, loads=loads, stores=stores,
                             parallel_items=length * dim)


def memcpy(device: GPUDevice, nbytes: float,
           name: str = "Memcpy") -> KernelStats:
    """Host-to-device (or back) PCIe transfer."""
    return device.memcpy(nbytes, name=name)
