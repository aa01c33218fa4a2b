"""Profiling workloads: one call per figure configuration.

These helpers assemble (dataset, model, method, batch, dim) workloads,
run them on the simulated device and return nvprof-style profiles — the
raw material of Figs. 4, 5, 6, 9 and 10.  Datasets and path
representations are memoised because the benchmark suite sweeps many
configurations over the same graphs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.config import MegaConfig
from repro.core.path import PathRepresentation
from repro.datasets import load_dataset
from repro.errors import SimulationError
from repro.graph.batch import GraphBatch
from repro.graph.graph import Graph, complete_graph
from repro.memsim.device import GPUDevice, GTX_1080
from repro.memsim.profiler import Profiler
from repro.models.kernel_plans import simulate_batch
from repro.models.runtime import BaselineRuntime, MegaRuntime

#: Memo bound: a benchmark sweep touches a handful of (dataset, scale)
#: pairs and a few dozen path configurations; anything past this is a
#: leak, not a working set.  Python dicts iterate in insertion order, so
#: popping the first key on overflow is FIFO eviction.
MAX_CACHE_ENTRIES = 32

_DATASET_CACHE: Dict[Tuple[str, float], object] = {}
_PATH_CACHE: Dict[Tuple[str, float, int], List[PathRepresentation]] = {}


def _bounded_put(cache: Dict, key, value) -> None:
    """Insert with FIFO eviction at :data:`MAX_CACHE_ENTRIES`."""
    if key not in cache and len(cache) >= MAX_CACHE_ENTRIES:
        cache.pop(next(iter(cache)))
    cache[key] = value


def clear_caches() -> None:
    """Drop both memo caches (benchmark conftest calls this per session)."""
    _DATASET_CACHE.clear()
    _PATH_CACHE.clear()


def cache_sizes() -> Tuple[int, int]:
    """Current (dataset, path) memo entry counts, for tests."""
    return len(_DATASET_CACHE), len(_PATH_CACHE)


def cached_dataset(name: str, scale: float = 0.02):
    """Load (and memoise) a dataset at benchmark scale."""
    key = (name.upper(), scale)
    if key not in _DATASET_CACHE:
        _bounded_put(_DATASET_CACHE, key, load_dataset(name, scale=scale))
    return _DATASET_CACHE[key]


def cached_paths(name: str, scale: float, count: int,
                 config: Optional[MegaConfig] = None
                 ) -> List[PathRepresentation]:
    """Path representations for the first ``count`` training graphs."""
    config = config or MegaConfig()
    key = (name.upper(), scale, count)
    if key not in _PATH_CACHE:
        ds = cached_dataset(name, scale)
        graphs = ds.train[:count]
        if len(graphs) < count:
            raise SimulationError(
                f"{name} at scale {scale} has only {len(graphs)} train graphs")
        _bounded_put(_PATH_CACHE, key,
                     [PathRepresentation.from_graph(g, config)
                      for g in graphs])
    return _PATH_CACHE[key]


def profile_configuration(dataset: str, model: str, method: str,
                          batch_size: int = 64, hidden_dim: int = 128,
                          num_layers: int = 4, scale: float = 0.02
                          ) -> Profiler:
    """Simulate one forward batch and return its kernel profile."""
    ds = cached_dataset(dataset, scale)
    graphs = ds.train[:batch_size]
    if len(graphs) < batch_size:
        raise SimulationError(
            f"{dataset} at scale {scale} has only {len(graphs)} train graphs "
            f"for batch size {batch_size}")
    batch = GraphBatch(graphs)
    if method == "baseline":
        runtime = BaselineRuntime(batch)
    elif method == "mega":
        runtime = MegaRuntime(batch,
                              cached_paths(dataset, scale, batch_size))
    else:
        raise SimulationError(f"unknown method {method!r}")
    device = GPUDevice(GTX_1080)
    return simulate_batch(model, runtime, device, hidden_dim, num_layers)


def attention_time_ratio(num_nodes: int, feature_dim: int,
                         sparsity: float = 0.05, seed: int = 0) -> float:
    """Fig. 1b: graph-attention time over global-attention time.

    Graph attention walks the sparse edge list with scattered gathers;
    global attention is one dense score GEMM + softmax + dense mix over
    the fully connected graph.  A ratio above 1 means the sparse variant
    is slower despite doing less arithmetic.
    """
    from repro.graph.generators import erdos_renyi_with_sparsity
    from repro.memsim.access import row_gather_trace, sequential_trace
    from repro.memsim.kernels import FLOAT_BYTES
    from repro.models.kernel_plans import make_layout

    rng = np.random.default_rng(seed)
    sparse = erdos_renyi_with_sparsity(rng, num_nodes, sparsity)
    batch = GraphBatch([sparse])
    rt = BaselineRuntime(batch)
    device = GPUDevice(GTX_1080)
    layout = make_layout(num_nodes, rt.num_messages, 1, feature_dim,
                         feature_dim * feature_dim)
    row = feature_dim * FLOAT_BYTES

    # Graph attention: gather endpoint rows per edge, score, softmax per
    # node, weighted aggregation with atomics.
    t_graph = 0.0
    loads = row_gather_trace(layout.base("nodes"),
                             np.stack([rt.msg_src, rt.msg_dst], 1).ravel(), row)
    stores = sequential_trace(layout.base("edges"), rt.num_messages * row)
    t_graph += device.run_kernel(
        "graph_attn_score", float(rt.num_messages * feature_dim * 2),
        loads=loads, stores=stores).time_s
    loads = row_gather_trace(layout.base("nodes"), rt.msg_src, row)
    stores = row_gather_trace(layout.base("nodes"), rt.msg_dst, row)
    t_graph += device.run_kernel(
        "graph_attn_agg", float(rt.num_messages * feature_dim * 2),
        loads=loads, stores=stores, atomic_stores=True).time_s

    # Global attention: dense n×n scores and dense mixing, streaming.
    device.reset()
    n = num_nodes
    score_flops = 2.0 * n * n * feature_dim
    loads = sequential_trace(layout.base("nodes"), 2 * n * row)
    stores = sequential_trace(layout.base("workspace"), n * n * FLOAT_BYTES)
    t_global = device.run_kernel(
        "global_scores", score_flops, loads=loads, stores=stores,
        efficiency=device.spec.gemm_efficiency).time_s
    loads = sequential_trace(layout.base("workspace"), n * n * FLOAT_BYTES)
    stores = sequential_trace(layout.base("workspace"), n * n * FLOAT_BYTES)
    t_global += device.run_kernel(
        "global_softmax", float(4 * n * n), loads=loads, stores=stores).time_s
    loads = sequential_trace(layout.base("workspace"),
                             n * n * FLOAT_BYTES + n * row)
    stores = sequential_trace(layout.base("nodes"), n * row)
    t_global += device.run_kernel(
        "global_mix", score_flops, loads=loads, stores=stores,
        efficiency=device.spec.gemm_efficiency).time_s
    if t_global <= 0:
        raise SimulationError("degenerate global-attention time")
    return t_graph / t_global
