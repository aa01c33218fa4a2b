"""Fig. 4 — per-kernel SM efficiency under the DGL baseline.

Paper setting: batch 64, hidden dim 128.  The ``sgemm`` kernel's SM
efficiency "significantly outperforms that of both cub and dgl kernels
by a considerable margin".
"""

import pytest

from benchmarks.conftest import cached_profile, print_table

DATASETS = ("ZINC", "AQSOL", "CSL", "CYCLES")
KERNELS = ("sgemm", "dgl::scatter", "dgl::gather", "cub::sort")


def compute():
    rows = []
    for dataset in DATASETS:
        for model in ("GCN", "GT"):
            prof = cached_profile(dataset, model, "baseline",
                                  batch_size=64, hidden_dim=128)
            aggs = prof.by_kernel()
            row = {"dataset": dataset, "model": model}
            for kernel in KERNELS:
                row[kernel] = aggs[kernel].sm_efficiency
            rows.append(row)
    return rows


def test_fig04_sm_efficiency(benchmark):
    rows = benchmark.pedantic(compute, rounds=1, iterations=1)
    print_table("Fig. 4: SM efficiency per kernel (batch 64, dim 128)",
                rows, ["dataset", "model"] + list(KERNELS))
    for row in rows:
        # sgemm beats every graph kernel by a clear margin.
        graph_kernels = [row["dgl::scatter"], row["dgl::gather"],
                         row["cub::sort"]]
        assert row["sgemm"] > 1.5 * max(graph_kernels), row
        assert row["sgemm"] > 0.5
