"""Fig. 6 — GPU kernel profiling: global loads, memory stalls, calls.

Paper: both graph kernels (cub and dgl) show "a notable deficiency in
data locality, evidenced by the substantial percentage of stalls and the
excessive volume of global loads"; sgemm does not.
"""

import pytest

from benchmarks.conftest import cached_profile, print_table

KERNELS = ("sgemm", "dgl::scatter", "dgl::gather", "cub::sort")


def compute():
    rows = []
    for model in ("GCN", "GT"):
        prof = cached_profile("ZINC", model, "baseline",
                              batch_size=64, hidden_dim=128)
        aggs = prof.by_kernel()
        for kernel in KERNELS:
            agg = aggs[kernel]
            rows.append({
                "model": model,
                "kernel": kernel,
                "calls": agg.calls,
                "global loads": agg.load_transactions,
                "loads/call": agg.load_transactions / agg.calls,
                "stall %": agg.memory_stall_pct,
                "l2 hit": agg.l2_hit_rate,
            })
    return rows


def test_fig06_kernel_profiling(benchmark):
    rows = benchmark.pedantic(compute, rounds=1, iterations=1)
    print_table("Fig. 6: kernel profiling (ZINC, batch 64, dim 128)",
                rows, ["model", "kernel", "calls", "global loads",
                       "loads/call", "stall %", "l2 hit"])
    for model in ("GCN", "GT"):
        sub = {r["kernel"]: r for r in rows if r["model"] == model}
        # Graph kernels stall far more than the dense GEMM.
        assert sub["dgl::gather"]["stall %"] > sub["sgemm"]["stall %"]
        assert sub["dgl::scatter"]["stall %"] > sub["sgemm"]["stall %"]
        # And issue heavy global-load traffic per call.
        assert (sub["dgl::gather"]["loads/call"]
                > 0.5 * sub["sgemm"]["loads/call"])
    # GT makes more scatter calls than GCN (Table I).
    gcn_calls = [r for r in rows
                 if r["model"] == "GCN" and r["kernel"] == "dgl::scatter"]
    gt_calls = [r for r in rows
                if r["model"] == "GT" and r["kernel"] == "dgl::scatter"]
    assert gt_calls[0]["calls"] > gcn_calls[0]["calls"]
