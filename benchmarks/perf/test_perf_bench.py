"""Tests of the perf benchmark itself (not part of tier-1).

Run with ``PYTHONPATH=src python -m pytest benchmarks/perf -q``.  Every
workload is shrunk with :func:`dataclasses.replace`, so the whole file
takes well under a minute.
"""

import dataclasses
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

from benchmarks.perf import workloads as wl
from benchmarks.perf.cli import (ROOT, WORKLOAD_NAMES, compare_sets,
                                 load_spec)
from benchmarks.perf.layers import PER_LAYER, SITES
from benchmarks.perf.runner import END_TO_END, run_workload
from benchmarks.perf.tracer import Tracer, _resolve

SMALL_MODEL = dict(hidden_dim=16, num_layers=2)
SERVING = dict(SMALL_MODEL, window=20, warmup_requests=8, check_samples=8,
               speedup_batches=4)
TINY = {
    "serve_hot": dict(SERVING, num_requests=60),
    "stream_churn": dict(SERVING, num_events=90),
    "train_gt": dict(SMALL_MODEL, num_train=32, num_val=16, batch_size=16),
    "preprocess_cold_warm": dict(SMALL_MODEL, scale=0.002, chunk_size=20,
                                 batch_size=16, required_units=2),
}
SIMULATED = ("sim_ms", "sim_speedup")


def tiny(name: str, **changes):
    return dataclasses.replace(wl.WORKLOADS[name], **{**TINY[name],
                                                      **changes})


@pytest.fixture(scope="module")
def spec():
    return load_spec()


def test_spec_names_match_the_code(spec):
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS) \
        == list(WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == END_TO_END
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == PER_LAYER


@pytest.mark.parametrize("name", list(TINY))
def test_timed_pass_is_correct_and_repeats_its_simulated_metrics(
        name, spec, tmp_path):
    first, second = (run_workload(tiny(name), 3, 0.0, tmp_path)
                     for _ in range(2))
    assert first["correct"], first["failures"]
    assert first["failed"] == 0 and first["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in first["metrics"].values())
    for metric in SIMULATED:
        assert first["metrics"][metric] == second["metrics"][metric]


@pytest.mark.parametrize("name", list(TINY))
def test_traced_pass_emits_every_per_layer_metric(name, spec, tmp_path):
    result = run_workload(tiny(name), 0, 0.0, tmp_path,
                          trace_dir=tmp_path / "traces")
    assert result["correct"], result["failures"]
    expected = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    trace = json.loads((tmp_path / "traces" / f"{name}-seed0.json")
                       .read_text())
    assert any(e["ph"] == "X" for e in trace["traceEvents"])


def test_injected_wrong_prediction_trips_the_gate(monkeypatch, tmp_path):
    real = wl.baseline_forward
    monkeypatch.setattr(wl, "baseline_forward",
                        lambda model, graphs: real(model, graphs) + 1.0)
    result = run_workload(tiny("serve_hot"), 0, 0.0, tmp_path)
    assert not result["correct"]
    assert any("prediction off by" in f for f in result["failures"])


def test_traced_self_times_sum_to_the_root_span(tmp_path):
    workload = tiny("serve_hot")
    state = workload.setup(0, tmp_path)
    originals = [vars(_resolve(s.owner)).get(s.attr) for s in SITES]
    tracer = Tracer()
    tracer.install(SITES)
    try:
        with tracer.region("root") as root:
            workload.run_unit(state, 0)
    finally:
        tracer.uninstall()
    assert [vars(_resolve(s.owner)).get(s.attr) for s in SITES] == originals
    assert len(tracer.spans) > 100
    assert sum(tracer.self_times()) == pytest.approx(root.duration,
                                                     rel=0.01)


def _latencies(workload, tmp_path):
    state = workload.setup(0, tmp_path)
    result = workload.run_unit(state, 0).output
    due = np.percentile(wl.due_latencies(result.responses, state["due"]), 99)
    return due, result.stats


def test_due_time_p99_equals_the_program_p99_without_retries(tmp_path):
    due_p99, stats = _latencies(tiny("serve_hot"), tmp_path)
    assert stats.retried == 0 and stats.hedges == 0
    assert due_p99 == stats.p99_latency_s


def test_due_time_p99_covers_retries_the_program_under_counts(tmp_path):
    squeezed = tiny("serve_hot", queue_capacity=2, max_batch_size=2,
                    rate_rps=400_000.0, max_attempts=6)
    due_p99, stats = _latencies(squeezed, tmp_path)
    assert stats.retried > 0
    assert due_p99 >= stats.p99_latency_s


def _results(values):
    return [{"workloads": {"serve_hot": {"metrics": {
        "throughput": {"value": v, "unit": "1/s"}}}}} for v in values]


def test_compare_flags_regressions_and_unresolved_spreads(spec):
    base = _results([100.0, 101.0, 99.0, 100.5])
    verdict = {label: compare_sets(spec, base, _results(head))[0]["verdict"]
               for label, head in {"ok": [99.5, 100.0, 101.0],
                                   "slow": [50.0, 51.0, 49.0],
                                   "noisy": [60.0, 100.0, 160.0]}.items()}
    assert verdict == {"ok": "ok", "slow": "regression",
                       "noisy": "unresolved"}


def test_run_py_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks" / "perf",
                    tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload",
         "serve_hot", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
