"""Tier-1 gate for the benchmark harness (mirrors the CI bench-smoke job).

Three promises, enforced here so a PR cannot silently break them:

1. **Byte-identical replay**: running every registered workload twice
   with the same seed yields identical replay surfaces per area.
2. **Self-comparison is clean**: ``run -> compare`` against the same
   run reports zero regressions (exit 0), and an injected >10%
   synthetic regression flips the exit code to 1.
3. **Docs stay honest**: every metric key documented in the
   ``docs/benchmarking.md`` reference tables appears in an emitted
   ledger, and every emitted key is documented.
4. **One committed truth per area**: each root ``BENCH_<area>.json``
   has the same replay surface as ``benchmarks/baselines``' copy.
"""

import json
import re
from pathlib import Path

import pytest

from repro.bench.cli import main as bench_main
from repro.bench.compare import compare_ledgers
from repro.bench.ledger import (AREAS, ledger_path, load_ledger,
                                replay_bytes)
from repro.bench.runners import run_areas
from repro.bench.workloads import WORKLOADS, workloads_for

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCHMARKING_MD = REPO_ROOT / "docs" / "benchmarking.md"


@pytest.fixture(scope="module")
def two_runs(tmp_path_factory):
    """Every area run twice with the same seed, into two directories."""
    first = tmp_path_factory.mktemp("bench-run1")
    second = tmp_path_factory.mktemp("bench-run2")
    run_areas(AREAS, seed=0, output_dir=first)
    run_areas(AREAS, seed=0, output_dir=second)
    return first, second


def test_workload_registry_covers_every_area():
    for area in AREAS:
        assert workloads_for(area), f"area {area!r} has no workloads"
    assert len(WORKLOADS) >= 8


def test_run_produces_every_ledger(two_runs):
    first, _ = two_runs
    for area in AREAS:
        assert ledger_path(first, area).is_file()


@pytest.mark.parametrize("area", AREAS)
def test_same_seed_runs_are_byte_identical(two_runs, area):
    first, second = two_runs
    a = replay_bytes(load_ledger(ledger_path(first, area)))
    b = replay_bytes(load_ledger(ledger_path(second, area)))
    assert a == b, f"{area} replay surface differs between runs"


def test_self_comparison_reports_zero_regressions(two_runs):
    first, second = two_runs
    for area in AREAS:
        report = compare_ledgers(load_ledger(ledger_path(first, area)),
                                 load_ledger(ledger_path(second, area)))
        assert report.ok, report.lines(verbose=True)


def test_cli_self_compare_exits_zero(two_runs, capsys):
    first, second = two_runs
    code = bench_main(["compare", "--baseline", str(first),
                       "--candidate", str(second)])
    capsys.readouterr()
    assert code == 0


def test_cli_flags_injected_regression(two_runs, tmp_path, capsys):
    first, _ = two_runs
    path = ledger_path(first, "serve")
    data = json.loads(path.read_text())
    for entry in data["entries"]:
        entry["metrics"]["p95_latency_s"] *= 1.2
    out = tmp_path / "regressed"
    out.mkdir()
    for area in AREAS:
        target = ledger_path(out, area)
        if area == "serve":
            target.write_text(json.dumps(data))
        else:
            target.write_text(ledger_path(first, area).read_text())
    code = bench_main(["compare", "--baseline", str(first),
                       "--candidate", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert "REGRESSION" in captured.out


def test_cli_schema_mismatch_exits_two(two_runs, tmp_path, capsys):
    first, _ = two_runs
    out = tmp_path / "wrong-schema"
    out.mkdir()
    for area in AREAS:
        data = json.loads(ledger_path(first, area).read_text())
        data["schema_version"] += 1
        ledger_path(out, area).write_text(json.dumps(data))
    code = bench_main(["compare", "--baseline", str(first),
                       "--candidate", str(out)])
    capsys.readouterr()
    assert code == 2


def _documented_keys():
    """Metric keys from docs/benchmarking.md's per-area reference tables.

    The reference section lists one table per area; each metric row
    starts with ``| `key` |``.  Rows whose key contains ``<`` are
    templates (e.g. ``<label>.<column>``), not literal keys.
    """
    text = BENCHMARKING_MD.read_text(encoding="utf-8")
    keys = {}
    area = None
    for line in text.splitlines():
        heading = re.match(r"###\s+`BENCH_(\w+)\.json`", line)
        if heading:
            area = heading.group(1)
            continue
        row = re.match(r"\|\s*`([^`]+)`\s*\|", line)
        if row and area in AREAS and "<" not in row.group(1):
            keys.setdefault(area, set()).add(row.group(1))
    return keys


def test_docs_and_ledgers_agree_on_metric_keys(two_runs):
    first, _ = two_runs
    assert BENCHMARKING_MD.is_file(), "docs/benchmarking.md missing"
    documented = _documented_keys()
    for area in AREAS:
        emitted = set()
        for entry in load_ledger(ledger_path(first, area))["entries"]:
            emitted.update(entry["metrics"])
            emitted.update(entry["wall"])
        assert area in documented, f"no reference table for {area}"
        undocumented = emitted - documented[area]
        assert not undocumented, (
            f"{area}: emitted but undocumented keys {sorted(undocumented)}")
        phantom = documented[area] - emitted
        assert not phantom, (
            f"{area}: documented keys never emitted {sorted(phantom)}")


def test_committed_baselines_match_current_schema():
    baselines = REPO_ROOT / "benchmarks" / "baselines"
    for area in AREAS:
        path = ledger_path(baselines, area)
        assert path.is_file(), f"committed baseline missing: {path}"
        load_ledger(path)  # validates schema + structure


@pytest.mark.parametrize("area", AREAS)
def test_root_ledgers_match_committed_baselines(area):
    root = load_ledger(ledger_path(REPO_ROOT, area))
    baseline = load_ledger(ledger_path(REPO_ROOT / "benchmarks" / "baselines",
                                       area))
    assert replay_bytes(root) == replay_bytes(baseline), (
        f"BENCH_{area}.json and benchmarks/baselines/BENCH_{area}.json "
        "disagree; refresh both from one `python -m repro.bench run`")
