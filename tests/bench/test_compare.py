"""Tolerance-band edge cases for the regression gate."""

import math

import pytest

from repro.bench.compare import (DEFAULT_TOLERANCE, classify_direction,
                                 compare_directories, compare_ledgers)
from repro.bench.ledger import (LEDGER_SCHEMA_VERSION, Ledger, LedgerEntry,
                                write_ledger)
from repro.errors import BenchError


def ledger_dict(metrics, area="serve", workload="w", seed=0,
                fingerprint="abc", schema_version=LEDGER_SCHEMA_VERSION):
    return {
        "schema_version": schema_version,
        "area": area,
        "entries": [{
            "workload": workload,
            "seed": seed,
            "fingerprint": fingerprint,
            "config": {},
            "metrics": dict(metrics),
        }],
    }


class TestDirections:
    def test_name_patterns(self):
        assert classify_direction("p95_latency_s", 1.0, 1.0) == "lower"
        assert classify_direction("throughput_rps", 1.0, 1.0) == "higher"
        assert classify_direction("cache_bytes", 10, 11) == "lower"
        assert classify_direction("sm_efficiency", 0.5, 0.5) == "higher"

    def test_bare_integers_are_exact(self):
        assert classify_direction("num_graphs", 56, 56) == "exact"

    def test_unclassified_floats_drift(self):
        assert classify_direction("final_val_metric", 0.5, 0.5) == "drift"


class TestBands:
    def test_self_comparison_is_clean(self):
        d = ledger_dict({"p50_latency_s": 0.01, "served": 64})
        report = compare_ledgers(d, d)
        assert report.ok and len(report.deltas) == 2

    def test_exactly_at_threshold_passes(self):
        base = ledger_dict({"p50_latency_s": 1.0})
        cand = ledger_dict({"p50_latency_s": 1.0 + DEFAULT_TOLERANCE})
        assert compare_ledgers(base, cand).ok

    def test_just_over_threshold_fails(self):
        base = ledger_dict({"p50_latency_s": 1.0})
        cand = ledger_dict({"p50_latency_s": 1.101})
        report = compare_ledgers(base, cand)
        assert [d.metric for d in report.regressions] == ["p50_latency_s"]

    def test_improvement_on_lower_metric_passes(self):
        base = ledger_dict({"p50_latency_s": 1.0})
        cand = ledger_dict({"p50_latency_s": 0.5})
        assert compare_ledgers(base, cand).ok

    def test_higher_direction_flags_drop(self):
        base = ledger_dict({"throughput_rps": 100.0})
        cand = ledger_dict({"throughput_rps": 89.0})
        assert not compare_ledgers(base, cand).ok

    def test_drift_is_two_sided(self):
        base = ledger_dict({"final_val_metric": 1.0})
        up = ledger_dict({"final_val_metric": 1.2})
        down = ledger_dict({"final_val_metric": 0.8})
        assert not compare_ledgers(base, up).ok
        assert not compare_ledgers(base, down).ok

    def test_exact_counter_change_fails_regardless_of_size(self):
        base = ledger_dict({"num_graphs": 56})
        cand = ledger_dict({"num_graphs": 57})
        assert not compare_ledgers(base, cand).ok

    def test_custom_tolerance(self):
        base = ledger_dict({"p50_latency_s": 1.0})
        cand = ledger_dict({"p50_latency_s": 1.15})
        assert compare_ledgers(base, cand, tolerance=0.2).ok
        assert not compare_ledgers(base, cand, tolerance=0.1).ok

    @pytest.mark.parametrize("tolerance",
                             [math.nan, math.inf, -math.inf, -1.0])
    def test_tolerance_must_be_finite_and_non_negative(self, tolerance):
        base = ledger_dict({"p99_latency_s": 1.0})
        cand = ledger_dict({"p99_latency_s": 5.0})
        with pytest.raises(BenchError, match="tolerance"):
            compare_ledgers(base, cand, tolerance=tolerance)

    def test_zero_tolerance_is_allowed(self):
        base = ledger_dict({"p99_latency_s": 1.0, "served": 14})
        assert compare_ledgers(base, base, tolerance=0.0).ok


class TestZeroAndNaN:
    def test_zero_baseline_equal_passes(self):
        d = ledger_dict({"dropped": 0})
        assert compare_ledgers(d, d).ok

    def test_zero_baseline_increase_fails(self):
        base = ledger_dict({"resume_max_abs_diff": 0.0})
        cand = ledger_dict({"resume_max_abs_diff": 0.001})
        report = compare_ledgers(base, cand)
        assert not report.ok
        assert "zero baseline" in report.regressions[0].reason

    def test_zero_baseline_higher_metric_zero_candidate_passes(self):
        d = ledger_dict({"schedule_hits": 0})
        assert compare_ledgers(d, d).ok

    def test_nan_on_one_side_fails(self):
        base = ledger_dict({"final_val_metric": 1.0})
        cand = ledger_dict({"final_val_metric": math.nan})
        assert not compare_ledgers(base, cand).ok
        assert not compare_ledgers(cand, base).ok

    def test_nan_on_both_sides_passes(self):
        d = ledger_dict({"final_val_metric": math.nan})
        assert compare_ledgers(d, d).ok


class TestShapeMismatches:
    def test_metric_missing_from_candidate_is_regression(self):
        base = ledger_dict({"served": 64, "dropped": 0})
        cand = ledger_dict({"served": 64})
        report = compare_ledgers(base, cand)
        assert [d.metric for d in report.regressions] == ["dropped"]

    def test_metric_new_in_candidate_is_note_only(self):
        base = ledger_dict({"served": 64})
        cand = ledger_dict({"served": 64, "dropped": 0})
        report = compare_ledgers(base, cand)
        assert report.ok and any("new metric" in n for n in report.notes)

    def test_workload_missing_from_candidate_is_regression(self):
        base = ledger_dict({"served": 64})
        cand = ledger_dict({"served": 64}, workload="other")
        report = compare_ledgers(base, cand)
        assert not report.ok
        assert report.regressions[0].reason.startswith("workload missing")

    def test_fingerprint_change_is_note_not_regression(self):
        base = ledger_dict({"served": 64}, fingerprint="abc")
        cand = ledger_dict({"served": 64}, fingerprint="def")
        report = compare_ledgers(base, cand)
        assert report.ok and any("fingerprint" in n for n in report.notes)

    def test_schema_version_mismatch_raises(self):
        base = ledger_dict({"served": 64})
        cand = ledger_dict({"served": 64},
                           schema_version=LEDGER_SCHEMA_VERSION + 1)
        with pytest.raises(BenchError):
            compare_ledgers(base, cand)

    def test_area_mismatch_raises(self):
        base = ledger_dict({"served": 64}, area="serve")
        cand = ledger_dict({"served": 64}, area="train")
        with pytest.raises(BenchError):
            compare_ledgers(base, cand)


class TestDirectories:
    def _write(self, directory, metrics, area="serve"):
        ledger = Ledger(area=area, entries=(
            LedgerEntry(workload="w", seed=0, fingerprint="abc",
                        metrics=metrics),))
        write_ledger(ledger, directory)

    def test_compares_each_baseline_area(self, tmp_path):
        self._write(tmp_path / "base", {"served": 1}, area="serve")
        self._write(tmp_path / "base", {"epochs": 3}, area="train")
        self._write(tmp_path / "cand", {"served": 1}, area="serve")
        self._write(tmp_path / "cand", {"epochs": 3}, area="train")
        reports = compare_directories(tmp_path / "base", tmp_path / "cand")
        assert sorted(r.area for r in reports) == ["serve", "train"]
        assert all(r.ok for r in reports)

    def test_candidate_area_missing_raises(self, tmp_path):
        self._write(tmp_path / "base", {"served": 1})
        (tmp_path / "cand").mkdir()
        with pytest.raises(BenchError):
            compare_directories(tmp_path / "base", tmp_path / "cand")

    def test_empty_baseline_dir_raises(self, tmp_path):
        (tmp_path / "base").mkdir()
        with pytest.raises(BenchError):
            compare_directories(tmp_path / "base", tmp_path / "base")
