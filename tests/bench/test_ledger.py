"""Ledger format: validation, replay surface, round-trips."""

import json

import pytest

from repro.bench.ledger import (AREAS, LEDGER_SCHEMA_VERSION, Ledger,
                                LedgerEntry, ledger_filename, ledger_path,
                                load_ledger, replay_bytes, validate_ledger,
                                write_ledger)
from repro.errors import BenchError


def entry(**overrides):
    base = dict(workload="w", seed=0, fingerprint="abc",
                config={"dataset": "ZINC"},
                metrics={"served": 3, "p50_latency_s": 0.01})
    base.update(overrides)
    return LedgerEntry(**base)


class TestLedgerEntry:
    def test_replay_surface_excludes_wall(self):
        surface = entry().replay_surface()
        assert set(surface) == {"workload", "seed", "fingerprint",
                                "config", "metrics"}
        assert list(surface["metrics"]) == ["p50_latency_s", "served"]

    def test_non_numeric_metric_rejected(self):
        with pytest.raises(BenchError):
            entry(metrics={"served": "three"})

    def test_bool_metric_rejected(self):
        with pytest.raises(BenchError):
            entry(metrics={"served": True})

    def test_empty_workload_name_rejected(self):
        with pytest.raises(BenchError):
            entry(workload="")


class TestLedger:
    def test_duplicate_workload_names_rejected(self):
        with pytest.raises(BenchError):
            Ledger(area="serve", entries=(entry(), entry()))

    def test_unknown_area_rejected(self):
        with pytest.raises(BenchError):
            Ledger(area="nonsense", entries=(entry(),))

    def test_entries_serialised_in_name_order(self):
        ledger = Ledger(area="serve",
                        entries=(entry(workload="zz"),
                                 entry(workload="aa")))
        names = [e["workload"] for e in ledger.to_json_dict()["entries"]]
        assert names == ["aa", "zz"]


class TestFiles:
    def test_filename_per_area(self):
        assert [ledger_filename(a) for a in AREAS] == [
            "BENCH_pipeline.json", "BENCH_serve.json",
            "BENCH_kernels.json", "BENCH_train.json",
            "BENCH_cluster.json", "BENCH_stream.json"]

    def test_unknown_area_filename_rejected(self):
        with pytest.raises(BenchError):
            ledger_filename("wall")

    def test_write_load_round_trip(self, tmp_path):
        ledger = Ledger(area="pipeline", entries=(entry(),))
        path = write_ledger(ledger, tmp_path)
        assert path == ledger_path(tmp_path, "pipeline")
        data = load_ledger(path)
        assert data["schema_version"] == LEDGER_SCHEMA_VERSION
        assert data == ledger.to_json_dict()

    def test_load_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "BENCH_serve.json"
        path.write_text("{not json")
        with pytest.raises(BenchError):
            load_ledger(path)

    def test_load_rejects_missing_file(self, tmp_path):
        with pytest.raises(BenchError):
            load_ledger(tmp_path / "BENCH_serve.json")

    def test_validate_rejects_non_dict_root(self):
        with pytest.raises(BenchError):
            validate_ledger([1, 2, 3])

    def test_validate_rejects_missing_keys(self):
        with pytest.raises(BenchError):
            validate_ledger({"area": "serve", "entries": []})

    def test_validate_rejects_keys_outside_the_surface(self):
        data = Ledger(area="serve", entries=(entry(),)).to_json_dict()
        validate_ledger(data)
        with pytest.raises(BenchError, match="'environment'"):
            validate_ledger(dict(data, environment={}))
        data["entries"][0]["wall"] = {"cold_wall_s": 1.25}
        with pytest.raises(BenchError, match="'wall'"):
            validate_ledger(data)

    def test_validate_rejects_non_numeric_metric(self):
        data = Ledger(area="serve", entries=(entry(),)).to_json_dict()
        data["entries"][0]["metrics"]["p50_latency_s"] = "fast"
        with pytest.raises(BenchError, match="p50_latency_s"):
            validate_ledger(data)


class TestReplaySurface:
    def test_strips_environment_and_wall(self, tmp_path):
        ledger = Ledger(area="train", entries=(entry(),))
        data = load_ledger(write_ledger(ledger, tmp_path))
        assert set(data) == {"schema_version", "area", "entries"}
        assert all(set(e) == {"workload", "seed", "fingerprint", "config",
                              "metrics"} for e in data["entries"])

    def test_same_ledger_writes_identical_bytes(self, tmp_path):
        ledger = Ledger(area="train", entries=(entry(),))
        a = write_ledger(ledger, tmp_path / "a")
        b = write_ledger(ledger, tmp_path / "b")
        assert a.read_bytes() == b.read_bytes()
        assert (replay_bytes(load_ledger(a))
                == replay_bytes(ledger.to_json_dict()))

    def test_bytes_reject_keys_outside_the_surface(self):
        data = Ledger(area="train", entries=(entry(),)).to_json_dict()
        with pytest.raises(BenchError):
            replay_bytes(dict(data, environment={}))

    def test_bytes_differ_on_metric_change(self):
        ledger_a = Ledger(area="serve", entries=(entry(),))
        ledger_b = Ledger(
            area="serve",
            entries=(entry(metrics={"served": 4,
                                    "p50_latency_s": 0.01}),))
        assert (replay_bytes(ledger_a.to_json_dict())
                != replay_bytes(ledger_b.to_json_dict()))

