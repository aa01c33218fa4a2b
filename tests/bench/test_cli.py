"""CLI surface of the bench harness (cheap paths only; the heavy
run/compare flow is covered by tests/test_bench_gate.py)."""

import json

import pytest

from repro.bench import runners
from repro.bench.cli import main as bench_main
from repro.bench.ledger import Ledger, LedgerEntry, ledger_path, write_ledger
from repro.cli import main as repro_main


def write_serve_ledger(directory, metrics):
    write_ledger(Ledger(area="serve", entries=(
        LedgerEntry(workload="serve_poisson", seed=0, fingerprint="abc",
                    metrics=metrics),)), directory)


class TestBenchCli:
    def test_list_prints_every_area(self, capsys):
        assert bench_main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("BENCH_pipeline.json", "BENCH_serve.json",
                     "BENCH_kernels.json", "BENCH_train.json"):
            assert name in out

    def test_run_without_selection_is_an_error(self, capsys):
        assert bench_main(["run"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_run_unknown_area_is_an_error(self, tmp_path, capsys):
        assert bench_main(["run", "--areas", "nonsense",
                           "--output-dir", str(tmp_path)]) == 2
        assert "nonsense" in capsys.readouterr().err
        # A bad name after a good one fails before any area runs.
        assert bench_main(["run", "--areas", "pipeline", "nonsense",
                           "--output-dir", str(tmp_path)]) == 2
        assert "nonsense" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_repeated_area_runs_once(self, tmp_path, monkeypatch, capsys):
        ran = []

        def fake_run_area(area, seed=0):
            ran.append(area)
            return Ledger(area=area, entries=(
                LedgerEntry(workload="w", seed=seed, fingerprint="abc",
                            metrics={"served": 1}),))

        monkeypatch.setattr(runners, "run_area", fake_run_area)
        assert bench_main(["run", "--areas", "train", "serve", "train",
                           "--output-dir", str(tmp_path)]) == 0
        assert ran == ["train", "serve"]
        assert capsys.readouterr().out.count("BENCH_train.json") == 1

    def test_compare_missing_baseline_dir_is_an_error(self, tmp_path,
                                                      capsys):
        assert bench_main(["compare", "--baseline",
                           str(tmp_path / "nope"),
                           "--candidate", str(tmp_path)]) == 2
        capsys.readouterr()


class TestCompareInputErrors:
    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-1"])
    def test_bad_tolerance_exits_two(self, tmp_path, capsys, tolerance):
        metrics = {"p99_latency_s": 1.0, "served": 14}
        write_serve_ledger(tmp_path / "base", metrics)
        write_serve_ledger(tmp_path / "cand",
                           dict(metrics, p99_latency_s=5.0))
        code = bench_main(["compare", "--baseline", str(tmp_path / "base"),
                           "--candidate", str(tmp_path / "cand"),
                           "--tolerance", tolerance])
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert code == 2
        assert captured.out == ""
        assert len(err) == 1 and err[0].startswith("error: tolerance")

    def test_non_numeric_metric_exits_two(self, tmp_path, capsys):
        write_serve_ledger(tmp_path / "base", {"p50_latency_s": 0.01})
        write_serve_ledger(tmp_path / "cand", {"p50_latency_s": 0.01})
        path = ledger_path(tmp_path / "cand", "serve")
        data = json.loads(path.read_text())
        data["entries"][0]["metrics"]["p50_latency_s"] = "fast"
        path.write_text(json.dumps(data))
        code = bench_main(["compare", "--baseline", str(tmp_path / "base"),
                           "--candidate", str(tmp_path / "cand")])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error:")
        assert "p50_latency_s" in err[0]


class TestReproCliPassthrough:
    def test_bench_subcommand_forwards(self, capsys):
        assert repro_main(["bench", "list"]) == 0
        assert "BENCH_serve.json" in capsys.readouterr().out

    def test_bench_forwards_exit_codes(self, tmp_path, capsys):
        code = repro_main(["bench", "compare", "--baseline",
                           str(tmp_path), "--candidate", str(tmp_path)])
        capsys.readouterr()
        assert code == 2
