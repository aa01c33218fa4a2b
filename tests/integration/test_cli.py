"""Command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_defaults(self):
        args = build_parser().parse_args(["train"])
        assert args.dataset == "ZINC"
        assert args.method == "mega"

    def test_dataset_choices_match_loader_registry(self):
        # The CLI keeps a literal list so --help needs no heavy
        # imports; this pins it to the real registry.
        from repro.cli import DATASETS
        from repro.datasets import LOADERS

        assert sorted(DATASETS) == sorted(LOADERS)

    def test_model_choices_match_model_registry(self):
        from repro.cli import MODELS
        from repro.train.trainer import MODEL_CLASSES

        assert sorted(MODELS) == sorted(MODEL_CLASSES)


class TestScaleBoundary:
    """``--scale`` must be finite and > 0: NaN used to exit 1 with a
    traceback from the loaders, and 0 or -1 silently built the
    8-graphs-per-split floor."""

    @pytest.mark.parametrize("scale", ["nan", "inf", "-1", "0"])
    def test_stats_rejects_bad_scale(self, scale, capsys):
        assert main(["stats", "--scale", scale]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: scale must be")


class TestRateBoundary:
    """``--rate`` must be finite and > 0: ``serve --rate 0`` used to die
    with a ZeroDivisionError traceback, ``serve --rate -5`` served
    requests submitted at negative times, ``loadtest --rate inf`` was
    accepted and NaN failed deep inside the clock."""

    @pytest.mark.parametrize("rate", ["0", "-5", "nan", "inf"])
    @pytest.mark.parametrize("command", ["serve", "loadtest"])
    def test_bad_rate_exits_2(self, command, rate, tmp_path, capsys):
        assert main([command, "--rate", rate, "--scale", "0.004",
                     "--cache-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: rate must be")


class TestLoadFlagBoundary:
    """The load flags are checked once, in the CLI's load builder.

    Before, ``cluster --pool -3`` served from ``test[:-3]`` and
    ``stream --pool -6`` from a shortened table, ``--retries -2`` was
    read as 0, ``loadtest --replicas 0`` fell back to the single server
    and ``serve --requests -2`` exited 0 having served nothing."""

    @pytest.mark.parametrize("argv, message", [
        (["cluster", "--pool", "-3"], "--pool must be >= 1, got -3"),
        (["stream", "--pool", "-6"], "--pool must be >= 1, got -6"),
        (["loadtest", "--retries", "-2"], "--retries must be >= 0, got -2"),
        (["cluster", "--retries", "-2"], "--retries must be >= 0, got -2"),
        (["stream", "--retries", "-2"], "--retries must be >= 0, got -2"),
        (["loadtest", "--replicas", "0"], "num_replicas must be >= 1"),
        (["serve", "--requests", "-2"], "--requests must be >= 0, got -2"),
    ], ids=["cluster-pool", "stream-pool", "loadtest-retries",
            "cluster-retries", "stream-retries", "loadtest-replicas",
            "serve-requests"])
    def test_bad_load_flag_exits_2(self, argv, message, tmp_path, capsys):
        assert main([*argv, "--scale", "0.004",
                     "--cache-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert message in err[0]


class TestFaultPinBoundary:
    """A fault pinned on a replica outside the fleet used to be ignored:
    the run exited 0 as if no fault had been asked for."""

    @pytest.mark.parametrize("argv", [
        ["cluster", "--replicas", "3", "--crash-replica", "7"],
        ["cluster", "--replicas", "3", "--slow-replica", "7"],
        ["stream", "--replicas", "2", "--crash-replica", "5"],
    ], ids=["cluster-crash", "cluster-slow", "stream-crash"])
    def test_out_of_fleet_pin_exits_2(self, argv, tmp_path, capsys):
        assert main([*argv, "--scale", "0.004",
                     "--cache-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: fault plan pins replica")
        assert f"replica {argv[-1]} " in err[0]


class TestCommands:
    def test_stats(self, capsys):
        assert main(["stats", "--scale", "0.005"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "ZINC" in out and "CSL" in out

    def test_preprocess_roundtrip(self, tmp_path, capsys):
        out_file = tmp_path / "schedules.npz"
        code = main(["preprocess", "--dataset", "ZINC", "--scale", "0.003",
                     "--output", str(out_file)])
        assert code == 0
        from repro.core import load_schedules_npz

        schedules = load_schedules_npz(out_file)
        assert any(k.startswith("train/") for k in schedules)
        first = next(iter(schedules.values()))
        assert first.coverage == 1.0

    def test_profile(self, capsys):
        code = main(["profile", "--dataset", "ZINC", "--method", "mega",
                     "--batch-size", "16", "--hidden-dim", "32",
                     "--layers", "2", "--scale", "0.01"])
        assert code == 0
        out = capsys.readouterr().out
        assert "mega::band" in out

    def test_train(self, capsys):
        code = main(["train", "--dataset", "ZINC", "--scale", "0.004",
                     "--model", "GCN", "--hidden-dim", "16",
                     "--layers", "2", "--batch-size", "16",
                     "--epochs", "2", "--method", "baseline"])
        assert code == 0
        out = capsys.readouterr().out
        assert "epoch   2" in out

    def test_analyze(self, capsys):
        code = main(["analyze", "--dataset", "ZINC", "--scale", "0.003",
                     "--count", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "locality score" in out
        assert "coverage 100%" in out

    def test_compare(self, capsys):
        code = main(["compare", "--dataset", "ZINC", "--scale", "0.004",
                     "--model", "GCN", "--hidden-dim", "16",
                     "--layers", "2", "--batch-size", "16",
                     "--epochs", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "speedup" in out
