"""Every example script runs to completion (miniature settings)."""

import runpy
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"

FAST_EXAMPLES = [
    "quickstart.py",
    "isomorphism_check.py",
    "path_visualization.py",
    "custom_model.py",
    "profile_gpu_kernels.py",
    "heterogeneous_paths.py",
    "serving_loadtest.py",
]

ARG_EXAMPLES = [
    ("distributed_partitioning.py", ["--nodes", "200"]),
    ("dynamic_stream.py", ["--updates", "40", "--nodes", "60"]),
    ("molecular_regression.py", ["--epochs", "2", "--scale", "0.005"]),
    ("fault_tolerant_run.py", ["--epochs", "3", "--scale", "0.004"]),
    ("cluster_loadtest.py", ["--requests", "32", "--scale", "0.004",
                             "--recover-after", "0.03",
                             "--slow-replica", "2",
                             "--slow-factor", "4.0"]),
    ("streaming_updates.py", ["--events", "32", "--scale", "0.004",
                              "--delta-fraction", "0.3"]),
]


@pytest.mark.parametrize("script", FAST_EXAMPLES)
def test_example_runs(script):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / script)],
        capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip()


@pytest.mark.parametrize("script,args", ARG_EXAMPLES)
def test_example_with_args_runs(script, args):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / script), *args],
        capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stderr[-2000:]


def test_quickstart_reports_speedup():
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / "quickstart.py")],
        capture_output=True, text=True, timeout=600)
    assert "MEGA speedup" in result.stdout
