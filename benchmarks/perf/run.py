"""Run one benchmark workload: the command ``BENCHMARK.json`` names.

Usage, from the repository root::

    python3 benchmarks/perf/run.py --workload serve_hot --seed 0 \\
        --seconds 10 --trace 0

The load shape is one process and one thread, so the BLAS thread
variables are pinned before numpy is first imported.  The program is
imported from ``src/`` of the same checkout; without it the benchmark
exits with an error and prints no result.
"""

import os
import sys
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

_ROOT = Path(__file__).resolve().parents[2]

if __name__ == "__main__":
    if not (_ROOT / "src" / "repro").is_dir():
        sys.exit(f"error: no program sources at {_ROOT / 'src' / 'repro'}")
    # Replace this directory (sys.path[0]) so its module names cannot
    # shadow top-level imports.
    sys.path[0:1] = [str(_ROOT), str(_ROOT / "src")]
    from benchmarks.perf.cli import main

    sys.exit(main(["one", *sys.argv[1:]]))
