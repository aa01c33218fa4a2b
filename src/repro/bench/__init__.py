"""Benchmark harness: deterministic workloads behind the ``BENCH_*.json`` ledgers.

``repro.bench`` runs seeded workloads over the stack and writes one
machine-readable ``BENCH_<area>.json`` ledger per area (``pipeline``,
``serve``, ``kernels``, ``train``, ``cluster``, ``stream``), plus a
``compare`` gate that diffs a candidate run against the committed
baselines in ``benchmarks/baselines/`` with per-metric tolerance
bands.  Every ledger number is simulated and replays byte for byte;
wall-clock time is measured by ``benchmarks/perf``.  See
``docs/benchmarking.md`` for the schema reference and workflow.

Layering: a *top layer* alongside ``repro.serve`` — it may import the
whole stack, nothing below imports it.
"""

from repro.bench.compare import (CompareReport, DEFAULT_TOLERANCE, Delta,
                                 compare_directories, compare_ledgers)
from repro.bench.ledger import (AREAS, LEDGER_SCHEMA_VERSION, Ledger,
                                LedgerEntry, ledger_filename, ledger_path,
                                load_ledger, replay_bytes, write_ledger)
from repro.bench.runners import run_area, run_areas
from repro.bench.workloads import WORKLOADS, workloads_for

__all__ = [
    "AREAS",
    "CompareReport",
    "DEFAULT_TOLERANCE",
    "Delta",
    "LEDGER_SCHEMA_VERSION",
    "Ledger",
    "LedgerEntry",
    "WORKLOADS",
    "compare_directories",
    "compare_ledgers",
    "ledger_filename",
    "ledger_path",
    "load_ledger",
    "run_area",
    "run_areas",
    "workloads_for",
    "write_ledger",
]
