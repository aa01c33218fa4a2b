"""Benchmark harness: deterministic workloads behind the ``BENCH_*.json`` ledgers.

``repro.bench`` turns the repo's perf story from pytest stdout into
machine-readable ledgers at the repo root — one ``BENCH_<area>.json``
per area (``pipeline``, ``serve``, ``kernels``, ``train``) — plus a
``compare`` gate that diffs a candidate run against a committed
baseline with per-metric tolerance bands.  See ``docs/benchmarking.md``
for the schema reference and workflow.

Layering: a *top layer* alongside ``repro.serve`` — it may import the
whole stack, nothing below imports it.
"""

from repro.bench.compare import (CompareReport, DEFAULT_TOLERANCE, Delta,
                                 compare_directories, compare_ledgers)
from repro.bench.ledger import (AREAS, LEDGER_SCHEMA_VERSION, Ledger,
                                LedgerEntry, environment_block,
                                ledger_filename, ledger_path, load_ledger,
                                replay_bytes, replay_surface, write_ledger)
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
    "environment_block",
    "ledger_filename",
    "ledger_path",
    "load_ledger",
    "replay_surface",
    "run_area",
    "run_areas",
    "workloads_for",
    "write_ledger",
]
