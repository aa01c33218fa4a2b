"""``python -m repro.bench`` — run workloads, compare ledgers, list areas.

Exit-code contract (shared with ``repro.cli``):

* ``0`` — success / no regression;
* ``1`` — ``compare`` found at least one regression;
* ``2`` — :class:`~repro.errors.ReproError` (bad ledger, unknown area,
  missing file), reported as a single stderr line.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.errors import ReproError


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Benchmark harness: deterministic workloads -> "
                    "BENCH_*.json ledgers (see docs/benchmarking.md)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run workloads and write ledgers")
    p.add_argument("--all", action="store_true",
                   help="run every area (pipeline, serve, kernels, "
                        "train, cluster, stream)")
    p.add_argument("--areas", nargs="+", metavar="AREA",
                   help="subset of areas to run")
    p.add_argument("--seed", type=int, default=0,
                   help="workload seed (default 0)")
    p.add_argument("--output-dir", default=".",
                   help="where BENCH_*.json files go (default: cwd)")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("compare",
                       help="diff candidate ledgers against a baseline")
    p.add_argument("--baseline", default="benchmarks/baselines",
                   help="directory holding the committed baseline "
                        "ledgers (default: benchmarks/baselines)")
    p.add_argument("--candidate", default=".",
                   help="directory holding the candidate ledgers "
                        "(default: cwd)")
    p.add_argument("--areas", nargs="+", metavar="AREA",
                   help="subset of areas (default: every area present "
                        "in the baseline directory)")
    p.add_argument("--tolerance", type=float, default=None,
                   help="relative tolerance band (default 0.10)")
    p.add_argument("--verbose", action="store_true",
                   help="print every metric delta, not only regressions")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("list", help="list areas and registered workloads")
    p.set_defaults(func=cmd_list)
    return parser


def cmd_run(args) -> int:
    from repro.bench.ledger import AREAS
    from repro.bench.runners import run_areas
    from repro.errors import BenchError

    if args.all:
        areas = list(AREAS)
    elif args.areas:
        areas = args.areas
    else:
        raise BenchError("bench run needs --all or --areas AREA [...]")
    run_areas(areas, seed=args.seed, output_dir=args.output_dir,
              progress=print)
    return 0


def cmd_compare(args) -> int:
    from repro.bench.compare import DEFAULT_TOLERANCE, compare_directories

    tolerance = (DEFAULT_TOLERANCE if args.tolerance is None
                 else args.tolerance)
    reports = compare_directories(args.baseline, args.candidate,
                                  areas=args.areas, tolerance=tolerance)
    failed = False
    for report in reports:
        for line in report.lines(verbose=args.verbose):
            print(line)
        failed = failed or not report.ok
    return 1 if failed else 0


def cmd_list(args) -> int:
    from repro.bench.ledger import AREAS, ledger_filename
    from repro.bench.workloads import workloads_for

    for area in AREAS:
        print(f"{area}  ->  {ledger_filename(area)}")
        for workload in workloads_for(area):
            print(f"  {workload.name}: {workload.description}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
