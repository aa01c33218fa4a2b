"""Command line: ``one`` workload, a ``run`` of all four, ``compare``.

``benchmarks/perf/run.py`` is ``one``; ``python -m benchmarks.perf``
takes the subcommand.  ``one`` prints one line per metric and, as its
last line, the JSON result; it exits 1 when an output check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parents[2]
RUN_PY = Path(__file__).resolve().parent / "run.py"
OUT_DIR = ROOT / ".perfbench"
WORKLOAD_NAMES = ("serve_hot", "stream_churn", "train_gt",
                  "preprocess_cold_warm")


def load_spec() -> dict:
    """``BENCHMARK.json`` from the repository root."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _seconds(args) -> float:
    return load_spec()["run_seconds"] if args.seconds is None \
        else args.seconds


def _one(args) -> int:
    from benchmarks.perf.runner import run_workload
    from benchmarks.perf.workloads import WORKLOADS

    seconds = _seconds(args)
    work_dir = OUT_DIR / "tmp" / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        result = run_workload(
            WORKLOADS[args.workload], args.seed, seconds, work_dir,
            trace_dir=Path(args.trace_dir) if args.trace else None)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    notes = result.pop("notes")
    for name, metric in result["metrics"].items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{args.workload} {name} = {metric['value']:.6g} "
              f"{metric['unit']}{note}")
    if "trace" in notes:
        print(f"{args.workload} trace written to {notes['trace']}")
    for failure in result.pop("failures"):
        print(f"{args.workload} CHECK FAILED: {failure}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _spawn(workload: str, seed: int, seconds: float,
           trace_dir: Optional[str]) -> Optional[dict]:
    """Run ``one`` in a fresh process; its parsed result, or None."""
    cmd = [sys.executable, str(RUN_PY), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace_dir else "0"]
    if trace_dir:
        cmd += ["--trace-dir", trace_dir]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode not in (0, 1) or not lines:
        print(f"{workload}: exited {proc.returncode}\n{proc.stderr}",
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def _run(args) -> int:
    seconds = _seconds(args)
    trace_dir = str(Path(args.trace).resolve()) if args.trace else None
    results: Dict[str, dict] = {}
    ok = True
    for name in WORKLOAD_NAMES:
        timed = _spawn(name, args.seed, seconds, None)
        traced = (_spawn(name, args.seed, seconds, trace_dir)
                  if trace_dir and timed is not None else None)
        if timed is None or (args.trace and traced is None):
            ok = False
            continue
        if traced is not None:
            timed["per_layer"] = traced["metrics"]
            timed["correct"] = timed["correct"] and traced["correct"]
        ok = ok and timed["correct"]
        results[name] = timed
    out = Path(args.out or OUT_DIR / "results" / f"seed{args.seed}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"seed": args.seed, "seconds": seconds,
                               "workloads": results}, indent=1))
    print(f"results written to {out}")
    return 0 if ok else 1


def compare_sets(spec: dict, base: List[dict],
                 head: List[dict]) -> List[dict]:
    """One row per (workload, end-to-end metric) present on both sides.

    A row is ``regression`` when the head median is worse than the base
    median by more than the metric's bound, ``unresolved`` when either
    side's quartile spread is wider than the bound (unless every head
    run beats every base run), and ``ok`` otherwise.
    """
    rows = []
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        sign = 1.0 if metric["better"] == "lower" else -1.0
        for workload in WORKLOAD_NAMES:
            sides = [[r["workloads"][workload]["metrics"][name]["value"]
                      for r in results
                      if name in r["workloads"].get(workload, {})
                      .get("metrics", {})]
                     for results in (base, head)]
            if not all(len(values) >= 3 for values in sides):
                continue
            stats = [statistics.quantiles(values, n=4) for values in sides]
            base_med, head_med = stats[0][1], stats[1][1]
            worse = sign * (head_med - base_med) / base_med
            spread = max((q3 - q1) / med for q1, med, q3 in stats)
            all_better = all(sign * (h - b) < 0
                             for h in sides[1] for b in sides[0])
            if worse > bound:
                verdict = "regression"
            elif spread > bound and not all_better:
                verdict = "unresolved"
            else:
                verdict = "ok"
            rows.append({"workload": workload, "metric": name,
                         "base": stats[0], "head": stats[1],
                         "change": worse, "spread": spread,
                         "bound": bound, "verdict": verdict})
    return rows


def _compare(args) -> int:
    sets = []
    for files in (args.base, args.head):
        if len(files) < 3:
            print("compare needs at least 3 result files per side",
                  file=sys.stderr)
            return 2
        sets.append([json.loads(Path(f).read_text()) for f in files])
    rows = compare_sets(load_spec(), *sets)
    for row in rows:
        (b1, bm, b3), (h1, hm, h3) = row["base"], row["head"]
        print(f"{row['workload']:<21} {row['metric']:<12} "
              f"base {bm:.5g} [{b1:.5g}, {b3:.5g}]  "
              f"head {hm:.5g} [{h1:.5g}, {h3:.5g}]  "
              f"worse {row['change']:+.2%} spread {row['spread']:.2%} "
              f"bound {row['bound']:.0%}  {row['verdict']}")
    return 1 if any(r["verdict"] == "regression" for r in rows) else 0


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.perf")
    sub = parser.add_subparsers(dest="command", required=True)

    one = sub.add_parser("one", help="run one workload in this process")
    one.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    one.add_argument("--seed", type=int, default=0)
    one.add_argument("--seconds", type=float, default=None)
    one.add_argument("--trace", type=int, choices=(0, 1), default=0)
    one.add_argument("--trace-dir", default=str(OUT_DIR / "traces"))

    run = sub.add_parser("run", help="run every workload, each in its "
                                     "own process")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--seconds", type=float, default=None)
    run.add_argument("--trace", metavar="DIR", default=None,
                     help="also make a traced pass writing Chrome traces "
                          "to DIR")
    run.add_argument("--out", default=None, help="result JSON file")

    cmp = sub.add_parser("compare", help="compare two sets of run results")
    cmp.add_argument("--base", nargs="+", required=True)
    cmp.add_argument("--head", nargs="+", required=True)

    args = parser.parse_args(argv)
    return {"one": _one, "run": _run, "compare": _compare}[args.command](args)
