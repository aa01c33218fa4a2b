"""One workload, one process: set up, measure, check, report.

The timed pass installs nothing and yields the end-to-end metrics.  The
traced pass (``trace_dir`` given) runs the required units once with the
tracer installed and once without, and yields the per-layer metrics
plus the tracing overhead between the two.
"""

from __future__ import annotations

import resource
import statistics
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from benchmarks.perf.layers import SITES, UNITS, layer_metrics
from benchmarks.perf.tracer import Tracer
from benchmarks.perf.workloads import Unit

#: (name, unit) of every end-to-end metric, in report order.
END_TO_END: List[Tuple[str, str]] = [
    ("setup_s", "s"),
    ("throughput", "1/s"),
    ("sim_ms", "ms"),
    ("sim_speedup", "ratio"),
    ("peak_rss_mb", "MB"),
]

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5


def _timed_units(workload, state, seconds: float) -> List[Unit]:
    """Required units, then more while another typical unit still fits."""
    units: List[Unit] = []
    start = time.perf_counter()
    while True:
        units.append(workload.run_unit(state, len(units)))
        if len(units) < workload.required_units:
            continue
        if len(units) > workload.required_units:
            units[-1].output = None
        typical = statistics.median(u.wall_s for u in units)
        if time.perf_counter() - start + typical > seconds:
            return units


def _traced_units(workload, state,
                  tracer: Tracer) -> Tuple[List[Unit], List[Unit]]:
    """The required units traced, then the same count untraced."""
    traced = []
    for k in range(workload.required_units):
        tracer.install(SITES)
        try:
            with tracer.region(f"{workload.name}.unit{k}"):
                traced.append(workload.run_unit(state, k))
        finally:
            tracer.uninstall()
    untraced = [workload.run_unit(state, k)
                for k in range(workload.required_units)]
    for unit in untraced:
        unit.output = None
    return traced, untraced


def run_workload(workload, seed: int, seconds: float, work_dir: Path,
                 trace_dir: Optional[Path] = None) -> dict:
    """Run ``workload`` and return the result object the CLI prints.

    ``metrics`` maps each metric name to ``{"value", "unit"}`` and
    ``notes`` to a short description of its sample; ``failures`` lists
    every output-correctness check that did not hold.
    """
    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        state = workload.setup(seed, work_dir)
        setup_times.append(time.perf_counter() - start)

    notes: Dict[str, str] = {}
    if trace_dir is None:
        units = _timed_units(workload, state, seconds)
        rates = [items / wall for unit in units
                 for items, wall in unit.windows]
        values = {
            "setup_s": statistics.median(setup_times),
            "throughput": statistics.median(rates),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        notes["setup_s"] = f"median of {SETUP_REPEATS} set-ups"
        notes["throughput"] = (f"median of {len(rates)} windows over "
                               f"{len(units)} unit(s)")
        for name, (value, note) in workload.end_to_end(state, units).items():
            values[name] = value
            notes[name] = note
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    else:
        tracer = Tracer()
        traced, untraced = _traced_units(workload, state, tracer)
        units = traced + untraced
        overhead = (statistics.median(u.wall_s for u in traced)
                    / statistics.median(u.wall_s for u in untraced) - 1.0)
        facts = workload.facts(state, traced)
        facts["trace.overhead_pct"] = overhead * 100.0
        values = layer_metrics(tracer, facts,
                               items=sum(u.items for u in traced))
        metrics = {name: {"value": value, "unit": UNITS[name]}
                   for name, value in values.items()}
        trace_file = Path(trace_dir) / f"{workload.name}-seed{seed}.json"
        tracer.write_chrome(trace_file, workload.name)
        notes["trace"] = str(trace_file)

    failures = [p for unit in units for p in unit.problems]
    failures += workload.verify(state, units[:workload.required_units])
    return {
        "correct": not failures,
        "attempted": sum(u.items for u in units),
        "failed": sum(u.failed for u in units),
        "metrics": metrics,
        "notes": notes,
        "failures": failures,
    }
