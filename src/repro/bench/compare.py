"""The regression gate: diff a candidate ledger against a baseline.

Every metric gets a *direction* that decides what counts as worse:

* ``lower``  — smaller is better (latency, misses, bytes, loss, ...):
  regression when the candidate exceeds the baseline by **strictly more
  than** the tolerance band (default 10% — exactly-at-threshold passes).
* ``higher`` — larger is better (throughput, hits, efficiency, ...):
  symmetric, on the downside.
* ``exact``  — integer counters with no name-derived direction (graph
  counts, epochs): any change at all is a regression, because the
  workloads are deterministic.
* ``drift``  — unclassified floats: a two-sided band, catching silent
  numeric changes in either direction.

Directions are derived from metric-name patterns first and integer
types second, so ``*_bytes`` sizes get a band (archive overhead may
legitimately shift across numpy versions) while bare counters stay
exact.

Mismatched schema versions or areas, and a tolerance that is not a
finite number >= 0, are a :class:`BenchError` (exit 2), not a
regression: the caller is comparing incomparable files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.bench.ledger import AREAS, ledger_path, load_ledger
from repro.errors import BenchError

#: Relative tolerance band for float metrics: >10% worse fails.
DEFAULT_TOLERANCE = 0.10

#: Band around a zero baseline, where a relative band is undefined.
ZERO_BASELINE_ABS_TOLERANCE = 1e-9

#: Name fragments marking a metric as lower-is-better.
_LOWER_PATTERNS = (
    "latency", "miss", "dropped", "rejected", "retried", "stall",
    "waste", "dram", "transaction", "bytes", "loss", "diff", "mae",
    "queue_depth", "eviction", "invalidation", "quarantined", "_s",
)

#: Name fragments marking a metric as higher-is-better.
_HIGHER_PATTERNS = (
    "throughput", "hit", "efficiency", "occupancy", "served", "speedup",
    "coverage", "from_cache", "deduplicated",
)


def classify_direction(metric: str, baseline_value, candidate_value) -> str:
    """``lower`` / ``higher`` / ``exact`` / ``drift`` for one metric."""
    name = metric.lower()
    for pattern in _LOWER_PATTERNS:
        if pattern in name:
            return "lower"
    for pattern in _HIGHER_PATTERNS:
        if pattern in name:
            return "higher"
    if (isinstance(baseline_value, int) and isinstance(candidate_value, int)
            and not isinstance(baseline_value, bool)
            and not isinstance(candidate_value, bool)):
        return "exact"
    return "drift"


@dataclass(frozen=True)
class Delta:
    """One metric's baseline/candidate pair and its verdict."""

    workload: str
    metric: str
    baseline: Optional[float]
    candidate: Optional[float]
    direction: str
    regressed: bool
    reason: str = ""

    def describe(self) -> str:
        status = "REGRESSION" if self.regressed else "ok"
        detail = f" ({self.reason})" if self.reason else ""
        return (f"{status:10s} {self.workload}.{self.metric} "
                f"[{self.direction}] {self.baseline!r} -> "
                f"{self.candidate!r}{detail}")


@dataclass
class CompareReport:
    """Outcome of comparing one area's candidate ledger to its baseline."""

    area: str
    tolerance: float
    deltas: List[Delta] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    @property
    def regressions(self) -> List[Delta]:
        return [d for d in self.deltas if d.regressed]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def summary_line(self) -> str:
        verdict = ("ok" if self.ok
                   else f"{len(self.regressions)} regression(s)")
        return (f"bench[{self.area}]: {len(self.deltas)} metrics "
                f"compared at {self.tolerance:.0%} tolerance — {verdict}")

    def lines(self, verbose: bool = False) -> List[str]:
        out = [self.summary_line()]
        for delta in self.deltas:
            if delta.regressed or verbose:
                out.append("  " + delta.describe())
        for note in self.notes:
            out.append(f"  note: {note}")
        return out


def _is_nan(value) -> bool:
    return isinstance(value, float) and math.isnan(value)


def _evaluate(workload: str, metric: str, base, cand,
              tolerance: float) -> Delta:
    direction = classify_direction(metric, base, cand)
    if _is_nan(base) and _is_nan(cand):
        return Delta(workload, metric, base, cand, direction, False,
                     "both NaN")
    if _is_nan(base) or _is_nan(cand):
        return Delta(workload, metric, base, cand, direction, True,
                     "NaN on one side only")
    if direction == "exact":
        return Delta(workload, metric, base, cand, direction,
                     cand != base,
                     "" if cand == base else "exact counter changed")
    if base == 0:
        worse = abs(cand - base) > ZERO_BASELINE_ABS_TOLERANCE and (
            (direction == "lower" and cand > base)
            or (direction == "higher" and cand < base)
            or direction == "drift")
        return Delta(workload, metric, base, cand, direction, worse,
                     "zero baseline, absolute band" if worse else "")
    band = tolerance * abs(base)
    if direction == "lower":
        delta = cand - base
    elif direction == "higher":
        delta = base - cand
    else:  # drift
        delta = abs(cand - base)
    # Strictly greater than the band; the isclose guard keeps a value
    # that is exactly at threshold (modulo float rounding) passing.
    worse = delta > band and not math.isclose(delta, band, rel_tol=1e-9)
    reason = ""
    if worse:
        reason = f"{(cand - base) / abs(base):+.1%} vs ±{tolerance:.0%}"
    return Delta(workload, metric, base, cand, direction, worse, reason)


def compare_ledgers(baseline: Mapping, candidate: Mapping,
                    tolerance: float = DEFAULT_TOLERANCE) -> CompareReport:
    """Compare two parsed ledger dicts of the same area and schema."""
    if not (math.isfinite(tolerance) and tolerance >= 0):
        raise BenchError(
            f"tolerance must be finite and >= 0, got {tolerance!r}")
    if baseline.get("area") != candidate.get("area"):
        raise BenchError(
            f"cannot compare areas {baseline.get('area')!r} vs "
            f"{candidate.get('area')!r}")
    if baseline.get("schema_version") != candidate.get("schema_version"):
        raise BenchError(
            "ledger schema mismatch: baseline v"
            f"{baseline.get('schema_version')} vs candidate v"
            f"{candidate.get('schema_version')} — regenerate the "
            "baseline with the current harness")
    report = CompareReport(area=baseline["area"], tolerance=tolerance)
    base_entries = {e["workload"]: e for e in baseline.get("entries", [])}
    cand_entries = {e["workload"]: e for e in candidate.get("entries", [])}
    for name in sorted(base_entries):
        base_entry = base_entries[name]
        if name not in cand_entries:
            report.deltas.append(Delta(
                name, "<entry>", None, None, "exact", True,
                "workload missing from candidate"))
            continue
        cand_entry = cand_entries[name]
        if base_entry.get("fingerprint") != cand_entry.get("fingerprint"):
            report.notes.append(
                f"{name}: workload fingerprint changed — inputs or "
                "config differ; refresh the baseline if intentional")
        if base_entry.get("seed") != cand_entry.get("seed"):
            report.notes.append(
                f"{name}: seed differs (baseline "
                f"{base_entry.get('seed')}, candidate "
                f"{cand_entry.get('seed')})")
        base_metrics = base_entry.get("metrics", {})
        cand_metrics = cand_entry.get("metrics", {})
        for metric in sorted(base_metrics):
            if metric not in cand_metrics:
                report.deltas.append(Delta(
                    name, metric, base_metrics[metric], None, "exact",
                    True, "metric missing from candidate"))
                continue
            report.deltas.append(_evaluate(
                name, metric, base_metrics[metric], cand_metrics[metric],
                tolerance))
        for metric in sorted(cand_metrics):
            if metric not in base_metrics:
                report.notes.append(
                    f"{name}.{metric}: new metric (not in baseline) — "
                    "not gated until the baseline is refreshed")
    for name in sorted(cand_entries):
        if name not in base_entries:
            report.notes.append(
                f"{name}: new workload (not in baseline) — not gated")
    return report


def compare_directories(baseline_dir: Union[str, Path],
                        candidate_dir: Union[str, Path],
                        areas: Optional[Sequence[str]] = None,
                        tolerance: float = DEFAULT_TOLERANCE
                        ) -> List[CompareReport]:
    """Compare every requested area's ledger file between two directories.

    With ``areas=None``, compares each area whose ledger exists in the
    baseline directory; a baseline area missing from the candidate is a
    :class:`BenchError` (the candidate run is incomplete).  A repeated
    area is compared once, in the order it was first given.
    """
    baseline_dir, candidate_dir = Path(baseline_dir), Path(candidate_dir)
    if areas is not None:
        areas = list(dict.fromkeys(areas))
    else:
        areas = [a for a in AREAS
                 if ledger_path(baseline_dir, a).is_file()]
        if not areas:
            raise BenchError(
                f"no BENCH_*.json ledgers found in {baseline_dir}")
    reports = []
    for area in areas:
        base_path = ledger_path(baseline_dir, area)
        cand_path = ledger_path(candidate_dir, area)
        if not base_path.is_file():
            raise BenchError(f"baseline ledger missing: {base_path}")
        if not cand_path.is_file():
            raise BenchError(f"candidate ledger missing: {cand_path}")
        reports.append(compare_ledgers(load_ledger(base_path),
                                       load_ledger(cand_path),
                                       tolerance=tolerance))
    return reports
