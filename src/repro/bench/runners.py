"""Run registered workloads and write their ``BENCH_*.json`` ledgers."""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterable, Union

from repro.bench.ledger import AREAS, Ledger, write_ledger
from repro.bench.workloads import workloads_for
from repro.errors import BenchError


def run_area(area: str, seed: int = 0) -> Ledger:
    """Execute every workload of one area; returns the in-memory ledger."""
    workloads = workloads_for(area)
    if not workloads:
        raise BenchError(f"no workloads registered for area {area!r}")
    entries = tuple(w.run(seed) for w in workloads)
    return Ledger(area=area, entries=entries)


def run_areas(areas: Iterable[str], seed: int = 0,
              output_dir: Union[str, Path] = ".",
              progress=None) -> Dict[str, Path]:
    """Run several areas and write one ledger file per area.

    Every area name is checked before the first one runs, so a typo
    fails fast and writes nothing.  ``progress`` is an optional
    ``callable(str)`` fed one line per area (the CLI passes ``print``);
    the library default is silent.
    """
    areas = list(areas)
    unknown = [area for area in areas if area not in AREAS]
    if unknown:
        raise BenchError(
            f"unknown bench area(s) {unknown}; one of {AREAS}")
    written: Dict[str, Path] = {}
    for area in areas:
        if progress is not None:
            progress(f"bench: running area '{area}' (seed {seed}) ...")
        ledger = run_area(area, seed=seed)
        path = write_ledger(ledger, output_dir)
        written[area] = path
        if progress is not None:
            progress(f"bench: wrote {path} "
                     f"({len(ledger.entries)} workloads)")
    return written
