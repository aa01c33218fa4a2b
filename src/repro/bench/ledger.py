"""The ``BENCH_*.json`` ledger format: schema, replay surface, (de)serialisation.

One ledger file per benchmark *area* (``BENCH_pipeline.json``,
``BENCH_serve.json``, ``BENCH_kernels.json``, ``BENCH_train.json``,
``BENCH_cluster.json``, ``BENCH_stream.json``), each holding a list of
workload entries.  A ledger file is exactly its **replay surface**:
``schema_version``, ``area``, and each entry's ``workload`` / ``seed`` /
``fingerprint`` / ``config`` / ``metrics``.  Everything in it is a
deterministic function of (code, seed), so two runs of the same tree
with the same seed write byte-identical files; :func:`validate_ledger`
rejects any other key.  Wall-clock time belongs to ``benchmarks/perf``,
not to a ledger.

The megalint ledger-determinism rule (MEGA011) keeps it that way
syntactically: functions named ``as_dict`` / ``replay_surface`` may not
read wall clocks or emit wall-ish keys.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Mapping, Tuple, Union

from repro.core.atomic_io import atomic_write_bytes
from repro.errors import BenchError

#: Bump when the ledger layout changes incompatibly; ``compare`` refuses
#: to diff ledgers across schema versions.
LEDGER_SCHEMA_VERSION = 1

#: The benchmark areas, in the order ``run --all`` executes them.
AREAS: Tuple[str, ...] = ("pipeline", "serve", "kernels", "train",
                          "cluster", "stream")

#: The keys a ledger and each of its entries may hold.
_LEDGER_KEYS = ("schema_version", "area", "entries")
_ENTRY_KEYS = ("workload", "seed", "fingerprint", "config", "metrics")

_NUMERIC = (int, float)


def ledger_filename(area: str) -> str:
    """``BENCH_<area>.json`` — the ledger file name of one area."""
    if area not in AREAS:
        raise BenchError(f"unknown bench area {area!r}; one of {AREAS}")
    return f"BENCH_{area}.json"


def ledger_path(directory: Union[str, Path], area: str) -> Path:
    return Path(directory) / ledger_filename(area)


def _check_scalar_map(what: str, mapping: Mapping) -> None:
    for key, value in mapping.items():
        if not isinstance(key, str):
            raise BenchError(f"{what} key {key!r} is not a string")
        if isinstance(value, bool) or not isinstance(value, _NUMERIC):
            raise BenchError(
                f"{what} value {key}={value!r} is not an int/float")


@dataclass(frozen=True)
class LedgerEntry:
    """One workload's results.

    ``metrics`` holds only deterministic scalars (counters, simulated
    seconds, byte sizes); ``config`` records the workload knobs
    (dataset, scale, batch size, ...) so a ledger is readable without
    the source.
    """

    workload: str
    seed: int
    fingerprint: str
    config: Mapping[str, object] = field(default_factory=dict)
    metrics: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.workload:
            raise BenchError("ledger entry needs a workload name")
        _check_scalar_map(f"metrics[{self.workload}]", self.metrics)

    def replay_surface(self) -> Dict:
        """The serialised entry: byte-identical across same-seed runs."""
        return {
            "workload": self.workload,
            "seed": self.seed,
            "fingerprint": self.fingerprint,
            "config": dict(self.config),
            "metrics": {k: self.metrics[k] for k in sorted(self.metrics)},
        }


@dataclass(frozen=True)
class Ledger:
    """One area's entries plus the schema version they were written under."""

    area: str
    entries: Tuple[LedgerEntry, ...]
    schema_version: int = LEDGER_SCHEMA_VERSION

    def __post_init__(self) -> None:
        if self.area not in AREAS:
            raise BenchError(
                f"unknown bench area {self.area!r}; one of {AREAS}")
        names = [e.workload for e in self.entries]
        if len(set(names)) != len(names):
            raise BenchError(
                f"duplicate workload names in {self.area} ledger: {names}")

    def to_json_dict(self) -> Dict:
        ordered = sorted(self.entries, key=lambda e: e.workload)
        return {
            "schema_version": self.schema_version,
            "area": self.area,
            "entries": [e.replay_surface() for e in ordered],
        }


def write_ledger(ledger: Ledger, directory: Union[str, Path]) -> Path:
    """Serialise to ``<directory>/BENCH_<area>.json`` (atomic, sorted keys)."""
    path = ledger_path(directory, ledger.area)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(ledger.to_json_dict(), indent=2, sort_keys=True) + "\n"
    atomic_write_bytes(path, text.encode("utf-8"))
    return path


def load_ledger(path: Union[str, Path]) -> Dict:
    """Parse and structurally validate one ledger file."""
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise BenchError(f"unreadable ledger {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise BenchError(f"invalid JSON in ledger {path}: {exc}") from exc
    validate_ledger(data, source=str(path))
    return data


def _reject_extra_keys(source: str, what: str, data: Mapping,
                       allowed: Tuple[str, ...]) -> None:
    for key in sorted(data):
        if key not in allowed:
            raise BenchError(
                f"{source}: {what} key {key!r} is not part of the ledger "
                f"surface; allowed keys are {allowed}")


def validate_ledger(data: object, source: str = "<ledger>") -> None:
    """Raise :class:`BenchError` unless ``data`` is a ledger surface."""
    if not isinstance(data, dict):
        raise BenchError(f"{source}: ledger root must be an object")
    for key in _LEDGER_KEYS:
        if key not in data:
            raise BenchError(f"{source}: ledger missing key {key!r}")
    _reject_extra_keys(source, "ledger", data, _LEDGER_KEYS)
    if not isinstance(data["schema_version"], int):
        raise BenchError(f"{source}: schema_version must be an integer")
    if data["area"] not in AREAS:
        raise BenchError(
            f"{source}: unknown area {data['area']!r}; one of {AREAS}")
    if not isinstance(data["entries"], list):
        raise BenchError(f"{source}: entries must be a list")
    for entry in data["entries"]:
        if not isinstance(entry, dict) or "workload" not in entry:
            raise BenchError(
                f"{source}: each entry needs at least a workload name")
        name = entry["workload"]
        _reject_extra_keys(source, f"entry {name!r}", entry, _ENTRY_KEYS)
        metrics = entry.get("metrics", {})
        if not isinstance(metrics, dict):
            raise BenchError(
                f"{source}: entry {name!r} metrics must be an object")
        _check_scalar_map(f"{source}: metrics[{name}]", metrics)


def replay_bytes(data: Mapping) -> bytes:
    """Canonical bytes of a ledger dict — the byte-identity check.

    Two same-seed runs of the same tree must agree on this exactly;
    ``tests/test_bench_gate.py`` enforces it for every area.
    """
    validate_ledger(data)
    return json.dumps(data, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
