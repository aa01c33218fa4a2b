"""The ``BENCH_*.json`` ledger format: schema, replay surface, (de)serialisation.

One ledger file per benchmark *area* (``BENCH_pipeline.json``,
``BENCH_serve.json``, ``BENCH_kernels.json``, ``BENCH_train.json``,
``BENCH_cluster.json``, ``BENCH_stream.json``), each holding a list of
workload entries.  The format splits every
number into one of two surfaces:

* the **replay surface** — ``schema_version``, ``area``, and each
  entry's ``workload`` / ``seed`` / ``fingerprint`` / ``config`` /
  ``metrics``.  Everything here is a deterministic function of (code,
  seed): two runs of the same tree with the same seed must produce
  byte-identical replay surfaces (:func:`replay_bytes`).
* the **excluded blocks** — the top-level ``environment`` (timestamp,
  git SHA, interpreter/platform versions) and each entry's ``wall``
  dict (real wall-clock measurements).  These are informative only and
  never participate in byte-identity or the regression gate's exact
  checks.

The split is what the megalint ledger-determinism rule (MEGA011)
enforces syntactically: functions named ``as_dict`` /
``replay_surface`` may not read wall clocks or emit wall-ish keys.
"""

from __future__ import annotations

import json
import platform
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Mapping, Optional, Tuple, Union

import numpy as np

from repro.core.atomic_io import atomic_write_bytes
from repro.errors import BenchError

#: Bump when the ledger layout changes incompatibly; ``compare`` refuses
#: to diff ledgers across schema versions.
LEDGER_SCHEMA_VERSION = 1

#: The benchmark areas, in the order ``run --all`` executes them.
AREAS: Tuple[str, ...] = ("pipeline", "serve", "kernels", "train",
                          "cluster", "stream")

_NUMERIC = (int, float)


def ledger_filename(area: str) -> str:
    """``BENCH_<area>.json`` — the committed-at-repo-root file name."""
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
    seconds, byte sizes); ``wall`` holds real wall-clock seconds and is
    excluded from the replay surface; ``config`` records the workload
    knobs (dataset, scale, batch size, ...) so a ledger is readable
    without the source.
    """

    workload: str
    seed: int
    fingerprint: str
    config: Mapping[str, object] = field(default_factory=dict)
    metrics: Mapping[str, float] = field(default_factory=dict)
    wall: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.workload:
            raise BenchError("ledger entry needs a workload name")
        _check_scalar_map(f"metrics[{self.workload}]", self.metrics)
        _check_scalar_map(f"wall[{self.workload}]", self.wall)

    def to_json_dict(self) -> Dict:
        """Full serialised form, including the excluded ``wall`` block."""
        out = self.replay_surface()
        out["wall"] = {k: self.wall[k] for k in sorted(self.wall)}
        return out

    def replay_surface(self) -> Dict:
        """The deterministic part: byte-identical across same-seed runs."""
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

    def to_json_dict(self, environment: Optional[Mapping] = None) -> Dict:
        ordered = sorted(self.entries, key=lambda e: e.workload)
        return {
            "schema_version": self.schema_version,
            "area": self.area,
            "entries": [e.to_json_dict() for e in ordered],
            "environment": dict(environment or {}),
        }


def environment_block() -> Dict[str, str]:
    """Provenance for a ledger write: timestamp, git SHA, versions.

    Everything here is *excluded* from the replay surface — it exists so
    a human reading a committed baseline knows where it came from.
    """
    import datetime

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10, check=False).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    now = datetime.datetime.now(datetime.timezone.utc)
    return {
        "timestamp": now.strftime("%Y-%m-%dT%H:%M:%SZ"),
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": sys.platform,
    }


def write_ledger(ledger: Ledger, directory: Union[str, Path],
                 environment: Optional[Mapping] = None) -> Path:
    """Serialise to ``<directory>/BENCH_<area>.json`` (atomic, sorted keys)."""
    path = ledger_path(directory, ledger.area)
    path.parent.mkdir(parents=True, exist_ok=True)
    data = ledger.to_json_dict(
        environment_block() if environment is None else environment)
    text = json.dumps(data, indent=2, sort_keys=True) + "\n"
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


def validate_ledger(data: object, source: str = "<ledger>") -> None:
    """Raise :class:`BenchError` unless ``data`` looks like a ledger dict."""
    if not isinstance(data, dict):
        raise BenchError(f"{source}: ledger root must be an object")
    for key in ("schema_version", "area", "entries"):
        if key not in data:
            raise BenchError(f"{source}: ledger missing key {key!r}")
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
        if not isinstance(entry.get("metrics", {}), dict):
            raise BenchError(
                f"{source}: entry {entry.get('workload')!r} metrics "
                "must be an object")


def replay_surface(data: Mapping) -> Dict:
    """Strip the excluded blocks from a parsed ledger dict."""
    entries = []
    for entry in data.get("entries", []):
        entries.append({k: v for k, v in entry.items() if k != "wall"})
    return {
        "schema_version": data.get("schema_version"),
        "area": data.get("area"),
        "entries": entries,
    }


def replay_bytes(data: Mapping) -> bytes:
    """Canonical bytes of the replay surface — the byte-identity check.

    Two same-seed runs of the same tree must agree on this exactly;
    ``tests/test_bench_gate.py`` enforces it for every area.
    """
    return json.dumps(replay_surface(data), sort_keys=True,
                      separators=(",", ":")).encode("utf-8")

