"""Plain-dict forms: traversal schedules and stats records.

Preprocessing is the expensive CPU stage of MEGA; a production pipeline
computes schedules once and ships them with the dataset.  These helpers
store :class:`TraversalResult` schedules in one ``.npz`` archive
(``repro preprocess --output``) and read them back.

:func:`record_dict` generates the stats records' ``as_dict`` replay
surfaces.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import Any, Dict, Union

import numpy as np

from repro.core.schedule import TraversalResult


def traversal_to_dict(result: TraversalResult) -> dict:
    """Plain-dict form of a schedule (JSON-compatible)."""
    cover = [[int(u), int(v), int(i), int(j)]
             for (u, v), (i, j) in sorted(result.cover_positions.items())]
    return {
        "path": result.path.tolist(),
        "virtual_mask": result.virtual_mask.astype(int).tolist(),
        "cover_positions": cover,
        "window": int(result.window),
        "covered_edges": int(result.covered_edges),
        "total_edges": int(result.total_edges),
        "num_jumps": int(result.num_jumps),
    }


def record_dict(record: Any, *derived: str) -> dict:
    """Plain-dict form of a dataclass record: its fields, then the
    ``derived`` names (properties), each value made :func:`_plain`."""
    out = {f.name: _plain(getattr(record, f.name)) for f in fields(record)}
    for name in derived:
        out[name] = _plain(getattr(record, name))
    return out


def _plain(value: Any) -> Any:
    """A value with ``as_dict`` → its output; another dataclass → a
    dict of its fields; a list or dict → a plain copy."""
    if hasattr(value, "as_dict"):
        return value.as_dict()
    if is_dataclass(value):
        return record_dict(value)
    if isinstance(value, list):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    return value


def save_schedules_npz(schedules: Dict[str, TraversalResult],
                       path: Union[str, Path]) -> None:
    """Store many schedules (one per key) in a single ``.npz`` archive."""
    arrays = {}
    for key, result in schedules.items():
        data = traversal_to_dict(result)
        arrays[f"{key}/path"] = np.asarray(data["path"], np.int64)
        arrays[f"{key}/virtual"] = np.asarray(data["virtual_mask"], np.int8)
        arrays[f"{key}/cover"] = np.asarray(data["cover_positions"],
                                            np.int64).reshape(-1, 4)
        arrays[f"{key}/meta"] = np.asarray(
            [data["window"], data["covered_edges"], data["total_edges"],
             data["num_jumps"]], np.int64)
    np.savez_compressed(path, **arrays)


def load_schedules_npz(path: Union[str, Path]) -> Dict[str, TraversalResult]:
    """Inverse of :func:`save_schedules_npz`."""
    archive = np.load(path)
    keys = sorted({name.rsplit("/", 1)[0] for name in archive.files})
    out: Dict[str, TraversalResult] = {}
    for key in keys:
        cover = archive[f"{key}/cover"]
        meta = archive[f"{key}/meta"]
        out[key] = TraversalResult(
            path=archive[f"{key}/path"].astype(np.int64),
            virtual_mask=archive[f"{key}/virtual"].astype(bool),
            cover_positions={(int(u), int(v)): (int(i), int(j))
                             for u, v, i, j in cover},
            window=int(meta[0]), covered_edges=int(meta[1]),
            total_edges=int(meta[2]), num_jumps=int(meta[3]))
    return out

