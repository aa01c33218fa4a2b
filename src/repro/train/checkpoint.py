"""Model checkpointing and early stopping.

Checkpoints are ``.npz`` archives written **atomically**
(:func:`repro.core.atomic_io.atomic_write_bytes`: temporary sibling +
``fsync`` + ``os.replace``), so a process killed mid-save — the
canonical mid-training failure — leaves the previous checkpoint intact
instead of a torn archive.  Reads are equally defensive: an unreadable
archive or a missing key raises :class:`~repro.errors.CheckpointError`
naming the problem, never a raw ``KeyError`` from deep inside numpy.

Beyond model/optimiser state, ``save_checkpoint`` accepts an ``extra``
dict of arrays; :meth:`repro.train.trainer.Trainer.fit` uses it to
persist the training RNG, LR-scheduler state, simulated clock, and
history so ``fit(resume=True)`` continues the exact trajectory.
"""

from __future__ import annotations

import io
import zipfile
from pathlib import Path
from typing import Dict, Optional, Union

import numpy as np

from repro.core.atomic_io import atomic_write_bytes
from repro.errors import CheckpointError, ShapeError
from repro.models.base import GNNModel
from repro.tensor.optim import Adam

_EXTRA_PREFIX = "extra/"


def save_checkpoint(path: Union[str, Path], model: GNNModel,
                    optimizer: Optional[Adam] = None,
                    epoch: int = 0, metric: float = 0.0,
                    extra: Optional[Dict[str, np.ndarray]] = None) -> None:
    """Atomically write model (and optionally Adam) state to ``.npz``.

    ``extra`` maps names to arrays stored under ``extra/<name>`` and
    returned verbatim by :func:`load_checkpoint` — the trainer's hook
    for RNG/scheduler/history state.
    """
    arrays: Dict[str, np.ndarray] = {}
    for name, value in model.state_dict().items():
        arrays[f"model/{name}"] = value
    arrays["meta/epoch"] = np.asarray([epoch])
    arrays["meta/metric"] = np.asarray([metric])
    if optimizer is not None:
        arrays["meta/opt_step"] = np.asarray([optimizer._step])
        arrays["meta/opt_lr"] = np.asarray([optimizer.lr])
        for i, (m, v) in enumerate(zip(optimizer._m, optimizer._v)):
            arrays[f"opt/m{i}"] = m
            arrays[f"opt/v{i}"] = v
    for name, value in (extra or {}).items():
        arrays[_EXTRA_PREFIX + name] = np.asarray(value)
    buffer = io.BytesIO()
    np.savez_compressed(buffer, **arrays)
    atomic_write_bytes(path, buffer.getvalue(), fsync=True)


def load_checkpoint(path: Union[str, Path], model: GNNModel,
                    optimizer: Optional[Adam] = None) -> dict:
    """Restore model (and optionally Adam) state; returns the metadata.

    The returned dict holds ``epoch``, ``metric``, and ``extra`` (the
    arrays saved under ``extra/``).  Raises
    :class:`~repro.errors.CheckpointError` on unreadable/torn archives
    and on missing or mismatched keys, naming the offender.
    """
    try:
        archive_ctx = np.load(path, allow_pickle=False)
    except (OSError, ValueError, zipfile.BadZipFile) as exc:
        raise CheckpointError(
            f"unreadable checkpoint {path}: {exc}") from exc
    with archive_ctx as archive:
        names = set(archive.files)

        def fetch(name: str) -> np.ndarray:
            if name not in names:
                raise CheckpointError(
                    f"checkpoint {path} is missing key {name!r}")
            return archive[name]

        state = {name[len("model/"):]: archive[name]
                 for name in names if name.startswith("model/")}
        try:
            model.load_state_dict(state)
        except KeyError as exc:
            raise CheckpointError(
                f"checkpoint {path} does not match the model: "
                f"missing parameter {exc.args[0]}") from exc
        except ShapeError as exc:
            raise CheckpointError(
                f"checkpoint {path} does not match the model: "
                f"{exc}") from exc
        if optimizer is not None:
            if "meta/opt_step" not in names:
                raise CheckpointError(
                    f"checkpoint {path} holds no optimiser state "
                    "(missing key 'meta/opt_step')")
            optimizer._step = int(fetch("meta/opt_step")[0])
            optimizer.lr = float(fetch("meta/opt_lr")[0])
            for i in range(len(optimizer._m)):
                optimizer._m[i][...] = fetch(f"opt/m{i}")
                optimizer._v[i][...] = fetch(f"opt/v{i}")
        extra = {name[len(_EXTRA_PREFIX):]: archive[name]
                 for name in names if name.startswith(_EXTRA_PREFIX)}
        return {"epoch": int(fetch("meta/epoch")[0]),
                "metric": float(fetch("meta/metric")[0]),
                "extra": extra}
