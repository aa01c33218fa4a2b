"""Crash-safe file writes shared by the schedule cache and checkpointing.

A torn write is the root cause behind most "restart after crash"
corruption: a process dies between opening the destination and
finishing the payload, and the next reader sees half a file under the
real name.  Both durable subsystems in this repo (the schedule cache's
payloads and the trainer's ``.npz`` checkpoints) therefore funnel every
write through :func:`atomic_write_bytes`:

1. write the full payload to a uniquely-named sibling
   (``<name>.tmp.<pid>.<n>``, created exclusively) in the destination
   directory,
2. optionally ``fsync`` it so the bytes are durable before they become
   visible,
3. ``os.replace`` it into place — atomic on POSIX within a filesystem,
   so readers observe either the old file or the new one, never a mix.

A writer killed between (1) and (3) leaves only ``.tmp.`` litter next
to an intact previous version; :func:`sweep_stale_tmp` removes that
litter.  It must only run when no concurrent writer can be mid-write
(both subsystems call it from their single-writer startup paths).
"""

from __future__ import annotations

import itertools
import os
from pathlib import Path
from typing import Tuple, Union

#: Marker embedded in every temporary sibling's name.  The sweep keys
#: on it, so the marker may never appear in a real payload file name.
TMP_MARKER = ".tmp."

#: Per-process sequence for temporary names.  ``<pid>.<n>`` is unique
#: among live writers; a name left by a dead one is skipped on EEXIST.
_tmp_sequence = itertools.count(1)

#: Taken names skipped before giving up: only litter from dead writers
#: whose pid this process now has can collide, so a few suffice.
_TMP_ATTEMPTS = 64


def _create_tmp(dest: str) -> Tuple[int, str]:
    """Exclusively create ``dest``'s next free temporary sibling."""
    pid = os.getpid()
    for _ in range(_TMP_ATTEMPTS):
        tmp = f"{dest}{TMP_MARKER}{pid}.{next(_tmp_sequence)}"
        try:
            return os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL,
                           0o644), tmp
        except FileExistsError:
            continue
    raise FileExistsError(f"{_TMP_ATTEMPTS} temporary names for {dest} "
                          "are all taken")


def atomic_write_bytes(dest: Union[str, Path], data: bytes,
                       fsync: bool = True) -> None:
    """Write ``data`` to ``dest`` so readers never see a partial file.

    With ``fsync`` (the default) the payload is forced to stable
    storage before the rename, so even a machine crash cannot leave the
    new name pointing at unwritten blocks.  High-volume writers of
    recomputable data (the schedule cache) pass ``fsync=False`` and
    accept that a power loss may drop the newest entries.  A missing
    parent directory is created.
    """
    dest = os.fspath(dest)
    try:
        fd, tmp = _create_tmp(dest)
    except FileNotFoundError:
        os.makedirs(os.path.dirname(dest) or ".", exist_ok=True)
        fd, tmp = _create_tmp(dest)
    try:
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
            if fsync:
                os.fsync(fd)
        finally:
            os.close(fd)
        os.replace(tmp, dest)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def sweep_stale_tmp(directory: Union[str, Path]) -> int:
    """Delete ``*.tmp.*`` litter left behind by killed writers.

    Returns the number of files removed.  Safe to call on a missing
    directory (returns 0).  Only call from single-writer startup paths:
    a live writer's in-flight temporary looks identical to stale
    litter.
    """
    directory = Path(directory)
    if not directory.is_dir():
        return 0
    removed = 0
    for path in sorted(directory.glob(f"*{TMP_MARKER}*")):
        try:
            path.unlink()
            removed += 1
        except OSError:
            pass  # raced with another sweeper or permissions: best effort
    return removed
