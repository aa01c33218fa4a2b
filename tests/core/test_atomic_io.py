"""Crash-safe writes: exclusive temporary names, no litter, sweeping."""

import itertools
import os

import pytest

from repro.core import atomic_io
from repro.core.atomic_io import (
    TMP_MARKER,
    atomic_write_bytes,
    sweep_stale_tmp,
)


@pytest.fixture
def fresh_sequence(monkeypatch):
    """Restart the temporary-name sequence so the next name is known."""
    monkeypatch.setattr(atomic_io, "_tmp_sequence", itertools.count(1))
    return f"{TMP_MARKER}{os.getpid()}."


def _open_fds():
    return set(os.listdir("/proc/self/fd"))


def test_write_replaces_and_leaves_no_litter(tmp_path):
    dest = tmp_path / "entry.npz"
    atomic_write_bytes(dest, b"old", fsync=False)
    atomic_write_bytes(dest, b"new payload", fsync=True)
    assert dest.read_bytes() == b"new payload"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["entry.npz"]


def test_missing_parent_is_created(tmp_path):
    dest = tmp_path / "a" / "b" / "entry.npz"
    atomic_write_bytes(dest, b"x" * 100_000, fsync=False)
    assert dest.read_bytes() == b"x" * 100_000


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="needs /proc/self/fd to count open files")
def test_planted_first_candidate_is_skipped(tmp_path, fresh_sequence):
    dest = tmp_path / "entry.npz"
    planted = tmp_path / f"entry.npz{fresh_sequence}1"
    planted.write_bytes(b"another writer's bytes")
    before = _open_fds()
    atomic_write_bytes(dest, b"payload", fsync=False)
    assert _open_fds() == before
    assert dest.read_bytes() == b"payload"
    # Neither overwritten nor consumed by the rename: the write took the
    # next name and left nothing of its own behind.
    assert planted.read_bytes() == b"another writer's bytes"
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        sorted(["entry.npz", planted.name])
    assert sweep_stale_tmp(tmp_path) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["entry.npz"]


def test_failed_write_unlinks_its_temporary(tmp_path, fresh_sequence):
    dest = tmp_path / "entry.npz"
    with pytest.raises(TypeError):
        atomic_write_bytes(dest, object(), fsync=False)
    assert list(tmp_path.iterdir()) == []


def test_sweep_removes_litter_only(tmp_path):
    (tmp_path / "keep.npz").write_bytes(b"k")
    (tmp_path / f"keep.npz{TMP_MARKER}1.1").write_bytes(b"")
    (tmp_path / f"index.json{TMP_MARKER}dead").write_bytes(b"")
    assert sweep_stale_tmp(tmp_path) == 2
    assert [p.name for p in tmp_path.iterdir()] == ["keep.npz"]
    assert sweep_stale_tmp(tmp_path / "missing") == 0


def test_gives_up_when_every_candidate_is_taken(tmp_path, fresh_sequence,
                                                monkeypatch):
    monkeypatch.setattr(atomic_io, "_TMP_ATTEMPTS", 2)
    dest = tmp_path / "entry.npz"
    for n in (1, 2):
        (tmp_path / f"entry.npz{fresh_sequence}{n}").write_bytes(b"")
    with pytest.raises(FileExistsError):
        atomic_write_bytes(dest, b"payload", fsync=False)
    assert not dest.exists()
