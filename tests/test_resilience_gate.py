"""Tier-1 resilience gate: one seeded fault matrix across all subsystems.

A fast, deterministic drill of the full failure matrix in
``docs/resilience.md``: the *same* :class:`FaultPlan` seeds drive
worker crashes, cache corruption, a dead executor, and NaN losses, and
the gate asserts the two invariants everything else builds on —
recovered runs are **byte-identical** to clean runs, and training
resumes to the **same final metric**.  If this gate is red, the
resilience layer's promises are prose, not behaviour.
"""

import numpy as np
import pytest

from repro.datasets import load_dataset
from repro.graph.generators import molecular_like
from repro.pipeline import ScheduleCache, pack_entry, precompute_paths
from repro.resilience import CORRUPTION_MODES, FaultPlan, corrupt_cache_entry
from repro.train import Trainer, build_model

pytestmark = pytest.mark.faultinject

SEEDS = (0, 1, 2)


def graphs():
    return [molecular_like(np.random.default_rng(i), 14) for i in range(8)]


PLAN_ARRAYS = ("src_pos", "dst_pos", "edge_ids", "unique_edge_rows",
               "mirror_index")


def result_bytes(result):
    """Packed schedule bytes plus every derived plan array."""
    return b"".join(
        [arr.tobytes() for rep in result.paths
         for arr in pack_entry(rep.schedule).values()]
        + [getattr(plan, name).tobytes() for plan in result.plans
           for name in PLAN_ARRAYS])


@pytest.mark.parametrize("seed", SEEDS)
def test_pipeline_fault_matrix_byte_identical(seed):
    """>=30% worker failures + I/O faults + a dead pool: same bytes."""
    gs = graphs()
    clean = result_bytes(precompute_paths(gs, workers=2))
    plan = FaultPlan(seed=seed, worker_crash_rate=0.4, io_error_rate=0.3,
                     break_pool_chunk=seed % 2)
    faulty = precompute_paths(gs, workers=2, fault_plan=plan,
                              sleep=lambda s: None)
    assert result_bytes(faulty) == clean
    assert faulty.stats.degraded_to_serial


@pytest.mark.parametrize("mode", CORRUPTION_MODES)
def test_cache_corruption_matrix_recovers(tmp_path, mode):
    """Every corruption mode ends in recompute-and-continue, never raise."""
    gs = graphs()
    cache_dir = tmp_path / "cache"
    precompute_paths(gs, cache_dir=cache_dir)
    cache = ScheduleCache(cache_dir)
    for key in list(cache._index):
        corrupt_cache_entry(cache, key, mode)
    again = precompute_paths(gs, cache_dir=cache_dir)
    assert again.ok and all(p is not None for p in again.paths)
    stats = again.stats.cache
    if mode in ("truncate", "flip"):
        assert stats.corrupt_checksum > 0
    if mode == "unlink":
        assert stats.invalidations > 0
    if mode != "tmp_litter":
        assert stats.puts > 0


def test_training_fault_matrix_same_final_metric(tmp_path):
    """Kill + resume + NaN rollback still reaches the clean final metric."""
    ds = load_dataset("ZINC", scale=0.004)

    def trainer(fault_plan=None):
        model = build_model("GCN", ds, hidden_dim=16, num_layers=2, seed=5)
        return Trainer(model, ds, method="baseline", batch_size=32,
                       seed=11, fault_plan=fault_plan)

    clean = trainer().fit(4)

    # Mid-training kill: session one stops after epoch 2, session two
    # resumes and must land on the identical trajectory.
    kill_dir = tmp_path / "killed"
    trainer().fit(2, checkpoint_dir=kill_dir)
    resumed = trainer().fit(4, checkpoint_dir=kill_dir, resume=True)
    assert ([r.val_metric for r in resumed.records]
            == [r.val_metric for r in clean.records])

    # NaN injection: rollback + LR backoff still finishes all epochs
    # with finite metrics.
    nan_dir = tmp_path / "nan"
    diverging = trainer(FaultPlan(seed=1, nan_epochs=(3,)))
    history = diverging.fit(4, checkpoint_dir=nan_dir)
    assert diverging.rollbacks == 1
    assert len(history.records) == 4
    assert all(np.isfinite(r.val_metric) for r in history.records)
