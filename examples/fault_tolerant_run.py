"""Fault-tolerant end-to-end run: crash everything, finish anyway.

One script drives the whole failure matrix from docs/resilience.md:

1. preprocessing under injected worker crashes and a dead executor —
   and proves the recovered schedules are byte-identical to a clean run;
2. cache corruption (flipped byte, truncated payload, stale tmp litter)
   — recomputed and recounted, never raised;
3. training killed mid-run — resumed from an atomic checkpoint to the
   *same* final metric an uninterrupted run reaches, through an
   injected NaN loss and rollback on the way.

Run:  python examples/fault_tolerant_run.py [--epochs 4 --scale 0.004]
"""

import argparse
import shutil
import tempfile
from pathlib import Path

import numpy as np

from repro.datasets import load_dataset
from repro.pipeline import ScheduleCache, encode_entry, precompute_paths, \
    schedule_cache_key
from repro.core import MegaConfig
from repro.resilience import FaultPlan, corrupt_cache_entry
from repro.train import Trainer, build_model


def entry_bytes(result):
    """Encoded schedule bytes plus every derived attention-plan array."""
    return b"".join(
        [encode_entry(rep.schedule) for rep in result.paths]
        + [getattr(plan, name).tobytes() for plan in result.plans
           for name in ("src_pos", "dst_pos", "edge_ids",
                        "unique_edge_rows", "mirror_index")])


def preprocessing_survives_crashes(dataset):
    graphs = dataset.all_graphs()
    clean = precompute_paths(graphs, workers=2)
    plan = FaultPlan(seed=3, worker_crash_rate=0.4, io_error_rate=0.2,
                     break_pool_chunk=1)
    stormy = precompute_paths(graphs, workers=2, fault_plan=plan,
                              sleep=lambda s: None)
    identical = entry_bytes(clean) == entry_bytes(stormy)
    print(f"[1] preprocessing: {stormy.stats.retries} retries, "
          f"degraded_to_serial={stormy.stats.degraded_to_serial}, "
          f"byte-identical={identical}")
    assert identical
    return graphs


def cache_survives_corruption(graphs, work_dir):
    cache_dir = work_dir / "cache"
    precompute_paths(graphs, cache_dir=cache_dir)
    cache = ScheduleCache(cache_dir)
    keys = [schedule_cache_key(g, MegaConfig()) for g in graphs[:3]]
    for key, mode in zip(keys, ("flip", "truncate", "tmp_litter")):
        corrupt_cache_entry(cache, key, mode)
    # Reopening the cache is the crash-recovery moment: litter from
    # killed writers is swept before any reads happen.
    reopened = ScheduleCache(cache_dir)
    again = precompute_paths(graphs, cache=reopened)
    stats = again.stats.cache
    print(f"[2] cache: {stats.corrupt_checksum} checksum failures "
          f"detected, {reopened.stats.stale_tmp} tmp swept, "
          f"{stats.puts} entries recomputed, run ok={again.ok}")
    assert again.ok and stats.corrupt_checksum == 2
    assert reopened.stats.stale_tmp == 1


def training_survives_kill(dataset, work_dir):
    def trainer(fault_plan=None):
        model = build_model("GCN", dataset, hidden_dim=16, num_layers=2,
                            seed=5)
        return Trainer(model, dataset, method="baseline", batch_size=32,
                       seed=11, fault_plan=fault_plan)

    epochs = ARGS.epochs
    clean = trainer().fit(epochs)

    # Session one "dies" halfway; session two resumes the trajectory.
    ckpt_dir = work_dir / "ckpt"
    trainer().fit(max(1, epochs // 2), checkpoint_dir=ckpt_dir)
    resumed = trainer().fit(epochs, checkpoint_dir=ckpt_dir, resume=True)
    final_clean = clean.records[-1].val_metric
    final_resumed = resumed.records[-1].val_metric
    print(f"[3] training: killed after epoch {max(1, epochs // 2)}, "
          f"resumed final metric {final_resumed:.6f} "
          f"== clean {final_clean:.6f}")
    assert final_resumed == final_clean

    # Bonus storm: a NaN loss mid-run is absorbed by checkpoint
    # rollback + LR backoff instead of poisoning the metrics.
    nan_dir = work_dir / "nan"
    survivor = trainer(FaultPlan(seed=1, nan_epochs=(max(2, epochs - 1),)))
    stormy = survivor.fit(epochs, checkpoint_dir=nan_dir)
    print(f"[4] training: NaN loss absorbed by "
          f"{survivor.rollbacks} rollback(s); all metrics finite="
          f"{all(np.isfinite(r.val_metric) for r in stormy.records)}")
    assert survivor.rollbacks == 1
    assert len(stormy.records) == epochs
    assert all(np.isfinite(r.train_loss) for r in stormy.records)


def main():
    dataset = load_dataset("ZINC", scale=ARGS.scale)
    work_dir = Path(tempfile.mkdtemp(prefix="mega_resilience_"))
    try:
        graphs = preprocessing_survives_crashes(dataset)
        cache_survives_corruption(graphs, work_dir)
        training_survives_kill(dataset, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print("all subsystems recovered; results unchanged")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--epochs", type=int, default=4)
    parser.add_argument("--scale", type=float, default=0.004)
    ARGS = parser.parse_args()
    main()
