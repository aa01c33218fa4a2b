"""Inference serving end to end: checkpoint → server → seeded loadtest.

Walks the whole serving story from docs/serving.md:

1. train a small model briefly and save an atomic checkpoint;
2. load it back through the model registry and stand up single-node
   serving (a one-replica `Cluster`) over an on-disk schedule cache;
3. serve a seeded bursty request stream under a client retry policy —
   backpressure, micro-batching, and schedule-cache reuse all visible
   in the printed `ServerStats` (`ClusterStats.single_node()`);
4. rerun the identical loadtest and show the stats are byte-identical;
5. rerun against the *warm* schedule cache and show the hit rate jump.

Run:  python examples/serving_loadtest.py [--requests 64 --scale 0.004]
"""

import argparse
import json
import shutil
import tempfile
from pathlib import Path

from repro.cluster import Cluster, ClusterConfig
from repro.datasets import load_dataset
from repro.resilience import RetryPolicy
from repro.serve import (
    ArrivalProcess,
    BatchingPolicy,
    ModelRegistry,
    ModelSpec,
    ServerConfig,
    generate_requests,
)
from repro.pipeline import ScheduleCache
from repro.train import Trainer, build_model
from repro.train.checkpoint import save_checkpoint


def train_and_checkpoint(dataset, scale, path):
    model = build_model("GCN", dataset, hidden_dim=16, num_layers=2)
    trainer = Trainer(model, dataset, method="mega", batch_size=16)
    history = trainer.fit(num_epochs=2)
    save_checkpoint(path, model, epoch=len(history.records),
                    metric=history.records[-1].val_metric)
    print(f"trained 2 epochs, val metric "
          f"{history.records[-1].val_metric:.4f}, checkpoint -> {path}")
    return model


def build_server(spec_scale, checkpoint, cache_dir):
    registry = ModelRegistry()
    registry.register("demo", ModelSpec(
        model="GCN", dataset="ZINC", scale=spec_scale, hidden_dim=16,
        num_layers=2, checkpoint=str(checkpoint)))
    loaded = registry.load("demo")
    server = Cluster(
        loaded.model,
        ClusterConfig(num_replicas=1, server=ServerConfig(
            queue_capacity=8,
            policy=BatchingPolicy(max_batch_size=4, max_wait_s=0.01,
                                  bucket_width=16))),
        cache=ScheduleCache(cache_dir))
    return loaded, server


def loadtest(server, pool, num_requests):
    process = ArrivalProcess(kind="bursty", rate_rps=30000.0, seed=7,
                             burst_factor=8.0, burst_len=12)
    requests = generate_requests(pool, num_requests, process)
    retry = RetryPolicy(max_attempts=4, backoff_base_s=0.004)
    return server.run(requests, retry_policy=retry).stats.single_node()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--requests", type=int, default=64)
    parser.add_argument("--scale", type=float, default=0.004)
    args = parser.parse_args()

    workdir = Path(tempfile.mkdtemp(prefix="serving-demo-"))
    try:
        dataset = load_dataset("ZINC", scale=args.scale)
        checkpoint = workdir / "model.npz"

        print("== 1. train and checkpoint ==")
        train_and_checkpoint(dataset, args.scale, checkpoint)

        print("\n== 2. registry load + server ==")
        loaded, server = build_server(args.scale, checkpoint,
                                      workdir / "schedules")
        pool = loaded.dataset.test[:6]
        print(f"serving {loaded.spec.model} (epoch {loaded.epoch} "
              f"checkpoint) over a pool of {len(pool)} graphs")

        print("\n== 3. seeded bursty loadtest ==")
        stats = loadtest(server, pool, args.requests)
        print(stats.summary_line())
        print(f"   max queue depth {stats.max_queue_depth} "
              f"(capacity 8), {stats.retried} retried, "
              f"{stats.dropped} dropped")

        print("\n== 4. byte-identical replay ==")
        _, fresh = build_server(args.scale, checkpoint,
                                workdir / "schedules-replay")
        replay = loadtest(fresh, pool, args.requests)
        blob_a = json.dumps(stats.as_dict(), sort_keys=True)
        blob_b = json.dumps(replay.as_dict(), sort_keys=True)
        assert blob_a == blob_b, "replay diverged!"
        print(f"replay stats identical: {len(blob_a)} bytes, equal")

        print("\n== 5. warm schedule cache ==")
        _, warm = build_server(args.scale, checkpoint,
                               workdir / "schedules")  # reuse dir
        warm_stats = loadtest(warm, pool, args.requests)
        print(f"cold run:  {stats.cache.hits} hits / "
              f"{stats.cache.misses} misses "
              f"(hit rate {stats.schedule_hit_rate:.2f})")
        print(f"warm run:  {warm_stats.cache.hits} hits / "
              f"{warm_stats.cache.misses} misses "
              f"(hit rate {warm_stats.schedule_hit_rate:.2f})")
        assert warm_stats.cache.misses == 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
