"""One sha256 over the serving stacks' ``as_dict`` replay surfaces.

The check behind any claim that a change leaves every serving stats
surface byte-identical, on runs where the failure, shed, crash,
recovery and breaker counters are not all 0: run it on both trees and
compare the two digests.  It hashes
``json.dumps(stats.as_dict(), sort_keys=True)`` of each run, in order,
over

* ten 3-replica cluster runs of 200 bursty ZINC requests at
  20,000 req/s into queues of 4 (so requests are rejected): a plain
  fleet, a failover (replica 1 crashes), a recovery (replica 1 crashes
  and rejoins), a brownout (replicas 1 and 2 crash under a 0.9
  watermark) and a straggler (replica 0 three times slower, breaker
  threshold 1), each with a retry budget of 1 and of 3 attempts;
* the single-node view (:meth:`repro.cluster.ClusterStats.single_node`)
  of one one-replica run of the same stream;
* the ``stream_mixed`` and ``stream_crash`` bench configurations at
  seed 0 (:mod:`repro.bench.workloads`), as
  :class:`~repro.stream.StreamStats`,

which is 13 runs.  Usage, from the repository root::

    PYTHONPATH=src python -m tools.surface_digest

It prints the run count and the hex digest.  Only public names are
used, so the same command run with ``PYTHONPATH`` pointing at another
checkout's ``src`` digests that tree.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Iterator

from repro.cluster import Cluster, ClusterConfig
from repro.datasets import load_dataset
from repro.resilience import FaultPlan, RetryPolicy
from repro.serve import (
    ArrivalProcess,
    BatchingPolicy,
    ServerConfig,
    generate_requests,
)
from repro.stream import (
    RepairPolicy,
    StreamMix,
    StreamServer,
    generate_stream,
)
from repro.train import build_model

#: The bench workloads' ZINC scale and replica configuration.
SCALE = 0.004
BENCH_SERVER = ServerConfig(queue_capacity=16,
                            policy=BatchingPolicy(max_batch_size=8,
                                                  max_wait_s=0.02,
                                                  bucket_width=16))
#: The cluster runs' replicas: a short queue and small batches, so
#: their 200 requests at 20,000 req/s fill it.
SERVER = ServerConfig(queue_capacity=4,
                      policy=BatchingPolicy(max_batch_size=2,
                                            max_wait_s=0.02,
                                            bucket_width=16))
REQUESTS = 200

#: Scenario name -> (fault plan, extra ClusterConfig knobs).
SCENARIOS: Dict[str, tuple] = {
    "plain": (None, {}),
    "failover": (FaultPlan(seed=0, crash_replicas=(1,),
                           crash_after_batches=2), {}),
    "recovery": (FaultPlan(seed=0, crash_replicas=(1,),
                           crash_after_batches=1, recover_after_s=0.05,
                           recover_jitter_s=0.01), {}),
    "brownout": (FaultPlan(seed=0, crash_replicas=(1, 2),
                           crash_after_batches=0),
                 {"brownout_watermark": 0.9}),
    "straggler": (FaultPlan(seed=0, slow_replicas=(0,), slow_factor=3.0),
                  {"breaker_threshold": 1}),
}


def surfaces() -> Iterator[dict]:
    """Every run's ``as_dict`` surface, in a fixed order."""
    dataset = load_dataset("ZINC", scale=SCALE)
    model = build_model("GCN", dataset, hidden_dim=16, num_layers=2,
                        seed=0)
    pool = dataset.test[:8]
    requests = generate_requests(
        pool, REQUESTS, ArrivalProcess(kind="bursty", rate_rps=20000.0,
                                       seed=0))
    for plan, knobs in SCENARIOS.values():
        for attempts in (1, 3):
            cluster = Cluster(model, fault_plan=plan,
                              config=ClusterConfig(num_replicas=3,
                                                   server=SERVER, **knobs))
            yield cluster.run(
                requests,
                retry_policy=RetryPolicy(max_attempts=attempts)
            ).stats.as_dict()
    single = Cluster(model, config=ClusterConfig(num_replicas=1,
                                                 server=SERVER))
    yield single.run(requests, retry_policy=RetryPolicy(max_attempts=3)
                     ).stats.single_node().as_dict()
    graphs = {f"g{i}": g for i, g in enumerate(dataset.test[:6])}
    for delta_names, plan in ((("g0", "g1"), None),
                              (None, FaultPlan(seed=0, crash_replicas=(1,),
                                               crash_after_batches=2))):
        server = StreamServer(model, dict(graphs),
                              config=ClusterConfig(num_replicas=3,
                                                   server=BENCH_SERVER),
                              repair_policy=RepairPolicy(),
                              fault_plan=plan)
        mix = StreamMix(delta_fraction=0.25, ops_per_delta=4,
                        delete_fraction=0.25, delta_names=delta_names,
                        seed=0)
        stream_requests, deltas = generate_stream(
            server.table, 64,
            ArrivalProcess(kind="poisson", rate_rps=400.0, seed=0), mix)
        yield server.run(stream_requests, deltas,
                         retry_policy=RetryPolicy(max_attempts=3)
                         ).stats.as_dict()


def main() -> None:
    digest = hashlib.sha256()
    count = 0
    for surface in surfaces():
        digest.update(json.dumps(surface, sort_keys=True).encode())
        count += 1
    print(f"runs {count} sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main()
