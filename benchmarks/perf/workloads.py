"""The four benchmark workloads, each a frozen dataclass of its sizes.

A workload has five methods the runner drives:

* ``setup(seed, work_dir)`` builds everything the measured phase needs
  (datasets, model, generated load, a warm-up) and returns its state;
* ``run_unit(state, k)`` runs unit ``k`` of the measured phase, through
  the public API only, and returns a :class:`Unit`;
* ``end_to_end(state, units)`` gives the simulated end-to-end metrics;
* ``verify(state, units)`` checks the program's outputs and returns the
  failures, and ``facts(state, units)`` the per-layer metrics that only
  the program's returned stats can give.

The first ``required_units`` units always run and fix every simulated
number, so simulated metrics depend on the seed alone; further units
only add wall-clock samples.  ``--seed`` picks the traffic, the dataset
or both (see each class); the program receives only generated inputs.
Tests shrink a workload with :func:`dataclasses.replace`.
"""

from __future__ import annotations

import shutil
import time
from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar, Dict, List, Sequence, Tuple

import numpy as np

from repro import pipeline
from repro.cluster import Cluster, ClusterConfig
from repro.datasets import load_dataset
from repro.graph.batch import GraphBatch
from repro.memsim.device import GPUDevice
from repro.models.kernel_plans import simulate_batch
from repro.models.runtime import BaselineRuntime, MegaRuntime
from repro.resilience import RetryPolicy
from repro.serve import (ArrivalProcess, BatchingPolicy, ServerConfig,
                         generate_requests)
from repro.stream import (GraphTable, StreamMix, StreamServer,
                          apply_delta_ops, generate_stream)
from repro.train import EpochCostModel, SimulatedClock, Trainer, build_model

from benchmarks.perf.layers import percentile

#: Largest relative error a served or MEGA prediction may show against
#: a single-graph baseline forward.  MEGA computes the same function at
#: full coverage with no edge drop; only summation order differs.
PREDICTION_RTOL = 1e-6


@dataclass
class Unit:
    """One measured unit: work done, wall time, and the program's output.

    ``windows`` are ``(items, wall seconds)`` samples whose rates the
    throughput metric takes the median of; ``problems`` are output checks
    that failed while the unit ran (the runner drops ``output`` of units
    past the required ones, so memory does not grow with their number).
    """

    items: int
    wall_s: float
    windows: List[Tuple[int, float]]
    output: object
    failed: int = 0
    problems: List[str] = field(default_factory=list)


class WallProbeClock(SimulatedClock):
    """A simulated clock that notes the wall time of every advance.

    The clock is the event loop's injectable time source; recording
    ``perf_counter`` beside each simulated instant maps simulated time
    onto wall time, so one long serving run yields many wall-clock
    windows without any wrapper on the program.
    """

    def __init__(self) -> None:
        super().__init__()
        self.sim: List[float] = []
        self.wall: List[float] = []

    def advance_to(self, t_s: float) -> float:
        now = super().advance_to(t_s)
        self.sim.append(now)
        self.wall.append(time.perf_counter())
        return now

    def windows(self, due: Sequence[float],
                size: int) -> List[Tuple[int, float]]:
        """``(size, wall seconds)`` per run of ``size`` consecutive arrivals.

        A window spans the wall time between the loop first reaching the
        due time of its first arrival and that of the next window's.
        """
        due = sorted(due)
        out = []
        for first in range(0, len(due) - size, size):
            begin = self.wall[bisect_left(self.sim, due[first])]
            end = self.wall[bisect_left(self.sim, due[first + size])]
            out.append((size, end - begin))
        return out


# ----------------------------------------------------------------------
# Shared serving helpers
# ----------------------------------------------------------------------
def due_latencies(responses, due: Dict[int, float]) -> np.ndarray:
    """Seconds from each request's generated due time to its completion.

    ``InferenceResponse.latency_s`` restarts at every retry or hedge,
    because both rewrite ``submitted_s``; the due time does not.
    """
    return np.asarray([r.completed_s - due[r.request_id]
                       for r in responses])


def served_batches(stats, responses) -> List[Tuple[object, list]]:
    """Each executed batch's record with its responses, in completion order.

    The cluster appends a finished batch's responses contiguously, so a
    batch is the next ``record.size`` responses; a response names its
    replica-local ``batch_id``, and ``launch_s + service_s`` is exactly
    the ``completed_s`` the engine stamped on it.
    """
    by_key = defaultdict(list)
    for replica in stats.replicas:
        for record in replica.stats.batches:
            by_key[(record.batch_id,
                    record.launch_s + record.service_s)].append(record)
    out, i = [], 0
    while i < len(responses):
        first = responses[i]
        record = by_key[(first.batch_id, first.completed_s)].pop(0)
        out.append((record, responses[i:i + record.size]))
        i += record.size
    return out


def evenly(items: Sequence, count: int) -> list:
    """``count`` items spread evenly over ``items`` (all when fewer)."""
    if len(items) <= count:
        return list(items)
    step = len(items) / count
    return [items[int(i * step)] for i in range(count)]


def relative_error(got, want) -> float:
    got, want = np.asarray(got, float), np.asarray(want, float)
    return float(np.max(np.abs(got - want))
                 / max(float(np.max(np.abs(want))), 1e-12))


def baseline_forward(model, graphs) -> np.ndarray:
    batch = GraphBatch(list(graphs))
    return np.asarray(model(batch, BaselineRuntime(batch)).data)


def check_predictions(model, pairs) -> List[str]:
    """Compare served predictions with single-graph baseline forwards."""
    failures = []
    for response, graph in pairs:
        error = relative_error(response.prediction,
                               baseline_forward(model, [graph])[0])
        if not error <= PREDICTION_RTOL:
            failures.append(f"request {response.request_id}: prediction "
                            f"off by {error:.3g} relative to baseline")
    return failures


def serving_speedup(model, batches, graph_of, count: int) -> float:
    """Simulated baseline ÷ MEGA service time over sampled served batches."""
    baseline = mega = 0.0
    for record, members in evenly(batches, count):
        batch = GraphBatch([graph_of(r) for r in members])
        baseline += simulate_batch(
            model.model_name, BaselineRuntime(batch), GPUDevice(),
            model.config.hidden_dim, model.config.num_layers).total_time
        mega += record.service_s
    return baseline / mega


def serving_facts(stats, responses, due) -> Dict[str, float]:
    """Per-layer serve/cluster metrics from the returned stats."""
    batches = served_batches(stats, responses)
    waits = [record.launch_s - due[r.request_id]
             for record, members in batches for r in members]
    records = [record for record, _ in batches]
    service = [record.service_s for record in records]
    tier = stats.tier
    return {
        "serve.queue_wait_p50_ms": percentile(waits, 50) * 1e3,
        "serve.queue_wait_p99_ms": percentile(waits, 99) * 1e3,
        "serve.service_p50_ms": percentile(service, 50) * 1e3,
        "serve.service_p99_ms": percentile(service, 99) * 1e3,
        "serve.latency_p50_ms":
            percentile(due_latencies(responses, due), 50) * 1e3,
        "serve.batch_size_mean": float(np.mean([b.size for b in records])),
        "serve.padding_waste_mean":
            float(np.mean([b.padding_waste for b in records])),
        "serve.rejected": stats.rejected,
        "serve.retried": stats.retried,
        "cluster.l1_hit_rate": tier.l1_hit_rate,
        "cluster.l2_hit_rate": tier.l2_hit_rate,
        "cluster.miss_rate": tier.misses / tier.lookups,
        "cluster.invalidations": tier.l1_invalidations + tier.l2_invalidations,
        "cluster.seeds": tier.seeds,
    }


def conservation_failures(stats) -> List[str]:
    if stats.received == stats.served + stats.failed + stats.shed:
        return []
    return [f"received {stats.received} != served {stats.served} + failed "
            f"{stats.failed} + shed {stats.shed}"]


@dataclass(frozen=True)
class _Serving:
    """Fleet, model and pool shared by the two serving workloads.

    The pool is fixed (the dataset's own seed); ``--seed`` picks the
    arrivals and which pool graph each request queries, so simulated
    latencies move only with the traffic.
    """

    scale: float = 0.05
    pool_size: int = 32
    hidden_dim: int = 64
    num_layers: int = 4
    num_replicas: int = 3
    queue_capacity: int = 64
    max_batch_size: int = 16
    max_wait_s: float = 0.0005
    bucket_width: int = 16
    max_attempts: int = 3
    window: int = 100
    warmup_requests: int = 32
    check_samples: int = 64
    speedup_batches: int = 32
    required_units: int = 1

    def cluster_config(self) -> ClusterConfig:
        return ClusterConfig(
            num_replicas=self.num_replicas, policy="hash-affinity",
            server=ServerConfig(
                queue_capacity=self.queue_capacity,
                policy=BatchingPolicy(max_batch_size=self.max_batch_size,
                                      max_wait_s=self.max_wait_s,
                                      bucket_width=self.bucket_width)))

    def retry_policy(self) -> RetryPolicy:
        return RetryPolicy(max_attempts=self.max_attempts)

    def model_and_pool(self):
        dataset = load_dataset("ZINC", scale=self.scale)
        model = build_model("GT", dataset, hidden_dim=self.hidden_dim,
                            num_layers=self.num_layers, seed=0)
        return model, dataset.test[:self.pool_size]

    def run_unit(self, state: dict, k: int) -> Unit:
        clock = WallProbeClock()
        start = time.perf_counter()
        result = self.serve(state, clock)
        wall = time.perf_counter() - start
        fleet = self.fleet(result)
        items = len(state["requests"])
        return Unit(items=items, wall_s=wall,
                    windows=(clock.windows(state["due"].values(),
                                           self.window)
                             or [(items, wall)]),
                    output=result, failed=fleet.failed + fleet.shed)

    def end_to_end(self, state: dict, units: List[Unit]) -> dict:
        result = units[0].output
        latencies = due_latencies(result.responses, state["due"])
        speedup = serving_speedup(
            state["model"], served_batches(self.fleet(result),
                                           result.responses),
            self.graph_of(state, result), self.speedup_batches)
        return {
            "sim_ms": (percentile(latencies, 99) * 1e3,
                       f"p99 of {len(latencies)} due-time latencies at "
                       f"{self.rate_rps:.0f} req/s"),
            "sim_speedup": (speedup, f"baseline/MEGA service time over "
                                     f"{self.speedup_batches} served "
                                     f"batches"),
        }

    def verify(self, state: dict, units: List[Unit]) -> List[str]:
        result = units[0].output
        graph_of = self.graph_of(state, result)
        sample = evenly(sorted(result.responses,
                               key=lambda r: r.request_id),
                        self.check_samples)
        return (conservation_failures(self.fleet(result))
                + check_predictions(state["model"],
                                    [(r, graph_of(r)) for r in sample]))

    def facts(self, state: dict, units: List[Unit]) -> Dict[str, float]:
        result = units[0].output
        return serving_facts(self.fleet(result), result.responses,
                             state["due"])


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ServeHot(_Serving):
    """Hash-affinity cluster under sustained open-loop Poisson load."""

    name: ClassVar[str] = "serve_hot"
    rate_rps: float = 50_000.0
    num_requests: int = 1600

    def setup(self, seed: int, work_dir: Path) -> dict:
        model, pool = self.model_and_pool()
        process = ArrivalProcess(kind="poisson", rate_rps=self.rate_rps,
                                 seed=seed)
        requests = generate_requests(pool, self.num_requests, process)
        Cluster(model, config=self.cluster_config()).run(
            requests[:self.warmup_requests],
            retry_policy=self.retry_policy())
        return {"model": model, "requests": requests,
                "due": {r.request_id: r.submitted_s for r in requests}}

    def serve(self, state: dict, clock: WallProbeClock):
        cluster = Cluster(state["model"], config=self.cluster_config(),
                          clock=clock)
        return cluster.run(state["requests"],
                           retry_policy=self.retry_policy())

    @staticmethod
    def fleet(result):
        return result.stats

    @staticmethod
    def graph_of(state: dict, result):
        graphs = {r.request_id: r.graph for r in state["requests"]}
        return lambda response: graphs[response.request_id]


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StreamChurn(_Serving):
    """Queries and edge deltas over the pool registered as named graphs."""

    name: ClassVar[str] = "stream_churn"
    rate_rps: float = 20_000.0
    num_events: int = 1400
    delta_fraction: float = 0.3
    ops_per_delta: int = 4
    delete_fraction: float = 0.25

    def setup(self, seed: int, work_dir: Path) -> dict:
        model, pool = self.model_and_pool()
        graphs = {f"g{i:02d}": g for i, g in enumerate(pool)}
        process = ArrivalProcess(kind="poisson", rate_rps=self.rate_rps,
                                 seed=seed)
        mix = StreamMix(delta_fraction=self.delta_fraction,
                        ops_per_delta=self.ops_per_delta,
                        delete_fraction=self.delete_fraction, seed=seed)
        requests, deltas = generate_stream(GraphTable(graphs),
                                           self.num_events, process, mix)
        warm = [r for r in requests if r.request_id < self.warmup_requests]
        StreamServer(model, dict(graphs), config=self.cluster_config()).run(
            warm, [], retry_policy=self.retry_policy())
        return {"model": model, "graphs": graphs, "requests": requests,
                "deltas": deltas,
                "due": {r.request_id: r.submitted_s for r in requests}}

    def serve(self, state: dict, clock: WallProbeClock):
        server = StreamServer(state["model"], dict(state["graphs"]),
                              config=self.cluster_config(), clock=clock)
        return server.run(state["requests"], state["deltas"],
                          retry_policy=self.retry_policy())

    @staticmethod
    def fleet(result):
        return result.stats.cluster

    @staticmethod
    def graph_of(state: dict, result):
        """The graph version each response was served on.

        Versions are rebuilt from the registered graphs by applying the
        deltas in the order the repair records list them; a response's
        epoch names its version.
        """
        versions = {(name, 0): g for name, g in state["graphs"].items()}
        by_id = {d.delta_id: d for d in state["deltas"]}
        for record in result.stats.records:
            before = versions[(record.graph_name, record.epoch - 1)]
            versions[(record.graph_name, record.epoch)] = apply_delta_ops(
                before, by_id[record.delta_id].ops)
        name_of = {r.request_id: r.graph_name for r in state["requests"]}
        return lambda response: versions[(name_of[response.request_id],
                                          response.epoch)]

    def facts(self, state: dict, units: List[Unit]) -> Dict[str, float]:
        facts = super().facts(state, units)
        stats = units[0].output.stats
        if stats.num_deltas:
            facts["stream.repair_share"] = stats.repairs / stats.num_deltas
            facts["stream.work_units_per_delta"] = (
                (stats.repair_work_units + stats.recompute_work_units)
                / stats.num_deltas)
        return facts


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TrainGT:
    """MEGA training of GT on a seeded ZINC sample, one epoch per unit."""

    name: ClassVar[str] = "train_gt"
    num_train: int = 256
    num_val: int = 64
    hidden_dim: int = 64
    num_layers: int = 4
    batch_size: int = 64
    required_units: int = 3

    def setup(self, seed: int, work_dir: Path) -> dict:
        dataset = load_dataset("ZINC", seed=seed, num_train=self.num_train,
                               num_val=self.num_val, num_test=8)
        model = build_model("GT", dataset, hidden_dim=self.hidden_dim,
                            num_layers=self.num_layers, seed=seed)
        trainer = Trainer(model, dataset, method="mega",
                          batch_size=self.batch_size, seed=seed)
        return {"seed": seed, "dataset": dataset, "trainer": trainer}

    def run_unit(self, state: dict, k: int) -> Unit:
        start = time.perf_counter()
        history = state["trainer"].fit(1)
        wall = time.perf_counter() - start
        graphs = len(state["dataset"].train)
        return Unit(items=graphs, wall_s=wall, windows=[(graphs, wall)],
                    output=history.records[-1],
                    failed=state["trainer"].rollbacks)

    def end_to_end(self, state: dict, units: List[Unit]) -> dict:
        trainer, train = state["trainer"], state["dataset"].train
        mega = trainer.cost_model.measure(train, cache_key="train")
        baseline = EpochCostModel(
            "GT", "baseline", self.hidden_dim, self.num_layers,
            self.batch_size, seed=state["seed"]).measure(train)
        return {
            "sim_ms": (units[0].output.sim_time_s * 1e3,
                       "train + validation epoch"),
            "sim_speedup": (baseline.epoch_seconds / mega.epoch_seconds,
                            "baseline/MEGA train epoch"),
        }

    def verify(self, state: dict, units: List[Unit]) -> List[str]:
        failures = []
        first, third = units[0].output, units[2].output
        if not third.train_loss < first.train_loss:
            failures.append(f"loss did not fall: epoch 1 {first.train_loss} "
                            f"vs epoch 3 {third.train_loss}")
        model = state["trainer"].model
        model.eval()
        graphs = state["dataset"].validation[:self.batch_size]
        batch = GraphBatch(graphs)
        paths = pipeline.precompute_paths(graphs).paths
        mega = np.asarray(model(batch, MegaRuntime(batch, paths)).data)
        error = relative_error(mega, baseline_forward(model, graphs))
        if not error <= PREDICTION_RTOL:
            failures.append(f"validation batch: MEGA off by {error:.3g} "
                            "relative to baseline")
        return failures

    def facts(self, state: dict, units: List[Unit]) -> Dict[str, float]:
        return {"train.preprocess_s": state["trainer"].preprocess_s,
                "train.val_mae": units[2].output.val_metric}


# ----------------------------------------------------------------------
def same_schedule(a, b) -> bool:
    """Exact equality of two (path representation, plan) entries."""
    (rep_a, plan_a), (rep_b, plan_b) = a, b
    sa, sb = rep_a.schedule, rep_b.schedule
    return (np.array_equal(sa.path, sb.path)
            and np.array_equal(sa.virtual_mask, sb.virtual_mask)
            and sa.cover_positions == sb.cover_positions
            and (sa.window, sa.covered_edges, sa.total_edges, sa.num_jumps)
            == (sb.window, sb.covered_edges, sb.total_edges, sb.num_jumps)
            and all(np.array_equal(getattr(plan_a, f), getattr(plan_b, f))
                    for f in ("src_pos", "dst_pos", "edge_ids",
                              "unique_edge_rows", "mirror_index"))
            and (plan_a.num_positions, plan_a.window)
            == (plan_b.num_positions, plan_b.window))


@dataclass(frozen=True)
class PreprocessColdWarm:
    """Algorithm 1 through a fresh on-disk cache, cold then warm.

    Each unit takes the next chunk of distinct CYCLES graphs (the
    dataset is seeded by ``--seed``) into a fresh cache directory.
    """

    name: ClassVar[str] = "preprocess_cold_warm"
    scale: float = 0.2
    chunk_size: int = 250
    hidden_dim: int = 64
    num_layers: int = 4
    batch_size: int = 64
    required_units: int = 4

    def setup(self, seed: int, work_dir: Path) -> dict:
        graphs = load_dataset("CYCLES", scale=self.scale,
                              seed=seed).all_graphs()
        chunks = [graphs[i:i + self.chunk_size]
                  for i in range(0, len(graphs), self.chunk_size)]
        return {"seed": seed, "chunks": chunks, "work_dir": work_dir}

    def run_unit(self, state: dict, k: int) -> Unit:
        chunk = state["chunks"][k % len(state["chunks"])]
        cache_dir = state["work_dir"] / f"unit{k}"
        start = time.perf_counter()
        cold = pipeline.precompute_paths(chunk, cache_dir=cache_dir,
                                         on_error="quarantine")
        warm = pipeline.precompute_paths(chunk, cache_dir=cache_dir,
                                         on_error="quarantine")
        wall = time.perf_counter() - start
        disk_bytes = pipeline.ScheduleCache(cache_dir).total_bytes
        shutil.rmtree(cache_dir)
        failed = len(cold.stats.quarantined) + len(warm.stats.quarantined)
        return Unit(items=2 * len(chunk), wall_s=wall,
                    windows=[(2 * len(chunk), wall)],
                    output={"chunk": chunk, "cold": cold, "warm": warm,
                            "disk_bytes": disk_bytes},
                    failed=failed, problems=self._check(k, cold, warm))

    @staticmethod
    def _check(k: int, cold, warm) -> List[str]:
        """Warm equals cold exactly; nothing quarantined; full coverage."""
        if not (cold.ok and warm.ok):
            return [f"unit {k}: quarantined graphs"]
        problems = []
        if warm.stats.from_cache != len(warm.paths):
            problems.append(f"unit {k}: warm pass recomputed")
        for i, (a, b) in enumerate(zip(zip(cold.paths, cold.plans),
                                       zip(warm.paths, warm.plans))):
            if not same_schedule(a, b):
                problems.append(f"unit {k} graph {i}: warm schedule "
                                "differs from cold")
            if a[0].coverage != 1.0:
                problems.append(f"unit {k} graph {i}: coverage "
                                f"{a[0].coverage}")
        return problems

    def end_to_end(self, state: dict, units: List[Unit]) -> dict:
        first = units[0].output
        costs = {method: EpochCostModel(
            "GT", method, self.hidden_dim, self.num_layers,
            self.batch_size, seed=state["seed"]).measure(
                first["chunk"],
                paths=first["cold"].paths if method == "mega" else None)
            for method in ("mega", "baseline")}
        return {
            "sim_ms": (costs["mega"].epoch_seconds * 1e3,
                       f"MEGA train epoch over {len(first['chunk'])} "
                       "preprocessed graphs"),
            "sim_speedup": (costs["baseline"].epoch_seconds
                            / costs["mega"].epoch_seconds,
                            "baseline/MEGA train epoch"),
        }

    def verify(self, state: dict, units: List[Unit]) -> List[str]:
        return []  # every unit checks itself in run_unit

    def facts(self, state: dict, units: List[Unit]) -> Dict[str, float]:
        warm = [u.output["warm"].stats.cache for u in units]
        lookups = sum(c.hits + c.misses for c in warm)
        return {"pipeline.disk_bytes":
                    sum(u.output["disk_bytes"] for u in units),
                "pipeline.warm_hit_rate":
                    sum(c.hits for c in warm) / lookups if lookups else 0.0}


WORKLOADS = {w.name: w for w in (ServeHot(), StreamChurn(), TrainGT(),
                                 PreprocessColdWarm())}
