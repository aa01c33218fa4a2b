"""Per-layer metrics: the traced sites and what is derived from them.

Layers are the repository's own packages.  Each layer's wall numbers
(call counts, self seconds, duration percentiles) come from the spans
:mod:`benchmarks.perf.tracer` records around that layer's entry
points; its simulated numbers (queue waits, service times, hit rates,
repair share) come from the stats and responses the program returns,
which each workload passes in as ``facts``.  A layer a workload never
reaches reads 0 — the "bypassed" prediction.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Sequence, Tuple

import numpy as np

from benchmarks.perf.tracer import Site, Tracer

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER: List[Tuple[str, str, str]] = [
    ("memsim.kernel_calls", "count", "lower"),
    ("memsim.kernel_self_s", "s", "lower"),
    ("memsim.l2_calls", "count", "lower"),
    ("memsim.l2_self_s", "s", "lower"),
    ("memsim.l2_sectors", "count", "lower"),
    ("memsim.l2_ns_per_sector", "ns", "lower"),
    ("memsim.repeat_batch_share", "ratio", "higher"),
    ("models.forward_calls", "count", "lower"),
    ("models.forward_self_s", "s", "lower"),
    ("models.forward_p50_ms", "ms", "lower"),
    ("models.forward_p99_ms", "ms", "lower"),
    ("models.runtime_self_s", "s", "lower"),
    ("models.simulate_calls", "count", "lower"),
    ("models.simulate_self_s", "s", "lower"),
    ("models.simulate_p50_ms", "ms", "lower"),
    ("models.simulate_p99_ms", "ms", "lower"),
    ("models.sim_band_us_per_batch", "us", "lower"),
    ("models.sim_reduce_us_per_batch", "us", "lower"),
    ("models.sim_sgemm_us_per_batch", "us", "lower"),
    ("models.sim_other_us_per_batch", "us", "lower"),
    ("tensor.backward_calls", "count", "lower"),
    ("tensor.backward_self_s", "s", "lower"),
    ("tensor.optim_step_self_s", "s", "lower"),
    ("core.alg1_calls", "count", "lower"),
    ("core.alg1_self_s", "s", "lower"),
    ("core.alg1_p50_us", "us", "lower"),
    ("core.alg1_p99_us", "us", "lower"),
    ("core.path_expansion", "ratio", "lower"),
    ("pipeline.key_calls", "count", "lower"),
    ("pipeline.key_self_s", "s", "lower"),
    ("pipeline.key_calls_per_request", "ratio", "lower"),
    ("pipeline.materialise_calls", "count", "lower"),
    ("pipeline.materialise_self_s", "s", "lower"),
    ("pipeline.disk_put_calls", "count", "lower"),
    ("pipeline.disk_put_self_s", "s", "lower"),
    ("pipeline.disk_get_calls", "count", "lower"),
    ("pipeline.disk_get_self_s", "s", "lower"),
    ("pipeline.disk_bytes", "bytes", "lower"),
    ("pipeline.warm_hit_rate", "ratio", "higher"),
    ("graph.batch_calls", "count", "lower"),
    ("graph.batch_self_s", "s", "lower"),
    ("serve.admit_calls", "count", "lower"),
    ("serve.admit_self_s", "s", "lower"),
    ("serve.select_self_s", "s", "lower"),
    ("serve.launch_self_s", "s", "lower"),
    ("serve.queue_wait_p50_ms", "ms", "lower"),
    ("serve.queue_wait_p99_ms", "ms", "lower"),
    ("serve.service_p50_ms", "ms", "lower"),
    ("serve.service_p99_ms", "ms", "lower"),
    ("serve.latency_p50_ms", "ms", "lower"),
    ("serve.batch_size_mean", "count", "higher"),
    ("serve.padding_waste_mean", "ratio", "lower"),
    ("serve.rejected", "count", "lower"),
    ("serve.retried", "count", "lower"),
    ("cluster.loop_self_s", "s", "lower"),
    ("cluster.route_self_s", "s", "lower"),
    ("cluster.resolve_self_s", "s", "lower"),
    ("cluster.l1_hit_rate", "ratio", "higher"),
    ("cluster.l2_hit_rate", "ratio", "higher"),
    ("cluster.miss_rate", "ratio", "lower"),
    ("cluster.invalidations", "count", "lower"),
    ("cluster.seeds", "count", "lower"),
    ("stream.repair_calls", "count", "lower"),
    ("stream.repair_self_s", "s", "lower"),
    ("stream.repair_p99_ms", "ms", "lower"),
    ("stream.repair_share", "ratio", "higher"),
    ("stream.work_units_per_delta", "count", "lower"),
    ("train.epoch_self_s", "s", "lower"),
    ("train.evaluate_self_s", "s", "lower"),
    ("train.cost_model_s", "s", "lower"),
    ("train.preprocess_s", "s", "lower"),
    ("train.val_mae", "MAE", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]

UNITS: Dict[str, str] = {name: unit for name, unit, _ in PER_LAYER}


def _request_id(args, kwargs, result):
    return {"request_id": args[1].request_id}


def _launch_ids(args, kwargs, result):
    return {"request_ids": [e.request.request_id for e in args[1].entries]}


def _sectors(args, kwargs, result):
    return {"sectors": len(args[1])}


def _profile(args, kwargs, result):
    # The cost model passes one profiler to many calls; the record
    # count at exit delimits this call's records.
    return {"profiler": result, "end": len(result.records),
            "runtime": args[1]}


def _path_shape(args, kwargs, result):
    return {"length": result.length, "nodes": result.graph.num_nodes}


def _bindings(modules: Sequence[str], attr: str, name: str,
              annotate=None) -> List[Site]:
    return [Site(module, attr, name, annotate=annotate) for module in modules]


#: Every traced entry point.  Functions and classes imported by name
#: are patched in each module that calls them.
SITES: List[Site] = [
    Site("repro.cluster.cluster:Cluster", "run", "cluster.run"),
    Site("repro.stream.server:StreamServer", "run", "stream.run"),
    Site("repro.cluster.routing:HashAffinityPolicy", "choose",
         "cluster.route"),
    Site("repro.cluster.cache:ReplicaScheduleView", "resolve",
         "cluster.resolve"),
    Site("repro.cluster.cache:TieredScheduleCache", "invalidate",
         "cluster.invalidate"),
    Site("repro.cluster.cache:TieredScheduleCache", "seed", "cluster.seed"),
    *_bindings(("repro.cluster.cache", "repro.cluster.cluster",
                "repro.serve.server", "repro.pipeline.parallel",
                "repro.stream.deltas"),
               "schedule_cache_key", "pipeline.key"),
    *_bindings(("repro.cluster.cache", "repro.serve.server",
                "repro.pipeline.parallel", "repro.stream.repair"),
               "compute_schedule", "pipeline.compute"),
    *_bindings(("repro.cluster.cache", "repro.serve.server",
                "repro.pipeline.parallel"),
               "materialise", "pipeline.materialise"),
    Site("repro.serve.server:ServerEngine", "admit", "serve.admit",
         annotate=_request_id),
    Site("repro.serve.server:ServerEngine", "select", "serve.select"),
    Site("repro.serve.server:ServerEngine", "launch", "serve.launch",
         annotate=_launch_ids),
    Site("repro.serve.server:ServerEngine", "complete", "serve.complete"),
    *_bindings(("repro.serve.server", "repro.train.trainer",
                "repro.train.clock"), "GraphBatch", "graph.batch"),
    *_bindings(("repro.serve.server", "repro.train.trainer",
                "repro.train.clock"), "MegaRuntime", "models.runtime"),
    *_bindings(("repro.serve.server", "repro.train.clock"),
               "simulate_batch", "models.simulate", annotate=_profile),
    Site("repro.models.base:GNNModel", "forward", "models.forward",
         outermost=True),
    Site("repro.memsim.device:GPUDevice", "run_kernel", "memsim.kernel"),
    Site("repro.memsim.cache:LRUCache", "access_trace", "memsim.l2",
         annotate=_sectors),
    Site("repro.tensor.tensor:Tensor", "backward", "tensor.backward",
         outermost=True),
    Site("repro.tensor.optim:Adam", "step", "tensor.optim_step"),
    Site("repro.train.trainer:Trainer", "train_epoch", "train.epoch"),
    Site("repro.train.trainer:Trainer", "evaluate", "train.evaluate"),
    Site("repro.train.clock:EpochCostModel", "measure", "train.cost_model"),
    Site("repro.pipeline", "precompute_paths", "pipeline.precompute"),
    Site("repro.pipeline.cache:ScheduleCache", "get", "pipeline.disk_get"),
    Site("repro.pipeline.cache:ScheduleCache", "put", "pipeline.disk_put"),
    Site("repro.stream.repair:ScheduleRepairer", "apply", "stream.repair"),
    Site("repro.stream.deltas:GraphTable", "advance", "stream.advance"),
    Site("repro.core.path:PathRepresentation", "from_graph", "core.alg1",
         annotate=_path_shape),
]


def percentile(values: Sequence[float], q: float) -> float:
    """``np.percentile`` that reads 0 for an empty sample."""
    return float(np.percentile(values, q)) if len(values) else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _kernel_family(name: str) -> str:
    if name.startswith("mega::band"):
        return "band"
    if name.startswith("mega::reduce"):
        return "reduce"
    if name.startswith("sgemm"):
        return "sgemm"
    return "other"


def _simulated_families(spans) -> Dict[str, float]:
    """Simulated seconds per kernel family over all traced batches."""
    totals = {"band": 0.0, "reduce": 0.0, "sgemm": 0.0, "other": 0.0}
    start_of: Dict[int, int] = {}
    for span in spans:
        profiler = span.args["profiler"]
        begin = start_of.get(id(profiler), 0)
        for record in profiler.records[begin:span.args["end"]]:
            totals[_kernel_family(record.name)] += record.time_s
        start_of[id(profiler)] = span.args["end"]
    return totals


def _repeat_batch_share(spans, content_key) -> float:
    """Share of MEGA batches whose ordered member keys repeat a batch."""
    from repro.models.runtime import MegaRuntime

    seen = set()
    batches = repeats = 0
    for span in spans:
        runtime = span.args["runtime"]
        if not isinstance(runtime, MegaRuntime):
            continue
        members = tuple(content_key(rep.graph) for rep in runtime.paths)
        batches += 1
        repeats += members in seen
        seen.add(members)
    return _ratio(repeats, batches)


def layer_metrics(tracer: Tracer, facts: Dict[str, float],
                  items: int) -> Dict[str, float]:
    """Every per-layer metric from the spans plus the workload's facts.

    ``items`` is the number of requests (serving) or graphs the traced
    units processed; ``facts`` holds the metrics only the program's
    returned stats can give.  Call after :meth:`Tracer.uninstall`: the
    content keys below must not be traced.
    """
    from repro.core.config import MegaConfig
    from repro.pipeline.hashing import schedule_cache_key

    selfs = tracer.self_times()
    by_name: Dict[str, List[int]] = defaultdict(list)
    for index, span in enumerate(tracer.spans):
        by_name[span.name].append(index)

    def calls(name: str) -> int:
        return len(by_name[name])

    def self_s(name: str) -> float:
        return float(sum(selfs[i] for i in by_name[name]))

    def durations(name: str, scale: float) -> List[float]:
        return [tracer.spans[i].duration * scale for i in by_name[name]]

    def spans(name: str):
        return [tracer.spans[i] for i in by_name[name]]

    config = MegaConfig()
    keys: Dict[int, str] = {}

    def content_key(graph) -> str:
        if id(graph) not in keys:
            keys[id(graph)] = schedule_cache_key(graph, config)
        return keys[id(graph)]

    sectors = sum(s.args["sectors"] for s in spans("memsim.l2"))
    simulated = spans("models.simulate")
    families = _simulated_families(simulated)
    shapes = [s.args for s in spans("core.alg1")]
    forward_ms = durations("models.forward", 1e3)
    simulate_ms = durations("models.simulate", 1e3)
    alg1_us = durations("core.alg1", 1e6)
    out = {name: 0.0 for name, _, _ in PER_LAYER}
    out.update({
        "memsim.kernel_calls": calls("memsim.kernel"),
        "memsim.kernel_self_s": self_s("memsim.kernel"),
        "memsim.l2_calls": calls("memsim.l2"),
        "memsim.l2_self_s": self_s("memsim.l2"),
        "memsim.l2_sectors": sectors,
        "memsim.l2_ns_per_sector": _ratio(self_s("memsim.l2") * 1e9,
                                          sectors),
        "memsim.repeat_batch_share": _repeat_batch_share(simulated,
                                                         content_key),
        "models.forward_calls": calls("models.forward"),
        "models.forward_self_s": self_s("models.forward"),
        "models.forward_p50_ms": percentile(forward_ms, 50),
        "models.forward_p99_ms": percentile(forward_ms, 99),
        "models.runtime_self_s": self_s("models.runtime"),
        "models.simulate_calls": calls("models.simulate"),
        "models.simulate_self_s": self_s("models.simulate"),
        "models.simulate_p50_ms": percentile(simulate_ms, 50),
        "models.simulate_p99_ms": percentile(simulate_ms, 99),
        "tensor.backward_calls": calls("tensor.backward"),
        "tensor.backward_self_s": self_s("tensor.backward"),
        "tensor.optim_step_self_s": self_s("tensor.optim_step"),
        "core.alg1_calls": calls("core.alg1"),
        "core.alg1_self_s": self_s("core.alg1"),
        "core.alg1_p50_us": percentile(alg1_us, 50),
        "core.alg1_p99_us": percentile(alg1_us, 99),
        "core.path_expansion": (float(np.mean(
            [s["length"] / max(s["nodes"], 1) for s in shapes]))
            if shapes else 0.0),
        "pipeline.key_calls": calls("pipeline.key"),
        "pipeline.key_self_s": self_s("pipeline.key"),
        "pipeline.key_calls_per_request": _ratio(calls("pipeline.key"),
                                                 items),
        "pipeline.materialise_calls": calls("pipeline.materialise"),
        "pipeline.materialise_self_s": self_s("pipeline.materialise"),
        "pipeline.disk_put_calls": calls("pipeline.disk_put"),
        "pipeline.disk_put_self_s": self_s("pipeline.disk_put"),
        "pipeline.disk_get_calls": calls("pipeline.disk_get"),
        "pipeline.disk_get_self_s": self_s("pipeline.disk_get"),
        "graph.batch_calls": calls("graph.batch"),
        "graph.batch_self_s": self_s("graph.batch"),
        "serve.admit_calls": calls("serve.admit"),
        "serve.admit_self_s": self_s("serve.admit"),
        "serve.select_self_s": self_s("serve.select"),
        "serve.launch_self_s": self_s("serve.launch"),
        "cluster.loop_self_s": self_s("cluster.run"),
        "cluster.route_self_s": self_s("cluster.route"),
        "cluster.resolve_self_s": self_s("cluster.resolve"),
        "stream.repair_calls": calls("stream.repair"),
        "stream.repair_self_s": self_s("stream.repair"),
        "stream.repair_p99_ms": percentile(durations("stream.repair", 1e3),
                                           99),
        "train.epoch_self_s": self_s("train.epoch"),
        "train.evaluate_self_s": self_s("train.evaluate"),
        "train.cost_model_s": float(sum(durations("train.cost_model", 1.0))),
    })
    if simulated:
        for family, seconds in families.items():
            out[f"models.sim_{family}_us_per_batch"] = \
                seconds * 1e6 / len(simulated)
    unknown = set(facts) - set(out)
    if unknown:
        raise KeyError(f"facts name unknown per-layer metrics: {unknown}")
    out.update(facts)
    return {name: float(value) for name, value in out.items()}
