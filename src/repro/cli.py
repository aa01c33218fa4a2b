"""Command-line interface: ``python -m repro.cli <command>``.

Commands
--------
stats       Print the paper's Tables I-III from the generated datasets.
preprocess  Build MEGA schedules for a dataset and save them to .npz.
profile     nvprof-style kernel profile of one configuration.
train       Train a model under a schedule; prints per-epoch history.
compare     Baseline-vs-MEGA epoch time and convergence summary.
serve       Serve a dataset's test split through one serving replica.
loadtest    Seeded Poisson/bursty load test; prints SLO metrics.
cluster     loadtest with the fleet flags: routing policies, tiered
            cache, seeded replica crashes and failover.
stream      Dynamic-graph loadtest: named graphs, seeded edge deltas,
            incremental schedule repair, tiered invalidation.
bench       Benchmark harness: run/compare/list BENCH_*.json ledgers.

Exit codes: 0 on success, 2 on any :class:`~repro.errors.ReproError`
(printed as a one-line message, never a traceback); ``bench compare``
additionally exits 1 on a perf regression.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Optional

import numpy as np

from repro.errors import ReproError

DATASETS = ["ZINC", "AQSOL", "CSL", "CYCLES"]
MODELS = ["GCN", "GT", "GAT"]
METHODS = ["baseline", "mega", "global"]
# Keep in sync with repro.cluster.routing.POLICIES (asserted by the
# cluster CLI tests); listed here so --help needs no heavy imports.
CLUSTER_POLICIES = ["hash-affinity", "least-queue", "round-robin"]


def _add_dataset_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", default="ZINC", choices=DATASETS)
    parser.add_argument("--scale", type=float, default=0.02,
                        help="split-size scale (1.0 = paper-sized)")


def _add_model_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", default="GT", choices=MODELS)
    parser.add_argument("--hidden-dim", type=int, default=64)
    parser.add_argument("--layers", type=int, default=4)
    parser.add_argument("--batch-size", type=int, default=64)


def _add_pipeline_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workers", type=int, default=1,
                        help="preprocessing worker processes")
    parser.add_argument("--cache-dir", default=None,
                        help="schedule cache directory (default: "
                             "$REPRO_CACHE_DIR or ~/.cache/repro/schedules)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the persistent schedule cache")
    parser.add_argument("--max-retries", type=int, default=None,
                        help="retry budget per preprocessing chunk "
                             "(default: pipeline's bounded-backoff policy)")


def _resolve_cache_dir(args: argparse.Namespace):
    """Directory for the schedule cache, or None when caching is off."""
    if args.no_cache:
        return None
    if args.cache_dir is not None:
        return args.cache_dir
    from repro.pipeline import default_cache_dir
    return default_cache_dir()


def cmd_stats(args: argparse.Namespace) -> int:
    from repro.datasets import load_dataset
    from repro.datasets.statistics import table_three_row, table_two_row
    from repro.models import table_one

    print("Table I — model configuration statistics")
    for name, s in table_one().items():
        print(f"  {name}: {s.parameter_volume_d2:.0f}d^2/layer, "
              f"scatter x{s.scatter_calls_per_layer:.0f}, "
              f"gather x{s.gather_calls_per_layer:.0f}")
    print("\nTable II / III — dataset statistics")
    for name in DATASETS:
        ds = load_dataset(name, scale=args.scale if name != "CSL" else 1.0)
        r2 = table_two_row(ds)
        r3 = table_three_row(ds)
        print(f"  {name:7s} n={r2.mean_nodes:5.1f} e={r2.mean_edges:6.1f} "
              f"sp={r2.mean_sparsity:.3f} mu(sd)={r3.mean_degree_std:.2f} "
              f"eps={r3.mean_ks_similarity:.2f}")
    return 0


def cmd_preprocess(args: argparse.Namespace) -> int:
    from repro.core import MegaConfig, save_schedules_npz
    from repro.datasets import load_dataset
    from repro.pipeline import precompute_paths
    from repro.resilience import RetryPolicy

    ds = load_dataset(args.dataset, scale=args.scale)
    config = MegaConfig(window=args.window, coverage=args.coverage)
    retry = (RetryPolicy(max_attempts=args.max_retries)
             if args.max_retries is not None else None)
    start = time.perf_counter()
    pre = precompute_paths(ds.all_graphs(), config, workers=args.workers,
                           cache_dir=_resolve_cache_dir(args), retry=retry)
    elapsed = time.perf_counter() - start
    # Archive keys are "split/i", in split order: all_graphs() is
    # train + validation + test.
    keys = [f"{split}/{i}" for split, graphs in ds.splits.items()
            for i in range(len(graphs))]
    schedules = dict(zip(keys, pre.schedules))
    expansions = [rep.expansion for rep in pre.paths]
    save_schedules_npz(schedules, args.output)
    print(f"scheduled {len(schedules)} graphs in {elapsed:.2f}s "
          f"(mean expansion {np.mean(expansions):.2f}) -> {args.output}")
    print(pre.stats.summary_line())
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    from repro.memsim.report import compare_profiles, format_profile
    from repro.profiling import profile_configuration

    prof = profile_configuration(
        args.dataset, args.model, args.method,
        batch_size=args.batch_size, hidden_dim=args.hidden_dim,
        num_layers=args.layers, scale=args.scale)
    print(format_profile(
        prof, title=f"{args.method} {args.model} on {args.dataset}"))
    if args.against:
        other = profile_configuration(
            args.dataset, args.model, args.against,
            batch_size=args.batch_size, hidden_dim=args.hidden_dim,
            num_layers=args.layers, scale=args.scale)
        print()
        print(compare_profiles(other, prof,
                               names=(args.against, args.method)))
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    from repro.datasets import load_dataset
    from repro.train import Trainer, build_model

    ds = load_dataset(args.dataset, scale=args.scale)
    model = build_model(args.model, ds, hidden_dim=args.hidden_dim,
                        num_layers=args.layers)
    trainer = Trainer(model, ds, method=args.method,
                      batch_size=args.batch_size, lr=args.lr,
                      workers=args.workers,
                      cache_dir=_resolve_cache_dir(args),
                      max_retries=args.max_retries)
    history = trainer.fit(args.epochs,
                          checkpoint_dir=args.checkpoint_dir,
                          checkpoint_every=args.checkpoint_every,
                          resume=args.resume)
    metric = "acc" if ds.task == "classification" else "MAE"
    for rec in history.records:
        print(f"epoch {rec.epoch:3d}  loss {rec.train_loss:.4f}  "
              f"val {metric} {rec.val_metric:.4f}  "
              f"clock {rec.sim_time_s:.4f}s")
    if trainer.preprocess_s:
        print(f"preprocessing: {trainer.preprocess_s:.2f}s wall (one-time)")
    if trainer.pipeline_stats is not None:
        print(trainer.pipeline_stats.summary_line())
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    from repro.core import MegaConfig, format_schedule_report, schedule_report
    from repro.datasets import load_dataset

    ds = load_dataset(args.dataset, scale=args.scale)
    graphs = ds.train[:args.count]
    config = MegaConfig(window=args.window)
    for idx, g in enumerate(graphs):
        print(f"--- {args.dataset} train graph {idx} ---")
        print(format_schedule_report(schedule_report(g, config)))
        print()
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    from repro.datasets import load_dataset
    from repro.train import run_convergence

    ds = load_dataset(args.dataset, scale=args.scale)
    result = run_convergence(ds, args.model, hidden_dim=args.hidden_dim,
                             num_layers=args.layers,
                             batch_size=args.batch_size,
                             num_epochs=args.epochs, lr=args.lr,
                             workers=args.workers,
                             cache_dir=_resolve_cache_dir(args),
                             max_retries=args.max_retries)
    base = result.baseline.records[-1]
    mega = result.mega.records[-1]
    print(f"{args.dataset} + {args.model}: "
          f"dgl {base.sim_time_s:.4f}s vs mega {mega.sim_time_s:.4f}s "
          f"for {args.epochs} epochs")
    print(f"convergence speedup: {result.speedup:.2f}x, final metric "
          f"{result.final_metric_baseline:.4f} / "
          f"{result.final_metric_mega:.4f}")
    if result.pipeline_stats is not None:
        print(result.pipeline_stats.summary_line())
    return 0


def _add_serve_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", default="GT", choices=MODELS)
    parser.add_argument("--hidden-dim", type=int, default=64)
    parser.add_argument("--layers", type=int, default=4)
    parser.add_argument("--checkpoint", default=None,
                        help="serve weights from this train checkpoint "
                             "(.npz); default: fresh initialisation")
    parser.add_argument("--capacity", type=int, default=32,
                        help="admission queue bound (backpressure)")
    parser.add_argument("--max-batch", type=int, default=8,
                        help="micro-batch size cap")
    parser.add_argument("--max-wait", type=float, default=0.02,
                        help="simulated seconds an under-full bucket "
                             "may wait before flushing")
    parser.add_argument("--bucket-width", type=int, default=16,
                        help="path-length bucket granularity")
    parser.add_argument("--cache-dir", default=None,
                        help="schedule cache directory (default: "
                             "$REPRO_CACHE_DIR or ~/.cache/repro/schedules)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the persistent schedule cache")
    parser.add_argument("--json", action="store_true",
                        help="print the full stats as JSON")


def _add_load_args(parser: argparse.ArgumentParser, count: str = "requests",
                   count_help: str = "requests to submit",
                   pool: int = 16) -> None:
    """The load flags of every seeded loadtest; read by _build_load."""
    group = parser.add_argument_group(
        "load", "seeded arrivals over a pool of test graphs")
    group.add_argument(f"--{count}", type=int, default=200, help=count_help)
    group.add_argument("--rate", type=float, default=400.0,
                       help=f"mean arrival rate ({count} per simulated s)")
    group.add_argument("--process", default="poisson",
                       choices=["poisson", "bursty"])
    group.add_argument("--seed", type=int, default=0)
    group.add_argument("--pool", type=int, default=pool,
                       help="distinct test graphs in the pool")
    group.add_argument("--burst-factor", type=float, default=6.0)
    group.add_argument("--burst-len", type=int, default=16)
    group.add_argument("--retries", type=int, default=3,
                       help="attempt budget per request: rejections and "
                            "failovers (0 = fail immediately)")


def _add_cluster_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--replicas", type=int, default=3,
                        help="serving replicas in the fleet")
    parser.add_argument("--policy", default="hash-affinity",
                        choices=CLUSTER_POLICIES,
                        help="load-balance policy")
    parser.add_argument("--vnodes", type=int, default=64,
                        help="virtual nodes per replica on the hash ring")
    parser.add_argument("--crash-replica", type=int, action="append",
                        default=None, metavar="ID",
                        help="pin this replica to crash (repeatable)")
    parser.add_argument("--crash-after", type=int, default=0,
                        help="batch launches a pinned replica survives "
                             "before crashing")
    parser.add_argument("--replica-failure-rate", type=float, default=0.0,
                        help="seeded per-batch-launch crash probability "
                             "for unpinned replicas")
    parser.add_argument("--recover-after", type=float, default=-1.0,
                        help="simulated seconds before a crashed replica "
                             "rejoins (negative: crashes are permanent)")
    parser.add_argument("--recover-jitter", type=float, default=0.0,
                        help="seeded per-replica spread added to "
                             "--recover-after")
    parser.add_argument("--slow-replica", type=int, action="append",
                        default=None, metavar="ID",
                        help="pin this replica as a straggler "
                             "(repeatable)")
    parser.add_argument("--slow-factor", type=float, default=1.0,
                        help="service-time multiplier for straggling "
                             "batches")
    parser.add_argument("--breaker-threshold", type=int, default=0,
                        help="consecutive slow batches that trip a "
                             "replica's circuit breaker (0: disabled)")
    parser.add_argument("--breaker-cooldown", type=float, default=0.05,
                        help="base seconds before a tripped breaker "
                             "half-opens")
    parser.add_argument("--brownout-watermark", type=float, default=0.0,
                        help="alive fraction below which admission "
                             "sheds load (0: disabled)")


def _load_cli_model(args: argparse.Namespace):
    """The registry-loaded model the serve/cluster commands share."""
    from repro.serve import ModelRegistry, ModelSpec

    registry = ModelRegistry()
    registry.register("cli", ModelSpec(
        model=args.model, dataset=args.dataset, scale=args.scale,
        hidden_dim=args.hidden_dim, num_layers=args.layers,
        checkpoint=args.checkpoint))
    return registry.load("cli")


def _server_config(args: argparse.Namespace):
    from repro.serve import BatchingPolicy, ServerConfig

    return ServerConfig(
        queue_capacity=args.capacity,
        policy=BatchingPolicy(max_batch_size=args.max_batch,
                              max_wait_s=args.max_wait,
                              bucket_width=args.bucket_width))


def _cli_cache(args: argparse.Namespace):
    """The on-disk ScheduleCache the cache flags ask for, or None."""
    from repro.pipeline import ScheduleCache

    cache_dir = _resolve_cache_dir(args)
    return ScheduleCache(cache_dir) if cache_dir is not None else None


#: Lower bounds of the integer load flags (``serve`` has only
#: ``--requests``, ``stream`` counts ``--events``).
LOAD_FLAG_FLOORS = (("requests", 0), ("events", 0), ("pool", 1),
                    ("retries", 0))


def _check_load_flags(args: argparse.Namespace) -> None:
    from repro.errors import ConfigError

    for flag, floor in LOAD_FLAG_FLOORS:
        value = getattr(args, flag, floor)
        if value < floor:
            raise ConfigError(f"--{flag} must be >= {floor}, got {value}")


def _build_load(args: argparse.Namespace, graphs):
    """(ArrivalProcess, pool, RetryPolicy | None) from the load flags.

    The one place they are checked: a negative count or retry budget,
    or a pool below one graph, is a ConfigError (exit 2), not a slice
    such as ``graphs[:-3]`` or a budget read as 0.
    """
    from repro.resilience import RetryPolicy
    from repro.serve import ArrivalProcess

    process = ArrivalProcess(kind=args.process, rate_rps=args.rate,
                             seed=args.seed,
                             burst_factor=args.burst_factor,
                             burst_len=args.burst_len)
    _check_load_flags(args)
    retry = (RetryPolicy(max_attempts=args.retries)
             if args.retries > 0 else None)
    return process, graphs[:args.pool], retry


def _cli_fault_plan(args: argparse.Namespace):
    """The seeded FaultPlan the cluster/stream flags describe, or None."""
    from repro.resilience import FaultPlan

    crash = tuple(getattr(args, "crash_replica", None) or ())
    rate = getattr(args, "replica_failure_rate", 0.0)
    slow = tuple(getattr(args, "slow_replica", None) or ())
    recover_after = getattr(args, "recover_after", -1.0)
    if not (crash or rate > 0.0 or slow or recover_after >= 0.0):
        return None
    return FaultPlan(
        seed=args.seed, replica_failure_rate=rate,
        crash_replicas=crash,
        crash_after_batches=getattr(args, "crash_after", 0),
        recover_after_s=recover_after,
        recover_jitter_s=getattr(args, "recover_jitter", 0.0),
        slow_replicas=slow,
        slow_factor=getattr(args, "slow_factor", 1.0))


def _cluster_config(args: argparse.Namespace):
    from repro.cluster import ClusterConfig

    return ClusterConfig(
        num_replicas=getattr(args, "replicas", 1),
        policy=getattr(args, "policy", "hash-affinity"),
        vnodes=getattr(args, "vnodes", 64),
        server=_server_config(args),
        breaker_threshold=getattr(args, "breaker_threshold", 0),
        breaker_cooldown_s=getattr(args, "breaker_cooldown", 0.05),
        brownout_watermark=getattr(args, "brownout_watermark", 0.0))


def _build_cluster(args: argparse.Namespace):
    """(LoadedModel, Cluster) from parsed serve/loadtest/cluster args."""
    from repro.cluster import Cluster

    loaded = _load_cli_model(args)
    cluster = Cluster(
        loaded.model, cache=_cli_cache(args),
        fault_plan=_cli_fault_plan(args), config=_cluster_config(args))
    return loaded, cluster


def _print_serve_report(stats, as_json: bool) -> None:
    if as_json:
        print(json.dumps(stats.as_dict(), sort_keys=True, indent=2))
        return
    print(stats.summary_line())
    print(f"  p50/p95/p99 latency: {stats.p50_latency_s * 1e3:.3f} / "
          f"{stats.p95_latency_s * 1e3:.3f} / "
          f"{stats.p99_latency_s * 1e3:.3f} ms")
    print(f"  throughput: {stats.throughput_rps:.1f} req/s over "
          f"{stats.sim_duration_s:.4f} simulated s")
    print(f"  queue depth: mean {stats.mean_queue_depth:.2f}, "
          f"max {stats.max_queue_depth}")
    print(f"  batches: {len(stats.batches)}, occupancy "
          f"{stats.mean_batch_occupancy:.2f}, padding waste "
          f"{stats.mean_padding_waste:.3f}")
    print(f"  schedule cache: {stats.cache.hits} hits / "
          f"{stats.cache.misses} misses "
          f"(hit rate {stats.schedule_hit_rate:.2f})")


def _print_cluster_report(stats, as_json: bool) -> None:
    if as_json:
        print(json.dumps(stats.as_dict(), sort_keys=True, indent=2))
        return
    print(stats.summary_line())
    print(f"  p50/p95/p99 latency: {stats.p50_latency_s * 1e3:.3f} / "
          f"{stats.p95_latency_s * 1e3:.3f} / "
          f"{stats.p99_latency_s * 1e3:.3f} ms")
    print(f"  throughput: {stats.throughput_rps:.1f} req/s over "
          f"{stats.sim_duration_s:.4f} simulated s")
    print(f"  schedule cache: L1 {stats.tier.l1_hits} / "
          f"L2 {stats.tier.l2_hits} hits / {stats.tier.misses} misses "
          f"(L1 rate {stats.tier.l1_hit_rate:.2f})")
    if stats.crashed_replicas:
        print(f"  failover: {stats.crashed_replicas} replica(s) crashed, "
              f"{stats.failovers} requests re-routed, "
              f"{stats.rebalanced_arcs} ring arcs rebalanced, "
              f"{stats.failed} failed")
    for rec in stats.recoveries:
        print(f"  recovery: replica {rec.replica_id} rejoined at "
              f"{rec.recovered_at_s * 1e3:.2f} ms "
              f"(incarnation {rec.incarnation}); warm-up "
              f"{rec.warmup_l1_hits}/{rec.warmup_lookups} L1 "
              f"(rate {rec.warmup_l1_hit_rate:.2f}), first L1 hit "
              f"after {rec.lookups_to_first_l1_hit} lookups")
    if stats.shed_events:
        print(f"  brownout: {stats.shed} request(s) shed terminally, "
              f"{stats.shed_events} shed events total")
    if stats.breaker_trips:
        print(f"  breaker: {stats.breaker_trips} trip(s), "
              f"{stats.hedges} request(s) hedged off stragglers")
    for rec in stats.replicas:
        fate = (f"CRASHED at {rec.crashed_at_s * 1e3:.2f} ms"
                if rec.crashed else "ok")
        print(f"  replica {rec.replica_id}.{rec.incarnation}: "
              f"{rec.stats.served} served, "
              f"{len(rec.stats.batches)} batches, "
              f"L1 {rec.tier.l1_hits}/{rec.tier.lookups} — {fate}")


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import InferenceRequest
    from repro.serve.loadgen import check_rate

    check_rate(args.rate)
    _check_load_flags(args)
    loaded, cluster = _build_cluster(args)
    pool = loaded.dataset.test[:args.requests]
    if not pool:
        pool = loaded.dataset.test
    gap = 1.0 / args.rate
    requests = [InferenceRequest(request_id=i, graph=pool[i % len(pool)],
                                 submitted_s=(i + 1) * gap)
                for i in range(args.requests)]
    result = cluster.run(requests)
    print(f"served {loaded.spec.model} on {loaded.spec.dataset} "
          f"(epoch {loaded.epoch} checkpoint)"
          if loaded.spec.checkpoint else
          f"served {loaded.spec.model} on {loaded.spec.dataset} "
          f"(fresh weights)")
    for resp in result.responses[:args.show]:
        value = np.asarray(resp.prediction).ravel()
        shown = (f"{value[0]:.4f}" if value.size == 1
                 else f"argmax {int(value.argmax())}")
        print(f"  request {resp.request_id}: {shown}  "
              f"latency {resp.latency_s * 1e3:.3f} ms  "
              f"batch {resp.batch_id}")
    _print_serve_report(result.stats.single_node(), args.json)
    return 0


def cmd_loadtest(args: argparse.Namespace) -> int:
    """``loadtest`` and its alias ``cluster``, which adds the fleet flags.

    ``loadtest`` with one replica prints the single-node view
    (:meth:`~repro.cluster.ClusterStats.single_node`); every other run
    prints the fleet's.
    """
    from repro.serve import generate_requests

    loaded, cluster = _build_cluster(args)
    process, pool, retry = _build_load(args, loaded.dataset.test)
    result = cluster.run(generate_requests(pool, args.requests, process),
                         retry_policy=retry)
    single = args.command == "loadtest" and args.replicas == 1
    if not args.json:
        head = "loadtest" if args.command == "loadtest" else \
            "cluster loadtest"
        where = ("1 server" if single
                 else f"{args.replicas} replicas ({args.policy})")
        print(f"{head}: {args.requests} requests, {args.process} "
              f"arrivals at {args.rate:.0f} req/s (seed {args.seed}), "
              f"pool of {len(pool)} graphs, {where}")
    if single:
        _print_serve_report(result.stats.single_node(), args.json)
    else:
        _print_cluster_report(result.stats, args.json)
    return 0


def cmd_stream(args: argparse.Namespace) -> int:
    from repro.stream import (
        RepairPolicy,
        StreamMix,
        StreamServer,
        generate_stream,
    )

    loaded = _load_cli_model(args)
    process, pool, retry = _build_load(args, loaded.dataset.test)
    graphs = {f"g{i}": g for i, g in enumerate(pool)}
    server = StreamServer(
        loaded.model, graphs, config=_cluster_config(args),
        repair_policy=RepairPolicy(recompute_ratio=args.recompute_ratio),
        cache=_cli_cache(args), fault_plan=_cli_fault_plan(args))
    mix = StreamMix(delta_fraction=args.delta_fraction,
                    ops_per_delta=args.ops_per_delta,
                    delete_fraction=args.delete_fraction,
                    seed=args.seed)
    requests, deltas = generate_stream(server.table, args.events,
                                       process, mix)
    result = server.run(requests, deltas, retry_policy=retry)
    stats = result.stats
    if args.json:
        print(json.dumps(stats.as_dict(), sort_keys=True, indent=2))
        return 0
    print(f"stream loadtest: {args.events} events "
          f"({len(requests)} queries / {len(deltas)} deltas), "
          f"{args.process} arrivals at {args.rate:.0f} ev/s "
          f"(seed {args.seed}), {len(graphs)} named graphs, "
          f"{args.replicas} replicas ({args.policy})")
    print(stats.summary_line())
    for record in stats.records[:args.show]:
        est = record.estimate
        print(f"  delta {record.delta_id} -> {record.graph_name} "
              f"epoch {record.epoch} [{record.mode}]: "
              f"+{record.applied_inserts}/-{record.applied_deletes} "
              f"({record.applied_noops} no-op), est ratio "
              f"{est.ratio:.3f}, {record.work_units} work units, "
              f"invalidated L1 {record.invalidated_l1} / "
              f"L2 {record.invalidated_l2} / "
              f"disk {record.invalidated_disk}")
    print(f"  epochs: " + ", ".join(
        f"{name}={epoch}" for name, epoch in stats.epochs.items()))
    _print_cluster_report(stats.cluster, False)
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    # Thin passthrough: the bench harness owns its own argparse tree and
    # exit-code contract (0 ok / 1 regression / 2 ReproError).
    from repro.bench.cli import main as bench_main

    return bench_main(args.bench_args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro",
                                     description=__doc__.splitlines()[0])
    from repro import __version__
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="print Tables I-III")
    p.add_argument("--scale", type=float, default=0.02)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("preprocess", help="build and save MEGA schedules")
    _add_dataset_args(p)
    _add_pipeline_args(p)
    p.add_argument("--window", type=int, default=None)
    p.add_argument("--coverage", type=float, default=1.0)
    p.add_argument("--output", default="schedules.npz")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("profile", help="simulated kernel profile")
    _add_dataset_args(p)
    _add_model_args(p)
    p.add_argument("--method", default="baseline", choices=METHODS[:2])
    p.add_argument("--against", default=None, choices=METHODS[:2],
                   help="also profile this method and print a comparison")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("train", help="train one model")
    _add_dataset_args(p)
    _add_model_args(p)
    _add_pipeline_args(p)
    p.add_argument("--method", default="mega", choices=METHODS[:2])
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--checkpoint-dir", default=None,
                   help="write an atomic rolling checkpoint here; "
                        "enables crash-safe resume and NaN rollback")
    p.add_argument("--checkpoint-every", type=int, default=1,
                   help="epochs between checkpoint writes")
    p.add_argument("--resume", action="store_true",
                   help="continue from the checkpoint in --checkpoint-dir")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("analyze", help="schedule-quality report per graph")
    _add_dataset_args(p)
    p.add_argument("--count", type=int, default=2)
    p.add_argument("--window", type=int, default=None)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("compare", help="baseline vs MEGA summary")
    _add_dataset_args(p)
    _add_model_args(p)
    _add_pipeline_args(p)
    p.add_argument("--epochs", type=int, default=8)
    p.add_argument("--lr", type=float, default=3e-3)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("serve",
                       help="serve the test split through one serving "
                            "replica")
    _add_dataset_args(p)
    _add_serve_args(p)
    p.add_argument("--requests", type=int, default=32,
                   help="how many requests to serve")
    p.add_argument("--rate", type=float, default=200.0,
                   help="uniform arrival rate (requests per simulated s)")
    p.add_argument("--show", type=int, default=5,
                   help="print the first N predictions")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("loadtest",
                       help="seeded load test; prints SLO metrics")
    _add_dataset_args(p)
    _add_serve_args(p)
    _add_load_args(p)
    p.add_argument("--replicas", type=int, default=1,
                   help="serving replicas (1 = single node)")
    p.add_argument("--policy", default="hash-affinity",
                   choices=CLUSTER_POLICIES,
                   help="cluster load-balance policy (with --replicas > 1)")
    p.set_defaults(func=cmd_loadtest)

    p = sub.add_parser("cluster",
                       help="multi-replica loadtest with routing, "
                            "tiered cache and seeded failover")
    _add_dataset_args(p)
    _add_serve_args(p)
    _add_cluster_args(p)
    _add_load_args(p)
    p.set_defaults(func=cmd_loadtest)

    p = sub.add_parser("stream",
                       help="dynamic-graph loadtest: seeded edge "
                            "deltas with incremental schedule repair")
    _add_dataset_args(p)
    _add_serve_args(p)
    _add_cluster_args(p)
    _add_load_args(p, count="events",
                   count_help="total event slots (queries + delta "
                              "batches)", pool=8)
    p.add_argument("--delta-fraction", type=float, default=0.2,
                   help="probability an event is a delta batch")
    p.add_argument("--ops-per-delta", type=int, default=4,
                   help="edge operations per delta batch")
    p.add_argument("--delete-fraction", type=float, default=0.25,
                   help="probability a delta op is a delete")
    p.add_argument("--recompute-ratio", type=float, default=1.0,
                   help="estimated repair/rebuild cost ratio above "
                        "which a delta recomputes Algorithm 1")
    p.add_argument("--show", type=int, default=5,
                   help="print the first N repair records")
    p.set_defaults(func=cmd_stream)

    p = sub.add_parser("bench",
                       help="benchmark harness: run/compare/list "
                            "(forwards to python -m repro.bench)")
    p.add_argument("bench_args", nargs=argparse.REMAINDER,
                   help="arguments for repro.bench (e.g. 'run --all')")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        # Library failures are user errors or environment problems, not
        # crashes: one line on stderr and a stable exit code, so shell
        # scripts can branch on it (0 = ok, 2 = ReproError).
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
