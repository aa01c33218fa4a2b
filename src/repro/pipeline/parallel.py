"""Batch schedule construction: fan Algorithm 1 out, merge deterministically.

The traversal is pure CPU work with no shared state, so the pipeline
chunks the graph list, runs chunks under a
:class:`~concurrent.futures.ProcessPoolExecutor`, and reassembles
results **in input order** — ``workers=4`` output is byte-identical to
``workers=1`` (asserted in ``tests/pipeline/test_parallel.py``).

With a :class:`~repro.pipeline.cache.ScheduleCache` attached, the parent
process probes the cache first, fans out only the misses, and writes the
new entries itself (single-writer discipline; see ``cache.py``).
Structurally identical graphs share a cache key and are computed once
per run.

Failure story (see ``docs/resilience.md`` for the full matrix):

* **Transient chunk failures** (crashed worker, flaky I/O) are retried
  with bounded exponential backoff through
  :func:`repro.resilience.call_with_retry`; because the traversal is a
  pure function, a retried chunk reproduces the exact bytes a
  failure-free run would have produced.
* **A dead executor** (``BrokenProcessPool``) degrades the run to
  serial in-parent computation instead of aborting — slower, never
  wrong.
* **Pathological graphs** that fail on every attempt are *quarantined*
  (``on_error="quarantine"``): their slots come back ``None``, the
  failure is recorded loudly in ``PipelineStats.quarantined``, and the
  other ten thousand graphs still complete.

All failure handling is driven by an optional, fully deterministic
:class:`~repro.resilience.FaultPlan`, which is how tier-1 tests
exercise every path above without a real crash.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.config import MegaConfig
from repro.core.diagonal import AttentionPlan, make_attention_plan
from repro.core.path import PathRepresentation, working_graph
from repro.core.schedule import TraversalResult
from repro.errors import ConfigError, FaultInjectionError, GraphError
from repro.graph.graph import Graph
from repro.pipeline.cache import ScheduleCache
from repro.pipeline.hashing import schedule_cache_key
from repro.pipeline.stats import CacheStats, PipelineStats, QuarantineRecord
from repro.resilience import FaultPlan, RetryPolicy, call_with_retry

#: ``(global_input_index, graph)`` — indices travel with their graphs so
#: fault injection and quarantine reports refer to input positions.
Item = Tuple[int, Graph]


def compute_schedule(graph: Graph, config: Optional[MegaConfig] = None
                     ) -> PathRepresentation:
    """Run the full preprocessing for one graph (worker body).

    The path representation Algorithm 1 built is the unit every stage
    below passes around and every in-memory tier holds; another graph
    with the same content key takes it over with
    :meth:`PathRepresentation.rebind`.  Only the on-disk
    :class:`ScheduleCache` stores the bare schedule
    (``representation.schedule``), which :func:`materialise` binds
    back to a graph.
    """
    config = config or MegaConfig()
    return PathRepresentation.from_graph(graph, config)


def materialise(graph: Graph, config: MegaConfig,
                result: TraversalResult) -> PathRepresentation:
    """Reattach a schedule read from disk to its graph.

    Edge dropping is re-derived from ``config.seed`` exactly as
    :meth:`PathRepresentation.from_graph` does, so the representation is
    bound to the same working graph the schedule was computed on.
    """
    return PathRepresentation(working_graph(graph, config), result)


def _compute_chunk(payload: Tuple[MegaConfig, List[Item],
                                  Optional[str], FrozenSet[int]]
                   ) -> List[PathRepresentation]:
    """Top-level (picklable) worker: schedule every graph in the chunk.

    ``inject`` carries a deterministic worker-crash message decided by
    the parent's :class:`FaultPlan`; ``poison`` the set of input indices
    that must fail on every attempt (the quarantine test vector).
    """
    config, items, inject, poison = payload
    if inject is not None:
        raise FaultInjectionError(inject)
    out = []
    for idx, graph in items:
        if idx in poison:
            raise GraphError(f"injected pathological graph {idx}")
        out.append(compute_schedule(graph, config))
    return out


def _make_chunks(items: Sequence, workers: int) -> List[List]:
    """Contiguous chunks, ~4 per worker for load balance, order kept."""
    target = max(1, -(-len(items) // (workers * 4)))
    return [list(items[i:i + target])
            for i in range(0, len(items), target)]


def _crash_message(fault_plan: Optional[FaultPlan], chunk_index: int,
                   attempt: int) -> Optional[str]:
    """The injected-crash token for one chunk attempt (None = healthy)."""
    if fault_plan is not None and \
            fault_plan.should_crash_worker(chunk_index, attempt):
        return f"worker crash (chunk {chunk_index}, attempt {attempt})"
    return None


@dataclass
class PipelineResult:
    """Output of :func:`precompute_paths`, in input-graph order.

    Quarantined graphs (``on_error="quarantine"``) leave ``None`` at
    their positions in ``paths``/``plans``; ``stats.quarantined`` holds
    the loud record of what failed and why.  ``symmetric_reuse`` is
    the run's ``MegaConfig.symmetric_reuse``, which ``plans`` honours.
    """

    paths: List[Optional[PathRepresentation]]
    stats: PipelineStats = field(default_factory=PipelineStats)
    symmetric_reuse: bool = True

    @property
    def schedules(self) -> List[Optional[TraversalResult]]:
        return [p.schedule if p is not None else None for p in self.paths]

    @property
    def plans(self) -> List[Optional[AttentionPlan]]:
        """Attention plans, derived from ``paths`` on each access."""
        return [make_attention_plan(p, self.symmetric_reuse)
                if p is not None else None for p in self.paths]

    @property
    def ok(self) -> bool:
        """True when every input graph produced a schedule."""
        return not self.stats.quarantined

    def __len__(self) -> int:
        return len(self.paths)


# ----------------------------------------------------------------------
# Fault-tolerant execution of the miss set
# ----------------------------------------------------------------------
def _compute_serial(items: Sequence[Item], config: MegaConfig, *,
                    retry: RetryPolicy,
                    sleep: Optional[Callable[[float], None]],
                    fault_plan: Optional[FaultPlan],
                    stats: PipelineStats,
                    quarantine: bool) -> Dict[int, PathRepresentation]:
    """In-parent computation with per-graph retry and quarantine."""

    def count_retry(attempt: int, exc: BaseException) -> None:
        stats.retries += 1

    out: Dict[int, PathRepresentation] = {}
    for idx, graph in items:
        def attempt_fn(attempt: int, idx: int = idx,
                       graph: Graph = graph) -> PathRepresentation:
            if fault_plan is not None:
                if fault_plan.is_poisoned(idx):
                    raise GraphError(f"injected pathological graph {idx}")
                if fault_plan.should_io_error(idx, attempt):
                    fault_plan.crash("io", idx, attempt)
            return compute_schedule(graph, config)

        try:
            out[idx] = call_with_retry(attempt_fn, policy=retry,
                                       sleep=sleep, on_retry=count_retry)
        except Exception as exc:
            if not quarantine:
                raise
            stats.quarantined.append(
                QuarantineRecord(index=idx, error=repr(exc)))
    return out


def _compute_parallel(items: Sequence[Item], config: MegaConfig,
                      workers: int, *,
                      retry: RetryPolicy,
                      sleep: Optional[Callable[[float], None]],
                      fault_plan: Optional[FaultPlan],
                      stats: PipelineStats,
                      quarantine: bool) -> Dict[int, PathRepresentation]:
    """Fan chunks out with per-chunk retry; degrade to serial on a dead pool.

    A chunk whose retries are exhausted (or that fails non-transiently,
    e.g. one pathological graph) is re-run graph-by-graph in the parent
    so only the true culprit is quarantined.
    """
    chunks = _make_chunks(items, workers)
    poison = (frozenset(fault_plan.poison_graphs)
              if fault_plan is not None else frozenset())

    def count_retry(attempt: int, exc: BaseException) -> None:
        stats.retries += 1

    out: Dict[int, PathRepresentation] = {}
    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            # First wave: every chunk in flight at once (attempt 0).
            first = [
                pool.submit(_compute_chunk,
                            (config, chunk,
                             _crash_message(fault_plan, i, 0), poison))
                for i, chunk in enumerate(chunks)]
            for i, chunk in enumerate(chunks):
                if fault_plan is not None and fault_plan.should_break_pool(i):
                    raise BrokenProcessPool(
                        f"injected executor death at chunk {i}")

                def attempt_fn(attempt: int, i: int = i,
                               chunk: List[Item] = chunk
                               ) -> List[PathRepresentation]:
                    if attempt == 0:
                        return first[i].result()
                    future = pool.submit(
                        _compute_chunk,
                        (config, chunk,
                         _crash_message(fault_plan, i, attempt), poison))
                    return future.result()

                try:
                    entries = call_with_retry(attempt_fn, policy=retry,
                                              sleep=sleep,
                                              on_retry=count_retry)
                except BrokenProcessPool:
                    raise
                except Exception:
                    # Retries exhausted, or one graph in the chunk is
                    # genuinely pathological: isolate it per graph.
                    if not quarantine:
                        raise
                    out.update(_compute_serial(
                        chunk, config, retry=retry, sleep=sleep,
                        fault_plan=fault_plan, stats=stats,
                        quarantine=True))
                    continue
                out.update({idx: entry
                            for (idx, _), entry in zip(chunk, entries)})
    except BrokenProcessPool:
        # Dead executor: finish everything not yet merged in-parent.
        # Slower, never wrong — and loud in the stats report.
        stats.degraded_to_serial = True
        remaining = [item for chunk in chunks for item in chunk
                     if item[0] not in out]
        quarantined = {q.index for q in stats.quarantined}
        remaining = [item for item in remaining
                     if item[0] not in quarantined]
        out.update(_compute_serial(remaining, config, retry=retry,
                                   sleep=sleep, fault_plan=fault_plan,
                                   stats=stats, quarantine=quarantine))
    return out


def precompute_paths(graphs: Sequence[Graph],
                     config: Optional[MegaConfig] = None, *,
                     workers: int = 1,
                     cache: Optional[ScheduleCache] = None,
                     cache_dir=None,
                     max_bytes: Optional[int] = None,
                     retry: Optional[RetryPolicy] = None,
                     fault_plan: Optional[FaultPlan] = None,
                     sleep: Optional[Callable[[float], None]] = None,
                     on_error: str = "raise") -> PipelineResult:
    """Build path representations for many graphs.

    Parameters
    ----------
    graphs:
        Input graphs; output lists follow this order exactly.
    config:
        Shared :class:`MegaConfig` (defaults used when ``None``).
    workers:
        Process count for the miss set; ``1`` computes inline.
    cache / cache_dir / max_bytes:
        Pass an existing :class:`ScheduleCache`, or a directory (plus
        optional LRU cap) to open one.  Both ``None`` disables caching.
    retry:
        :class:`RetryPolicy` for transient failures (default: 3
        attempts with exponential backoff).
    fault_plan:
        Deterministic fault injection for tests/drills; ``None`` in
        production.
    sleep:
        Backoff sleep shim (default ``time.sleep``); tests pass a
        recording stub so retries take microseconds.
    on_error:
        ``"raise"`` (default) propagates the first unrecoverable graph
        failure; ``"quarantine"`` records it in the stats, leaves
        ``None`` at that graph's output positions, and continues.
    """
    t_start = time.perf_counter()
    config = config or MegaConfig()
    graphs = list(graphs)
    workers = max(1, int(workers))
    if on_error not in ("raise", "quarantine"):
        raise ConfigError(
            f"on_error must be 'raise' or 'quarantine', got {on_error!r}")
    quarantine = on_error == "quarantine"
    retry = retry or RetryPolicy()
    if cache is None and cache_dir is not None:
        cache = ScheduleCache(cache_dir, max_bytes=max_bytes)
    stats = PipelineStats(num_graphs=len(graphs), workers=workers)
    counters_before = cache.stats.as_dict() if cache is not None else None

    n = len(graphs)
    paths: List[Optional[PathRepresentation]] = [None] * n

    # Group structurally identical graphs: one compute per distinct key.
    # Every member of a group shares its representative's arrays.
    if cache is not None:
        keys = [schedule_cache_key(g, config) for g in graphs]
        groups: Dict[str, List[int]] = {}
        for i, key in enumerate(keys):
            groups.setdefault(key, []).append(i)
        stats.deduplicated = n - len(groups)
        miss_keys: List[str] = []
        for key, members in groups.items():
            entry = cache.get(key)
            if entry is not None:
                rep = materialise(graphs[members[0]], config, entry)
                for i in members:
                    paths[i] = rep.rebind(graphs[i], config)
            else:
                miss_keys.append(key)
        todo = [groups[k][0] for k in miss_keys]
    else:
        miss_keys = []
        todo = list(range(n))

    # Fan the misses out (or compute inline for workers=1 / tiny sets).
    t_compute = time.perf_counter()
    items: List[Item] = [(i, graphs[i]) for i in todo]
    run_kwargs = dict(retry=retry, sleep=sleep, fault_plan=fault_plan,
                      stats=stats, quarantine=quarantine)
    if workers == 1 or len(items) <= 1:
        computed = _compute_serial(items, config, **run_kwargs)
    else:
        computed = _compute_parallel(items, config, workers, **run_kwargs)
    stats.compute_s = time.perf_counter() - t_compute
    stats.computed = len(computed)

    # Deterministic merge + single-writer cache population.  A worker's
    # representation is bound to its own copy of the graph; rebinding
    # hands every caller back its own graph object.
    if cache is not None:
        for key, rep_idx in zip(miss_keys, todo):
            rep = computed.get(rep_idx)
            if rep is None:  # quarantined: every group member stays None
                continue
            cache.put(key, rep.schedule, flush=False)
            for i in groups[key]:
                paths[i] = rep.rebind(graphs[i], config)
        cache.flush()
        # Report only this run's counters even on a shared cache object.
        after = cache.stats.as_dict()
        stats.cache = CacheStats(**{k: after[k] - counters_before[k]
                                    for k in after})
        missed = set(miss_keys)
        stats.from_cache = sum(
            len(m) for k, m in groups.items() if k not in missed)
    else:
        for idx, rep in computed.items():
            paths[idx] = rep.rebind(graphs[idx], config)

    stats.total_s = time.perf_counter() - t_start
    return PipelineResult(paths=paths, stats=stats,
                          symmetric_reuse=config.symmetric_reuse)
