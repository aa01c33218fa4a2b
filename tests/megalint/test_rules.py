"""Per-rule contract: one violating fixture fires, one clean fixture
does not.  Every registered rule is exercised both ways so a rule can
neither rot into a no-op nor grow a false positive silently.
"""

from tests.megalint.conftest import rule_ids_of


# ---------------------------------------------------------------- MEGA001
class TestImportLayering:
    def test_fires_on_low_importing_high(self, lint):
        result = lint({
            "repro/core/sched.py": '''\
                """Doc string long enough."""
                from repro.train.trainer import Trainer
            ''',
        }, select={"MEGA001"})
        assert rule_ids_of(result) == ["MEGA001"]
        assert "repro.train.trainer" in result.violations[0].message

    def test_fires_on_plain_import(self, lint):
        result = lint({
            "repro/tensor/ops.py": '''\
                """Doc string long enough."""
                import repro.models
            ''',
        }, select={"MEGA001"})
        assert rule_ids_of(result) == ["MEGA001"]

    def test_clean_on_downward_and_sibling_imports(self, lint):
        result = lint({
            "repro/core/sched.py": '''\
                """Doc string long enough."""
                from repro.graph.graph import Graph
                from repro.errors import ScheduleError
            ''',
            # High layers may import low ones freely.
            "repro/train/trainer.py": '''\
                """Doc string long enough."""
                from repro.core.schedule import traverse
            ''',
        }, select={"MEGA001"})
        assert result.ok

    def test_relative_import_resolved(self, lint):
        result = lint({
            "repro/__init__.py": '"""Package docstring here."""\n',
            "repro/core/__init__.py": '''\
                """Doc string long enough."""
                from ..pipeline import cache
            ''',
        }, select={"MEGA001"})
        assert rule_ids_of(result) == ["MEGA001"]
        assert "repro.pipeline" in result.violations[0].message

    def test_fires_on_high_importing_top(self, lint):
        result = lint({
            "repro/pipeline/warm.py": '''\
                """Doc string long enough."""
                from repro.serve.server import ServerEngine
            ''',
        }, select={"MEGA001"})
        assert rule_ids_of(result) == ["MEGA001"]
        assert "top-layer" in result.violations[0].message
        assert "repro.serve.server" in result.violations[0].message

    def test_fires_on_low_importing_top(self, lint):
        result = lint({
            "repro/core/hooks.py": '''\
                """Doc string long enough."""
                import repro.serve
            ''',
        }, select={"MEGA001"})
        assert rule_ids_of(result) == ["MEGA001"]
        assert "top-layer" in result.violations[0].message

    def test_clean_on_top_importing_everything(self, lint):
        # Top layers are pure consumers: any downward import is fine.
        result = lint({
            "repro/serve/server2.py": '''\
                """Doc string long enough."""
                from repro.core.batching import padding_waste
                from repro.models.runtime import MegaRuntime
                from repro.pipeline.cache import ScheduleCache
                from repro.resilience import RetryPolicy
            ''',
        }, select={"MEGA001"})
        assert result.ok

    def test_top_layers_are_ordered(self, lint):
        # serve < cluster < bench: each may import only earlier tops.
        result = lint({
            "repro/cluster/cluster2.py": '''\
                """Doc string long enough."""
                from repro.serve.server import ServerEngine
            ''',
            "repro/bench/workloads2.py": '''\
                """Doc string long enough."""
                from repro.cluster import Cluster
                from repro.serve import ServerConfig
            ''',
        }, select={"MEGA001"})
        assert result.ok

    def test_fires_on_earlier_top_importing_later(self, lint):
        result = lint({
            "repro/serve/server3.py": '''\
                """Doc string long enough."""
                from repro.cluster.routing import HashRing
            ''',
            "repro/cluster/stats2.py": '''\
                """Doc string long enough."""
                import repro.bench
            ''',
        }, select={"MEGA001"})
        assert rule_ids_of(result) == ["MEGA001"]
        assert len(result.violations) == 2
        messages = sorted(v.message for v in result.violations)
        assert "repro.bench" in messages[0]
        assert "repro.cluster.routing" in messages[1]

    def test_fires_on_lower_layers_importing_cluster(self, lint):
        result = lint({
            "repro/pipeline/warm2.py": '''\
                """Doc string long enough."""
                from repro.cluster import ClusterStats
            ''',
            "repro/core/hooks2.py": '''\
                """Doc string long enough."""
                import repro.cluster.routing
            ''',
        }, select={"MEGA001"})
        assert rule_ids_of(result) == ["MEGA001"]
        assert len(result.violations) == 2
        assert all("top-layer" in v.message for v in result.violations)


# ---------------------------------------------------------------- MEGA002
class TestDeterminism:
    def test_fires_on_legacy_np_random(self, lint):
        result = lint({
            "repro/models/init2.py": '''\
                """Doc string long enough."""
                import numpy as np
                def weights(n):
                    return np.random.rand(n)
            ''',
        }, select={"MEGA002"})
        assert rule_ids_of(result) == ["MEGA002"]
        assert "np.random.rand" in result.violations[0].message

    def test_fires_on_set_into_ordered_sink(self, lint):
        result = lint({
            "repro/graph/gen2.py": '''\
                """Doc string long enough."""
                def edges(pairs):
                    return list(set(pairs))
            ''',
        }, select={"MEGA002"})
        assert rule_ids_of(result) == ["MEGA002"]

    def test_fires_on_for_over_set_and_set_pop(self, lint):
        result = lint({
            "repro/core/walk.py": '''\
                """Doc string long enough."""
                def walk(n):
                    order = []
                    for v in {x for x in range(n)}:
                        order.append(v)
                    pending = set(range(n))
                    while pending:
                        order.append(pending.pop())
                    return order
            ''',
        }, select={"MEGA002"})
        assert len(result.violations) == 2
        assert {v.rule_id for v in result.violations} == {"MEGA002"}

    def test_clean_on_sorted_and_membership(self, lint):
        result = lint({
            "repro/graph/gen2.py": '''\
                """Doc string long enough."""
                import numpy as np
                def edges(pairs, rng):
                    canon = {(min(a, b), max(a, b)) for a, b in pairs}
                    keep = [p for p in sorted(canon) if p in canon]
                    rng2 = np.random.default_rng(0)
                    return keep, rng2.random(len(keep))
            ''',
        }, select={"MEGA002"})
        assert result.ok

    def test_out_of_scope_module_not_flagged_for_sets(self, lint):
        # Set-order checks only apply to determinism-scoped modules;
        # the legacy np.random ban applies everywhere.
        result = lint({
            "repro/datasets/dl.py": '''\
                """Doc string long enough."""
                import numpy as np
                def f(pairs):
                    ordered = list(set(pairs))      # out of scope: allowed
                    np.random.shuffle(ordered)      # legacy RNG: banned
                    return ordered
            ''',
        }, select={"MEGA002"})
        assert len(result.violations) == 1
        assert "np.random.shuffle" in result.violations[0].message


# ---------------------------------------------------------------- MEGA003
class TestHotLoops:
    def test_fires_on_range_loop_in_kernel(self, lint):
        result = lint({
            "repro/tensor/functional.py": '''\
                """Doc string long enough."""
                def segment_sum_slow(x, ids, out):
                    for i in range(len(ids)):
                        out[ids[i]] += x[i]
                    return out
            ''',
        }, select={"MEGA003"})
        assert rule_ids_of(result) == ["MEGA003"]

    def test_fires_on_nested_and_while_loops(self, lint):
        result = lint({
            "repro/models/layers.py": '''\
                """Doc string long enough."""
                def attn(rows):
                    while rows:
                        for row in rows:
                            for x in row:
                                pass
                        rows = rows[1:]
            ''',
        }, select={"MEGA003"})
        assert len(result.violations) >= 2  # while + nested for(s)

    def test_fires_on_ufunc_at_scatter(self, lint):
        result = lint({
            "repro/tensor/functional.py": '''\
                """Doc string long enough."""
                import numpy as np
                def segment_sum(x, ids, n):
                    out = np.zeros((n,) + x.shape[1:], x.dtype)
                    np.add.at(out, ids, x)
                    return out
                def segment_max(x, ids, n, ufunc=np.maximum):
                    out = np.full((n,) + x.shape[1:], -1e30)
                    ufunc.at(out, ids, x)
                    return out
            ''',
        }, select={"MEGA003"})
        assert rule_ids_of(result) == ["MEGA003"]
        assert len(result.violations) == 2
        assert "'np.add.at'" in result.violations[0].message
        assert "'ufunc.at'" in result.violations[1].message

    def test_ufunc_at_allowed_outside_kernel_modules(self, lint):
        result = lint({
            "repro/graph/graph.py": '''\
                """Doc string long enough."""
                import numpy as np
                def degrees(src, n):
                    deg = np.zeros(n, np.int64)
                    np.add.at(deg, src, 1)
                    return deg
            ''',
        }, select={"MEGA003"})
        assert result.ok

    def test_clean_on_vectorised_kernel_and_object_loops(self, lint):
        result = lint({
            "repro/tensor/functional.py": '''\
                """Doc string long enough."""
                import numpy as np
                def segment_sum(x, order, segments, ranks, n):
                    out = np.zeros((n,) + x.shape[1:], x.dtype)
                    grouped = x[order]
                    (start, stop), *later = ranks
                    acc = out[:stop - start] + grouped[start:stop]
                    for start, stop in later:
                        rows = acc[:stop - start]
                        np.add(rows, grouped[start:stop], out=rows)
                    out[segments] = acc
                    return out
                def backward_all(tensors, pieces):
                    for t, piece in zip(tensors, pieces):
                        t.accumulate(piece)
            ''',
        }, select={"MEGA003"})
        assert result.ok

    def test_non_kernel_module_loops_allowed(self, lint):
        result = lint({
            "repro/core/schedule.py": '''\
                """Doc string long enough."""
                def traverse(n):
                    return [i for i in range(n)]
            ''',
        }, select={"MEGA003"})
        assert result.ok


# ---------------------------------------------------------------- MEGA004
class TestCachePurity:
    def test_fires_on_clock_env_and_listing(self, lint):
        result = lint({
            "repro/pipeline/hashing.py": '''\
                """Doc string long enough."""
                import os, time
                def bad_key(path):
                    stamp = time.time()
                    salt = os.environ.get("SALT", "")
                    files = os.listdir(path)
                    return stamp, salt, files
            ''',
        }, select={"MEGA004"})
        assert len(result.violations) == 3
        assert {v.rule_id for v in result.violations} == {"MEGA004"}

    def test_fires_on_unsorted_glob(self, lint):
        result = lint({
            "repro/pipeline/cache.py": '''\
                """Doc string long enough."""
                def entries(cache_dir):
                    return [p.name for p in cache_dir.glob("*.npz")]
            ''',
        }, select={"MEGA004"})
        assert rule_ids_of(result) == ["MEGA004"]

    def test_clean_on_sorted_listing_and_pure_hashing(self, lint):
        result = lint({
            "repro/pipeline/hashing.py": '''\
                """Doc string long enough."""
                import hashlib
                def key(blob):
                    return hashlib.sha256(blob).hexdigest()
            ''',
            "repro/pipeline/cache.py": '''\
                """Doc string long enough."""
                def entries(cache_dir):
                    return sorted(cache_dir.glob("*.npz"))
            ''',
        }, select={"MEGA004"})
        assert result.ok

    def test_out_of_scope_module_may_read_clock(self, lint):
        result = lint({
            "repro/pipeline/parallel.py": '''\
                """Doc string long enough."""
                import time
                def timed(fn):
                    t0 = time.perf_counter()
                    out = fn()
                    return out, time.perf_counter() - t0
            ''',
        }, select={"MEGA004"})
        assert result.ok


# ---------------------------------------------------------------- MEGA005
class TestErrorSwallow:
    def test_fires_on_bare_except_and_blind_broad(self, lint):
        result = lint({
            "repro/train/ckpt2.py": '''\
                """Doc string long enough."""
                def load(path):
                    try:
                        return open(path).read()
                    except:
                        return None
                def drop(path):
                    try:
                        path.unlink()
                    except Exception:
                        pass
            ''',
        }, select={"MEGA005"})
        assert len(result.violations) == 2

    def test_clean_on_handled_broad_and_narrow_pass(self, lint):
        result = lint({
            "repro/pipeline/cache2.py": '''\
                """Doc string long enough."""
                import os
                def get(self, key, path):
                    try:
                        return self.decode(path)
                    except Exception:
                        self.invalidate(key)   # corruption is a miss
                        return None
                def cleanup(tmp):
                    try:
                        os.unlink(tmp)
                    except OSError:
                        pass                   # narrow: best-effort
            ''',
        }, select={"MEGA005"})
        assert result.ok


# ---------------------------------------------------------------- MEGA006
class TestMutableDefaults:
    def test_fires_on_function_and_dataclass_defaults(self, lint):
        result = lint({
            "repro/core/cfg2.py": '''\
                """Doc string long enough."""
                from dataclasses import dataclass
                def collect(x, acc=[]):
                    acc.append(x)
                    return acc
                @dataclass
                class Plan:
                    window: int = 8
                    history: object = dict()
            ''',
        }, select={"MEGA006"})
        assert len(result.violations) == 2

    def test_clean_on_none_and_default_factory(self, lint):
        result = lint({
            "repro/core/cfg2.py": '''\
                """Doc string long enough."""
                from dataclasses import dataclass, field
                def collect(x, acc=None, names=()):
                    acc = [] if acc is None else acc
                    acc.append(x)
                    return acc
                @dataclass
                class Plan:
                    window: int = 8
                    history: list = field(default_factory=list)
            ''',
        }, select={"MEGA006"})
        assert result.ok


# ---------------------------------------------------------------- MEGA007
class TestModuleDocstring:
    def test_fires_on_missing_and_placeholder(self, lint):
        result = lint({
            "repro/memsim/bare2.py": "X = 1\n",
            "repro/memsim/stub2.py": '"""Nope."""\nX = 1\n',
        }, select={"MEGA007"})
        assert len(result.violations) == 2

    def test_clean_on_documented_and_private(self, lint):
        result = lint({
            "repro/memsim/doc2.py": '"""A real module docstring."""\n',
            "repro/memsim/_impl.py": "X = 1\n",  # private: exempt
        }, select={"MEGA007"})
        assert result.ok


# ---------------------------------------------------------------- MEGA008
class TestDunderAll:
    def test_fires_on_phantom_and_duplicate_exports(self, lint):
        result = lint({
            "repro/graph/__init__.py": '''\
                """Doc string long enough."""
                from repro.graph.graph import Graph
                __all__ = ["Graph", "Graph", "build_csr"]
            ''',
        }, select={"MEGA008"})
        messages = sorted(v.message for v in result.violations)
        assert len(messages) == 2
        assert "build_csr" in messages[0] or "build_csr" in messages[1]

    def test_clean_on_consistent_all(self, lint):
        result = lint({
            "repro/graph/__init__.py": '''\
                """Doc string long enough."""
                from repro.graph.graph import Graph, from_edge_list
                EDGE_LIMIT = 10
                def helper():
                    return None
                __all__ = ["Graph", "from_edge_list", "EDGE_LIMIT",
                           "helper"]
            ''',
        }, select={"MEGA008"})
        assert result.ok

    def test_dynamic_all_skipped(self, lint):
        result = lint({
            "repro/graph/__init__.py": '''\
                """Doc string long enough."""
                import repro.graph.graph as g
                __all__ = ["Graph"]
                __all__ += [n for n in dir(g)]
            ''',
        }, select={"MEGA008"})
        assert result.ok


# ---------------------------------------------------------------- MEGA009
class TestNoPrint:
    def test_fires_on_library_print(self, lint):
        result = lint({
            "repro/pipeline/dbg.py": '''\
                """Doc string long enough."""
                def run(stats):
                    print("hits:", stats.hits)
            ''',
        }, select={"MEGA009"})
        assert rule_ids_of(result) == ["MEGA009"]

    def test_clean_in_cli_and_on_method_named_print(self, lint):
        result = lint({
            "repro/cli.py": '''\
                """Doc string long enough."""
                def main(report):
                    print(report.summary_line())
            ''',
            "repro/pipeline/rep.py": '''\
                """Doc string long enough."""
                def render(doc, printer):
                    return printer.print(doc)  # method, not builtin
            ''',
        }, select={"MEGA009"})
        assert result.ok


# ---------------------------------------------------------------- MEGA010
class TestUnboundedRetry:
    def test_fires_on_while_true_except_continue(self, lint):
        result = lint({
            "repro/pipeline/poll.py": '''\
                """Doc string long enough."""
                def fetch(read):
                    while True:
                        try:
                            return read()
                        except OSError:
                            continue
            ''',
        }, select={"MEGA010"})
        assert rule_ids_of(result) == ["MEGA010"]
        assert "unbounded retry" in result.violations[0].message

    def test_fires_when_continue_nested_in_if(self, lint):
        result = lint({
            "repro/pipeline/poll2.py": '''\
                """Doc string long enough."""
                def fetch(read, log):
                    while 1:
                        try:
                            return read()
                        except OSError as exc:
                            if log:
                                log(exc)
                            continue
            ''',
        }, select={"MEGA010"})
        assert rule_ids_of(result) == ["MEGA010"]

    def test_clean_when_handler_reraises_past_bound(self, lint):
        result = lint({
            "repro/pipeline/poll3.py": '''\
                """Doc string long enough."""
                def fetch(read, max_attempts=3):
                    attempt = 0
                    while True:
                        try:
                            return read()
                        except OSError:
                            attempt += 1
                            if attempt >= max_attempts:
                                raise
                            continue
            ''',
        }, select={"MEGA010"})
        assert result.ok

    def test_clean_on_counted_for_loop_and_bounded_while(self, lint):
        result = lint({
            # call_with_retry's shape: a for-range loop is bounded.
            "repro/resilience/rt.py": '''\
                """Doc string long enough."""
                def call(fn, attempts=3):
                    for attempt in range(attempts):
                        try:
                            return fn(attempt)
                        except OSError:
                            continue
            ''',
            # Non-constant test: the loop condition is the bound.
            "repro/pipeline/poll4.py": '''\
                """Doc string long enough."""
                def drain(queue, read):
                    while queue:
                        try:
                            read(queue.pop())
                        except OSError:
                            continue
            ''',
        }, select={"MEGA010"})
        assert result.ok

    def test_inner_loop_continue_not_attributed_to_outer(self, lint):
        result = lint({
            "repro/pipeline/poll5.py": '''\
                """Doc string long enough."""
                def pump(read, items):
                    while True:
                        try:
                            return read()
                        except OSError:
                            for item in items:
                                if not item:
                                    continue
                            raise
            ''',
        }, select={"MEGA010"})
        assert result.ok


class TestLedgerDeterminism:
    def test_clock_read_in_as_dict_fires(self, lint):
        result = lint({
            "repro/bench/stats.py": '''\
                """Doc string long enough."""
                import time

                class Stats:
                    def as_dict(self):
                        return {"served": 1,
                                "elapsed": time.perf_counter()}
            ''',
        }, select={"MEGA011"})
        assert rule_ids_of(result) == ["MEGA011"]

    def test_wallish_key_in_replay_surface_fires(self, lint):
        result = lint({
            "repro/bench/ledger2.py": '''\
                """Doc string long enough."""
                def replay_surface(entry):
                    return {"metrics": {}, "wall_s": entry.wall_s}
            ''',
        }, select={"MEGA011"})
        assert rule_ids_of(result) == ["MEGA011"]

    def test_timestamp_key_in_suffixed_builder_fires(self, lint):
        result = lint({
            "repro/serve/stats.py": '''\
                """Doc string long enough."""
                def batch_replay_surface(batch):
                    return {"timestamp": batch.stamp}
            ''',
        }, select={"MEGA011"})
        assert rule_ids_of(result) == ["MEGA011"]

    def test_clock_outside_replay_funcs_is_clean(self, lint):
        result = lint({
            # Wall-clock reads and wall-ish keys are fine in the
            # *excluded* blocks (environment_block, plain helpers).
            "repro/bench/ledger3.py": '''\
                """Doc string long enough."""
                import time

                def environment_block():
                    return {"timestamp": time.time()}

                def as_dict(metrics):
                    return {"metrics": dict(metrics)}
            ''',
        }, select={"MEGA011"})
        assert result.ok

    def test_out_of_scope_module_is_clean(self, lint):
        result = lint({
            # Same code outside the ledger-scoped modules: not our rule.
            "repro/models/report.py": '''\
                """Doc string long enough."""
                import time

                def as_dict(self):
                    return {"wall_s": time.time()}
            ''',
        }, select={"MEGA011"})
        assert result.ok

    def test_nested_helper_function_is_flagged(self, lint):
        result = lint({
            # A def nested inside as_dict is part of the builder's body
            # (as in MEGA012's taint scopes), so its clock read counts.
            "repro/bench/helpers.py": '''\
                """Doc string long enough."""
                import time

                def as_dict(metrics):
                    def stamp():
                        return time.time()
                    return {"metrics": dict(metrics)}
            ''',
        }, select={"MEGA011"})
        assert rule_ids_of(result) == ["MEGA011"]
        assert "'as_dict'" in result.violations[0].message
