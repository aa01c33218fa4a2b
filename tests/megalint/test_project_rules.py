"""The cross-module rules MEGA012–015 against seeded fixture trees.

Each scenario from the rules' docstrings gets a fixture that triggers
it — two-hop taint, sanctioned impurities, upward calls through
injected callables and re-exports, dead exports, drifted duck-types —
plus the composition contracts: inline suppression and baselines work
for project violations exactly as for per-file ones.
"""

import json
import textwrap

import pytest

from tools.megalint import (
    LintConfig,
    apply_baseline,
    load_baseline,
    write_baseline,
)

from tests.megalint.conftest import rule_ids_of


def _messages(result, rule_id):
    return [v.message for v in result.violations if v.rule_id == rule_id]


class TestMEGA012Taint:
    def test_two_hop_clock_taint_reaches_replay_surface(self, plint):
        result = plint({
            "repro/bench/report.py": """\
                from repro.bench.util import meta

                def as_dict():
                    return {"meta": meta()}
                """,
            "repro/bench/util.py": """\
                import time

                def meta():
                    return {"stamp": stamp()}

                def stamp():
                    return time.time()
                """,
        }, select=["MEGA012"])
        msgs = _messages(result, "MEGA012")
        assert len(msgs) >= 1
        surface = [m for m in msgs if "as_dict" in m]
        assert surface, msgs
        # The chain is spelled out, two hops deep.
        assert "repro.bench.util.stamp" in surface[0]
        assert "time.time()" in surface[0]

    def test_sanctioned_impurity_is_exempt(self, plint):
        result = plint({
            "repro/bench/report.py": """\
                import time

                def as_dict():
                    t = time.time()  # megalint: sanctioned-impurity=clock: wall block only, replayed verbatim
                    return {"wall": t}
                """,
        }, select=["MEGA012"])
        assert rule_ids_of(result) == []

    def test_declaration_without_justification_is_reported(self, plint):
        result = plint({
            "repro/bench/report.py": """\
                import time

                def as_dict():
                    t = time.time()  # megalint: sanctioned-impurity=clock:
                    return {"wall": t}
                """,
        }, select=["MEGA012"])
        msgs = _messages(result, "MEGA012")
        assert any("without a justification" in m for m in msgs)

    def test_unknown_impurity_kind_is_reported(self, plint):
        result = plint({
            "repro/bench/report.py": """\
                import time

                def as_dict():
                    t = time.time()  # megalint: sanctioned-impurity=luck: feeling lucky
                    return {"wall": t}
                """,
        }, select=["MEGA012"])
        msgs = _messages(result, "MEGA012")
        assert any("unknown impurity kind" in m for m in msgs)

    def test_configured_sink_function(self, plint):
        config = LintConfig(
            taint_sink_functions=["repro.anywhere.Plan.roll"])
        result = plint({
            "repro/anywhere.py": """\
                import random

                class Plan:
                    def roll(self):
                        return self._draw()
                    def _draw(self):
                        return random.random()
                """,
        }, select=["MEGA012"], config=config)
        msgs = _messages(result, "MEGA012")
        assert len(msgs) == 1
        assert "configured sink" in msgs[0]
        assert "random.random()" in msgs[0]

    def test_pure_chain_is_clean(self, plint):
        result = plint({
            "repro/bench/report.py": """\
                def as_dict():
                    return {"n": count()}

                def count():
                    return 3
                """,
        }, select=["MEGA012"])
        assert rule_ids_of(result) == []


class TestMEGA013Layering:
    def test_upward_call_via_injected_default(self, plint):
        result = plint({
            "repro/train/loop.py": """\
                def step():
                    return 1
                """,
            "repro/core/sched.py": """\
                from repro.train.loop import step

                def run(advance=step):
                    return advance()
                """,
        }, select=["MEGA013"])
        msgs = _messages(result, "MEGA013")
        assert len(msgs) == 1
        assert "injected" in msgs[0]
        assert "repro.train.loop.step" in msgs[0]

    def test_upward_call_via_reexport(self, plint):
        result = plint({
            "repro/pipeline/__init__.py":
                "from repro.pipeline.runner import launch\n",
            "repro/pipeline/runner.py": """\
                def launch():
                    return 1
                """,
            "repro/graph/walk.py": """\
                from repro.pipeline import launch

                def explore():
                    return launch()
                """,
        }, select=["MEGA013"])
        msgs = _messages(result, "MEGA013")
        assert len(msgs) == 1
        assert "repro.pipeline.runner.launch" in msgs[0]

    def test_top_layer_order_is_enforced(self, plint):
        # serve (rank 2) calling into bench (rank 5) is upward.
        result = plint({
            "repro/bench/harness.py": """\
                def measure():
                    return 1
                """,
            "repro/serve/server.py": """\
                from repro.bench.harness import measure

                def handle():
                    return measure()
                """,
        }, select=["MEGA013"])
        assert len(_messages(result, "MEGA013")) == 1

    def test_downward_call_is_fine(self, plint):
        result = plint({
            "repro/core/sched.py": """\
                def traverse():
                    return 1
                """,
            "repro/train/loop.py": """\
                from repro.core.sched import traverse

                def step():
                    return traverse()
                """,
        }, select=["MEGA013"])
        assert rule_ids_of(result) == []


class TestOneLayerModel:
    """MEGA001 (import edges) and MEGA013 (call edges) rank modules
    through the one ``layer_rank``."""

    def test_ranks_follow_the_configured_order(self):
        from tools.megalint.rules.layering import layer_rank
        config = LintConfig()
        ranks = [layer_rank(m, config) for m in (
            "repro.resilience.faults", "repro.pipeline.cache",
            "repro.serve", "repro.cluster.router", "repro.stream.deltas",
            "repro.bench.cli", "repro.cli")]
        assert ranks == [(0, "repro.resilience"), (1, "repro.pipeline"),
                         (2, "repro.serve"), (3, "repro.cluster"),
                         (4, "repro.stream"), (5, "repro.bench"), None]

    def test_import_and_call_edges_agree(self, plint):
        result = plint({
            "repro/bench/harness.py": "def measure():\n    return 1\n",
            "repro/stream/loop.py": """\
                from repro.bench.harness import measure

                def advance():
                    return measure()
                """,
        }, select=["MEGA001", "MEGA013"])
        assert rule_ids_of(result) == ["MEGA001", "MEGA013"]
        assert all("repro.stream" in v.message and "repro.bench" in v.message
                   for v in result.violations)


class TestOneDeterminismChecker:
    """MEGA004 and MEGA011 are hop-0 views of MEGA012's taint: the same
    sources, the same sanctions, one verdict per input."""

    RULES = ["MEGA004", "MEGA011", "MEGA012"]

    def test_clock_in_def_nested_in_as_dict(self, plint):
        result = plint({
            "repro/bench/report.py": """\
                import time

                def as_dict():
                    def stamp():
                        return time.time()
                    return {"at": stamp()}
                """,
        }, select=self.RULES)
        assert rule_ids_of(result) == ["MEGA011", "MEGA012"]
        assert "time.time()" in _messages(result, "MEGA011")[0]

    def test_sorted_glob_in_purity_module_is_clean(self, plint):
        result = plint({
            "repro/pipeline/cache.py": """\
                def entries(cache_dir):
                    return sorted(cache_dir.glob("*.npz"))

                def names(cache_dir):
                    return sorted(p.name for p in cache_dir.iterdir())
                """,
        }, select=self.RULES)
        assert rule_ids_of(result) == []

    def test_unsorted_glob_in_purity_module_fires_both(self, plint):
        result = plint({
            "repro/pipeline/cache.py": """\
                def entries(cache_dir):
                    return list(cache_dir.glob("*.npz"))
                """,
        }, select=self.RULES)
        assert rule_ids_of(result) == ["MEGA004", "MEGA012"]
        assert "fs-order" in _messages(result, "MEGA012")[0]

    def test_module_level_and_init_clock_reads(self, plint):
        # MEGA004 keeps its whole-module scope; MEGA012's sinks stay
        # the purity module's (non-dunder) functions.
        result = plint({
            "repro/pipeline/hashing.py": """\
                import time

                STARTED = time.time()

                class Keyer:
                    def __init__(self):
                        self.born = time.monotonic()

                    def key(self, blob):
                        return hash(blob)
                """,
        }, select=self.RULES)
        assert rule_ids_of(result) == ["MEGA004"]
        assert [v.line for v in result.violations] == [3, 7]

    def test_sanctioned_impurity_needs_no_disable(self, plint):
        result = plint({
            "repro/pipeline/cache.py": """\
                import os

                def default_dir():
                    return os.environ.get("X")  # megalint: sanctioned-impurity=env: picks the directory, never a key
                """,
        }, select=self.RULES)
        assert rule_ids_of(result) == []
        assert result.suppressed == 0

    def test_unjustified_declaration_sanctions_nothing(self, plint):
        result = plint({
            "repro/pipeline/cache.py": """\
                import os

                def default_dir():
                    return os.environ.get("X")  # megalint: sanctioned-impurity=env:
                """,
        }, select=self.RULES)
        assert rule_ids_of(result) == ["MEGA004", "MEGA012"]


    def test_cpu_affinity_read_is_an_env_source(self, plint):
        result = plint({
            "repro/pipeline/cache.py": """\
                import os

                def shard_count():
                    return len(os.sched_getaffinity(0))
                """,
        }, select=self.RULES)
        assert rule_ids_of(result) == ["MEGA004", "MEGA012"]
        assert "os.sched_getaffinity()" in _messages(result, "MEGA012")[0]


class TestAliasSurvival:
    """The hop-0 aliases keep their IDs for suppressions, --select and
    baselines."""

    PURITY = {
        "repro/pipeline/hashing.py": """\
            import time

            def key(blob):
                return (blob, time.time())
            """,
    }
    LEDGER = {
        "repro/bench/stats.py": """\
            import time

            class Stats:
                def as_dict(self):
                    return {"elapsed": time.perf_counter()}
            """,
    }

    @pytest.mark.parametrize("rule_id, files", [
        ("MEGA004", PURITY), ("MEGA011", LEDGER)])
    def test_inline_disable_silences_alias(self, lint, rule_id, files):
        assert rule_ids_of(lint(files, select={rule_id})) == [rule_id]
        silenced = {
            path: text.replace("time.time())", "time.time())  # megalint: "
                               f"disable={rule_id}")
                      .replace("perf_counter()}", "perf_counter()}  "
                               f"# megalint: disable={rule_id}")
            for path, text in files.items()}
        result = lint(silenced, select={rule_id})
        assert result.ok and result.suppressed == 1

    def test_select_runs_each_alias(self, tmp_path, monkeypatch, capsys):
        from tools.megalint.cli import main
        monkeypatch.chdir(tmp_path)
        for rel, text in dict(self.PURITY, **self.LEDGER).items():
            path = tmp_path / "src" / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(textwrap.dedent(text), encoding="utf-8")
        for rule_id in ("MEGA004", "MEGA011"):
            assert main(["src", "--no-config", "--select", rule_id,
                         "--format", "json"]) == 1
            report = json.loads(capsys.readouterr().out)
            assert report["summary"]["rules"] == [rule_id]
            assert {v["rule"] for v in report["violations"]} == {rule_id}

    def test_baseline_keyed_on_alias_id_matches(self, plint, tmp_path):
        key = ("src/repro/bench/stats.py::MEGA011::wall-clock read "
               "'time.perf_counter()' inside replay-surface builder "
               "'as_dict' — move it to the wall/environment block")
        baseline_file = tmp_path / "baseline.json"
        baseline_file.write_text(json.dumps(
            {"version": 1, "entries": {key: 1}}), encoding="utf-8")
        filtered, stale = apply_baseline(
            plint(self.LEDGER, select=["MEGA011"]),
            load_baseline(baseline_file))
        assert filtered.ok and filtered.baselined == 1 and stale == 0


class TestMEGA014DeadExports:
    FILES = {
        "repro/api.py": """\
            __all__ = ["used", "dead"]

            def used():
                return 1

            def dead():
                return 2
            """,
        "repro/consumer.py": "from repro.api import used\n",
    }

    def test_unreferenced_export_is_flagged(self, plint):
        result = plint(dict(self.FILES), select=["MEGA014"])
        msgs = _messages(result, "MEGA014")
        assert len(msgs) == 1
        assert "'dead'" in msgs[0]

    def test_reference_root_use_keeps_export_alive(self, plint):
        # A use only under tests/ keeps nothing alive: tests are not
        # an entry point.  A use under examples/ (a reference root) is.
        files = dict(self.FILES)
        files["tests/test_api.py"] = "from repro.api import dead\n"
        msgs = _messages(plint(files, select=["MEGA014"]), "MEGA014")
        assert len(msgs) == 1 and "'dead'" in msgs[0]
        files["examples/demo.py"] = "from repro.api import dead\n"
        assert rule_ids_of(plint(files, select=["MEGA014"])) == []

    def test_function_level_import_counts(self, plint):
        files = dict(self.FILES)
        files["repro/consumer.py"] = """\
            from repro.api import used

            def lazy():
                from repro.api import dead
                return used() + dead()
            """
        result = plint(files, select=["MEGA014"])
        assert rule_ids_of(result) == []

    def test_reexported_name_stays_alive(self, plint):
        result = plint({
            "repro/__init__.py": "from repro.impl import core_fn\n"
                                 "__all__ = [\"core_fn\"]\n",
            "repro/impl.py": "__all__ = [\"core_fn\"]\n\n"
                             "def core_fn():\n    return 1\n",
            "repro/user.py": "from repro import core_fn\n",
        }, select=["MEGA014"])
        # Importing via the package keeps both exports alive.
        assert rule_ids_of(result) == []


class TestMEGA015DuckTypes:
    CONFIG = LintConfig(protocol_classes=["repro.serve.server.Store"])
    PROTO = {
        "repro/serve/server.py": """\
            class Store:
                def resolve(self, graph):
                    raise NotImplementedError
                def put(self, graph, path):
                    raise NotImplementedError
            """,
    }

    def test_structural_signature_drift(self, plint):
        files = dict(self.PROTO)
        files["repro/cluster/cache.py"] = """\
            class TieredView:
                def resolve(self, graph, shard):
                    return None
                def put(self, graph, path):
                    return None
            """
        result = plint(files, select=["MEGA015"], config=self.CONFIG)
        msgs = _messages(result, "MEGA015")
        assert len(msgs) == 1
        assert "TieredView.resolve" in msgs[0]
        assert "graph, shard" in msgs[0]

    def test_subclass_near_miss_typo(self, plint):
        files = dict(self.PROTO)
        files["repro/cluster/policy.py"] = """\
            from repro.serve.server import Store

            class ShardStore(Store):
                def resolv(self, graph):
                    return None
                def put(self, graph, path):
                    return None
            """
        result = plint(files, select=["MEGA015"], config=self.CONFIG)
        msgs = _messages(result, "MEGA015")
        assert len(msgs) == 1
        assert "typo" in msgs[0]
        assert "resolv" in msgs[0]

    def test_wildcard_signature_is_accepted(self, plint):
        files = dict(self.PROTO)
        files["repro/cluster/cache.py"] = """\
            class ProxyStore:
                def resolve(self, *args, **kwargs):
                    return None
                def put(self, *args, **kwargs):
                    return None
            """
        result = plint(files, select=["MEGA015"], config=self.CONFIG)
        assert rule_ids_of(result) == []

    def test_structural_match_outside_package_is_ignored(self, plint):
        files = dict(self.PROTO)
        # Same shape, different top-level package: not a duck-type.
        files["tools_fixture/linty.py"] = """\
            class Resolver:
                def resolve(self, graph):
                    return None
                def put(self, graph, path):
                    return None
            """
        result = plint(files, select=["MEGA015"], config=self.CONFIG)
        assert rule_ids_of(result) == []

    def test_conforming_duck_type_is_clean(self, plint):
        files = dict(self.PROTO)
        files["repro/cluster/cache.py"] = """\
            class MirrorStore:
                def resolve(self, graph):
                    return None
                def put(self, graph, path):
                    return None
            """
        result = plint(files, select=["MEGA015"], config=self.CONFIG)
        assert rule_ids_of(result) == []


class TestProjectComposition:
    """Suppressions and baselines compose with the project pass."""

    TAINTED = {
        "repro/bench/report.py": """\
            import time

            def as_dict():
                return {"stamp": time.time()}
            """,
    }

    def test_inline_suppression_silences_project_rule(self, plint):
        files = {
            "repro/api.py": """\
                __all__ = [
                    "dead",  # megalint: disable=MEGA014
                ]

                def dead():
                    return 2
                """,
            "repro/consumer.py": "import repro.api\n",
        }
        result = plint(files, select=["MEGA014"])
        assert rule_ids_of(result) == []
        assert result.suppressed == 1

    @pytest.mark.parametrize("rule_id", ["MEGA012", "MEGA013",
                                         "MEGA014", "MEGA015"])
    def test_baseline_round_trip(self, plint, tmp_path, rule_id):
        fixtures = {
            "MEGA012": self.TAINTED,
            "MEGA013": {
                "repro/train/loop.py": "def step():\n    return 1\n",
                "repro/core/sched.py":
                    "from repro.train.loop import step\n\n"
                    "def run():\n    return step()\n",
            },
            "MEGA014": dict(TestMEGA014DeadExports.FILES),
            "MEGA015": dict(TestMEGA015DuckTypes.PROTO, **{
                "repro/cluster/cache.py":
                    "class View:\n"
                    "    def resolve(self, graph, shard):\n"
                    "        return None\n"
                    "    def put(self, graph, path):\n"
                    "        return None\n",
            }),
        }[rule_id]
        config = (TestMEGA015DuckTypes.CONFIG if rule_id == "MEGA015"
                  else None)
        result = plint(fixtures, select=[rule_id], config=config)
        assert rule_ids_of(result) == [rule_id]

        baseline_file = tmp_path / "baseline.json"
        write_baseline(baseline_file, result)
        filtered, stale = apply_baseline(
            plint(fixtures, select=[rule_id], config=config),
            load_baseline(baseline_file))
        assert filtered.ok
        assert filtered.baselined == len(result.violations)
        assert stale == 0

    def test_justified_baseline_entries_load(self, plint, tmp_path):
        result = plint(self.TAINTED, select=["MEGA012"])
        assert not result.ok
        from tools.megalint import violation_key
        entries = {violation_key(v): {"count": 1, "why": "sanctioned"}
                   for v in result.violations}
        baseline_file = tmp_path / "baseline.json"
        baseline_file.write_text(json.dumps(
            {"version": 1, "entries": entries}), encoding="utf-8")
        filtered, stale = apply_baseline(
            plint(self.TAINTED, select=["MEGA012"]),
            load_baseline(baseline_file))
        assert filtered.ok and stale == 0

    def test_justified_entry_without_count_is_an_error(self, tmp_path):
        from tools.megalint.baseline import BaselineError
        baseline_file = tmp_path / "baseline.json"
        baseline_file.write_text(json.dumps({
            "version": 1,
            "entries": {"a::MEGA012::m": {"why": "no count"}},
        }), encoding="utf-8")
        with pytest.raises(BaselineError):
            load_baseline(baseline_file)
