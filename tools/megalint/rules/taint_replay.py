"""The determinism checker: MEGA012 and its hop-0 aliases MEGA004/MEGA011.

The replay contract is transitive: ``as_dict`` calling a helper that
calls ``time.time()`` is exactly as broken as reading the clock inline,
and a project that grows helpers faster than reviewers can trace them
needs the checker to do the tracing.  One vocabulary
(:mod:`tools.megalint.taint`) classifies the impurity sources —
wall-clock reads, ``random``/``os.urandom``/``uuid``/legacy
``np.random`` RNG, environment reads, unsorted filesystem enumeration,
set-order-dependent iteration — and one declaration sanctions them,
on the source line, with a mandatory justification::

    base = os.environ.get("REPRO_CACHE_DIR")  # megalint: sanctioned-impurity=env: picks the cache directory, never enters a key

Three rule IDs report it at different reach:

* **MEGA012** *(project)* — from every sink (``as_dict`` /
  ``replay_surface`` / ``*_replay_surface`` in the determinism/ledger
  scopes, every function of the purity modules, the configured
  ``taint-sink-functions`` such as ``FaultPlan.roll``), any call chain
  (hop >= 0) reaching an unsanctioned source, with the shortest chain
  spelled out.  A declaration without a justification, or naming an
  unknown kind, is itself a violation.
* **MEGA004** *(per file, hop 0)* — clock, env and fs-order sources
  anywhere in a purity module (``pipeline.hashing``/``cache``):
  module level, class bodies and ``__init__`` included, which MEGA012's
  sink set leaves out.
* **MEGA011** *(per file, hop 0)* — clock sources inside a
  replay-surface builder of a ledger module, nested defs included;
  plus dict literals there carrying a wall-ish key (``timestamp``,
  ``hostname``, ``created_at``, ``date``, ``now``, ``wall*``).  Wall
  time belongs in the ledger's excluded ``wall``/``environment``
  blocks, built by differently-named functions on purpose.
"""

from __future__ import annotations

import ast

from tools.megalint.astutil import walk_scope
from tools.megalint.registry import ProjectRule, Rule, register
from tools.megalint.taint import (
    TaintAnalysis,
    is_replay_builder,
    is_sanctioned,
    iter_sources,
    sanctions_for,
    sink_functions,
)

_BANNED_KEYS = frozenset({"timestamp", "hostname", "created_at", "date",
                          "now"})

_PURITY_HINTS = {
    "clock": "timestamps must never influence keys or payloads",
    "env": "pass configuration in explicitly so keys stay a pure "
           "function of their inputs",
    "fs-order": "wrap it in sorted(...); filesystem order is "
                "platform-dependent",
}


class _Hop0Alias(Rule):
    """A per-file view of MEGA012: the unsanctioned sources of
    :attr:`kinds` sitting directly in each of :meth:`scopes`."""

    kinds = frozenset()
    into_classes = False

    def scopes(self, ctx):
        raise NotImplementedError

    def message(self, source, scope) -> str:
        raise NotImplementedError

    def findings(self, scope, sanctions):
        """(node, message) pairs for one scope."""
        for source in iter_sources(scope, self.into_classes):
            if (source.kind in self.kinds
                    and not is_sanctioned(source, sanctions)):
                yield source.node, self.message(source, scope)

    def end_module(self, ctx) -> None:
        sanctions = sanctions_for(ctx.lines)
        reported = set()  # a nested scope is also inside its parent
        for scope in self.scopes(ctx):
            for node, message in self.findings(scope, sanctions):
                if id(node) not in reported:
                    reported.add(id(node))
                    ctx.report(self, node, message)


@register
class CachePurityRule(_Hop0Alias):
    id = "MEGA004"
    name = "cache-purity"
    rationale = ("cache key/store code may not read wall-clock, env vars, "
                 "or unsorted directory listings (hop-0 view of MEGA012 "
                 "over the whole purity module)")
    kinds = frozenset(_PURITY_HINTS)
    into_classes = True

    def enabled_for(self, ctx) -> bool:
        return ctx.in_modules(ctx.config.purity_modules)

    def scopes(self, ctx):
        return [ctx.tree]

    def message(self, source, scope) -> str:
        return (f"{source.kind} source '{source.what}' in cache-purity "
                f"scope — {_PURITY_HINTS[source.kind]}")


@register
class LedgerDeterminismRule(_Hop0Alias):
    id = "MEGA011"
    name = "ledger-determinism"
    rationale = ("replay-surface builders (as_dict/replay_surface) may "
                 "not read wall clocks or emit wall-ish keys — wall "
                 "time belongs in the excluded wall/environment blocks "
                 "(hop-0 view of MEGA012)")
    kinds = frozenset({"clock"})

    def enabled_for(self, ctx) -> bool:
        return ctx.in_modules(ctx.config.ledger_modules)

    def scopes(self, ctx):
        return [node for node in ast.walk(ctx.tree)
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and is_replay_builder(node.name)]

    def message(self, source, scope) -> str:
        return (f"wall-clock read '{source.what}' inside replay-surface "
                f"builder '{scope.name}' — move it to the "
                "wall/environment block")

    def findings(self, scope, sanctions):
        yield from super().findings(scope, sanctions)
        for node in walk_scope(scope):
            if not isinstance(node, ast.Dict):
                continue
            for key in node.keys:
                if (isinstance(key, ast.Constant)
                        and isinstance(key.value, str)
                        and (key.value in _BANNED_KEYS
                             or key.value.startswith("wall"))):
                    yield key, (
                        f"wall-ish key {key.value!r} in replay-surface "
                        f"builder '{scope.name}' — replay surfaces must "
                        "be wall-clock-free; use the excluded "
                        "wall/environment blocks")


@register
class DeterminismTaintRule(ProjectRule):
    id = "MEGA012"
    name = "determinism-taint"
    rationale = ("no call chain from a replay surface, cache-key path, "
                 "or fault-plan roll may reach a wall-clock/RNG/env/"
                 "fs-order/set-order source unless the impurity is "
                 "declared sanctioned with a justification")

    def check_project(self, index, reporter) -> None:
        graph = index.callgraph()
        analysis = TaintAnalysis(index, graph)
        for bad in analysis.bad_declarations:
            info = index.modules[bad.module]
            reporter.report(self, info, bad.line, bad.problem)
        for qualname, sink_kind in sink_functions(index, graph,
                                                  index.config):
            chain = analysis.trace(qualname)
            if chain is None:
                continue
            fn = graph.nodes[qualname]
            info = index.modules[fn.module]
            reporter.report(
                self, info, fn.node,
                f"{sink_kind} '{qualname}' is determinism-tainted: "
                f"{chain.describe()} — make the chain pure, or mark "
                "the source line '# megalint: sanctioned-impurity="
                f"{chain.source.kind}: <why>'")
