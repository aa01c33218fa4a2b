"""MEGA002 — determinism of schedule-feeding code.

``repro.pipeline`` caches Algorithm 1 schedules under a content hash of
(graph, config, code version).  That key is only valid if recomputing
the schedule is bit-identical — which dies the moment set iteration
order or the legacy global-state ``np.random`` API leaks into an
ordered output.  Two sub-checks:

* the legacy unseeded ``np.random.*`` module API is banned everywhere
  (the whole repo passes explicit ``np.random.Generator`` objects);
* in the determinism-scoped modules, iterating a *syntactic* set
  (``set(...)``, a set display, or a set comprehension) into any
  ordered sink — ``list``/``tuple``/``np.array`` conversion, a ``for``
  statement, an ordered comprehension, an argument to an
  order-sensitive call, or ``set.pop()`` — is flagged.  Wrap the set in
  ``sorted(...)`` (or dedup in insertion order) instead.

The legacy-RNG list and the loop/comprehension set-order predicate
are the determinism checker's own (:mod:`tools.megalint.taint`), so
MEGA002 and MEGA012 classify the same code the same way.

CPython happens to iterate int-sets reproducibly, which is exactly why
these bugs survive review: they pass every test until a hash-seed,
platform, or interpreter change silently reorders edges and poisons
every cached schedule.
"""

from __future__ import annotations

import ast

from tools.megalint.astutil import call_name, dotted_name, is_setish
from tools.megalint.registry import Rule, register
from tools.megalint.taint import is_legacy_np_random, set_order_source

#: Callees for which consuming a set argument is order-insensitive.
ORDER_SAFE_CALLEES = frozenset({
    "sorted", "len", "set", "frozenset", "min", "max", "sum",
    "any", "all", "bool", "isinstance", "issubset", "union",
    "intersection", "difference", "symmetric_difference", "update",
    "isdisjoint",
})


@register
class DeterminismRule(Rule):
    id = "MEGA002"
    name = "determinism"
    rationale = ("schedule/cache-key code must be bit-deterministic: no "
                 "legacy np.random, no set-iteration-order in ordered "
                 "outputs")

    def _scoped(self, ctx) -> bool:
        return ctx.in_modules(ctx.config.determinism_modules)

    # -- legacy np.random (whole repo) ---------------------------------
    def visit_Call(self, node: ast.Call, ctx) -> None:
        flat = dotted_name(node.func)
        if flat is not None and is_legacy_np_random(flat):
            ctx.report(self, node,
                       f"legacy global-state RNG call '{flat}' — pass "
                       "an explicit np.random.Generator "
                       "(np.random.default_rng(seed)) instead")
            return
        if not self._scoped(ctx):
            return
        self._check_ordered_sink(node, ctx)
        self._check_set_pop(node, ctx)

    def _check_ordered_sink(self, node: ast.Call, ctx) -> None:
        callee = call_name(node)
        if callee in ORDER_SAFE_CALLEES:
            return
        for arg in node.args:
            target = arg
            if isinstance(target, ast.Starred):
                target = target.value
            if is_setish(target):
                ctx.report(self, target,
                           "unordered set passed to "
                           f"'{callee or '<call>'}' — iteration order "
                           "leaks into the output; wrap in sorted(...) "
                           "or build an ordered sequence")

    def _check_set_pop(self, node: ast.Call, ctx) -> None:
        """``s.pop()`` on a name locally bound to a set literal/call."""
        func = node.func
        if (not isinstance(func, ast.Attribute) or func.attr != "pop"
                or node.args or node.keywords):
            return
        if not isinstance(func.value, ast.Name):
            return
        name = func.value.id
        for scope in ctx.ancestors(node):
            if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Module)):
                if name in _setish_bindings(scope):
                    ctx.report(self, node,
                               f"'{name}.pop()' removes an arbitrary "
                               "element of a set — select "
                               "deterministically (e.g. min(...) + "
                               "discard)")
                return

    # -- iteration statements ------------------------------------------
    def visit_For(self, node: ast.For, ctx) -> None:
        if self._scoped(ctx) and set_order_source(node):
            ctx.report(self, node.iter,
                       "for-loop directly over an unordered set — "
                       "iterate sorted(...) so downstream order is "
                       "deterministic")

    def _check_comp(self, node, ctx, kind: str) -> None:
        source = set_order_source(node) if self._scoped(ctx) else None
        if source:
            ctx.report(self, source.node,
                       f"{kind} built by iterating an unordered set — "
                       "wrap the set in sorted(...)")

    def visit_ListComp(self, node: ast.ListComp, ctx) -> None:
        self._check_comp(node, ctx, "list")

    def visit_DictComp(self, node: ast.DictComp, ctx) -> None:
        self._check_comp(node, ctx, "dict")


def _setish_bindings(scope) -> set:
    """Names assigned a syntactic set anywhere in ``scope``'s own body."""
    names = set()
    for stmt in ast.walk(scope):
        if isinstance(stmt, ast.Assign) and is_setish(stmt.value):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif (isinstance(stmt, ast.AnnAssign) and stmt.value is not None
                and is_setish(stmt.value)
                and isinstance(stmt.target, ast.Name)):
            names.add(stmt.target.id)
    return names
