"""MEGA003 — hot kernels must stay vectorised.

The paper's entire speedup comes from regular memory access: diagonal
attention turns ragged per-edge work into dense banded array ops.  A
Python-level ``for i in range(...)`` loop inside a kernel module
(``repro.tensor.functional``, ``repro.models.layers``) re-introduces
per-element interpreter overhead 100-1000x slower than the ufunc path
and silently deoptimises every model built on top.

Flagged inside kernel modules:

* ``for`` statements iterating ``range(...)`` / ``enumerate(...)``
  (per-index element loops);
* any ``for``/``while`` nested inside another loop (quadratic scalar
  work);
* bare ``while`` loops;
* ``<ufunc>.at(...)`` calls (``np.add.at``, ``np.maximum.at``): a
  ragged, unbuffered scatter that walks its index one element at a time.
  Reduce through a ``SlotPlan`` instead, which folds each segment in the
  same order with dense rank-slice sweeps.

Loops over a handful of layer/tensor objects (``for t in tensors``, or a
plan's precomputed rank slices) are legitimate and not flagged.  Where a
scalar loop is genuinely required, suppress with
``# megalint: disable=MEGA003`` and a justification.
"""

from __future__ import annotations

import ast

from tools.megalint.registry import Rule, register

_HINT = ("use numpy ufuncs / segment primitives (SlotPlan.reduce, "
         "gather_rows, segment_sum) or suppress with a justification")


@register
class HotLoopRule(Rule):
    id = "MEGA003"
    name = "hot-loop"
    rationale = ("kernel modules must stay vectorised: no per-element "
                 "python loops or ragged ufunc.at scatters")

    def enabled_for(self, ctx) -> bool:
        return ctx.in_modules(ctx.config.kernel_modules)

    def _inside_loop(self, node, ctx) -> bool:
        return any(isinstance(a, (ast.For, ast.While))
                   for a in ctx.ancestors(node))

    def visit_For(self, node: ast.For, ctx) -> None:
        if self._inside_loop(node, ctx):
            ctx.report(self, node,
                       f"nested python loop in kernel module — {_HINT}")
            return
        it = node.iter
        if (isinstance(it, ast.Call) and isinstance(it.func, ast.Name)
                and it.func.id in ("range", "enumerate")):
            ctx.report(self, node,
                       f"per-index '{it.func.id}' loop in kernel module "
                       f"— {_HINT}")

    def visit_Call(self, node: ast.Call, ctx) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "at":
            ctx.report(self, node,
                       f"ragged '{ast.unparse(func)}' scatter in kernel "
                       f"module — {_HINT}")

    def visit_While(self, node: ast.While, ctx) -> None:
        if self._inside_loop(node, ctx):
            ctx.report(self, node,
                       f"nested python loop in kernel module — {_HINT}")
        else:
            ctx.report(self, node,
                       f"while loop in kernel module — {_HINT}")
