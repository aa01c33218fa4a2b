"""MEGA001/MEGA013 — layering, on import edges and on call edges.

The scheduling substrate (``repro.core``/``graph``/``tensor``/
``resilience``) must never depend on the layers built on top of it
(``repro.models``/``train``/``pipeline``/``distributed``).  An upward
dependency creates a cycle-in-waiting and couples Algorithm 1's
correctness to training-loop code.  Above both sit the *top layers* —
an **ordered** list (``repro.serve`` < ``repro.cluster`` <
``repro.stream`` < ``repro.bench``): pure consumers that may use
anything below and any *earlier* top layer, while nothing below (or
earlier) uses them.  So serve never knows the cluster exists, the
cluster embeds serve engines, the stream layer drives a cluster, and
bench may drive them all — and a user who never serves never pays for
the serving stack.  The dependency arrows in ``docs/architecture.md``
only point downward.

One layer model, :func:`layer_rank`, serves two edge sets:

* **MEGA001** checks ``import`` statements, per file;
* **MEGA013** *(project)* walks every resolved edge of the project
  call graph.  A lower layer can still *call* upward without a banned
  import: through a package re-export (``from repro import helper``
  where ``repro/__init__`` re-exported a ``repro.train`` function) or
  through an injected callable (a parameter whose default value is an
  upper-layer function).  The edge's resolution kind is named in the
  message, since that is precisely what the import check cannot see.
"""

from __future__ import annotations

import ast
from typing import Optional, Tuple

from tools.megalint.config import in_modules
from tools.megalint.project import resolve_relative_import
from tools.megalint.registry import ProjectRule, Rule, register


def layer_rank(module: str, config) -> Optional[Tuple[int, str]]:
    """(rank, layer prefix) of ``module``: low 0 < high 1 < the top
    layers 2, 3, ... in their configured order; None when unlayered."""
    tiers = [config.low_layers, config.high_layers] + [
        [top] for top in config.top_layers]
    for rank, prefixes in enumerate(tiers):
        for prefix in prefixes:
            if in_modules(module, [prefix]):
                return rank, prefix
    return None


def _kind(rank: int) -> str:
    return ("low", "high", "top")[min(rank, 2)]


@register
class ImportLayeringRule(Rule):
    id = "MEGA001"
    name = "import-layering"
    rationale = ("low layers (core/graph/tensor/resilience) must not "
                 "import high layers (models/train/pipeline/distributed), "
                 "no layer below may import a top layer, and a top layer "
                 "(serve < cluster < stream < bench, in order) may only "
                 "import earlier top layers")

    def enabled_for(self, ctx) -> bool:
        return layer_rank(ctx.module, ctx.config) is not None

    def _check_target(self, node: ast.AST, ctx, target: str) -> None:
        own = layer_rank(ctx.module, ctx.config)
        hit = layer_rank(target, ctx.config)
        if hit is None or hit[0] <= own[0]:
            return
        hint = ("top layers import only earlier top layers"
                if _kind(own[0]) == "top" else
                "invert the dependency or move the shared piece down")
        ctx.report(self, node,
                   f"{_kind(own[0])}-layer module '{ctx.module}' (layer "
                   f"'{own[1]}') imports {_kind(hit[0])}-layer "
                   f"'{target}' — {hint}")

    def visit_Import(self, node: ast.Import, ctx) -> None:
        for alias in node.names:
            self._check_target(node, ctx, alias.name)

    def visit_ImportFrom(self, node: ast.ImportFrom, ctx) -> None:
        target = resolve_relative_import(ctx.module, ctx.is_package, node)
        if target:
            self._check_target(node, ctx, target)


_VIA = {
    "direct": "a direct call",
    "re-export": "a package re-export (invisible to import checks)",
    "self": "a method call",
    "injected-default": "an injected default callable (invisible to "
                        "import checks)",
    "init": "instantiation",
}


@register
class CallLayeringRule(ProjectRule):
    id = "MEGA013"
    name = "call-layering"
    rationale = ("the call graph must respect the layer order even "
                 "when the callee arrives via a re-export or an "
                 "injected default callable — strengthens MEGA001 "
                 "from import statements to actual calls")

    def check_project(self, index, reporter) -> None:
        graph = index.callgraph()
        config = index.config
        for caller in sorted(graph.edges):
            caller_node = graph.nodes.get(caller)
            if caller_node is None:
                continue
            caller_rank = layer_rank(caller_node.module, config)
            if caller_rank is None:
                continue
            for edge in graph.edges[caller]:
                callee_node = graph.nodes.get(edge.callee)
                if callee_node is None:
                    continue
                callee_rank = layer_rank(callee_node.module, config)
                if callee_rank is None or callee_rank[0] <= caller_rank[0]:
                    continue
                info = index.modules[caller_node.module]
                reporter.report(
                    self, info, edge.line,
                    f"'{caller}' (layer '{caller_rank[1]}') calls "
                    f"upward into '{edge.callee}' (layer "
                    f"'{callee_rank[1]}') via {_VIA.get(edge.via, edge.via)}"
                    " — invert the dependency or move the callee down")
