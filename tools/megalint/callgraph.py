"""An approximate, whole-project call graph over the symbol table.

Built once per project pass from the :class:`~tools.megalint.project
.ProjectIndex`, consumed by the call-layering rule (MEGA013) and the
determinism taint pass (MEGA012).  "Approximate" means: edges the
resolver can prove are kept, everything else is dropped — the graph
under-approximates, so rules built on it report no false edges but may
miss dynamic dispatch.  What *is* resolved:

* bare-name calls to module-level functions and classes, through
  import aliases and package re-export chains (``from repro import
  helper`` finds the defining module even when ``repro/__init__`` only
  re-exported the name);
* dotted calls (``mod.func()``, ``alias.Class(...)``) through the same
  resolution;
* ``self.method()`` / ``cls.method()`` against the enclosing class and
  its project-resolved bases;
* *injected callables*: a parameter whose **default value** resolves to
  a project function creates an edge from the enclosing function to
  that default when the parameter is called — the classic way an
  upward dependency hides from import-based layering checks;
* instantiating a class adds an edge to the class and through to its
  ``__init__`` when it has one.

Nested function bodies are attributed to their enclosing top-level
function or method: a clock read inside a closure taints the function
that defines (and presumably calls) it.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from tools.megalint.astutil import dotted_name, walk_scope
from tools.megalint.project import ClassInfo, ModuleInfo, ProjectIndex


@dataclass
class FunctionNode:
    """One function, method, or class in the project graph."""

    qualname: str                 # "pkg.mod.func" / "pkg.mod.Cls.meth"
    module: str
    node: ast.AST                 # FunctionDef / AsyncFunctionDef / ClassDef
    kind: str                     # "function" | "method" | "class"
    cls: Optional[str] = None     # owning class name for methods


@dataclass(frozen=True)
class CallEdge:
    """One resolved call: caller qualname -> callee qualname."""

    caller: str
    callee: str
    line: int
    #: how the callee was resolved: "direct", "re-export", "self",
    #: "injected-default", or "init" (class -> its __init__).
    via: str


class CallGraph:
    """Forward adjacency over every function/method/class node."""

    def __init__(self) -> None:
        self.nodes: Dict[str, FunctionNode] = {}
        self.edges: Dict[str, List[CallEdge]] = {}

    def out_edges(self, qualname: str) -> List[CallEdge]:
        return self.edges.get(qualname, [])

    # ------------------------------------------------------------------
    @classmethod
    def build(cls, index: ProjectIndex) -> "CallGraph":
        graph = cls()
        for mod_name in sorted(index.modules):
            info = index.modules[mod_name]
            for name in sorted(info.defs):
                node = info.defs[name]
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    graph.nodes[f"{mod_name}.{name}"] = FunctionNode(
                        f"{mod_name}.{name}", mod_name, node, "function")
            for cls_name in sorted(info.classes):
                cinfo = info.classes[cls_name]
                cls_qual = f"{mod_name}.{cls_name}"
                graph.nodes[cls_qual] = FunctionNode(
                    cls_qual, mod_name, cinfo.node, "class")
                if "__init__" in cinfo.methods:
                    graph._add_edge(CallEdge(
                        cls_qual, f"{cls_qual}.__init__",
                        cinfo.node.lineno, "init"))
                for meth in sorted(cinfo.methods):
                    graph.nodes[f"{cls_qual}.{meth}"] = FunctionNode(
                        f"{cls_qual}.{meth}", mod_name,
                        cinfo.methods[meth], "method", cls=cls_name)
        for mod_name in sorted(index.modules):
            info = index.modules[mod_name]
            for name in sorted(info.defs):
                node = info.defs[name]
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    graph._collect_calls(index, info, None,
                                         f"{mod_name}.{name}", node)
            for cls_name in sorted(info.classes):
                cinfo = info.classes[cls_name]
                for meth in sorted(cinfo.methods):
                    m_node = cinfo.methods[meth]
                    if isinstance(m_node, (ast.FunctionDef,
                                           ast.AsyncFunctionDef)):
                        graph._collect_calls(
                            index, info, cinfo,
                            f"{mod_name}.{cls_name}.{meth}", m_node)
        return graph

    # ------------------------------------------------------------------
    def _add_edge(self, edge: CallEdge) -> None:
        self.edges.setdefault(edge.caller, []).append(edge)

    def _injected_defaults(self, index: ProjectIndex, info: ModuleInfo,
                           node) -> Dict[str, Tuple[str, str]]:
        """Param name -> (resolved qualname, raw target) for parameters
        whose default value is a project function/class."""
        out: Dict[str, Tuple[str, str]] = {}
        args = node.args
        positional = args.posonlyargs + args.args
        for arg, default in zip(positional[len(positional)
                                           - len(args.defaults):],
                                args.defaults):
            self._record_default(index, info, arg.arg, default, out)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                self._record_default(index, info, arg.arg, default, out)
        return out

    def _record_default(self, index: ProjectIndex, info: ModuleInfo,
                        param: str, default: ast.AST,
                        out: Dict[str, Tuple[str, str]]) -> None:
        flat = dotted_name(default)
        if flat is None:
            return
        resolved = index.resolve(info.name, flat)
        if resolved is not None and resolved in self.nodes:
            out[param] = (resolved, flat)

    def _collect_calls(self, index: ProjectIndex, info: ModuleInfo,
                       cinfo: Optional[ClassInfo], caller: str,
                       fn_node) -> None:
        injected = self._injected_defaults(index, info, fn_node)
        mro_methods: Dict[str, str] = {}
        if cinfo is not None:
            mro_methods = index.class_mro_methods(info, cinfo)
        for node in walk_scope(fn_node):
            if not isinstance(node, ast.Call):
                continue
            flat = dotted_name(node.func)
            if flat is None:
                continue
            resolved, via = self._resolve_call(
                index, info, flat, injected, mro_methods)
            if resolved is None:
                continue
            self._add_edge(CallEdge(caller, resolved, node.lineno, via))

    def _resolve_call(self, index: ProjectIndex, info: ModuleInfo,
                      flat: str, injected: Dict[str, Tuple[str, str]],
                      mro_methods: Dict[str, str]
                      ) -> Tuple[Optional[str], str]:
        head, _, rest = flat.partition(".")
        if head in ("self", "cls") and rest and "." not in rest:
            target = mro_methods.get(rest)
            return (target, "self") if target else (None, "")
        if not rest and head in injected:
            return injected[head][0], "injected-default"
        resolved = index.resolve(info.name, flat)
        if resolved is None or resolved not in self.nodes:
            return None, ""
        # Distinguish a plain import from a re-export chase: the raw
        # alias target differing from the resolution means the name
        # travelled through at least one package __init__.
        raw = info.imports.get(head)
        via = "direct"
        if raw is not None:
            raw_target = f"{raw}.{rest}" if rest else raw
            if resolved != raw_target:
                via = "re-export"
        return resolved, via
