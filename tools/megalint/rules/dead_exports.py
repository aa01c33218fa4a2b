"""MEGA014 — dead public exports: ``__all__`` names nobody uses.

``__all__`` is a promise: "this is the surface we support".  A name
that sits in ``__all__`` but is never imported, re-exported, or
attribute-referenced anywhere in the project — source, tools, tests,
examples, benchmarks — is a promise nobody collects on: it widens the
API that refactors must preserve, pads ``import *``, and usually marks
a feature that was removed everywhere except its export line.

MEGA008 checks each ``__all__`` against its *own* module (every entry
must be bound); this rule is its cross-module complement: every entry
must be *referenced* somewhere else.  References are resolved through
the project symbol table, so importing a name from a package
``__init__`` keeps the defining module's export alive, and a
star-import of a module keeps that module's whole export list alive.
The reference universe includes the configured ``reference-roots``
(tests/examples/benchmarks by default), which are indexed but never
linted — public API used only by tests is still used.
"""

from __future__ import annotations

import ast
from typing import Dict, Set

from tools.megalint.astutil import dotted_name
from tools.megalint.config import in_modules
from tools.megalint.project import (
    ModuleInfo,
    ProjectIndex,
    resolve_relative_import,
)
from tools.megalint.registry import ProjectRule, register


def _module_references(index: ProjectIndex, info: ModuleInfo) -> Set[str]:
    """Resolved qualnames this module refers to (imports + uses)."""
    refs: Set[str] = set()
    # All imports, including ones nested in function bodies (the symbol
    # table only indexes top-level imports, but a lazy
    # ``from repro.core import schedule_report`` inside a CLI handler
    # is a use all the same).
    raw_imports = set(info.imports.values())
    is_package = info.parsed.path.name == "__init__.py"
    for node in ast.walk(info.tree):
        if isinstance(node, ast.Import):
            raw_imports.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            target = resolve_relative_import(info.name, is_package, node)
            if target:
                raw_imports.add(target)
                raw_imports.update(f"{target}.{alias.name}"
                                   for alias in node.names
                                   if alias.name != "*")
    for raw in raw_imports:
        refs.add(raw)
        canonical = index.canonical(raw)
        if canonical:
            refs.add(canonical)
    for star in info.star_imports:
        target = index.modules.get(star)
        if target is not None and target.exports is not None:
            for _, name in target.exports:
                refs.add(f"{star}.{name}")
                canonical = index.canonical(f"{star}.{name}")
                if canonical:
                    refs.add(canonical)
    # Attribute chains and bare-name uses, outermost chain only.
    inner = set()
    for node in ast.walk(info.tree):
        if isinstance(node, ast.Attribute):
            inner.add(id(node.value))
    for node in ast.walk(info.tree):
        flat = None
        if isinstance(node, ast.Attribute) and id(node) not in inner:
            flat = dotted_name(node)
        elif (isinstance(node, ast.Name) and id(node) not in inner
                and isinstance(node.ctx, ast.Load)):
            flat = node.id
        if flat is None:
            continue
        resolved = index.resolve(info.name, flat)
        if resolved:
            refs.add(resolved)
    return refs


@register
class DeadExportRule(ProjectRule):
    id = "MEGA014"
    name = "dead-export"
    rationale = ("every __all__ entry must be referenced somewhere in "
                 "the project (src, tools, or the reference roots) — "
                 "an unused export is unsupported API surface")

    def check_project(self, index, reporter) -> None:
        references: Dict[str, Set[str]] = {}
        for name in sorted(index.modules):
            references[name] = _module_references(index,
                                                  index.modules[name])
        for name in sorted(index.reference_modules):
            references[name] = _module_references(
                index, index.reference_modules[name])

        for mod_name in sorted(index.modules):
            info = index.modules[mod_name]
            if info.exports is None:
                continue
            for elt, export in info.exports:
                qual = f"{mod_name}.{export}"
                canonical = index.canonical(qual) or qual
                if self._is_referenced(references, mod_name, qual,
                                       canonical):
                    continue
                reporter.report(
                    self, info, elt,
                    f"__all__ export '{export}' of '{mod_name}' is "
                    "never referenced anywhere in the project "
                    "(including tests/examples/benchmarks) — remove "
                    "the export or the dead code behind it")

    @staticmethod
    def _is_referenced(references: Dict[str, Set[str]], owner: str,
                       qual: str, canonical: str) -> bool:
        for module, refs in references.items():
            if module == owner:
                continue
            if any(in_modules(ref, (qual, canonical)) for ref in refs):
                return True
        return False
