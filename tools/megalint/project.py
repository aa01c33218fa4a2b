"""The project loader: one parse of the whole tree, plus a symbol table.

The per-file walk (:mod:`tools.megalint.engine`) sees one module at a
time, which is exactly the blind spot the cross-module rules
(MEGA012–015) exist to close: a wall-clock read two calls away from a
replay surface, an upward call routed through a package re-export, a
dead ``__all__`` export, a drifted duck-type.  This module builds the
shared substrate for those rules:

* :class:`ParseCache` — every file is read and ``ast.parse``\\ d at most
  once per run, shared between the per-file walk and the project pass
  (the engine's historical double-parse is gone; a test asserts the
  parse count).
* :class:`ModuleInfo` — per-module symbol table: top-level defs,
  classes with their methods, import aliases resolved to absolute
  dotted targets, and the literal ``__all__`` export list.
* :class:`ProjectIndex` — the whole-program view: every module in the
  *checked* roots plus reference-only roots (tests/examples/benchmarks
  by default) whose imports count as uses for dead-export analysis but
  which are never themselves linted.
* symbol resolution (:meth:`ProjectIndex.resolve`) that follows
  re-export chains, so ``from repro import helper`` resolves to the
  defining module even when ``repro/__init__`` merely re-exported it.

Everything stays ``ast`` on source text — the never-imports-checked-code
guarantee holds for the project pass exactly as for the per-file walk.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from tools.megalint.astutil import dotted_name
from tools.megalint.config import LintConfig
from tools.megalint.engine import (
    ParseCache,
    ParsedFile,
    Violation,
    iter_python_files,
    module_name_for,
    scan_root_for,
)

#: Re-export resolution depth bound (a chain longer than this is a
#: pathological import cycle; resolution gives up rather than loops).
_MAX_RESOLVE_DEPTH = 16


@dataclass
class ClassInfo:
    """One class definition: methods, class attributes, base names."""

    name: str
    node: ast.ClassDef
    #: method name -> def node (top-level of the class body only).
    methods: Dict[str, ast.AST] = field(default_factory=dict)
    #: class-level attribute names (``name = "round-robin"`` style).
    attrs: List[str] = field(default_factory=list)
    #: base-class expressions as dotted strings, unresolved.
    bases: List[str] = field(default_factory=list)


@dataclass
class ModuleInfo:
    """Symbol table of one parsed module."""

    name: str
    parsed: ParsedFile
    #: top-level bound names -> defining node (defs, classes, assigns).
    defs: Dict[str, ast.AST] = field(default_factory=dict)
    #: local import alias -> absolute dotted target.  ``import a.b``
    #: binds ``a`` -> ``a``; ``import a.b as c`` binds ``c`` -> ``a.b``;
    #: ``from a.b import x as y`` binds ``y`` -> ``a.b.x``.
    imports: Dict[str, str] = field(default_factory=dict)
    #: modules star-imported (``from a.b import *``).
    star_imports: List[str] = field(default_factory=list)
    #: literal ``__all__`` entries as (node, name), or None when the
    #: module has no statically-readable ``__all__``.
    exports: Optional[List[Tuple[ast.AST, str]]] = None
    #: class name -> ClassInfo for top-level classes.
    classes: Dict[str, ClassInfo] = field(default_factory=dict)

    @property
    def tree(self) -> ast.Module:
        return self.parsed.tree


def resolve_relative_import(module: str, is_package: bool,
                            node: ast.ImportFrom) -> str:
    """Absolute dotted target of a (possibly relative) ``from`` import."""
    if node.level == 0:
        return node.module or ""
    base_parts = module.split(".") if module else []
    if not is_package:
        base_parts = base_parts[:-1]
    strip = node.level - 1
    if strip:
        base_parts = base_parts[:-strip] if strip < len(base_parts) else []
    if node.module:
        base_parts = base_parts + node.module.split(".")
    return ".".join(base_parts)


def _literal_exports(tree: ast.Module) -> Optional[List[Tuple[ast.AST, str]]]:
    """``__all__`` entries when assigned once as a literal list/tuple."""
    found = None
    for stmt in tree.body:
        value = None
        if isinstance(stmt, ast.Assign):
            if any(isinstance(t, ast.Name) and t.id == "__all__"
                   for t in stmt.targets):
                value = stmt.value
        elif (isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
                and stmt.target.id == "__all__"):
            value = stmt.value
        if value is None:
            continue
        if not isinstance(value, (ast.List, ast.Tuple)):
            return None  # dynamically built: not statically checkable
        entries = []
        for elt in value.elts:
            if not (isinstance(elt, ast.Constant)
                    and isinstance(elt.value, str)):
                return None
            entries.append((elt, elt.value))
        found = entries
    # Any augmented mutation makes the surface dynamic.
    for node in ast.walk(tree):
        if (isinstance(node, ast.AugAssign)
                and isinstance(node.target, ast.Name)
                and node.target.id == "__all__"):
            return None
    return found


def _index_module(name: str, parsed: ParsedFile) -> ModuleInfo:
    """Build the symbol table of one module from its AST."""
    info = ModuleInfo(name=name, parsed=parsed)
    is_package = parsed.path.name == "__init__.py"
    for stmt in parsed.tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info.defs[stmt.name] = stmt
        elif isinstance(stmt, ast.ClassDef):
            info.defs[stmt.name] = stmt
            cls = ClassInfo(name=stmt.name, node=stmt)
            for item in stmt.body:
                if isinstance(item, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                    cls.methods[item.name] = item
                elif isinstance(item, ast.Assign):
                    for target in item.targets:
                        if isinstance(target, ast.Name):
                            cls.attrs.append(target.id)
                elif (isinstance(item, ast.AnnAssign)
                        and isinstance(item.target, ast.Name)):
                    cls.attrs.append(item.target.id)
            for base in stmt.bases:
                flat = dotted_name(base)
                if flat:
                    cls.bases.append(flat)
            info.classes[stmt.name] = cls
        elif isinstance(stmt, ast.Import):
            for alias in stmt.names:
                if alias.asname:
                    info.imports[alias.asname] = alias.name
                else:
                    head = alias.name.split(".")[0]
                    info.imports[head] = head
        elif isinstance(stmt, ast.ImportFrom):
            target = resolve_relative_import(name, is_package, stmt)
            if not target:
                continue
            for alias in stmt.names:
                if alias.name == "*":
                    info.star_imports.append(target)
                else:
                    info.imports[alias.asname or alias.name] = (
                        f"{target}.{alias.name}")
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    info.defs[target.id] = stmt
        elif (isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)):
            info.defs[stmt.target.id] = stmt
        elif isinstance(stmt, (ast.If, ast.Try)):
            # One level of conditional defs (TYPE_CHECKING / fallbacks).
            for sub in ast.walk(stmt):
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef,
                                    ast.ClassDef)):
                    info.defs.setdefault(sub.name, sub)
    info.exports = _literal_exports(parsed.tree)
    return info


class ProjectIndex:
    """Whole-program symbol view over the checked + reference roots."""

    def __init__(self, config: LintConfig):
        self.config = config
        #: dotted module name -> ModuleInfo, for the linted roots.
        self.modules: Dict[str, ModuleInfo] = {}
        #: reference-only modules (tests/examples/...): their imports
        #: count as uses, but they are never linted.
        self.reference_modules: Dict[str, ModuleInfo] = {}
        self._resolve_memo: Dict[Tuple[str, str], Optional[str]] = {}
        self._callgraph = None

    def callgraph(self):
        """The project call graph, built lazily and shared between
        the rules that consume it (MEGA012/MEGA013)."""
        if self._callgraph is None:
            from tools.megalint.callgraph import CallGraph
            self._callgraph = CallGraph.build(self)
        return self._callgraph

    # -- construction --------------------------------------------------
    @classmethod
    def build(cls, targets: Sequence[Path], config: LintConfig,
              cache: Optional[ParseCache] = None,
              reference_roots: Optional[Sequence[Path]] = None
              ) -> "ProjectIndex":
        """Parse and index every module under ``targets``.

        ``reference_roots`` (defaulting to the config's
        ``reference-roots`` that exist on disk) are indexed into
        :attr:`reference_modules` only.
        """
        cache = cache or ParseCache()
        index = cls(config)
        for target in targets:
            target = Path(target)
            root = scan_root_for(target)
            for path in iter_python_files(target):
                parsed = cache.load(path)
                if parsed.tree is None:
                    continue  # parse errors are the per-file walk's job
                name = module_name_for(path, root)
                index.modules.setdefault(name, _index_module(name, parsed))
        if reference_roots is None:
            reference_roots = [Path(r) for r in config.reference_roots
                               if Path(r).is_dir()]
        for target in reference_roots:
            target = Path(target)
            root = scan_root_for(target)
            for path in iter_python_files(target):
                parsed = cache.load(path)
                if parsed.tree is None:
                    continue
                name = module_name_for(path, root)
                if name in index.modules:
                    continue
                index.reference_modules.setdefault(
                    name, _index_module(name, parsed))
        return index

    # -- resolution ----------------------------------------------------
    def module_of(self, qualname: str) -> Optional[ModuleInfo]:
        """The checked module owning ``qualname`` (longest prefix match)."""
        parts = qualname.split(".")
        for i in range(len(parts), 0, -1):
            candidate = ".".join(parts[:i])
            if candidate in self.modules:
                return self.modules[candidate]
        return None

    def resolve(self, module: str, dotted: str,
                _depth: int = 0) -> Optional[str]:
        """Absolute qualname ``dotted`` refers to inside ``module``.

        Follows import aliases and re-export chains across the project.
        Returns ``None`` for names that resolve outside the project (or
        not at all); the result is a project qualname of the form
        ``pkg.mod``, ``pkg.mod.sym`` or ``pkg.mod.Class.method``.
        """
        key = (module, dotted)
        if key in self._resolve_memo:
            return self._resolve_memo[key]
        self._resolve_memo[key] = None  # cycle guard
        result = self._resolve_uncached(module, dotted, _depth)
        self._resolve_memo[key] = result
        return result

    def _resolve_uncached(self, module: str, dotted: str,
                          depth: int) -> Optional[str]:
        if depth > _MAX_RESOLVE_DEPTH:
            return None
        info = self.modules.get(module) or self.reference_modules.get(module)
        if info is None:
            return None
        head, _, rest = dotted.partition(".")
        if head in info.defs:
            base = f"{module}.{head}"
        elif head in info.imports:
            base = self._canonical(info.imports[head], depth + 1)
            if base is None:
                return None
        else:
            # A star import may bind the name; resolve through it.
            for star in info.star_imports:
                if star in self.modules:
                    hit = self.resolve(star, dotted, depth + 1)
                    if hit is not None:
                        return hit
            return None
        return self._canonical(f"{base}.{rest}" if rest else base,
                               depth + 1)

    def canonical(self, qualname: str) -> Optional[str]:
        """Public wrapper: normalise an absolute dotted target to the
        qualname of its defining module (chasing re-exports)."""
        return self._canonical(qualname, 0)

    def _canonical(self, qualname: str, depth: int) -> Optional[str]:
        """Normalise a dotted target to its defining module's qualname."""
        if depth > _MAX_RESOLVE_DEPTH:
            return None
        if qualname in self.modules:
            return qualname
        owner = self.module_of(qualname)
        if owner is None:
            return None
        rest = qualname[len(owner.name):].lstrip(".")
        if not rest:
            return owner.name
        head, _, tail = rest.partition(".")
        if head in owner.defs:
            # Defined here: attach any method/attr tail verbatim.
            return f"{owner.name}.{rest}"
        if head in owner.imports or owner.star_imports:
            # Re-exported: chase the chain to the defining module.
            resolved = self.resolve(owner.name, rest, depth + 1)
            if resolved is not None:
                return resolved
        return f"{owner.name}.{rest}"

    def resolve_class(self, module: str, dotted: str
                      ) -> Optional[Tuple[ModuleInfo, ClassInfo]]:
        """The (module, class) a dotted name refers to, if a class."""
        qual = self.resolve(module, dotted)
        if qual is None:
            return None
        owner = self.module_of(qual)
        if owner is None:
            return None
        cls_name = qual[len(owner.name):].lstrip(".")
        cls = owner.classes.get(cls_name)
        if cls is None:
            return None
        return owner, cls

    def class_mro_methods(self, owner: ModuleInfo, cls: ClassInfo,
                          _seen: Optional[Set[str]] = None
                          ) -> Dict[str, str]:
        """Method name -> defining qualname, following project bases."""
        seen = _seen if _seen is not None else set()
        key = f"{owner.name}.{cls.name}"
        if key in seen:
            return {}
        seen.add(key)
        methods = {m: f"{key}.{m}" for m in cls.methods}
        for base in cls.bases:
            hit = self.resolve_class(owner.name, base)
            if hit is None:
                continue
            base_owner, base_cls = hit
            for name, qual in self.class_mro_methods(
                    base_owner, base_cls, seen).items():
                methods.setdefault(name, qual)
        return methods

    def is_subclass_of(self, owner: ModuleInfo, cls: ClassInfo,
                       protocol_qual: str,
                       _seen: Optional[Set[str]] = None) -> bool:
        """Does ``cls`` (transitively) list ``protocol_qual`` as a base?"""
        seen = _seen if _seen is not None else set()
        key = f"{owner.name}.{cls.name}"
        if key in seen:
            return False
        seen.add(key)
        for base in cls.bases:
            qual = self.resolve(owner.name, base)
            if qual == protocol_qual:
                return True
            hit = self.resolve_class(owner.name, base)
            if hit and self.is_subclass_of(hit[0], hit[1],
                                           protocol_qual, seen):
                return True
        return False


class ProjectReporter:
    """Violation collector for project rules, honouring inline
    suppressions of the file each violation is reported against."""

    def __init__(self, index: ProjectIndex):
        self.index = index
        self.violations: List[Violation] = []
        self.suppressed = 0

    def report(self, rule, info: ModuleInfo, node, message: str) -> None:
        if isinstance(node, int):
            line, col = node, 0
        else:
            line = getattr(node, "lineno", 1)
            col = getattr(node, "col_offset", 0)
        ids = info.parsed.suppressions.get(line, ())
        if rule.id in ids or "all" in ids:
            self.suppressed += 1
            return
        self.violations.append(Violation(
            rule_id=rule.id, path=info.parsed.display_path,
            line=line, col=col, message=message))
