"""The megalint engine: one parse and one AST walk per file, rule
dispatch, suppression, and the optional whole-program project pass.

The engine never imports the code it checks — everything is ``ast`` on
source text, so it is safe to run against broken or import-cycling
code (and it can therefore *enforce* the import rules).

Per file the engine:

1. loads the source through a shared :class:`ParseCache` (a parse
   failure is reported as ``MEGA000``; each file is parsed exactly
   once per run, even when the project pass needs the same tree),
2. builds a child->parent map during a single ``ast.walk``,
3. dispatches each node to every enabled per-file rule with a matching
   ``visit_<NodeType>`` method,
4. filters the collected violations through inline suppression
   comments (``# megalint: disable=MEGA003`` on the offending line).

When project targets are given, the engine then builds a
:class:`~tools.megalint.project.ProjectIndex` over them (reusing the
cached parses) and runs every registered
:class:`~tools.megalint.registry.ProjectRule` once against the whole
program.  Baseline subtraction happens after both passes (see
:mod:`tools.megalint.baseline`).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from tools.megalint.config import LintConfig, in_modules
from tools.megalint.registry import (
    PARSE_ERROR_ID,
    ProjectRule,
    Rule,
    all_rules,
)

#: Inline suppression marker.  ``# megalint: disable=MEGA001,MEGA002``
#: silences those rules on that line; ``disable=all`` silences every
#: rule on the line.
_SUPPRESS_RE = re.compile(
    r"#\s*megalint:\s*disable=([A-Za-z0-9_,\s]+?)\s*(?:#|$)")


@dataclass(frozen=True)
class Violation:
    """One finding: rule, location, and human-readable message."""

    rule_id: str
    path: str          # posix path as given on the command line
    line: int
    col: int
    message: str

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule_id)

    def text(self) -> str:
        return (f"{self.path}:{self.line}:{self.col}: "
                f"{self.rule_id} {self.message}")

    def to_json(self) -> dict:
        return {"rule": self.rule_id, "path": self.path,
                "line": self.line, "col": self.col,
                "message": self.message}


@dataclass
class LintResult:
    """Outcome of one engine run."""

    violations: List[Violation] = field(default_factory=list)
    files_scanned: int = 0
    project_files: int = 0
    suppressed: int = 0
    baselined: int = 0
    rule_ids: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def _line_suppressions(lines: Sequence[str]) -> Dict[int, Set[str]]:
    """Map 1-based line number -> set of rule IDs suppressed there."""
    out: Dict[int, Set[str]] = {}
    for i, line in enumerate(lines, start=1):
        match = _SUPPRESS_RE.search(line)
        if match:
            ids = {p.strip() for p in match.group(1).split(",") if p.strip()}
            out[i] = ids
    return out


@dataclass
class ParsedFile:
    """One file's source, AST, and suppression map — parsed once."""

    path: Path
    display_path: str
    source: str = ""
    lines: List[str] = field(default_factory=list)
    tree: Optional[ast.Module] = None
    #: (line, col, message) when the file failed to read or parse.
    error: Optional[Tuple[int, int, str]] = None
    suppressions: Dict[int, Set[str]] = field(default_factory=dict)


class ParseCache:
    """Read + ``ast.parse`` each file at most once per run.

    Both the per-file walk and the project pass pull from the same
    cache, which is what fixes the historical double-parse;
    ``tests/megalint/test_project.py`` asserts the parse count.
    """

    def __init__(self) -> None:
        self._cache: Dict[Path, ParsedFile] = {}
        self.parse_count = 0

    def load(self, path: Path) -> ParsedFile:
        path = Path(path)
        cached = self._cache.get(path)
        if cached is not None:
            return cached
        try:
            display = path.relative_to(Path.cwd()).as_posix()
        except ValueError:
            display = path.as_posix()
        parsed = ParsedFile(path=path, display_path=display)
        try:
            parsed.source = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            parsed.error = (1, 0, f"unreadable file: {exc}")
            self._cache[path] = parsed
            return parsed
        parsed.lines = parsed.source.splitlines()
        parsed.suppressions = _line_suppressions(parsed.lines)
        try:
            self.parse_count += 1
            parsed.tree = ast.parse(parsed.source, filename=str(path))
        except SyntaxError as exc:
            parsed.error = (exc.lineno or 1, (exc.offset or 1) - 1,
                            f"syntax error: {exc.msg}")
        self._cache[path] = parsed
        return parsed


class ModuleContext:
    """Per-file state handed to rules during the walk."""

    def __init__(self, parsed: ParsedFile, module: str,
                 config: LintConfig):
        self.path = parsed.path
        self.display_path = parsed.display_path
        self.module = module          # dotted name, e.g. "repro.core.schedule"
        self.is_package = parsed.path.name == "__init__.py"
        self.source = parsed.source
        self.lines = parsed.lines
        self.tree = parsed.tree
        self.config = config
        self.violations: List[Violation] = []
        self.suppressed = 0
        self._suppress = parsed.suppressions
        self._parents: Dict[int, ast.AST] = {}

    # -- structure helpers -------------------------------------------------
    @property
    def package(self) -> str:
        """The package this module lives in (itself for ``__init__``)."""
        if self.is_package:
            return self.module
        return self.module.rpartition(".")[0]

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        return self._parents.get(id(node))

    def ancestors(self, node: ast.AST) -> Iterable[ast.AST]:
        seen = 0
        current = self.parent(node)
        while current is not None and seen < 10_000:
            yield current
            current = self.parent(current)
            seen += 1

    def in_modules(self, prefixes: Sequence[str]) -> bool:
        """True when this module equals or lives under any prefix."""
        return in_modules(self.module, prefixes)

    # -- reporting ---------------------------------------------------------
    def report(self, rule: Rule, node, message: str) -> None:
        """Record one violation unless an inline comment suppresses it."""
        if isinstance(node, int):
            line, col = node, 0
        else:
            line = getattr(node, "lineno", 1)
            col = getattr(node, "col_offset", 0)
        ids = self._suppress.get(line, ())
        if rule.id in ids or "all" in ids:
            self.suppressed += 1
            return
        self.violations.append(Violation(
            rule_id=rule.id, path=self.display_path,
            line=line, col=col, message=message))


def module_name_for(path: Path, root: Path) -> str:
    """Dotted module name of ``path`` relative to the scan root.

    The scan root itself is treated as a sys.path entry: ``src/repro/x.py``
    scanned from root ``src`` is module ``repro.x``.
    """
    rel = path.relative_to(root)
    parts = list(rel.parts[:-1])
    stem = rel.stem
    if stem != "__init__":
        parts.append(stem)
    return ".".join(parts) if parts else stem


def iter_python_files(target: Path) -> List[Path]:
    """All ``.py`` files under ``target`` in sorted (deterministic) order."""
    if target.is_file():
        return [target]
    return sorted(p for p in target.rglob("*.py") if p.is_file())


def scan_root_for(target: Path) -> Path:
    """The sys.path-style root that gives ``target`` its module names.

    A directory target that is itself a package (``tools/`` carries an
    ``__init__.py``) is scanned from its parent, so ``tools/megalint/
    cli.py`` names module ``tools.megalint.cli`` — the name the rest of
    the repo imports it by — rather than ``megalint.cli``.  Same climb
    for single-file targets nested inside packages.
    """
    root = target if target.is_dir() else target.parent
    while (root / "__init__.py").is_file() and root.parent != root:
        root = root.parent
    return root


def _resolve_selection(config: LintConfig,
                       select: Optional[Iterable[str]],
                       disable: Optional[Iterable[str]]) -> List[Rule]:
    """Instantiate the rule set for this run."""
    chosen = []
    config_disabled = set(config.disable) | set(disable or ())
    selected = set(select) if select else None
    for cls in all_rules():
        if selected is not None and cls.id not in selected:
            continue
        if selected is None and cls.id in config_disabled:
            continue
        chosen.append(cls())
    return chosen


class Engine:
    """Walks files once and dispatches nodes to visitor-based rules;
    optionally follows up with the whole-program project pass."""

    def __init__(self, config: Optional[LintConfig] = None,
                 select: Optional[Iterable[str]] = None,
                 disable: Optional[Iterable[str]] = None,
                 parse_cache: Optional[ParseCache] = None):
        self.config = config or LintConfig()
        self.parse_cache = parse_cache or ParseCache()
        rules = _resolve_selection(self.config, select, disable)
        self.rules = [r for r in rules if not isinstance(r, ProjectRule)]
        self.project_rules = [r for r in rules
                              if isinstance(r, ProjectRule)]
        # Dispatch table: node type name -> [(rule, bound method)].
        self._handlers: Dict[str, List[Tuple[Rule, object]]] = {}
        for rule in self.rules:
            for attr in dir(rule):
                if attr.startswith("visit_"):
                    node_type = attr[len("visit_"):]
                    self._handlers.setdefault(node_type, []).append(
                        (rule, getattr(rule, attr)))

    # ------------------------------------------------------------------
    def run(self, targets: Sequence[Path],
            project_targets: Optional[Sequence[Path]] = None,
            explicit_files: Optional[Sequence[Tuple[Path, Path]]] = None
            ) -> LintResult:
        """Lint every python file under each target path.

        ``targets`` scope the per-file rules; ``explicit_files``
        (``(path, scan_root)`` pairs) replaces the directory walk —
        ``--changed-only`` uses it so edited files keep their real
        dotted module names (and therefore their rule scoping).
        ``project_targets``, when given, are indexed in full and
        handed to the project rules — cross-module facts are only
        sound over the whole tree.
        """
        result = LintResult(
            rule_ids=[r.id for r in self.rules + self.project_rules])
        if explicit_files is not None:
            for path, root in explicit_files:
                self._lint_file(Path(path), Path(root), result)
        else:
            for target in targets:
                target = Path(target)
                root = scan_root_for(target)
                for path in iter_python_files(target):
                    self._lint_file(path, root, result)
        if project_targets is not None and self.project_rules:
            self._run_project_pass(project_targets, result)
        result.violations.sort(key=Violation.sort_key)
        return result

    # ------------------------------------------------------------------
    def _lint_file(self, path: Path, root: Path,
                   result: LintResult) -> None:
        result.files_scanned += 1
        parsed = self.parse_cache.load(path)
        if parsed.error is not None:
            line, col, message = parsed.error
            result.violations.append(Violation(
                PARSE_ERROR_ID, parsed.display_path, line, col, message))
            return

        module = module_name_for(path, root)
        ctx = ModuleContext(parsed, module, self.config)

        active = [r for r in self.rules if r.enabled_for(ctx)]
        active_ids = {id(r) for r in active}
        for rule in active:
            rule.begin_module(ctx)
        # The single walk: build the parent map and dispatch in one pass.
        for node in ast.walk(parsed.tree):
            for child in ast.iter_child_nodes(node):
                ctx._parents[id(child)] = node
            for rule, method in self._handlers.get(type(node).__name__, ()):
                if id(rule) in active_ids:
                    method(node, ctx)
        for rule in active:
            rule.end_module(ctx)

        result.violations.extend(ctx.violations)
        result.suppressed += ctx.suppressed

    # ------------------------------------------------------------------
    def _run_project_pass(self, project_targets: Sequence[Path],
                          result: LintResult) -> None:
        from tools.megalint.project import ProjectIndex, ProjectReporter
        index = ProjectIndex.build(
            [Path(t) for t in project_targets], self.config,
            cache=self.parse_cache)
        result.project_files = len(index.modules)
        reporter = ProjectReporter(index)
        for rule in self.project_rules:
            rule.check_project(index, reporter)
        result.violations.extend(reporter.violations)
        result.suppressed += reporter.suppressed


def lint_paths(targets: Sequence[Path],
               config: Optional[LintConfig] = None,
               select: Optional[Iterable[str]] = None,
               disable: Optional[Iterable[str]] = None,
               project_targets: Optional[Sequence[Path]] = None
               ) -> LintResult:
    """Convenience wrapper: build an engine and run it over ``targets``."""
    import tools.megalint.rules  # noqa: F401  (registers the rule set)
    return Engine(config=config, select=select, disable=disable).run(
        [Path(t) for t in targets],
        project_targets=(None if project_targets is None
                         else [Path(t) for t in project_targets]))
