"""megalint: an AST-based invariant linter for the MEGA reproduction.

Generic linters cannot know that Algorithm 1 schedules must be
bit-deterministic (PR 1's cache keys depend on it), that
``repro.tensor.functional`` must stay vectorised, or that ``repro.core``
must never import ``repro.train``.  megalint turns those repo-specific
contracts — previously living in docstrings — into machine-checked
rules with stable IDs (``MEGA0xx``), inline suppressions, a pyproject
config block, and a baseline mode for incremental adoption.

Run it::

    python -m tools.megalint            # lint the configured src root
    python -m tools.megalint --list-rules
    python -m tools.megalint src --format json

The tier-1 suite wires it in via ``tests/test_megalint_gate.py``, so
``src/`` staying violation-free is a standing gate for every PR.  The
rule catalogue lives in ``docs/static_analysis.md``.
"""

from tools.megalint.baseline import (
    apply_baseline,
    load_baseline,
    violation_key,
    write_baseline,
)
from tools.megalint.config import ConfigError, LintConfig, load_config
from tools.megalint.engine import (
    Engine,
    LintResult,
    ModuleContext,
    ParseCache,
    ParsedFile,
    Violation,
    lint_paths,
    module_name_for,
)
from tools.megalint.project import ProjectIndex
from tools.megalint.registry import (
    ProjectRule,
    Rule,
    all_rules,
    register,
    rule_ids,
)

__all__ = [
    "Engine",
    "LintConfig",
    "LintResult",
    "ModuleContext",
    "ParseCache",
    "ParsedFile",
    "ProjectIndex",
    "ProjectRule",
    "Rule",
    "Violation",
    "ConfigError",
    "all_rules",
    "apply_baseline",
    "load_baseline",
    "load_config",
    "module_name_for",
    "register",
    "violation_key",
    "write_baseline",
]
