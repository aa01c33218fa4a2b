"""Lint configuration: defaults plus the ``[tool.megalint]`` pyproject block.

All scoping decisions (which modules count as kernels, which as cache
code, which layers may not import which) live here so the rules
themselves stay mechanical.  TOML keys use kebab-case and map 1:1 onto
:class:`LintConfig` fields (``kernel-modules`` -> ``kernel_modules``).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence, Union

try:  # Python >= 3.11
    import tomllib
except ImportError:  # pragma: no cover - py3.9/3.10 fallback
    tomllib = None


@dataclass
class LintConfig:
    """Everything configurable about a megalint run."""

    #: Directory scanned when the CLI is given no path arguments.
    src_root: str = "src"

    #: MEGA001: module prefixes forming the low layers...
    low_layers: List[str] = field(default_factory=lambda: [
        "repro.core", "repro.graph", "repro.tensor", "repro.resilience"])
    #: ...which must never import these high layers.
    high_layers: List[str] = field(default_factory=lambda: [
        "repro.models", "repro.train", "repro.pipeline",
        "repro.distributed"])
    #: ...and the top layers above both, *ordered*: each may import
    #: anything below plus earlier top layers, while nothing below (or
    #: earlier) imports it.
    top_layers: List[str] = field(default_factory=lambda: [
        "repro.serve", "repro.cluster", "repro.stream",
        "repro.bench"])

    #: MEGA002: modules whose ordered outputs feed schedule/cache keys,
    #: so set-iteration-order must never leak into them.
    determinism_modules: List[str] = field(default_factory=lambda: [
        "repro.core", "repro.graph", "repro.pipeline",
        "repro.resilience", "repro.serve", "repro.cluster",
        "repro.stream", "repro.bench"])

    #: MEGA003: modules declared as vectorised kernels.
    kernel_modules: List[str] = field(default_factory=lambda: [
        "repro.tensor.functional", "repro.models.layers"])

    #: MEGA004: cache-key/cache-store modules that must stay pure.
    purity_modules: List[str] = field(default_factory=lambda: [
        "repro.pipeline.hashing", "repro.pipeline.cache"])

    #: MEGA009: modules allowed to call ``print`` (user-facing CLIs).
    print_allowed: List[str] = field(default_factory=lambda: [
        "repro.cli", "repro.bench.cli", "tools.megalint.cli"])

    #: MEGA011: modules whose ``as_dict``/``replay_surface`` functions
    #: build byte-identical replay/ledger surfaces.
    ledger_modules: List[str] = field(default_factory=lambda: [
        "repro.bench", "repro.serve.stats", "repro.cluster.stats",
        "repro.pipeline.stats", "repro.stream.stats"])

    #: MEGA007: a module docstring shorter than this is a placeholder.
    docstring_min_length: int = 10

    #: Directories the project pass indexes when ``--project`` is given
    #: without explicit paths (the checked whole-program view).
    project_roots: List[str] = field(default_factory=lambda: [
        "src", "tools"])

    #: Directories whose imports count as *uses* for MEGA014
    #: dead-export analysis but which are never themselves linted.
    reference_roots: List[str] = field(default_factory=lambda: [
        "examples", "benchmarks"])

    #: MEGA015: dotted class paths acting as structural protocols;
    #: classes duck-typing them must not drift from their method set.
    protocol_classes: List[str] = field(default_factory=lambda: [
        "repro.serve.server.ScheduleStore",
        "repro.cluster.routing.LoadBalancePolicy"])

    #: MEGA012: extra taint sinks beyond the replay-surface builders —
    #: dotted function/method qualnames whose outputs feed cache keys
    #: or fault-plan rolls and must stay deterministic.
    taint_sink_functions: List[str] = field(default_factory=lambda: [
        "repro.resilience.faults.FaultPlan.roll"])

    #: Rule IDs disabled globally (config-level, not inline).
    disable: List[str] = field(default_factory=list)

    #: Default baseline file (CLI ``--baseline`` overrides).
    baseline: Optional[str] = None

    @classmethod
    def field_names(cls) -> List[str]:
        return [f.name for f in dataclasses.fields(cls)]


def in_modules(module: str, prefixes: Sequence[str]) -> bool:
    """True when dotted ``module`` equals or lives under any prefix."""
    return any(module == p or module.startswith(p + ".") for p in prefixes)


class ConfigError(Exception):
    """Bad pyproject block or unreadable config file."""


def _coerce(name: str, value, template) -> object:
    """Validate a TOML value against the default's type."""
    if isinstance(template, bool) or template is None:
        return value
    if isinstance(template, int) and not isinstance(value, int):
        raise ConfigError(f"[tool.megalint] {name} must be an integer")
    if isinstance(template, list):
        if (not isinstance(value, list)
                or not all(isinstance(v, str) for v in value)):
            raise ConfigError(f"[tool.megalint] {name} must be a "
                              "list of strings")
    if isinstance(template, str) and not isinstance(value, str):
        raise ConfigError(f"[tool.megalint] {name} must be a string")
    return value


def config_from_table(table: dict) -> LintConfig:
    """Build a config from an already-parsed ``[tool.megalint]`` table."""
    config = LintConfig()
    known = set(LintConfig.field_names())
    for raw_key, value in table.items():
        key = raw_key.replace("-", "_")
        if key not in known:
            raise ConfigError(f"[tool.megalint] unknown key {raw_key!r} "
                              f"(known: {sorted(known)})")
        template = getattr(config, key)
        setattr(config, key, _coerce(raw_key, value, template))
    return config


def load_config(pyproject: Union[str, Path, None]) -> LintConfig:
    """Config from ``pyproject.toml`` (defaults when absent/sectionless)."""
    if pyproject is None:
        return LintConfig()
    path = Path(pyproject)
    if not path.is_file():
        return LintConfig()
    if tomllib is None:  # pragma: no cover
        return LintConfig()
    try:
        with open(path, "rb") as handle:
            data = tomllib.load(handle)
    except tomllib.TOMLDecodeError as exc:
        raise ConfigError(f"{path}: invalid TOML: {exc}") from exc
    table = data.get("tool", {}).get("megalint", {})
    return config_from_table(table)
