"""Tier-1 gate: ``src/`` is megalint-clean under the repo's own config.

This is the standing contract every future PR inherits: the invariants
in ``docs/static_analysis.md`` (determinism of schedule-feeding code,
layering, vectorised kernels, cache purity, ...) are enforced here, not
just documented.  If this test fails, either fix the violation or —
when the code is genuinely right — add an inline
``# megalint: disable=MEGAxxx`` with a justification, or land the new
rule with a baseline file.
"""

import json
from pathlib import Path

from tools.megalint import ProjectRule, all_rules, lint_paths, load_config
from tools.megalint.baseline import apply_baseline, load_baseline
from tools.megalint.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent


#: The exact rule catalogue.  MEGA004/MEGA011 are hop-0 aliases of the
#: determinism checker (MEGA012) and must keep their IDs so inline
#: suppressions, baselines and ``--select`` keep resolving.
RULE_CATALOGUE = {
    "MEGA001": "import-layering",
    "MEGA002": "determinism",
    "MEGA003": "hot-loop",
    "MEGA004": "cache-purity",
    "MEGA005": "error-swallow",
    "MEGA006": "mutable-default",
    "MEGA007": "module-docstring",
    "MEGA008": "dunder-all",
    "MEGA009": "no-print",
    "MEGA010": "unbounded-retry",
    "MEGA011": "ledger-determinism",
    "MEGA012": "determinism-taint",
    "MEGA013": "call-layering",
    "MEGA014": "dead-export",
    "MEGA015": "duck-type-drift",
}


def test_rule_set_is_complete(tmp_path, capsys):
    import tools.megalint.rules  # noqa: F401
    rules = all_rules()
    assert {r.id: r.name for r in rules} == RULE_CATALOGUE
    ids = [r.id for r in rules]
    assert ids == sorted(ids) and len(ids) == len(set(ids))
    for rule in rules:
        assert rule.name and rule.rationale, f"{rule.id} lacks metadata"
    project_ids = {r.id for r in rules if issubclass(r, ProjectRule)}
    assert {"MEGA012", "MEGA013", "MEGA014",
            "MEGA015"} <= project_ids, "the project pass must ship"
    # The catalogue users see (--list-rules) and the one CI uploads
    # (SARIF tool.driver.rules) carry every rule too.
    assert main(["--list-rules"]) == 0
    listed = dict(line.split()[:2] for line in
                  capsys.readouterr().out.splitlines()
                  if line.startswith("MEGA"))
    assert listed == RULE_CATALOGUE
    module = tmp_path / "clean.py"
    module.write_text('"""A clean module."""\n', encoding="utf-8")
    assert main(["--no-config", "--format", "sarif", str(module)]) == 0
    driver = json.loads(capsys.readouterr().out)["runs"][0]["tool"]["driver"]
    assert {r["id"]: r["name"] for r in driver["rules"]} == RULE_CATALOGUE


def test_src_is_violation_free():
    config = load_config(REPO_ROOT / "pyproject.toml")
    result = lint_paths([REPO_ROOT / "src"], config=config)
    report = "\n".join(v.text() for v in result.violations)
    assert result.ok, (
        f"megalint violations in src/ (docs/static_analysis.md):\n{report}")
    # Sanity: the run actually covered the tree with the full rule set.
    assert result.files_scanned >= 70
    assert len(result.rule_ids) >= 8


def test_project_pass_is_violation_free():
    """The cross-module gate: symbol graph, call layering, taint, dead
    exports, and duck-type drift are clean over src/ and tools/ (modulo
    the justified entries in megalint_baseline.json)."""
    config = load_config(REPO_ROOT / "pyproject.toml")
    targets = [REPO_ROOT / r for r in config.project_roots]
    result = lint_paths(targets, config=config, project_targets=targets)
    if config.baseline:
        result, _ = apply_baseline(
            result, load_baseline(REPO_ROOT / config.baseline))
    report = "\n".join(v.text() for v in result.violations)
    assert result.ok, (
        f"megalint --project violations (docs/static_analysis.md):\n"
        f"{report}")
    assert result.project_files >= 100  # the index covered the tree


def test_justified_baseline_entries_carry_reasons():
    """Sanctioned violations are declared, not silently suppressed:
    every baseline entry must carry a non-empty 'why'."""
    raw = json.loads(
        (REPO_ROOT / "megalint_baseline.json").read_text(encoding="utf-8"))
    for key, entry in raw["entries"].items():
        assert isinstance(entry, dict) and entry.get("why"), (
            f"baseline entry {key!r} lacks a justification")


def test_cli_exit_zero_on_repo(monkeypatch, capsys):
    # Exactly what the acceptance criteria run:
    #   python -m tools.megalint src                   ->  exit 0
    #   python -m tools.megalint --project src tools   ->  exit 0
    monkeypatch.chdir(REPO_ROOT)
    assert main(["src"]) == 0
    assert "0 violation(s)" in capsys.readouterr().out
    assert main(["--project", "src", "tools"]) == 0
    out = capsys.readouterr().out
    assert "0 violation(s)" in out and "project module(s)" in out
