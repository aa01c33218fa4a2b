"""Shared helpers: build a fixture tree on disk and lint it."""

import textwrap

import pytest

from tools.megalint import LintConfig, lint_paths


@pytest.fixture
def lint(tmp_path):
    """``lint(files, select=..., config=...) -> LintResult``.

    ``files`` maps paths relative to a synthetic ``src/`` root to
    source text (dedented).  Module names therefore mirror the real
    repo: ``"repro/core/x.py"`` lints as module ``repro.core.x``, so
    the default config's scoping applies exactly as in production.
    """

    def _lint(files, select=None, disable=None, config=None):
        root = tmp_path / "src"
        for rel, text in files.items():
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(textwrap.dedent(text), encoding="utf-8")
        return lint_paths([root], config=config or LintConfig(),
                          select=select, disable=disable)

    return _lint


@pytest.fixture
def plint(tmp_path, monkeypatch):
    """Like ``lint``, but also runs the whole-program project pass.

    Paths starting with ``tests/`` or a configured reference root land
    outside ``src/``.  Reference roots are indexed as reference-only
    modules; ``tests/`` is neither linted nor indexed, as in the real
    repo.  The fixture chdirs into the sandbox so the default
    ``reference-roots`` resolve there, never in the real repo.
    """

    monkeypatch.chdir(tmp_path)

    def _lint(files, select=None, disable=None, config=None):
        cfg = config or LintConfig()
        ref_heads = ("tests/",) + tuple(r.split("/")[0] + "/"
                                        for r in cfg.reference_roots)
        root = tmp_path / "src"
        root.mkdir(exist_ok=True)
        for rel, text in files.items():
            base = tmp_path if rel.startswith(ref_heads) else root
            path = base / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(textwrap.dedent(text), encoding="utf-8")
        return lint_paths([root], config=cfg, select=select,
                          disable=disable, project_targets=[root])

    return _lint


def rule_ids_of(result):
    return sorted({v.rule_id for v in result.violations})
