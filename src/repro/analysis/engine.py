"""The lint engine: files -> contexts -> rules -> report.

The pipeline is deliberately dumb: parse every file once into a
:class:`FileContext`, run each per-file rule over each context it
applies to, and hand project-wide rules the whole context set.  Every
finding gates: nothing in a source file can silence a rule, so a false
positive is fixed in its rule, with a fixture.

Fixture support: :func:`lint_sources` lints in-memory sources keyed by
virtual module name, and :func:`split_fixture` explodes one fixture
file containing several ``# lint-fixture-module: <dotted>`` sections
into that mapping — so multi-module rules (the import contract) get
fixture coverage from a single file on disk.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from .report import LintReport, Violation
from .rules import FileContext, Rule, default_rules

__all__ = ["lint_contexts", "lint_files", "lint_sources", "run",
           "split_fixture", "default_root", "iter_source_files",
           "module_name_for"]

FIXTURE_DIRECTIVE = "# lint-fixture-module:"


def default_root() -> Path:
    """The installed ``repro`` package directory — what a bare
    ``python -m repro.analysis`` lints, independent of cwd."""
    return Path(__file__).resolve().parent.parent


def iter_source_files(root: Path) -> List[Path]:
    return sorted(path for path in root.rglob("*.py"))


def module_name_for(path: Path, package_root: Path) -> str:
    """Dotted module name of ``path`` relative to the directory that
    *contains* the package root (src/repro/serving/nrt.py ->
    repro.serving.nrt; __init__.py names the package itself)."""
    rel = path.resolve().relative_to(package_root.resolve().parent)
    parts = list(rel.with_suffix("").parts)
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _display_path(path: Path) -> str:
    try:
        return os.path.relpath(path)
    except ValueError:  # different drive (windows)
        return str(path)


def lint_contexts(ctxs: Sequence[FileContext],
                  rules: Optional[Sequence[Rule]] = None,
                  root: str = "<memory>") -> LintReport:
    """Run ``rules`` (default: the full registry) over parsed
    contexts."""
    rules = list(default_rules() if rules is None else rules)
    violations: List[Violation] = []
    for rule in rules:
        if rule.project_wide:
            violations.extend(rule.check_project(
                [ctx for ctx in ctxs if rule.applies_to(ctx)]))
        else:
            for ctx in ctxs:
                if rule.applies_to(ctx):
                    violations.extend(rule.check(ctx))
    violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    return LintReport(root=root, n_files=len(ctxs),
                      rule_ids=[rule.id for rule in rules],
                      violations=violations)


def lint_files(paths: Sequence[Path],
               package_root: Optional[Path] = None,
               rules: Optional[Sequence[Rule]] = None) -> LintReport:
    package_root = package_root or default_root()
    ctxs = [FileContext.from_source(
        path.read_text(encoding="utf-8"),
        path=_display_path(path),
        module=module_name_for(path, package_root))
        for path in paths]
    return lint_contexts(ctxs, rules=rules, root=str(package_root))


def lint_sources(sources: Dict[str, str],
                 rules: Optional[Sequence[Rule]] = None) -> LintReport:
    """Lint in-memory sources keyed by virtual dotted module name."""
    ctxs = [FileContext.from_source(source, path=f"<{module}>",
                                    module=module)
            for module, source in sources.items()]
    return lint_contexts(ctxs, rules=rules)


def split_fixture(text: str) -> Dict[str, str]:
    """Explode a fixture file into ``{module: source}`` sections.

    Sections start at ``# lint-fixture-module: <dotted>`` lines; text
    before the first directive (fixture commentary) is dropped.  Each
    section is padded with blank lines so violation line numbers match
    the fixture file on disk — failures point at real lines.
    """
    sections: Dict[str, str] = {}
    current: Optional[str] = None
    pad = 0
    buf: List[str] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if stripped.startswith(FIXTURE_DIRECTIVE):
            if current is not None:
                sections[current] = "\n".join([""] * pad + buf) + "\n"
            current = stripped[len(FIXTURE_DIRECTIVE):].strip()
            pad = lineno  # blank padding up to and incl. directive
            buf = []
        elif current is not None:
            buf.append(line)
    if current is not None:
        sections[current] = "\n".join([""] * pad + buf) + "\n"
    return sections


def run(root: Optional[Path] = None,
        rules: Optional[Sequence[Rule]] = None) -> LintReport:
    """Lint every ``*.py`` under ``root`` (default: the repro
    package)."""
    root = Path(root) if root is not None else default_root()
    return lint_files(iter_source_files(root), package_root=root,
                      rules=rules)
