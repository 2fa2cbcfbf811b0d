"""repro-lint: project-specific static analysis for the repro codebase.

The system's correctness rests on cross-cutting invariants no unit
test can pin for code that does not exist yet: the event loop never
blocks, multi-step store mutations hold the transaction lock, timers
read monotonic clocks, nothing pickles across process or wire
boundaries, the module-level import graph stays acyclic with its
declared lazy edges, and serving never writes into mmap'd model
arrays.  This package walks the AST of every module and enforces each
contract as a CI-gated rule.

Entry points
------------
* ``python -m repro.analysis`` / ``repro-cli lint`` — repo-wide run,
  exit 1 on any violation.
* :func:`run` / :func:`lint_files` / :func:`lint_sources` — library
  API (``lint_sources`` lints in-memory fixtures by virtual module
  name, which is how the per-rule self-tests work).

Every finding gates: nothing in a source file can silence a rule, so
a false positive is fixed in its rule, with a fixture.
"""

from __future__ import annotations

from .engine import (default_root, lint_contexts, lint_files,
                     lint_sources, run, split_fixture)
from .report import SCHEMA_VERSION, LintReport, Violation
from .rules import (RULE_CLASSES, FileContext, Rule, default_rules,
                    get_rule, rule_ids)

__all__ = [
    "run", "lint_files", "lint_sources", "lint_contexts",
    "split_fixture", "default_root",
    "LintReport", "Violation", "SCHEMA_VERSION",
    "Rule", "FileContext", "RULE_CLASSES", "default_rules",
    "get_rule", "rule_ids",
]
