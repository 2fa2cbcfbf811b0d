"""Lint findings and the machine-readable report they roll up into.

A :class:`Violation` is one broken invariant at one source location.
:class:`LintReport` collects every violation of one run and serializes
to the JSON schema CI archives (``schema_version`` guards consumers
against silent shape drift).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = ["LintReport", "Violation", "SCHEMA_VERSION"]

#: Bump when the JSON report shape changes incompatibly.
SCHEMA_VERSION = 2


@dataclass(frozen=True)
class Violation:
    """One broken invariant at one source location.

    ``path`` is whatever the caller linted under (a repo-relative file
    for the CLI, a virtual ``<module>`` marker for in-memory sources);
    ``module`` is the dotted module the engine resolved the file to —
    rules scope on it, so it is part of the finding.
    """

    rule: str
    path: str
    module: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        """The one-line human spelling: ``path:line:col: rule: msg``."""
        return (f"{self.path}:{self.line}:{self.col}: "
                f"{self.rule}: {self.message}")

    def as_dict(self) -> dict:
        return {"rule": self.rule, "path": self.path,
                "module": self.module, "line": self.line,
                "col": self.col, "message": self.message}


@dataclass
class LintReport:
    """Everything one lint run found, JSON-serializable for CI.

    Every violation gates: exit code 1 when there is any.
    """

    root: str
    n_files: int
    rule_ids: List[str]
    violations: List[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def by_rule(self) -> Dict[str, int]:
        """Violation count per rule id (zero-count rules included, so
        the JSON proves every rule actually ran)."""
        counts = {rule_id: 0 for rule_id in self.rule_ids}
        for violation in self.violations:
            counts[violation.rule] = counts.get(violation.rule, 0) + 1
        return counts

    def as_dict(self) -> dict:
        return {
            "tool": "repro-lint",
            "schema_version": SCHEMA_VERSION,
            "root": self.root,
            "ok": self.ok,
            "n_files": self.n_files,
            "n_violations": len(self.violations),
            "violations_by_rule": self.by_rule(),
            "violations": [v.as_dict() for v in self.violations],
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent, sort_keys=False)

    def render(self) -> str:
        """Human-readable summary: one line per finding, then totals."""
        lines = [violation.render() for violation in self.violations]
        lines.append(
            f"repro-lint: {len(self.violations)} violation(s), "
            f"{self.n_files} file(s), {len(self.rule_ids)} rule(s)")
        return "\n".join(lines)
