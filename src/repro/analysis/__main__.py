"""``python -m repro.analysis`` — the repo-wide invariant gate.

Exit codes: 0 clean, 1 violations, 2 usage error.  ``--json`` writes
the machine-readable report (the CI artifact) regardless of outcome.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from . import engine
from .rules import RULE_CLASSES, get_rule

__all__ = ["main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=("repro-lint: AST-enforced concurrency, clock, "
                     "serialization, and import contracts"))
    parser.add_argument(
        "--root", type=Path, default=None,
        help="package directory to lint (default: the installed "
             "repro package)")
    parser.add_argument(
        "--json", type=Path, default=None, metavar="PATH",
        help="also write the machine-readable JSON report here")
    parser.add_argument(
        "--rule", action="append", default=None, metavar="RULE-ID",
        help="run only this rule (repeatable)")
    parser.add_argument(
        "--list-rules", action="store_true",
        help="list registered rules and exit")
    parser.add_argument(
        "--quiet", action="store_true",
        help="suppress the human-readable report on success")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for cls in RULE_CLASSES:
            print(f"{cls.id}: {cls.description}")
        return 0

    rules = None
    if args.rule:
        try:
            rules = [get_rule(rule_id) for rule_id in args.rule]
        except KeyError as exc:
            print(f"repro-lint: {exc.args[0]}", file=sys.stderr)
            return 2

    report = engine.run(root=args.root, rules=rules)

    if args.json is not None:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(report.to_json() + "\n", encoding="utf-8")

    if not report.ok or not args.quiet:
        print(report.render())
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
