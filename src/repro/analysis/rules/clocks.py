"""monotonic-clock: timers never read the wall clock.

Deadlines, heartbeats, retry backoff, and the async front's batching
window are all *interval* measurements; ``time.time()`` jumps under
NTP step corrections and DST, which is how a 150 ms batching window
once became a 59-minute stall in the inspiration systems.  Interval
code must use ``time.monotonic()`` (or the loop's ``loop.time()``).

Scope is the timer-bearing modules named by the contract: everything
under ``repro.cluster`` (heartbeats, retry backoff, replan deadlines),
the async serving front (window timers), and everything under
``repro.obs`` (span durations, histogram timers, staleness gauges —
an observability plane that read the wall clock would *measure* the
very anomalies it exists to detect).  Operator-facing *timestamps*
(report fields, log lines) legitimately want wall-clock time — those
live outside this scope.
"""

from __future__ import annotations

import ast
from typing import Iterable, List

from ..report import Violation
from .base import FileContext, Rule, dotted

__all__ = ["MonotonicClockRule"]

#: Wall-clock reads banned in timer scope.
WALL_CLOCK_CALLS = frozenset({"time.time", "datetime.now",
                              "datetime.utcnow", "datetime.today"})


class MonotonicClockRule(Rule):
    id = "monotonic-clock"
    description = ("time.time() banned in deadline/heartbeat/backoff/"
                   "window-timer paths (cluster/, retry, async_front, "
                   "obs/)")

    SCOPES = ("repro.cluster.", "repro.obs.")
    SCOPE_MODULES = ("repro.serving.async_front", "repro.obs")

    def applies_to(self, ctx: FileContext) -> bool:
        return (ctx.module.startswith(self.SCOPES)
                or ctx.module in self.SCOPE_MODULES)

    def check(self, ctx: FileContext) -> Iterable[Violation]:
        violations: List[Violation] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted(node.func)
            if name is None:
                continue
            tail2 = ".".join(name.split(".")[-2:])
            if name in WALL_CLOCK_CALLS or tail2 in WALL_CLOCK_CALLS:
                violations.append(self.violation(
                    ctx, node,
                    f"wall-clock read {name}() in a timer path; use "
                    f"time.monotonic() / loop.time() for intervals"))
        return violations
