"""The rule registry: every enforced invariant, one place.

``default_rules()`` returns fresh instances of all registered rules in
a stable order; ``get_rule(id)`` resolves one by its public id (what
``--rule`` on the CLI uses).  Adding an invariant means adding a
module here and registering its class — the engine, CLI, JSON report,
and the repo-wide test pick it up automatically.
"""

from __future__ import annotations

from typing import Dict, List, Type

from .base import FileContext, Rule
from .async_blocking import AsyncNoBlockingRule
from .store_lock import StoreLockDisciplineRule
from .clocks import MonotonicClockRule
from .pickle_boundary import NoPickleBoundaryRule
from .lazy_imports import LazyImportContractRule
from .mmap_safety import MmapWriteSafetyRule
from .removed_spelling import RemovedSpellingRule

__all__ = ["FileContext", "Rule", "RULE_CLASSES", "default_rules",
           "get_rule", "rule_ids"]

#: Stable registry order — also the order rules run and report.
RULE_CLASSES: List[Type[Rule]] = [
    AsyncNoBlockingRule,
    StoreLockDisciplineRule,
    MonotonicClockRule,
    NoPickleBoundaryRule,
    LazyImportContractRule,
    MmapWriteSafetyRule,
    RemovedSpellingRule,
]


def default_rules() -> List[Rule]:
    """Fresh instances of every registered rule."""
    return [cls() for cls in RULE_CLASSES]


def rule_ids() -> List[str]:
    return [cls.id for cls in RULE_CLASSES]


def get_rule(rule_id: str) -> Rule:
    by_id: Dict[str, Type[Rule]] = {cls.id: cls for cls in RULE_CLASSES}
    try:
        return by_id[rule_id]()
    except KeyError:
        raise KeyError(
            f"unknown rule {rule_id!r}; known: "
            f"{', '.join(sorted(by_id))}") from None
