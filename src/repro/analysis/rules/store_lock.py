"""store-lock-discipline: multi-step store mutations are transactional.

The :class:`~repro.serving.kvstore.KeyValueStore` write protocol is
stage -> fill -> promote, and ``KeyValueStore.transaction()`` is the
one place it is written; a function that issues two or more mutating
calls outside it can interleave with the daily-refresh swap and
strand sentinels or serve a half-promoted version (the PR 6 "stranded
staged version" bug).  Any function in ``serving/`` or ``cluster/``
making >= 2 mutating store calls must enter
``with <store>.transaction()`` itself.

Receiver heuristics keep this sound without type inference: the
distinctive mutator names (``create_version``/``promote``/...) exist
only on the store, so they count on any receiver; the generic names
(``put``/``delete``/``prune``) also live on dicts and asyncio queues,
so they count only when the receiver text looks store-ish
(``store``/``kv`` in the dotted path).  ``kvstore.py`` itself is
exempt — it is the lock's implementation, not a client.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable, List

from ..report import Violation
from .base import FileContext, Rule, dotted, function_defs, \
    walk_function_body

__all__ = ["StoreLockDisciplineRule"]

#: Mutator names unique to KeyValueStore — counted on any receiver.
DISTINCTIVE_MUTATORS = frozenset({
    "create_version", "promote", "abandon", "copy_from_serving",
    "bulk_load",
})

#: Mutator names shared with dicts/queues — counted only on a
#: store-looking receiver.
GENERIC_MUTATORS = frozenset({"put", "delete", "prune"})

_STOREISH_RE = re.compile(r"(store|kv)", re.IGNORECASE)


class StoreLockDisciplineRule(Rule):
    id = "store-lock-discipline"
    description = (">= 2 mutating KeyValueStore calls in one function "
                   "must be inside store.transaction()")

    SCOPES = ("repro.serving.", "repro.cluster.")
    EXEMPT_MODULES = ("repro.serving.kvstore",)

    def applies_to(self, ctx: FileContext) -> bool:
        return (ctx.module.startswith(self.SCOPES)
                and ctx.module not in self.EXEMPT_MODULES)

    def check(self, ctx: FileContext) -> Iterable[Violation]:
        violations: List[Violation] = []
        for fn, _is_async in function_defs(ctx.tree):
            mutations = []
            holds_lock = False
            for node in walk_function_body(fn):
                if isinstance(node, (ast.With, ast.AsyncWith)):
                    if any(self._is_transaction(item.context_expr)
                           for item in node.items):
                        holds_lock = True
                elif isinstance(node, ast.Call):
                    name = self._mutator_name(node)
                    if name is not None:
                        mutations.append(name)
            if len(mutations) >= 2 and not holds_lock:
                violations.append(self.violation(
                    ctx, fn,
                    f"{fn.name} makes {len(mutations)} mutating store "
                    f"calls ({', '.join(sorted(set(mutations)))}) "
                    f"outside store.transaction(); wrap them"))
        return violations

    @staticmethod
    def _is_transaction(expr: ast.AST) -> bool:
        return isinstance(expr, ast.Call) \
            and isinstance(expr.func, ast.Attribute) \
            and expr.func.attr == "transaction"

    @staticmethod
    def _mutator_name(call: ast.Call):
        func = call.func
        if not isinstance(func, ast.Attribute):
            return None
        if func.attr in DISTINCTIVE_MUTATORS:
            return func.attr
        if func.attr in GENERIC_MUTATORS:
            receiver = dotted(func.value)
            if receiver is not None and _STOREISH_RE.search(receiver):
                return func.attr
        return None
