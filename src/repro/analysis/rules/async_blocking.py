"""async-no-blocking: the event loop never runs blocking work inline.

The serving front and the cluster plane are single-event-loop hot
paths; one inline ``time.sleep``, file open, ``store.transaction()``
entry, or ``concurrent.futures`` ``.result()`` stalls every
connection the loop is carrying (PR 6-8 each shipped a fix for exactly
this shape).  The rule walks every ``async def`` body in
``repro.serving.*`` / ``repro.cluster.*`` and flags known-blocking
calls that are not awaited.

Deliberately out of scope, to stay false-positive-free:

* nested *sync* ``def``/``lambda`` bodies — those are the helpers the
  fix dispatches through ``loop.run_in_executor``;
* awaited calls (``await asyncio.sleep`` is the non-blocking spelling);
* bare ``.write()``/``.close()`` attribute calls — asyncio
  ``StreamWriter`` uses those names non-blockingly, so they cannot be
  distinguished statically.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional, Set

from ..report import Violation
from .base import FileContext, Rule, dotted, walk_function_body

__all__ = ["AsyncNoBlockingRule"]

#: Fully-dotted calls that always block the calling thread.
BLOCKING_DOTTED = frozenset({
    "time.sleep",
    "shutil.rmtree", "shutil.copy", "shutil.copy2", "shutil.copyfile",
    "shutil.copytree", "shutil.move",
    "tempfile.mkdtemp", "tempfile.mkstemp",
    "subprocess.run", "subprocess.call", "subprocess.check_call",
    "subprocess.check_output",
    "os.replace", "os.rename", "os.makedirs", "os.remove", "os.unlink",
    "socket.create_connection",
})

#: Bare-name calls that block on the filesystem.
BLOCKING_NAMES = frozenset({"open", "load_model", "open_model", "save_model"})

#: Method names that block regardless of receiver: concurrent.futures
#: ``.result()``, threading-lock ``.acquire()``, the store's
#: ``.transaction()`` (it takes the RLock — an unbounded wait), pathlib
#: filesystem touches.  Kept to names with no common non-blocking
#: homonym in this codebase.
BLOCKING_ATTRS = frozenset({"result", "acquire", "transaction", "mkdir",
                            "rmdir", "write_text", "read_text",
                            "write_bytes", "read_bytes", "unlink"})


class AsyncNoBlockingRule(Rule):
    id = "async-no-blocking"
    description = ("no blocking calls (sleep/file I/O/lock "
                   "acquisition/.result()) inside async def bodies in "
                   "serving/ and cluster/")

    SCOPES = ("repro.serving.", "repro.cluster.")

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.module.startswith(self.SCOPES)

    def check(self, ctx: FileContext) -> Iterable[Violation]:
        violations: List[Violation] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.AsyncFunctionDef):
                violations.extend(self._check_async_def(ctx, node))
        return violations

    def _check_async_def(self, ctx: FileContext,
                         fn: ast.AsyncFunctionDef) -> List[Violation]:
        awaited: Set[int] = set()
        for node in walk_function_body(fn):
            if isinstance(node, ast.Await) and isinstance(node.value,
                                                          ast.Call):
                awaited.add(id(node.value))
        violations: List[Violation] = []
        for node in walk_function_body(fn):
            if not isinstance(node, ast.Call) or id(node) in awaited:
                continue
            label = self._blocking_label(node)
            if label is not None:
                violations.append(self.violation(
                    ctx, node,
                    f"blocking call {label}() inside async def "
                    f"{fn.name}; dispatch it through "
                    f"loop.run_in_executor (or await the async "
                    f"equivalent)"))
        return violations

    @staticmethod
    def _blocking_label(call: ast.Call) -> Optional[str]:
        func = call.func
        name = dotted(func)
        if name is not None:
            # Match on the trailing dotted pair so aliased module
            # access (``self._shutil.rmtree``) still hits.
            tail2 = ".".join(name.split(".")[-2:])
            if name in BLOCKING_DOTTED or tail2 in BLOCKING_DOTTED:
                return name
            if "." not in name and name in BLOCKING_NAMES:
                return name
        if isinstance(func, ast.Attribute) and func.attr in BLOCKING_ATTRS:
            return dotted(func) or func.attr
        return None
