"""Rule plumbing: the per-file context, the Rule interface, AST helpers.

Every rule sees a :class:`FileContext` — parsed AST plus the resolved
dotted module name, which is what rules *scope* on (``repro.serving.*``
vs ``repro.cluster.*``), so the same rule runs identically over real
repo files and over in-memory fixture sources with virtual module
names.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from ..report import Violation

__all__ = ["FileContext", "Rule", "dotted", "walk_function_body",
           "async_function_defs", "function_defs"]


@dataclass
class FileContext:
    """One parsed source file as the rules see it."""

    path: str            # display path (repo-relative file or marker)
    module: str          # dotted module name, e.g. repro.serving.nrt
    tree: ast.Module

    @classmethod
    def from_source(cls, source: str, *, path: str,
                    module: str) -> "FileContext":
        return cls(path=path, module=module,
                   tree=ast.parse(source, filename=path))


class Rule:
    """One enforced invariant.

    Subclasses set ``id``/``description``, restrict themselves with
    :meth:`applies_to`, and implement :meth:`check` (per file).  A rule
    whose invariant spans files (the import-graph contract) sets
    ``project_wide = True`` and implements :meth:`check_project`
    instead; the engine hands it every context of the run at once.
    """

    id: str = ""
    description: str = ""
    project_wide: bool = False

    def applies_to(self, ctx: FileContext) -> bool:
        return True

    def check(self, ctx: FileContext) -> Iterable[Violation]:
        return ()

    def check_project(self, ctxs: Sequence[FileContext]
                      ) -> Iterable[Violation]:
        return ()

    def violation(self, ctx: FileContext, node: ast.AST,
                  message: str) -> Violation:
        return Violation(rule=self.id, path=ctx.path, module=ctx.module,
                         line=getattr(node, "lineno", 1),
                         col=getattr(node, "col_offset", 0),
                         message=message)


def dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _iter_shallow(node: ast.AST) -> Iterator[ast.AST]:
    """Children of ``node``, not descending into nested function or
    lambda bodies (those run in their own execution context — e.g. a
    sync helper dispatched to an executor from an async def)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.Lambda)):
            continue
        yield child
        yield from _iter_shallow(child)


def walk_function_body(fn: ast.AST) -> Iterator[ast.AST]:
    """Every node lexically inside ``fn``'s own body, excluding nested
    function/lambda bodies (each nested def is visited as its own
    function by the callers that want it)."""
    for stmt in fn.body:
        yield stmt
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        yield from _iter_shallow(stmt)


def async_function_defs(tree: ast.Module
                        ) -> Iterator[ast.AsyncFunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, ast.AsyncFunctionDef):
            yield node


def function_defs(tree: ast.Module) -> Iterator[Tuple[ast.AST, bool]]:
    """Every function def in the file as ``(node, is_async)``."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node, isinstance(node, ast.AsyncFunctionDef)
