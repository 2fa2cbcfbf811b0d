"""mmap-write-safety: serving code never mutates model-plane arrays.

Saved models are served as read-only ``np.memmap`` views shared by
every worker process on the box; the arrays are opened write-protected
precisely so a serving-path bug cannot corrupt the file every process
is mapping.  This rule flags the two ways serving code can defeat
that: re-enabling writes with ``.setflags(write=True)``, and in-place
element/slice stores (``model.data[i] = ...``, ``graph.weights += d``)
on receivers that look like model-plane arrays.  Serving code that
needs modified arrays copies first (``np.array(...)``, delta overlays
in the NRT store) — mutation belongs in the build plane.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable, List, Optional

from ..report import Violation
from .base import FileContext, Rule, dotted

__all__ = ["MmapWriteSafetyRule"]

#: Receiver spellings that mean "a model-plane array" in this codebase:
#: the model object itself, leaf/pooled graphs, and the CSR component
#: arrays a saved model's open mmaps.
_MODELISH_RE = re.compile(
    r"(model|graph|csr|indptr|indices|weights|embedd|offsets)",
    re.IGNORECASE)


class MmapWriteSafetyRule(Rule):
    id = "mmap-write-safety"
    description = ("no in-place mutation of mmap'd model-plane arrays "
                   "in serving code (writes corrupt the shared "
                   "read-only mapping)")

    SCOPES = ("repro.serving.",)

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.module.startswith(self.SCOPES)

    def check(self, ctx: FileContext) -> Iterable[Violation]:
        violations: List[Violation] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                label = self._setflags_write(node)
                if label:
                    violations.append(self.violation(
                        ctx, node,
                        f"{label}.setflags(write=True) defeats the "
                        f"read-only mmap protection; copy the array "
                        f"instead of unprotecting it"))
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    label = self._model_store_target(target)
                    if label:
                        violations.append(self.violation(
                            ctx, node,
                            f"in-place store into model-plane array "
                            f"{label}; serving must treat mmap'd "
                            f"arrays as immutable (copy, or overlay "
                            f"deltas in the store)"))
            elif isinstance(node, ast.AugAssign):
                label = self._model_store_target(node.target,
                                                 allow_attribute=True)
                if label:
                    violations.append(self.violation(
                        ctx, node,
                        f"in-place augmented store into model-plane "
                        f"array {label}; serving must treat mmap'd "
                        f"arrays as immutable"))
        return violations

    @staticmethod
    def _setflags_write(call: ast.Call) -> Optional[str]:
        func = call.func
        if not (isinstance(func, ast.Attribute)
                and func.attr == "setflags"):
            return None
        for kw in call.keywords:
            if kw.arg == "write" and not (
                    isinstance(kw.value, ast.Constant)
                    and kw.value.value in (False, None)):
                return dotted(func.value) or "<array>"
        return None

    @staticmethod
    def _model_store_target(target: ast.AST,
                            allow_attribute: bool = False
                            ) -> Optional[str]:
        base = None
        if isinstance(target, ast.Subscript):
            base = target.value
        elif allow_attribute and isinstance(target, ast.Attribute):
            base = target
        if base is None:
            return None
        name = dotted(base)
        if name is not None and _MODELISH_RE.search(name):
            return name
        return None
