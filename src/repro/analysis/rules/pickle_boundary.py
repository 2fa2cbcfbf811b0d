"""no-pickle-boundary: process and wire boundaries carry no pickles.

Cluster frames cross machine boundaries (a JSON control object plus a
raw binary tail of little-endian numpy columns, via ``protocol.py``)
and models cross process boundaries as saved artifacts opened by
path on the far side.  Pickle at either boundary would silently
couple the wire format to interpreter internals, break cross-version
clusters, and —
on the receiving coordinator — execute attacker-controlled bytecode.
The rule bans importing or calling ``pickle`` (and its drop-ins) in
``repro.cluster.*`` and ``repro.core.execution`` — and,
since numpy arrays now touch the wire, numpy's own doors to pickle:
any call passing ``allow_pickle=`` anything but the literal ``False``,
``ndarray.dump`` / ``ndarray.dumps`` (any ``.dump`` / ``.dumps`` call
whose receiver is not the ``json`` module) and ``np.loads``.  Arrays
cross as ``tobytes()`` / ``np.frombuffer`` with an explicit dtype.

The implicit door is banned with the explicit ones: a
``multiprocessing`` / ``ProcessPoolExecutor`` pool pickles every
argument and every result without anyone writing ``pickle``, so
importing ``multiprocessing``, ``concurrent.futures.process`` or
``ProcessPoolExecutor`` in scope is flagged too.  Work leaves the
process through the cluster plane's frames instead.
"""

from __future__ import annotations

import ast
from typing import Iterable, List

from ..report import Violation
from .base import FileContext, Rule, dotted

__all__ = ["NoPickleBoundaryRule"]

#: pickle and its drop-in replacements.
PICKLE_MODULES = frozenset({"pickle", "cPickle", "dill", "cloudpickle",
                            "marshal"})

#: Process pools: every argument and result crosses as a pickle.
POOL_MODULES = frozenset({"multiprocessing", "concurrent.futures.process"})
POOL_NAMES = frozenset({"ProcessPoolExecutor"})

#: Modules whose ``dump`` / ``dumps`` write text, not pickles.
TEXT_DUMPERS = frozenset({"json"})

#: numpy's alias of ``pickle.loads``.
NUMPY_LOADS = frozenset({"np.loads", "numpy.loads"})


class NoPickleBoundaryRule(Rule):
    id = "no-pickle-boundary"
    description = ("no pickle — by name, through numpy, or through a "
                   "process pool — in cluster/ or core.execution; "
                   "payloads go through protocol.py codecs or saved "
                   "artifacts")

    SCOPES = ("repro.cluster.",)
    SCOPE_MODULES = ("repro.core.execution",)

    def applies_to(self, ctx: FileContext) -> bool:
        return (ctx.module.startswith(self.SCOPES)
                or ctx.module in self.SCOPE_MODULES)

    def check(self, ctx: FileContext) -> Iterable[Violation]:
        violations: List[Violation] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    door = self._import_door(alias.name)
                    if door is not None:
                        violations.append(self.violation(
                            ctx, node, self._message(door)))
            elif isinstance(node, ast.ImportFrom):
                if node.level != 0:
                    continue
                doors = [self._import_door(node.module or "")] + [
                    alias.name for alias in node.names
                    if alias.name in POOL_NAMES]
                for door in filter(None, doors):
                    violations.append(self.violation(
                        ctx, node, self._message(door)))
            elif isinstance(node, ast.Call):
                name = dotted(node.func)
                root = name.split(".")[0] if name else None
                if root in PICKLE_MODULES or name in NUMPY_LOADS:
                    violations.append(self.violation(
                        ctx, node, self._message(name)))
                elif (isinstance(node.func, ast.Attribute)
                      and node.func.attr in ("dump", "dumps")
                      and root not in TEXT_DUMPERS):
                    violations.append(self.violation(
                        ctx, node, self._message(
                            f"ndarray.{node.func.attr}")))
                for keyword in node.keywords:
                    if keyword.arg == "allow_pickle" and not (
                            isinstance(keyword.value, ast.Constant)
                            and keyword.value.value is False):
                        violations.append(self.violation(
                            ctx, node, self._message(
                                "allow_pickle= not the literal False")))
        return violations

    @staticmethod
    def _import_door(module: str):
        """The pickle door a module import opens, or None."""
        root = module.split(".")[0]
        if root in PICKLE_MODULES:
            return root
        return next((pool for pool in POOL_MODULES
                     if (module + ".").startswith(pool + ".")), None)

    @staticmethod
    def _message(what: str) -> str:
        return (f"pickle-family usage ({what}) at a process/wire "
                f"boundary; serialize through repro.cluster.protocol "
                f"codecs (JSON control objects, tobytes/frombuffer "
                f"columns) or saved artifacts opened by path instead")
