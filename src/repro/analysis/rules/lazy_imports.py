"""lazy-import-contract: the real import graph matches the declared one.

PR 4 broke the ``batch -> sharding -> fast_inference -> batch`` cycle
by demoting specific imports to function scope, and pinned that with
an ad-hoc AST test over one file.  This rule replaces the pin with the
general contract, computed over the *actual* module graph every run:

1. **Acyclicity** — the module-level import graph (``TYPE_CHECKING``
   blocks excluded; they never execute) must contain no cycles.  A new
   module-level cycle is reported as one violation per strongly
   connected component.
2. **Declared lazy edges** — each edge in ``DECLARED_LAZY_EDGES`` must
   exist *only* at function scope: importing it at module level
   re-creates the coupling the edge was demoted to break, and if the
   lazy import disappears entirely the declaration is stale and must
   be pruned (both are violations, so the declaration table can never
   drift from the code).

Imports are resolved (including relative ``from . import x``) against
the set of modules in the run, so the rule works identically on the
repo and on multi-module fixture files.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..report import Violation
from .base import FileContext, Rule

__all__ = ["LazyImportContractRule", "module_imports"]

#: (importer, imported) edges that must stay function-scoped.  These
#: are the cycle-breaking demotions from PR 4/8: batch dispatches
#: through the execution plane only at call time.
DEFAULT_DECLARED_LAZY_EDGES = frozenset({
    ("repro.core.batch", "repro.core.execution"),
})

#: (target, lineno) import edges out of one module.
_Edges = List[Tuple[str, int]]


def _is_type_checking_if(node: ast.If) -> bool:
    test = node.test
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    return isinstance(test, ast.Attribute) and \
        test.attr == "TYPE_CHECKING"


def _resolve_from(node: ast.ImportFrom, module: str,
                  is_package: bool) -> Optional[str]:
    """Absolute dotted base of a ``from X import ...`` statement."""
    if node.level == 0:
        return node.module
    parts = module.split(".")
    if not is_package:
        parts = parts[:-1]
    drop = node.level - 1
    if drop > len(parts):
        return None
    parts = parts[:len(parts) - drop] if drop else parts
    if node.module:
        parts = parts + node.module.split(".")
    return ".".join(parts) if parts else None


def _edge_targets(base: str, names: Sequence[ast.alias],
                  known: Set[str]) -> Set[str]:
    """Which known modules a resolved import statement reaches."""
    targets: Set[str] = set()
    for alias in names:
        candidate = f"{base}.{alias.name}"
        if candidate in known:
            targets.add(candidate)
        elif base in known:
            targets.add(base)
    if not targets:
        # ``import a.b.c`` style: longest known prefix.
        parts = base.split(".")
        for end in range(len(parts), 0, -1):
            prefix = ".".join(parts[:end])
            if prefix in known:
                targets.add(prefix)
                break
    return targets


def module_imports(ctx: FileContext, known: Set[str]
                   ) -> Tuple[Dict[str, _Edges], Dict[str, _Edges]]:
    """``(module_level, function_scoped)`` intra-project import edges
    of ``ctx``, each mapping target module -> [(target, lineno), ...].
    """
    is_package = ctx.path.endswith("__init__.py")
    module_level: Dict[str, _Edges] = {}
    lazy: Dict[str, _Edges] = {}

    def record(sink: Dict[str, _Edges], node: ast.AST) -> None:
        if isinstance(node, ast.Import):
            for alias in node.names:
                for target in _edge_targets(alias.name, [], known):
                    sink.setdefault(target, []).append(
                        (target, node.lineno))
        elif isinstance(node, ast.ImportFrom):
            base = _resolve_from(node, ctx.module, is_package)
            if base is None:
                return
            for target in _edge_targets(base, node.names, known):
                sink.setdefault(target, []).append(
                    (target, node.lineno))

    def visit(node: ast.AST, in_function: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.If) and \
                    _is_type_checking_if(child):
                continue  # never executes at runtime
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                record(lazy if in_function else module_level, child)
            nested = in_function or isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, nested)

    visit(ctx.tree, in_function=False)
    return module_level, lazy


def _find_cycles(graph: Dict[str, Set[str]]) -> List[List[str]]:
    """Strongly connected components of size > 1 (plus self-loops),
    via Tarjan — each is one cycle to report."""
    index: Dict[str, int] = {}
    low: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    counter = [0]
    sccs: List[List[str]] = []

    def strongconnect(node: str) -> None:
        index[node] = low[node] = counter[0]
        counter[0] += 1
        stack.append(node)
        on_stack.add(node)
        for succ in sorted(graph.get(node, ())):
            if succ not in index:
                strongconnect(succ)
                low[node] = min(low[node], low[succ])
            elif succ in on_stack:
                low[node] = min(low[node], index[succ])
        if low[node] == index[node]:
            component: List[str] = []
            while True:
                member = stack.pop()
                on_stack.discard(member)
                component.append(member)
                if member == node:
                    break
            if len(component) > 1 or node in graph.get(node, ()):
                sccs.append(sorted(component))

    for node in sorted(graph):
        if node not in index:
            strongconnect(node)
    return sccs


class LazyImportContractRule(Rule):
    id = "lazy-import-contract"
    description = ("module-level import graph stays acyclic and "
                   "declared lazy edges stay function-scoped")
    project_wide = True

    def __init__(self, declared_lazy=DEFAULT_DECLARED_LAZY_EDGES):
        self.declared_lazy = frozenset(declared_lazy)

    def check_project(self, ctxs: Sequence[FileContext]
                      ) -> Iterable[Violation]:
        known = {ctx.module for ctx in ctxs}
        by_module = {ctx.module: ctx for ctx in ctxs}
        module_level: Dict[str, Dict[str, _Edges]] = {}
        lazy: Dict[str, Dict[str, _Edges]] = {}
        for ctx in ctxs:
            module_level[ctx.module], lazy[ctx.module] = \
                module_imports(ctx, known)

        violations: List[Violation] = []

        graph = {mod: set(edges) for mod, edges in module_level.items()}
        for cycle in _find_cycles(graph):
            anchor_mod = cycle[0]
            ctx = by_module[anchor_mod]
            # Anchor at the first in-cycle import of the anchor module.
            lineno = min((recs[0][1]
                          for target, recs in
                          module_level[anchor_mod].items()
                          if target in cycle), default=1)
            violations.append(Violation(
                rule=self.id, path=ctx.path, module=ctx.module,
                line=lineno, col=0,
                message=("module-level import cycle: "
                         + " <-> ".join(cycle)
                         + "; demote one edge to a function-scoped "
                           "(lazy) import")))

        for src, dst in sorted(self.declared_lazy):
            if src not in known or dst not in known:
                continue  # edge outside this run's module set
            ctx = by_module[src]
            eager = module_level[src].get(dst)
            if eager:
                violations.append(Violation(
                    rule=self.id, path=ctx.path, module=src,
                    line=eager[0][1], col=0,
                    message=(f"{src} -> {dst} is a declared lazy edge "
                             f"but is imported at module level; move "
                             f"the import into the using function")))
            elif dst not in lazy[src]:
                violations.append(Violation(
                    rule=self.id, path=ctx.path, module=src,
                    line=1, col=0,
                    message=(f"declared lazy edge {src} -> {dst} no "
                             f"longer exists in the code; prune it "
                             f"from DECLARED_LAZY_EDGES")))
        return violations
