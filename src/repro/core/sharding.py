"""Shard planning for the unified execution plane (Sections IV-G/IV-H).

GraphEx's shard-shaped work — leaf groups of an inference batch — runs
on a fleet of worker processes (see :mod:`repro.core.execution`; in
process a batch is one engine call and no plan is cut).  This module
owns what the fleet's coordinator and its workers share:

* :class:`ShardPlan` deterministically partitions cost-weighted work
  units (leaf groups keyed by leaf id) across shards with a
  longest-processing-time greedy pass.  A plan never leaves the
  process that cut it: the cluster wire carries each unit's requests,
  not the plan.  :meth:`ShardPlan.for_inference` builds the canonical
  plan and is the one place a unit's cost is defined: the
  request-count proxy.
* :class:`ShardExecutionError`, raised when a shard's result does not
  fit the unit that was sent.

The execution substrates themselves, and the scatter/merge contracts
they share, live in :mod:`repro.core.execution`; this module imports
nothing from it at run time, so plans stay usable without the engines.
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Dict, Hashable, Iterable, List, Sequence,
                    Tuple)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from .batch import InferenceRequest
    from .model import GraphExModel

#: Shard-plan key for the leaf group served by the pooled fallback graph
#: (requests whose leaf has no graph of its own).  Mirrors the pooled
#: pseudo-leaf id convention of ``repro.core.model._pool_leaves``.
POOLED_GROUP = -1


class ShardExecutionError(RuntimeError):
    """A shard's result does not fit the unit that was sent — merging
    it would serve one request another's rows."""


class ShardPlan:
    """Deterministic assignment of cost-weighted work units to shards.

    A plan maps hashable work-unit keys (leaf ids for both engines) to
    shards, balancing the supplied cost estimates.  Plans are value
    objects: equality is structural.

    Args:
        shards: Per-shard tuples of work-unit keys.
        costs: Cost estimate per key; every planned key must be present.

    Raises:
        ValueError: If a key appears in more than one shard (or twice in
            one), a planned key has no cost, or a cost names a key no
            shard carries.
    """

    def __init__(self, shards: Sequence[Sequence[Hashable]],
                 costs: Dict[Hashable, int]) -> None:
        self._shards: Tuple[Tuple[Hashable, ...], ...] = \
            tuple(tuple(shard) for shard in shards)
        self._costs = dict(costs)
        seen = set()
        for shard in self._shards:
            for key in shard:
                if key in seen:
                    raise ValueError(f"key {key!r} planned twice")
                if key not in self._costs:
                    raise ValueError(f"planned key {key!r} has no cost")
                seen.add(key)
        unplanned = set(self._costs) - seen
        if unplanned:
            # ``replan`` takes "has a cost" to mean "is part of this
            # plan": a cost for a key no shard carries would let it
            # schedule work nobody planned.
            raise ValueError(f"costs for unplanned keys {unplanned!r}")

    @classmethod
    def balance(cls, costs: Sequence[Tuple[Hashable, int]],
                n_shards: int) -> "ShardPlan":
        """Partition keyed costs across at most ``n_shards`` shards.

        Longest-processing-time greedy: keys are taken in descending
        cost order (input position breaks ties) and each lands on the
        currently lightest shard (lowest index breaks ties), so the
        same input always yields the same plan.  ``n_shards`` is
        clamped to the number of keys — no empty shards are planned.

        Raises:
            ValueError: On duplicate keys.
        """
        items = list(costs)
        if len({key for key, _cost in items}) != len(items):
            raise ValueError("duplicate keys in cost list")
        if not items:
            return cls((), {})
        n_shards = max(1, min(int(n_shards), len(items)))
        order = sorted(range(len(items)),
                       key=lambda i: (-items[i][1], i))
        assignments: List[List[Hashable]] = [[] for _ in range(n_shards)]
        loads = [0] * n_shards
        for i in order:
            key, cost = items[i]
            shard = min(range(n_shards), key=loads.__getitem__)
            assignments[shard].append(key)
            loads[shard] += cost
        return cls(assignments, dict(items))

    @classmethod
    def for_inference(cls, model: "GraphExModel",
                      requests: Sequence["InferenceRequest"],
                      n_shards: int
                      ) -> Tuple["ShardPlan", Dict[int, List[int]]]:
        """The canonical inference plan: leaf groups, balanced.

        Mirrors ``LeafBatchRunner``'s grouping: a request is keyed by
        its leaf id when that leaf has a graph, by :data:`POOLED_GROUP`
        when it falls back to the pooled graph, and is excluded (its
        result is ``[]``) when neither exists.  The cost estimate is
        the group's request count — per-request work dominates, and a
        whole group keeps each leaf's arrays on one shard (the engine
        packs a shard's groups into cross-leaf chunks either way).
        Every substrate executes the same groups, so the plan only
        moves balance, never output.

        Returns:
            ``(plan, groups)`` — the balanced plan over group keys, and
            each group's request indices in batch order.
        """
        groups: Dict[int, List[int]] = {}
        for index, (_item_id, _title, leaf_id) in enumerate(requests):
            if model.leaf_graph(leaf_id) is not None:
                key = leaf_id
            elif model.pooled_graph is not None:
                key = POOLED_GROUP
            else:
                continue
            groups.setdefault(key, []).append(index)
        costs = [(key, len(indices)) for key, indices in groups.items()]
        return cls.balance(costs, n_shards), groups

    @property
    def shards(self) -> Tuple[Tuple[Hashable, ...], ...]:
        """Per-shard work-unit keys."""
        return self._shards

    @property
    def n_shards(self) -> int:
        """Number of planned shards."""
        return len(self._shards)

    @property
    def shard_costs(self) -> List[int]:
        """Summed cost estimate per shard (the balance the plan found)."""
        return [sum(self._costs[key] for key in shard)
                for shard in self._shards]

    def replan(self, keys: Iterable[Hashable],
               n_shards: int) -> "ShardPlan":
        """Re-balance a subset of this plan's keys across ``n_shards``.

        The dead-host orphan re-planning primitive: when a worker dies
        mid-plan, the coordinator takes the keys it was executing and
        re-balances them across the surviving hosts (``n_shards``
        clamps to the key count, and down to one shard when the fleet
        has emptied).  Each key keeps this plan's recorded cost.
        Deterministic for a given key order, like :meth:`balance`.

        Raises:
            ValueError: If a key was not part of this plan (its cost is
                unknown) or appears twice.
        """
        keys = list(keys)
        unknown = [key for key in keys if key not in self._costs]
        if unknown:
            raise ValueError(
                f"cannot replan keys {unknown!r}: not part of this plan")
        return ShardPlan.balance(
            [(key, self._costs[key]) for key in keys], n_shards)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ShardPlan):
            return NotImplemented
        return self._shards == other._shards and self._costs == other._costs

    def __repr__(self) -> str:
        return (f"ShardPlan(n_shards={self.n_shards}, "
                f"shard_costs={self.shard_costs})")
