"""Shard planning for the fleet (Sections IV-G/IV-H; in process no
plan is cut).

:class:`ShardPlan` is an equal contiguous cut of a key sequence.
:meth:`ShardPlan.for_inference` cuts the engine's own grouping, the
batch's request indices graph by graph
(:func:`~repro.core.fast_inference.graph_order`): each shard is a run
of graphs split only at its ends, and shard sizes differ by at most
one request, the balance under a request-count cost.  A dead host's
orphaned keys are cut over the survivors the same way.  A plan never
leaves the coordinator: the wire carries requests.
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Hashable, Iterable, List, Sequence,
                    Tuple)

from .fast_inference import graph_order

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from .batch import InferenceRequest
    from .model import GraphExModel


class ShardPlan:
    """A key sequence cut into at most ``n_shards`` contiguous runs.

    The runs keep the keys' order and their lengths differ by at most
    one (the first ones are the longer); ``n_shards`` is clamped to
    the key count, so no shard is empty (no keys, no shards).
    """

    def __init__(self, keys: Iterable[Hashable], n_shards: int) -> None:
        keys = tuple(keys)
        n_shards = max(1, min(int(n_shards), len(keys)))
        size, extra = divmod(len(keys), n_shards)
        cuts = [index * size + min(index, extra)
                for index in range(n_shards + 1)]
        self._shards: Tuple[Tuple[Hashable, ...], ...] = tuple(
            keys[lo:hi] for lo, hi in zip(cuts, cuts[1:]) if hi > lo)

    @classmethod
    def for_inference(cls, model: "GraphExModel",
                      requests: Sequence["InferenceRequest"],
                      n_shards: int) -> Tuple["ShardPlan", List[int]]:
        """The inference plan: the batch's graph order, cut.

        Returns:
            ``(plan, order)`` — the plan over request indices, and the
            graph order it cut (requests with neither a leaf graph nor
            the pooled one are in neither; their result is ``[]``).
        """
        order, _owners = graph_order(model, requests)
        return cls(order, n_shards), order

    @property
    def shards(self) -> Tuple[Tuple[Hashable, ...], ...]:
        """Per-shard work-unit keys."""
        return self._shards

    @property
    def n_shards(self) -> int:
        """Number of planned shards."""
        return len(self._shards)
