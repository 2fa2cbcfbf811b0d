"""Batch inference (paper Sections III-F, IV-H).

Production GraphEx runs batch inference over all items plus a *daily
differential* — only items created or revised since the last run are
re-inferred and merged with the existing predictions; that merge lives
in :meth:`repro.serving.batch_pipeline.BatchPipeline.daily_differential`.

Two engines serve a batch:

* ``"fast"`` (default) — the vectorized chunk-batched engine
  (:class:`repro.core.fast_inference.LeafBatchRunner`): requests are
  grouped by the graph that serves them (the pooled fallback
  included), cut into chunks across graphs, and each chunk runs through
  one intern pass, one fused CSR gather + slot-shifted key sort, one
  count-array prune over per-run-length masks and one integer-rank
  segmented lexsort into ranked columns; one ``materialise`` per batch
  turns those into row views.
* ``"reference"`` — the scalar loop over
  :meth:`~repro.core.model.GraphExModel.recommend`; the semantics
  reference the equivalence suite checks against.

Both produce element-wise identical output (text, score, tie-break
order); ``tests/test_fast_inference.py`` pins that property.  The
reference engine answers each item with a list of rows, the fast one
with a read-only view over its batch's ranked columns
(:class:`repro.core.fast_inference.RowView`): it compares, iterates and
indexes like the list, builds its rows only when one is first read, and
its ``.texts()`` — what a serving store keeps — builds none.

Orthogonally, ``executor=`` — the one spelling, resolved by
:func:`repro.core.execution.resolve_executor` — picks where the fast
engine runs: here, as one engine call on the calling thread (``None``
/ ``"serial"``, the default and the fastest place on one box), or on
the fleet an :class:`repro.core.execution.ClusterExecutor` instance
carries.  Duplicate item ids resolve once, in :func:`last_request_wins`
(the last request for an id wins); how the fleet cuts a batch into
units and merges them back lives once, in the coordinator's
:class:`repro.cluster.coordinator.FleetJob`.  The reference engine
stays single-process by design — it is the semantics oracle.
"""

from __future__ import annotations

from numbers import Integral
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple, Union

from .inference import Recommendation
from .model import GraphExModel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from .execution import Executor

#: Anything resolvable to an executor: an instance, ``"serial"``, or
#: None (the same).
ExecutorSpec = Union["Executor", str, None]

#: One inference request: (item_id, title, leaf_id).
InferenceRequest = Tuple[int, str, int]

#: Batch output: item id → ranked recommendations (a list on the
#: reference engine, a :class:`~repro.core.fast_inference.RowView` on
#: the fast one).
BatchResult = Dict[int, Sequence[Recommendation]]

#: Engine names accepted by the batch entry points (and the CLI flag).
ENGINES = ("reference", "fast")


def last_request_wins(requests: Sequence[InferenceRequest],
                      rows: Sequence[list]) -> Dict[int, list]:
    """Item id → its row, where ``rows[i]`` answers ``requests[i]``.

    The one place duplicate item ids are resolved: as in the scalar
    loop, the last request for an id wins (and an id keeps its
    first-seen position in the output).
    """
    return {item_id: rows[index] for index, (item_id, _title, _leaf_id)
            in enumerate(requests)}


def validate_limits(k: int, hard_limit: Optional[int]) -> None:
    """Raise a ``TypeError`` naming ``k`` or ``hard_limit`` unless it
    is a :class:`numbers.Integral` other than ``bool`` (``hard_limit``
    may be ``None``), and a ``ValueError`` on a negative ``hard_limit``.

    The two engines would otherwise disagree on such values (a float
    ``k`` served by one, a raw error deep inside the other; Python slice
    semantics on a negative cap), so both reject them up front.
    """
    limits = {"k": k, "hard_limit": 0 if hard_limit is None else hard_limit}
    for name, value in limits.items():
        if isinstance(value, bool) or not isinstance(value, Integral):
            raise TypeError(f"{name} must be an int, got {value!r}")
    if hard_limit is not None and hard_limit < 0:
        raise ValueError(f"hard_limit must be >= 0, got {hard_limit}")


def batch_recommend(model: GraphExModel,
                    requests: Sequence[InferenceRequest],
                    k: int = 10,
                    hard_limit: Optional[int] = None,
                    engine: str = "fast",
                    executor: ExecutorSpec = None) -> BatchResult:
    """Run inference over a batch of items.

    Args:
        model: A constructed :class:`GraphExModel`.
        requests: ``(item_id, title, leaf_id)`` triples.
        k: Target predictions per item.
        hard_limit: Optional strict cap per item.
        engine: ``"fast"`` (vectorized leaf-batched) or ``"reference"``
            (scalar loop).
        executor: Where the fast engine runs —
            ``None`` / ``"serial"`` (the calling thread, default) or an
            :class:`repro.core.execution.Executor` instance (a
            ``ClusterExecutor`` carries its own fleet).  Output is
            element-wise identical either way.

    Returns:
        Mapping from item id to its ranked recommendations: a list per
        item on the reference engine, a
        :class:`~repro.core.fast_inference.RowView` (equal to that list;
        ``.texts()`` reads its keyphrases without building a row) on
        the fast one.

    Raises:
        TypeError: A ``k`` or ``hard_limit`` that is not an integer.
        ValueError: On an unknown engine or executor spelling, a
            negative ``hard_limit`` (Python slice semantics would
            silently differ between engines), or an out-of-process
            executor paired with the reference engine (the scalar path
            stays single-process as the semantics oracle).
    """
    if engine not in ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; expected one of {ENGINES}")
    validate_limits(k, hard_limit)
    # Imported lazily: the execution plane imports the fast engine,
    # which imports this module's validators, so a top-level import
    # would be a cycle.
    from .execution import resolve_executor
    exec_ = resolve_executor(executor, engine=engine)
    if engine == "fast":
        return exec_.run_inference(model, requests, k=k,
                                   hard_limit=hard_limit)
    return {item_id: model.recommend(title, leaf_id, k=k,
                                     hard_limit=hard_limit)
            for item_id, title, leaf_id in requests}
