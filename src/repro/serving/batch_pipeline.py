"""Batch inference pipeline: full load + daily differential (Figure 7).

"The batch inference is done in two parts: 1) for all items in eBay, and
2) daily differential, i.e. the difference of all new items
created/revised and then merged with the old existing items."  The merged
output lands in the KV store via an atomic version promotion — one
:meth:`~repro.serving.kvstore.KeyValueStore.transaction` per load — after
which the seller-facing API serves the fresh predictions.

Inference routes through :func:`repro.core.batch.batch_recommend` and the
vectorized leaf-batched engine.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Union

from ..core.batch import (InferenceRequest, batch_recommend,
                          validate_limits)
from ..core.execution import resolve_executor
from ..core.model import GraphExModel
from ..obs import MetricsRegistry
from .kvstore import KeyValueStore
from .nrt import ModelSlot


@dataclass
class BatchRunReport:
    """What one pipeline run did."""

    version: int
    n_inferred: int
    n_served: int
    n_deleted: int = 0


class BatchPipeline:
    """Runs full and differential batch loads into a KV store.

    Args:
        model: The (daily-refreshed) GraphEx model.
        store: Destination KV store; predictions are served from it.
        k: Target predictions per item.
        hard_limit: Strict per-item cap written to the store.
        executor: Where the engine's inference runs —
            ``None`` / ``"serial"`` (the calling thread, default) or an
            :class:`repro.core.execution.Executor` instance (a
            ``ClusterExecutor`` carries its own fleet);
            identical output either way (see
            :func:`repro.core.batch.batch_recommend`).  Resolved once
            here, so shard timings accumulate across loads.
        metrics: A :class:`repro.obs.MetricsRegistry` to record load
            counters and latency histograms into, shared with the
            executor resolved here (fresh private one by default).
    """

    def __init__(self, model: GraphExModel,
                 store: Optional[KeyValueStore] = None,
                 k: int = 20, hard_limit: int = 40,
                 executor=None,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.executor = resolve_executor(executor, metrics=self.metrics)
        validate_limits(k, hard_limit)
        self._slot = ModelSlot(model)
        self.store: KeyValueStore = store if store is not None \
            else KeyValueStore()
        self._k = k
        self._hard_limit = hard_limit

    def _infer(self, requests: Sequence[InferenceRequest]
               ) -> Dict[int, List[str]]:
        """Item id → the keyphrase texts the store serves (no row)."""
        results = batch_recommend(
            self.model, requests, k=self._k,
            hard_limit=self._hard_limit, executor=self.executor)
        return {item_id: recs.texts() for item_id, recs in results.items()}

    def _record_load(self, kind: str, started: float,
                     report: BatchRunReport) -> BatchRunReport:
        """Fold one promoted load into the registry (successes only —
        a failed load abandoned its version and raised)."""
        self.metrics.observe("batch.load_seconds",
                             time.perf_counter() - started, kind=kind)
        self.metrics.inc("batch.loads", kind=kind)
        self.metrics.inc("batch.inferred", report.n_inferred, kind=kind)
        if report.n_deleted:
            self.metrics.inc("batch.deleted", report.n_deleted, kind=kind)
        self.metrics.gauge("batch.served_items", float(report.n_served))
        return report

    def full_load(self, requests: Sequence[InferenceRequest]
                  ) -> BatchRunReport:
        """Part 1: infer every item and promote a fresh version.

        Inference runs *before* the store transaction opens, and the
        transaction abandons what it staged on any failure, so an
        aborted load never leaks a half-written table.  It holds the
        store's lock from stage to prune (retention is bounded like the
        differential path's), so a load sharing its store with live NRT
        writers (the orchestrated daily refresh) serializes against
        their window flushes.
        """
        started = time.perf_counter()
        records = self._infer(requests)
        with self.store.transaction() as version:
            self.store.bulk_load(version, records)
        return self._record_load("full", started, BatchRunReport(
            version=version, n_inferred=len(records),
            n_served=len(records)))

    def daily_differential(self, changed: Sequence[InferenceRequest],
                           deleted_item_ids: Iterable[int] = ()
                           ) -> BatchRunReport:
        """Part 2: re-infer only changed items, merge with yesterday's
        table, promote atomically — one store transaction, like
        :meth:`full_load`.  Deletions apply to yesterday's table first
        and the fresh inferences merge on top, so an item both deleted
        and changed ends up *served* (the NRT window's
        last-event-per-item-wins rule)."""
        started = time.perf_counter()
        records = self._infer(changed)
        n_deleted = 0
        with self.store.transaction() as version:
            self.store.copy_from_serving(version)
            for item_id in deleted_item_ids:
                self.store.delete(version, item_id)
                n_deleted += 1
            self.store.bulk_load(version, records)
            n_served = self.store.size(version)
        return self._record_load("differential", started, BatchRunReport(
            version=version, n_inferred=len(records),
            n_served=n_served, n_deleted=n_deleted))

    def serve(self, item_id: int) -> List[str]:
        """The seller-facing read path: keyphrases for one item."""
        return list(self.store.get(item_id) or [])

    @property
    def model(self) -> GraphExModel:
        """The model the next load infers under."""
        return self._slot.served.model

    @property
    def model_generation(self) -> int:
        """How many model refreshes this pipeline has seen (0 = the
        construction-time model)."""
        return self._slot.served.generation

    def refresh_model(self, model: Union[GraphExModel, str, Path],
                      generation: Optional[int] = None) -> int:
        """Swap in a newly constructed model (the daily model refresh the
        paper's fast construction enables) through
        :meth:`~repro.serving.nrt.ModelSlot.swap`; the next load infers
        under it.  Returns the generation after the swap."""
        return self._slot.swap(model, generation)
