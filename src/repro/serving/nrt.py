"""Near-real-time (NRT) inference service (Figure 7, right branch).

"NRT serves items on an urgent basis, such as items newly created or
revised by sellers ... triggered by the event of new item creation or
revision, behind a Flink processing window and feature enrichment."

We model the Flink window as a count/time-bounded micro-batch buffer:
events accumulate until the window closes, then the window is inferred
as one batch through the vectorized leaf-batched engine and written
through to the KV store in one
:meth:`~repro.serving.kvstore.KeyValueStore.transaction`.  Windows
closed together (a backlog handed over at once) share one engine call
and keep one transaction each.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..core.batch import batch_recommend, validate_limits
from ..core.execution import resolve_executor
from ..core.model import GraphExModel
from ..core.serialization import open_model
from ..obs import MetricsRegistry
from .kvstore import KeyValueStore


class ItemEventKind(Enum):
    """Seller actions that trigger NRT inference."""

    CREATED = "created"
    REVISED = "revised"
    DELETED = "deleted"


@dataclass(frozen=True)
class ItemEvent:
    """One item lifecycle event entering the NRT stream."""

    kind: ItemEventKind
    item_id: int
    title: str
    leaf_id: int
    timestamp: float


@dataclass(frozen=True)
class ServedModel:
    """A slot's contents: the model, the refresh generation that put it
    there (0 = the construction-time model) and its monotonic load
    stamp.  Frozen, so one read sees a consistent triple."""

    model: GraphExModel
    generation: int
    loaded_at: float


class ModelSlot:
    """The one place a served model lives: a batch pipeline and a
    standalone NRT service own one each, an async front one for all its
    streams (its swaps run one at a time, on its lane)."""

    def __init__(self, model: GraphExModel) -> None:
        self.served = ServedModel(model, 0, time.monotonic())

    def swap(self, model: Union[GraphExModel, str, Path],
             generation: Optional[int] = None) -> int:
        """Replace the served model in one assignment; returns the new
        generation.

        ``model`` is a :class:`GraphExModel` or an artifact directory,
        opened by :func:`repro.core.serialization.open_model` (mapped
        zero-copy, so slots handed one path share one physical copy).
        A path that does not open raises before the swap: the slot
        keeps its model and generation.  ``generation`` is an explicit
        number to adopt (an orchestrator numbering the whole stack),
        else the current one + 1.  It never goes backwards — a number at
        or below the current one is bumped past it — so one number never
        names two models on one slot.  The load stamp is monotonic, so a
        clock step cannot fake a refresh or an outage.
        """
        model = open_model(model)
        floor = self.served.generation + 1
        generation = floor if generation is None else max(floor, generation)
        self.served = ServedModel(model, generation, time.monotonic())
        return generation


@dataclass
class WindowStats:
    """Outcome of one processed window.

    ``model_generation`` records which model refresh served the window
    (0 = the construction-time model), so observers of a hot-swapped
    service can see exactly which model version produced a given
    window's predictions.
    """

    n_events: int
    n_inferred: int
    n_deleted: int
    model_generation: int = 0


class NRTService:
    """Event-driven near-real-time inference behind a processing window.

    Args:
        model: The serving GraphEx model, or the :class:`ModelSlot` an
            async front shares among its streams.
        store: KV store shared with the batch pipeline.
        window_size: Close the window after this many events.
        window_seconds: ... or after this much event time has elapsed.
        k: Target predictions per item.
        hard_limit: Strict per-item cap.
        enrich: Optional feature-enrichment hook applied to each event
            before inference (returns a possibly rewritten title).
        executor: Where the engine's inference runs —
            ``None`` / ``"serial"`` (the calling thread, default) or an
            :class:`repro.core.execution.Executor` instance (a
            ``ClusterExecutor`` carries its own fleet);
            identical output either way (see
            :func:`repro.core.batch.batch_recommend`).  Resolved once
            here, not per window.
        metrics: A :class:`repro.obs.MetricsRegistry` to record the
            service's counters, window-latency histogram, and model
            staleness gauge into (a fresh private one by default).
            The registry is also handed to the resolved executor when
            one is built here, so shard timings land in the same
            snapshot.  Instrumentation is observation only — it never
            changes what a window serves.
        stream: Label stamped on every metric this service records
            (the async front names each stream; a standalone service
            defaults to ``"default"``).
    """

    def __init__(self, model: Union[GraphExModel, ModelSlot],
                 store: KeyValueStore,
                 window_size: int = 32, window_seconds: float = 1.0,
                 k: int = 20, hard_limit: int = 40,
                 enrich: Optional[Callable[[ItemEvent], str]] = None,
                 executor=None,
                 metrics: Optional[MetricsRegistry] = None,
                 stream: str = "default") -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._stream_label = stream
        # Fail here, not mid-flush where the window's events would
        # already be drained: a bad executor spelling, a bad k or cap.
        self.executor = resolve_executor(executor, metrics=self.metrics)
        validate_limits(k, hard_limit)
        self._slot = (model if isinstance(model, ModelSlot)
                      else ModelSlot(model))
        self._store = store
        self._window_size = window_size
        self._window_seconds = window_seconds
        self._k = k
        self._hard_limit = hard_limit
        self._enrich = enrich
        self._buffer: List[ItemEvent] = []          # the open window
        self._window_opened_at: Optional[float] = None
        self._closed: List[List[ItemEvent]] = []    # closed, unflushed
        self._processed_windows: List[WindowStats] = []
        self._n_inferred = 0
        self._n_deleted = 0

    @property
    def pending_events(self) -> int:
        """Events buffered: the open window's and those of every closed
        window not yet flushed."""
        return len(self._buffer) + sum(map(len, self._closed))

    @property
    def model(self) -> GraphExModel:
        """The model the next drained window is inferred under."""
        return self._slot.served.model

    @property
    def model_generation(self) -> int:
        """How many model refreshes this service's slot has seen (0 =
        the construction-time model).  Every :class:`WindowStats`
        carries the generation that served it."""
        return self._slot.served.generation

    @property
    def model_staleness_seconds(self) -> float:
        """Age of the currently served model: monotonic seconds since
        its slot was filled (every stream of a front shares the stamp).
        The value the ``nrt.staleness_seconds`` gauge tracks — its max
        is the worst staleness the service reached between refreshes."""
        return time.monotonic() - self._slot.served.loaded_at

    def record_staleness(self) -> float:
        """Record the staleness gauge now and return the reading.

        Flush and refresh record it on their own; pollers (the async
        front's stats, a metrics dump on a quiet service) call this so
        a snapshot reflects staleness *as of the read*, not as of the
        last window."""
        staleness = self.model_staleness_seconds
        self.metrics.gauge("nrt.staleness_seconds", staleness,
                           stream=self._stream_label)
        return staleness

    def refresh_model(self, model: Union[GraphExModel, str, Path],
                      generation: Optional[int] = None) -> int:
        """Hot-swap in a newly constructed model (the daily refresh)
        through :meth:`ModelSlot.swap`, which says what ``model`` and
        ``generation`` may be; returns the generation after the swap.

        The swap takes effect at the next *flush*: the windows of an
        in-progress :meth:`flush` finish under the model it started
        with (flush reads the slot once), and every window flushed
        afterwards — including events already buffered — is inferred
        under the new model.
        """
        generation = self._slot.swap(model, generation)
        self.metrics.inc("nrt.refreshes", stream=self._stream_label)
        self.record_staleness()
        return generation

    @property
    def processed_windows(self) -> List[WindowStats]:
        """Stats of every window processed so far (a copy — use
        :attr:`n_windows` when only the count is needed)."""
        return list(self._processed_windows)

    @property
    def n_windows(self) -> int:
        """How many windows have been processed, in O(1)."""
        return len(self._processed_windows)

    @property
    def n_inferred(self) -> int:
        """Items inferred over every processed window, in O(1)."""
        return self._n_inferred

    @property
    def n_deleted(self) -> int:
        """Items deleted over every processed window, in O(1)."""
        return self._n_deleted

    def add(self, event: ItemEvent) -> None:
        """Buffer one event, flushing nothing: the window bookkeeping of
        :meth:`submit`, for a caller that hands over a backlog and
        flushes the windows it closed together (the async front).

        The open window closes when it reaches ``window_size`` events or
        when the incoming event's timestamp is ``window_seconds`` or
        more after the window opened.  A stale window closes before the
        event joins, and the size bound is re-checked on the window the
        event opens, so with ``window_size <= 1`` one event can close
        two windows.  A closed window waits, counted by
        :attr:`pending_events`, for :meth:`flush_closed` or
        :meth:`flush`.  An event that raises here was never buffered.

        Nothing is recorded in the registry here: a window's
        ``nrt.events`` and ``nrt.window.depth`` are recorded when it is
        served, so a backlog costs no registry call per event.
        """
        # Compute before mutating: a malformed timestamp must die here
        # WITHOUT adopting itself as the window-open time, or it would
        # poison the arithmetic for every later well-formed event.
        opened_at = (event.timestamp if self._window_opened_at is None
                     else self._window_opened_at)
        time_up = event.timestamp - opened_at >= self._window_seconds
        if time_up and self._buffer:
            self._close_window()
            opened_at = event.timestamp
        self._window_opened_at = opened_at
        self._buffer.append(event)
        if len(self._buffer) >= self._window_size:
            self._close_window()

    def _close_window(self) -> None:
        self._closed.append(self._buffer)
        self._buffer, self._window_opened_at = [], None

    def submit(self, event: ItemEvent) -> Optional[WindowStats]:
        """Feed one event; returns window stats when a window closes.

        :meth:`add` then :meth:`flush_closed`: the event is buffered,
        and every closed window (this event's, and any a failed flush
        retained) is flushed.  Windows close where :meth:`add` says;
        when one submit closes two, the latest stats are returned and
        both are recorded in :attr:`processed_windows`.

        Window closure here is *event-time* only: a bound of
        ``window_seconds`` is judged against event timestamps, so a
        stale window flushes only when a later event arrives to observe
        it.  The wall-clock timer that closes a quiet window without a
        subsequent event lives in the asyncio front
        (:class:`repro.serving.async_front.AsyncNRTFront`), which drives
        this service per stream.

        Crash safety: the event is buffered before any flush starts, so
        if the flush fails the event is *not* lost — it sits in the open
        window and the unflushed windows stay closed, and a later retry
        (:meth:`flush` or the next submit) replays every event.
        """
        self.add(event)
        return self.flush_closed()

    def flush_closed(self) -> Optional[WindowStats]:
        """Flush every closed window through :meth:`flush` and keep the
        open one buffered, with its open stamp (no-op when no window is
        closed).  Returns the latest window's stats."""
        if not self._closed:
            return None
        # flush() processes every buffered event: the open window is set
        # aside while it runs.
        open_window = self._buffer, self._window_opened_at
        self._buffer, self._window_opened_at = [], None
        try:
            return self.flush()
        finally:
            self._buffer, self._window_opened_at = open_window

    def flush(self) -> Optional[WindowStats]:
        """Process every buffered event now: the closed windows in
        order, then the open one (no-op when nothing is buffered).
        Returns the latest window's stats.

        Every window of the flush reads one slot and goes through the
        engine in one ``batch_recommend`` call, its requests keyed by
        position, so an item revised in two windows serves each its own
        rows.  Each window is then written in its own
        :meth:`KeyValueStore.transaction`, in order.

        Crash safety: on *any* failure — an enrich hook raising, the
        engine failing, the store refusing to stage, a write, the
        promote or the prune erroring, a ``KeyboardInterrupt`` anywhere
        in between — the failing window's transaction has abandoned
        what it staged, the windows written before it stay served, and
        it and every later window stay buffered (an engine or enrich
        failure writes none) before the exception propagates.  No event
        is ever lost and no unpromotable staging table leaks; a later
        flush retries the retained windows (idempotently, if only a
        prune had failed).
        """
        windows = self._closed + ([self._buffer] if self._buffer else [])
        if not windows:
            return None
        flush_started = time.perf_counter()
        # Read the slot once: a swap queued behind this flush (the front
        # swaps on its lane) never retargets a window mid-flush, and
        # every window records the generation it ran under.
        served = self._slot.served
        stats = None
        try:
            # Last event per item wins inside a window (a create
            # followed by a revise must serve the revised title).
            latest = [list({event.item_id: event
                            for event in events}.values())
                      for events in windows]
            requests = []
            for window in latest:
                for event in window:
                    if event.kind is not ItemEventKind.DELETED:
                        title = self._enrich(event) if self._enrich \
                            else event.title
                        requests.append((len(requests), title,
                                         event.leaf_id))
            # The windows are one micro-batch through the engine — the
            # Flink-window analogue of the paper's NRT branch.  The
            # store keeps texts: no row is built.
            results = batch_recommend(
                served.model, requests, k=self._k,
                hard_limit=self._hard_limit, executor=self.executor)
            position = 0
            for events, window in zip(windows, latest):
                # The transaction holds the store's (reentrant) lock
                # from stage to prune, so a concurrent writer on a
                # shared store — a daily full load in another thread —
                # can never interleave with this window and re-promote
                # a stale table.
                n_deleted = 0
                with self._store.transaction() as version:
                    self._store.copy_from_serving(version)
                    for event in window:
                        if event.kind is ItemEventKind.DELETED:
                            self._store.delete(version, event.item_id)
                            n_deleted += 1
                        else:
                            self._store.put(version, event.item_id,
                                            results[position].texts())
                            position += 1
                if self._closed:
                    del self._closed[0]
                else:
                    self._buffer, self._window_opened_at = [], None
                stats = self._record_window(
                    WindowStats(n_events=len(events),
                                n_inferred=len(window) - n_deleted,
                                n_deleted=n_deleted,
                                model_generation=served.generation),
                    time.perf_counter() - flush_started)
        except BaseException:
            self.metrics.inc("nrt.flush.failures",
                             stream=self._stream_label)
            raise
        return stats

    def _record_window(self, stats: WindowStats,
                       seconds: float) -> WindowStats:
        # Served windows only: the histogram's count equals the
        # ``nrt.windows`` counter, and failed attempts are counted
        # separately rather than polluting the latency profile.
        self.metrics.observe("nrt.window.flush_seconds", seconds,
                             stream=self._stream_label)
        self.metrics.inc("nrt.windows", stream=self._stream_label)
        self.metrics.inc("nrt.events", stats.n_events,
                         stream=self._stream_label)
        # Gauge, not counter: a window is deepest when it closes, so
        # the max is the fullest window served.
        self.metrics.gauge("nrt.window.depth", float(stats.n_events),
                           stream=self._stream_label)
        self.metrics.inc("nrt.inferred", stats.n_inferred,
                         stream=self._stream_label)
        self.metrics.inc("nrt.deleted", stats.n_deleted,
                         stream=self._stream_label)
        self.record_staleness()
        self._processed_windows.append(stats)
        self._n_inferred += stats.n_inferred
        self._n_deleted += stats.n_deleted
        return stats

    def serve(self, item_id: int) -> List[str]:
        """Seller-facing read: current keyphrases for an item."""
        return list(self._store.get(item_id) or [])
