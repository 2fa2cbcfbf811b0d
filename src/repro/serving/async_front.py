"""Asyncio multi-stream NRT serving front (Figure 7 at production scale).

The paper's NRT branch is "triggered by the event of new item creation
or revision, behind a Flink processing window".  :class:`NRTService`
models one such window synchronously; this module puts an asyncio front
in front of *many* of them, so one process drives many NRT streams —
one per marketplace site, meta category, or ingest partition — the way
a Flink job multiplexes keyed windows over one task slot.

Per stream, the front provides what the synchronous service cannot:

* **Bounded ingestion queues.**  ``await submit(...)`` applies
  backpressure when a stream's queue is full instead of buffering
  without limit.
* **Wall-clock window timers.**  :meth:`NRTService.submit` closes
  windows on *event time* only — a quiet window waits for the next
  event to observe that its time is up.  The front arms a wall-clock
  timer whenever a window opens and flushes it when the timer fires,
  so the last events of a burst are served without waiting for the
  next burst.
* **Micro-batch execution off the event loop.**  Every service call
  of every stream runs on the front's one flush lane — a single FIFO
  thread (a second would only split the interpreter lock) — keeping
  the loop free to ingest.  One consumer loop per stream drains its
  queue and hands each drained batch to the lane once, and every window
  the hand-off closes goes through the engine in *one* call (windows
  and store transactions stay as per-event submits would cut them);
  ``executor`` is forwarded to :class:`NRTService`, so a fleet composes.
* **KV write-through.**  Each stream writes through to its own
  :class:`KeyValueStore` (or a shared one).  The store's
  ``transaction()`` is the only lock: it holds the store from stage to
  prune, so a flush serializes with every other writer on it.
* **Graceful shutdown.**  :meth:`stop` drains every queue and flushes
  every open window before returning: the same consumer loop, done
  waiting, hands off what is left in one batch — including events a
  racing submit managed to enqueue behind the shutdown sentinel.
* **Zero-downtime model hot-swap.**  Every stream reads the front's
  one model slot, and :meth:`refresh_model` swaps it on the lane — the
  paper's daily refresh — so work queued before the swap finishes
  under the old model and work queued after runs under the new one,
  without dropping an event or interrupting reads.

Telemetry stays off the per-event path: :meth:`AsyncNRTFront.submit`
and :meth:`NRTService.add` make no registry call.  The consumer records
``front.*`` once per drained batch and once per hand-off, and the
service records ``nrt.*`` once per served window, so ``front.submitted``
and ``nrt.events`` lag by what is still queued or buffered, and agree
with :meth:`AsyncNRTFront.stats` at every quiescent point.

Because the front drives unmodified :class:`NRTService` instances and
that service's crash-safe flush retains its windows on failure, a
failing engine or enrich hook never loses events here either: the
front counts the failure and retries on the next timer tick or event.
Per-request inference output does not depend on batch composition (the
equivalence suites pin this), so the *served* result of a stream is
byte-identical to a synchronous :class:`NRTService` fed the same event
sequence, however the wall-clock timers happened to split the windows
and however many windows one hand-off's engine call carried.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

from ..core.batch import validate_limits
from ..core.execution import resolve_executor
from ..core.model import GraphExModel
from ..core.serialization import open_model
from ..obs import MetricsRegistry
from .kvstore import KeyValueStore
from .nrt import ItemEvent, ModelSlot, NRTService, WindowStats

#: Sentinel queued by :meth:`AsyncNRTFront.stop` to end a consumer.
_CLOSE = object()


async def _get_with_depth(queue: "asyncio.Queue"):
    """The queue's next item and the queue's depth just before the
    get took it."""
    item = await queue.get()
    return item, queue.qsize() + 1


@dataclass
class StreamStats:
    """Observability snapshot of one stream.

    ``n_flush_failures`` counts *retryable* mid-flush failures (the
    crash-safe service kept every event); ``n_dropped`` counts events
    an exception rejected before they were buffered — the only way the
    front ever loses an event, and always a malformed one.
    ``n_pending`` is a point-in-time queue+buffer depth; a snapshot
    taken while :meth:`AsyncNRTFront.stop` is draining may transiently
    count the queued shutdown sentinel as one extra pending event.
    ``n_queue_hwm`` is the ingestion queue's high-water mark — the
    deepest the queue ever got, recorded at enqueue time, so
    saturation *between* two stats polls is visible even though
    ``n_pending`` at both polls reads near zero.  The registry's
    ``front.queue.depth`` max, recorded per drain, equals it (the
    sentinel caveat above holds for both).
    """

    name: str
    n_submitted: int
    n_pending: int
    n_windows: int
    n_inferred: int
    n_deleted: int
    n_flush_failures: int
    n_dropped: int
    n_queue_hwm: int = 0


class _Stream:
    """Internal per-stream state: service + queue + consumer task."""

    def __init__(self, name: str, service: NRTService,
                 queue: "asyncio.Queue") -> None:
        self.name = name
        self.service = service
        self.queue = queue
        self.task: Optional["asyncio.Task"] = None
        self.opened_wall: Optional[float] = None
        self.n_submitted = 0
        self.n_flush_failures = 0
        self.n_dropped = 0
        self.queue_hwm = 0


class AsyncNRTFront:
    """Multiplexes many named NRT streams over one asyncio event loop.

    Args:
        model: The serving GraphEx model; every stream reads its slot.
        window_size: Per-stream count bound, as in :class:`NRTService`.
        window_seconds: Per-stream *event-time* bound forwarded to
            :class:`NRTService`.
        wall_clock_seconds: Wall-clock bound for the front's own window
            timers, > 0 (defaults to ``window_seconds``): an open window
            flushes this many real seconds after it opened even if no
            further event arrives.
        max_pending: Bound of each stream's ingestion queue;
            :meth:`submit` awaits (backpressure) while a queue is full.
        k, hard_limit, enrich: Forwarded to each stream's
            :class:`NRTService`.
        executor: Where each stream's window micro-batch shards run —
            ``None`` / ``"serial"`` (inline, default) or an
            :class:`repro.core.execution.Executor` instance, resolved
            once here and shared by every stream's :class:`NRTService`.
            The front does not close an instance it was handed.
        metrics: A :class:`repro.obs.MetricsRegistry` shared by the
            front and every stream's :class:`NRTService` (and its
            executor), so one snapshot covers the whole front.  A
            fresh private one is created by default — queue-depth
            high-water marks and staleness gauges are recorded without
            any wiring.

    Usage::

        front = AsyncNRTFront(model, window_size=64)
        front.add_stream("site-us")
        front.add_stream("site-de")
        async with front:                      # start ... stop
            await front.submit("site-us", event)
        front.serve("site-us", item_id)        # after (or during) a run
    """

    def __init__(self, model: GraphExModel, *,
                 window_size: int = 32, window_seconds: float = 1.0,
                 wall_clock_seconds: Optional[float] = None,
                 max_pending: int = 256,
                 k: int = 20, hard_limit: int = 40,
                 enrich: Optional[Callable[[ItemEvent], str]] = None,
                 executor=None,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        if max_pending < 1:
            raise ValueError(
                f"max_pending must be >= 1, got {max_pending}")
        wall_clock_seconds = (window_seconds if wall_clock_seconds is None
                              else wall_clock_seconds)
        if wall_clock_seconds <= 0:
            raise ValueError("the wall-clock bound (wall_clock_seconds, "
                             "else window_seconds) must be > 0, got "
                             f"{wall_clock_seconds}")
        self._slot = ModelSlot(model)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        # Checked here, so a bad executor spelling, k or cap fails at
        # front construction, not at first add_stream.
        validate_limits(k, hard_limit)
        self.executor = resolve_executor(executor, metrics=self.metrics)
        self._service_kwargs = dict(
            window_size=window_size, window_seconds=window_seconds,
            k=k, hard_limit=hard_limit, enrich=enrich,
            executor=self.executor)
        self._wall_clock_seconds = wall_clock_seconds
        self._max_pending = max_pending
        # The flush lane exists exactly while the front is running.
        self._lane: Optional[ThreadPoolExecutor] = None
        self._streams: Dict[str, _Stream] = {}
        self._closing = False

    # ------------------------------------------------------------------
    # Stream management

    def add_stream(self, name: str,
                   store: Optional[KeyValueStore] = None) -> KeyValueStore:
        """Register a named stream; returns its KV store.

        Streams may share a ``store`` (each flush is one of its
        transactions); by default each stream gets a private one.  May
        be called before or after :meth:`start` — a stream added to a
        running front starts consuming immediately.
        """
        if name in self._streams:
            raise ValueError(f"stream {name!r} already exists")
        if self._closing:
            raise RuntimeError("front is stopping")
        store = store if store is not None else KeyValueStore()
        # Every flush is one store.transaction(), so flushes sharing a
        # store serialize not just with each other but with ANY writer
        # holding it — e.g. a daily full load refreshing the same store
        # from another thread.
        service = NRTService(self._slot, store, metrics=self.metrics,
                             stream=name, **self._service_kwargs)
        stream = _Stream(name, service,
                         asyncio.Queue(maxsize=self._max_pending))
        self._streams[name] = stream
        if self._lane is not None:
            stream.task = asyncio.get_running_loop().create_task(
                self._consume(stream))
        return store

    def _stream(self, name: str) -> _Stream:
        try:
            return self._streams[name]
        except KeyError:
            raise KeyError(f"unknown stream {name!r}") from None

    # ------------------------------------------------------------------
    # Lifecycle

    async def start(self) -> None:
        """Open the flush lane and spawn the consumer task of every
        registered stream."""
        if self._lane is not None:
            raise RuntimeError("front already started")
        self._lane = ThreadPoolExecutor(max_workers=1,
                                        thread_name_prefix="nrt-flush")
        loop = asyncio.get_running_loop()
        for stream in self._streams.values():
            stream.task = loop.create_task(self._consume(stream))

    async def stop(self) -> None:
        """Graceful shutdown: drain every queue, flush every open
        window, then close the flush lane.  Idempotent."""
        if self._lane is None or self._closing:
            return
        self._closing = True
        for stream in self._streams.values():
            await stream.queue.put(_CLOSE)
        await asyncio.gather(*(s.task for s in self._streams.values()
                               if s.task is not None))
        self._lane.shutdown(wait=True)
        self._lane = None   # a restarted front opens a fresh lane
        self._closing = False

    async def __aenter__(self) -> "AsyncNRTFront":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # Ingestion and reads

    async def submit(self, name: str, event: ItemEvent) -> None:
        """Enqueue one event onto a stream (awaits when the stream's
        queue is full — the backpressure point)."""
        if self._closing:
            raise RuntimeError("front is stopping")
        if self._lane is None:
            raise RuntimeError("front not started")
        stream = self._stream(name)
        await stream.queue.put(event)
        stream.n_submitted += 1
        # High-water mark at ENQUEUE time: stats() polls only see the
        # depth of the moment, so a burst fully drained between two
        # polls would otherwise be invisible.  Nothing is recorded in
        # the registry here: the consumer does, once per drain.
        depth = stream.queue.qsize()
        if depth > stream.queue_hwm:
            stream.queue_hwm = depth

    async def join(self) -> None:
        """Block until every queued event has been *consumed* (pulled
        off its queue and submitted to its stream's service).  Events
        may still sit in open window buffers afterwards — pair with
        :meth:`flush_all` (or :meth:`stop`) to force them out."""
        await asyncio.gather(*(s.queue.join()
                               for s in self._streams.values()))

    async def flush_stream(self, name: str) -> None:
        """Flush one stream's open window now (on the lane)."""
        await self._flush(self._stream(name))

    async def flush_all(self) -> None:
        """Flush every stream's open window, in turn on the lane."""
        await asyncio.gather(*(self._flush(s)
                               for s in self._streams.values()))

    @property
    def model_generation(self) -> int:
        """Refreshes this front has seen (0 = the construction-time
        model); it moves when a swap lands on the flush lane."""
        return self._slot.served.generation

    async def refresh_model(self, model: Union[GraphExModel, str, Path],
                            generation: Optional[int] = None) -> int:
        """Zero-downtime hot-swap of every stream: one
        :meth:`~repro.serving.nrt.ModelSlot.swap` of the slot they share
        (it says what ``model`` and ``generation`` may be); returns the
        generation after the swap.

        A path is opened once, off the loop.  The swap is then one
        hand-off onto the flush lane, which is first in first out: a
        flush in progress or queued completes under the old model, and
        every window drained after it (buffered events included) runs
        under the new one and records its generation.  Each stream
        present when the swap lands counts it in ``nrt.refreshes``; a
        stream added later starts on the new model and reports the
        swap's age as staleness.  With no lane (before :meth:`start`,
        after :meth:`stop`) the swap runs inline.
        """
        if self._closing:
            raise RuntimeError("front is stopping")
        # An artifact open is filesystem work: off-loop, so a slow disk
        # cannot stall every stream's windows (async-no-blocking).
        model = await asyncio.get_running_loop().run_in_executor(
            None, open_model, model)

        def swap() -> int:
            present = list(self._streams.values())
            swapped = self._slot.swap(model, generation)
            for stream in present:
                self.metrics.inc("nrt.refreshes", stream=stream.name)
                stream.service.record_staleness()
            return swapped

        return await self._on_lane(swap)

    def serve(self, name: str, item_id: int) -> List[str]:
        """Seller-facing read: current keyphrases on one stream."""
        return self._stream(name).service.serve(item_id)

    def processed_windows(self, name: str) -> List[WindowStats]:
        """Every window one stream has processed — including which
        model generation served each (hot-swap observability)."""
        return self._stream(name).service.processed_windows

    def stats(self, name: str) -> StreamStats:
        """Observability snapshot of one stream."""
        stream = self._stream(name)
        # A stats poll is a natural observation point: refresh the
        # stream's staleness gauge so a registry snapshot taken right
        # after reflects staleness as of now, not the last window.
        stream.service.record_staleness()
        return StreamStats(
            name=name,
            n_submitted=stream.n_submitted,
            n_pending=(stream.queue.qsize()
                       + stream.service.pending_events),
            n_windows=stream.service.n_windows,
            n_inferred=stream.service.n_inferred,
            n_deleted=stream.service.n_deleted,
            n_flush_failures=stream.n_flush_failures,
            n_dropped=stream.n_dropped,
            n_queue_hwm=stream.queue_hwm)

    def all_stats(self) -> List[StreamStats]:
        """Snapshots of every stream, in registration order."""
        return [self.stats(name) for name in self._streams]

    # ------------------------------------------------------------------
    # Internals

    async def _on_lane(self, fn, *args):
        """Run ``fn(*args)`` on the flush lane, behind everything
        already queued there — or inline when there is no lane (the
        front is not started, or stopped: nothing can be in flight)."""
        if self._lane is None:
            return fn(*args)
        return await asyncio.get_running_loop().run_in_executor(
            self._lane, fn, *args)

    async def _flush(self, stream: _Stream) -> None:
        """One flush attempt off the loop; failures are counted, never
        raised — the crash-safe service retains the events for retry."""
        loop = asyncio.get_running_loop()
        try:
            await self._on_lane(stream.service.flush)
        except Exception:
            stream.n_flush_failures += 1
            self.metrics.inc("front.flush.failures", stream=stream.name)
            # Back the timer off one full window before retrying.
            stream.opened_wall = loop.time()
        else:
            stream.opened_wall = None

    async def _hand_off(self, stream: _Stream,
                        events: List[ItemEvent]) -> None:
        """Hand a drained batch to the service in one lane trip: buffer
        every event, then flush every window the batch closed in one
        engine call; then mark the events done on the queue.

        A flush failure is benign and counted in ``n_flush_failures``
        and ``front.flush.failures``: the crash-safe flush kept its
        windows, and a retry (timer, next batch, shutdown) replays them.
        An event an exception rejected *before* it reached the buffer
        (e.g. a malformed timestamp breaking the window arithmetic) is
        genuinely gone: it counts in ``n_dropped`` and, once per
        hand-off, in ``front.dropped``, not as retryable."""

        def add_then_flush() -> None:   # on the lane, n_dropped's one writer
            for event in events:
                try:
                    stream.service.add(event)
                except Exception:
                    stream.n_dropped += 1
            stream.service.flush_closed()

        n_dropped = stream.n_dropped
        try:
            await self._on_lane(add_then_flush)
        except Exception:
            stream.n_flush_failures += 1
            self.metrics.inc("front.flush.failures", stream=stream.name)
        if stream.n_dropped > n_dropped:
            self.metrics.inc("front.dropped", stream.n_dropped - n_dropped,
                             stream=stream.name)
        for _ in events:
            stream.queue.task_done()

    async def _consume(self, stream: _Stream) -> None:
        """Per-stream consumer: serializes the stream's service calls,
        arming a wall-clock timer whenever a window is open.

        Every event already sitting in the queue rides along in ONE
        lane hand-off (the submit loop runs off the event loop), so
        a fast producer costs one thread round-trip per *batch*, not
        per event.  The front's registry calls ride per batch too:
        ``front.submitted`` counts the drained events, and the
        ``front.queue.depth`` gauge reads the depth the queue reached
        before the drain.  This consumer is the queue's only getter, so
        the queue only grows between two drains and the gauge's max is
        ``n_queue_hwm``.

        Once the shutdown sentinel is drained the loop stops waiting
        and drains until the queue stays empty across a loop tick.  A
        submit that passed the ``_closing`` check can still land its
        event *behind* the sentinel: with the queue full the producer
        parks inside ``queue.put()``, a get on this side frees one slot
        and wakes it, and if :meth:`stop` slips the sentinel into that
        slot first the racing event arrives after it.  Each drained
        slot wakes at most one parked producer, whose put lands within
        the next tick, so no such event is stranded."""
        loop = asyncio.get_running_loop()
        closing = False
        while True:
            batch: List[ItemEvent] = []
            depth = 0
            if not closing:
                timeout = None
                if stream.opened_wall is not None:
                    timeout = max(0.0, self._wall_clock_seconds
                                  - (loop.time() - stream.opened_wall))
                try:
                    event, depth = await asyncio.wait_for(
                        _get_with_depth(stream.queue), timeout)
                except asyncio.TimeoutError:
                    # The wall-clock window expired with no event in
                    # sight: this is exactly the flush the event-time-
                    # only service cannot perform on its own.
                    await self._flush(stream)
                    continue
                batch.append(event)
            # A timed wait_for runs the first get in a task of its own
            # (before Python 3.12), so events can land between that get
            # and this drain: the deeper of the two reads is the peak.
            depth = max(depth, stream.queue.qsize())
            while True:    # drain what is queued; each item is checked
                if batch and batch[-1] is _CLOSE:
                    batch.pop()
                    stream.queue.task_done()
                    closing = True
                try:
                    batch.append(stream.queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            if not batch:                # closing, and nothing queued
                await asyncio.sleep(0)   # let a just-woken producer land
                if stream.queue.empty():
                    break
                continue
            self.metrics.inc("front.submitted", len(batch),
                             stream=stream.name)
            self.metrics.gauge("front.queue.depth", float(depth),
                               stream=stream.name)
            windows_before = stream.service.n_windows
            await self._hand_off(stream, batch)
            if stream.service.pending_events:
                # The timer measures from window open: (re)arm it when
                # no window was open, or when the batch closed windows
                # and its leftover events opened a fresh one (keeping
                # the old start would fire the new window's timer
                # prematurely).
                closed_any = stream.service.n_windows > windows_before
                if closed_any or stream.opened_wall is None:
                    stream.opened_wall = loop.time()
            else:
                stream.opened_wall = None
        # Flush whatever is still buffered.  One attempt per remaining
        # failure budget would be arbitrary — retry while the flush
        # keeps failing *and* making the failure visible, bounded to
        # avoid spinning on a permanently broken hook.
        for _ in range(3):
            if not stream.service.pending_events:
                break
            before = stream.n_flush_failures
            await self._flush(stream)
            if stream.n_flush_failures == before:
                break
