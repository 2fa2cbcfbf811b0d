"""Tests for the asyncio multi-stream NRT front.

Two contracts anchor the suite:

* **Equivalence** — for every stream, the served keyphrases after a run
  are byte-identical to a synchronous :class:`NRTService` fed the same
  event sequence, however the wall-clock timers split the windows
  (per-request output is batch-independent, so window partitioning
  cannot show through).
* **Zero event loss** — with a fault-injecting enrich hook failing
  mid-flush, no event is ever lost on either the sync or the async
  path: the crash-safe flush restores the window and a retry serves
  everything (property-based, hypothesis).
"""

from __future__ import annotations

import asyncio
import dataclasses
import tempfile
import threading
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.obs import MetricsRegistry
from repro.serving import (
    AsyncNRTFront,
    ItemEvent,
    ItemEventKind,
    KeyValueStore,
    NRTService,
)
from tests.conftest import (FIG3_LEAF_ID, FlakyStore, examples,
                            malformed_artifact, open_saved)

#: Titles with varying overlap against the Figure 3 keyphrase set (the
#: last one matches nothing, so some items legitimately serve []).
TITLES = [
    "audeze maxwell gaming headphones",
    "bluetooth wireless headphones new",
    "gaming headphones xbox",
    "no tokens in common here",
]

KINDS = [ItemEventKind.CREATED, ItemEventKind.REVISED,
         ItemEventKind.DELETED]


def make_event(item_id: int, ts: float, title_index: int = 0,
               kind: ItemEventKind = ItemEventKind.CREATED) -> ItemEvent:
    return ItemEvent(kind=kind, item_id=item_id,
                     title=TITLES[title_index % len(TITLES)],
                     leaf_id=FIG3_LEAF_ID, timestamp=ts)


def feed_sync(model, events, **service_kwargs) -> NRTService:
    """The synchronous comparator: same events, one NRTService."""
    service = NRTService(model, KeyValueStore(), **service_kwargs)
    for event in events:
        service.submit(event)
    service.flush()
    return service


async def _feed(front: AsyncNRTFront, name: str, events) -> None:
    for event in events:
        await front.submit(name, event)


#: Strategy for property tests: item id, lifecycle kind, title, gap.
event_specs = st.lists(
    st.tuples(st.integers(0, 5),                 # item id
              st.sampled_from(KINDS),            # lifecycle kind
              st.integers(0, 3),                 # title index
              st.sampled_from([0.05, 0.3, 2.0])  # event-time gap
              ),
    min_size=1, max_size=16)


def build_events(specs) -> list:
    events, ts = [], 0.0
    for item_id, kind, title_index, gap in specs:
        ts += gap
        events.append(make_event(item_id, ts, title_index, kind))
    return events


class FlakyEnrich:
    """Fault injection: fail the first ``n_failures`` flush attempts.

    Raises on its first call inside a flush (aborting that flush) while
    budget remains.
    """

    def __init__(self, n_failures: int) -> None:
        self.remaining = n_failures

    def __call__(self, event: ItemEvent) -> str:
        if self.remaining > 0:
            self.remaining -= 1
            raise RuntimeError("injected mid-flush failure")
        return event.title


class TestMultiStreamEquivalence:
    def test_three_streams_byte_identical_to_sync(self, fig3_model):
        """Acceptance: >= 3 concurrent streams, each serving output
        byte-identical to a sync NRTService fed the same sequence —
        with tight wall-clock timers deliberately chopping the async
        windows differently from the sync event-time windows."""
        streams = {
            "site-us": [make_event(i, i * 0.4, title_index=i % 4,
                                   kind=KINDS[i % 2]) for i in range(9)],
            "site-de": [make_event(i, i * 2.0, title_index=(i + 1) % 4)
                        for i in range(7)],
            "site-uk": [make_event(i % 3, i * 0.1, title_index=i % 4,
                                   kind=KINDS[i % 3]) for i in range(11)],
        }

        async def drive():
            front = AsyncNRTFront(fig3_model, window_size=3,
                                  window_seconds=1.0,
                                  wall_clock_seconds=0.02)
            for name in streams:
                front.add_stream(name)
            async with front:
                await asyncio.gather(*(
                    _feed(front, name, events)
                    for name, events in streams.items()))
            return front

        front = asyncio.run(drive())
        for name, events in streams.items():
            sync = feed_sync(fig3_model, events, window_size=3,
                             window_seconds=1.0)
            stats = front.stats(name)
            assert stats.n_pending == 0
            assert stats.n_flush_failures == 0
            # Every event was processed exactly once.
            assert (sum(w.n_events
                        for w in front._streams[name]
                        .service.processed_windows) == len(events))
            for item_id in {e.item_id for e in events}:
                assert front.serve(name, item_id) \
                    == sync.serve(item_id), (name, item_id)

    def test_streams_added_while_running(self, fig3_model):
        async def drive():
            front = AsyncNRTFront(fig3_model, window_size=2)
            front.add_stream("early")
            async with front:
                await front.submit("early", make_event(1, 0.0))
                front.add_stream("late")   # consuming immediately
                await front.submit("late", make_event(2, 0.0))
                await front.submit("late", make_event(3, 0.1))
            return front

        front = asyncio.run(drive())
        assert front.serve("late", 2) and front.serve("late", 3)
        assert front.serve("early", 1)   # drained by shutdown


class TestWallClockTimer:
    def test_flushes_quiet_window_without_subsequent_event(self,
                                                           fig3_model):
        """The fix for the event-time-only limitation: a lone event is
        served after ``wall_clock_seconds`` with no later event (the
        sync service would buffer it until the next arrival)."""

        async def drive():
            front = AsyncNRTFront(fig3_model, window_size=100,
                                  window_seconds=1000.0,
                                  wall_clock_seconds=0.05)
            front.add_stream("s")
            async with front:
                await front.submit("s", make_event(1, 0.0))
                for _ in range(200):          # poll up to ~4s
                    await asyncio.sleep(0.02)
                    if front.serve("s", 1):
                        break
                # Served *before* shutdown, purely by the timer.
                assert front.serve("s", 1)
                assert front.stats("s").n_windows == 1
            return front

        asyncio.run(drive())

    def test_timer_window_spans_multiple_events(self, fig3_model):
        """Events arriving within the wall-clock bound share a window;
        the timer measures from window open, not from the last event."""

        async def drive():
            front = AsyncNRTFront(fig3_model, window_size=100,
                                  window_seconds=1000.0,
                                  wall_clock_seconds=0.2)
            front.add_stream("s")
            async with front:
                for i in range(3):
                    await front.submit("s", make_event(i, float(i)))
                for _ in range(200):
                    await asyncio.sleep(0.02)
                    if front.stats("s").n_windows:
                        break
                stats = front.stats("s")
                assert stats.n_windows == 1
                assert stats.n_inferred == 3
            return front

        asyncio.run(drive())


class TestShutdownAndBackpressure:
    def test_graceful_shutdown_drains_open_windows(self, fig3_model):
        """stop() flushes windows the size/time bounds never closed."""

        async def drive():
            front = AsyncNRTFront(fig3_model, window_size=100,
                                  window_seconds=1000.0,
                                  wall_clock_seconds=60.0)
            for name in ("a", "b"):
                front.add_stream(name)
            async with front:
                for i in range(5):
                    await front.submit("a", make_event(i, float(i) * 0.1))
                await front.submit("b", make_event(9, 0.0))
            return front

        front = asyncio.run(drive())
        for item_id in range(5):
            assert front.serve("a", item_id)
        assert front.serve("b", 9)
        assert front.stats("a").n_windows == 1   # one drained window
        assert front.stats("a").n_pending == 0

    def test_bounded_queue_applies_backpressure_without_deadlock(
            self, fig3_model):
        """max_pending=1 forces submit to await the consumer; the feed
        still completes and nothing is dropped."""

        async def drive():
            front = AsyncNRTFront(fig3_model, window_size=4,
                                  max_pending=1)
            front.add_stream("s")
            async with front:
                await asyncio.gather(*(
                    _feed(front, "s",
                          [make_event(10 * p + i, i * 0.1)
                           for i in range(8)])
                    for p in range(3)))          # 3 concurrent producers
            return front

        front = asyncio.run(drive())
        stats = front.stats("s")
        assert stats.n_submitted == 24
        assert stats.n_inferred == 24
        assert stats.n_pending == 0

    def test_shared_store_across_streams(self, fig3_model):
        """Streams may write through to one store (per-store lock
        serializes their flushes); reads see both streams' items."""
        store = KeyValueStore()

        async def drive():
            front = AsyncNRTFront(fig3_model, window_size=1)
            front.add_stream("a", store=store)
            front.add_stream("b", store=store)
            async with front:
                await front.submit("a", make_event(1, 0.0))
                await front.submit("b", make_event(2, 0.0))
            return front

        front = asyncio.run(drive())
        # Both items visible from either stream (same table) and from
        # the store a batch pipeline would share.
        for name in ("a", "b"):
            assert front.serve(name, 1)
            assert front.serve(name, 2)
        assert store.get(1) and store.get(2)

    def test_event_enqueued_behind_close_sentinel_is_not_lost(
            self, fig3_model):
        """Regression: a ``submit`` that passed the ``_closing`` check
        could land its event *behind* the ``_CLOSE`` sentinel (full
        queue: the consumer's get frees one slot, ``stop``'s sentinel
        takes it first, the racing put lands after).  The consumer used
        to break at the sentinel and strand the event in the queue.
        The race's end state — an event queued after ``_CLOSE`` — is
        reproduced deterministically here."""

        async def drive():
            front = AsyncNRTFront(fig3_model, window_size=100,
                                  window_seconds=1000.0,
                                  wall_clock_seconds=60.0,
                                  max_pending=2)
            front.add_stream("s")
            await front.start()
            stream = front._streams["s"]
            stop_task = asyncio.create_task(front.stop())
            # One loop tick: stop() has queued _CLOSE, the consumer has
            # not yet woken to read it.
            await asyncio.sleep(0)
            assert stream.queue.qsize() == 1     # the sentinel
            # The racing submit's put lands behind the sentinel.
            stream.queue.put_nowait(make_event(1, 0.0))
            stream.n_submitted += 1
            await stop_task
            return front

        front = asyncio.run(drive())
        stats = front.stats("s")
        assert front.serve("s", 1)               # served, not stranded
        assert stats.n_pending == 0
        assert stats.n_dropped == 0
        assert stats.n_windows == 1              # drained by shutdown

    def test_events_behind_close_sentinel_are_accounted_as_steady_state(
            self, fig3_model):
        """Events that land behind ``_CLOSE`` are booked as any drained
        batch is: a malformed one counts as dropped, the good ones are
        served, nothing stays pending, and every queue item (sentinel
        included) is marked done once, so ``join`` returns."""
        bad = ItemEvent(kind=ItemEventKind.CREATED, item_id=2,
                        title=TITLES[0], leaf_id=FIG3_LEAF_ID,
                        timestamp=None)   # poisons the window arithmetic
        late = [make_event(1, 0.0), bad, make_event(3, 0.1)]

        async def drive():
            front = AsyncNRTFront(fig3_model, window_size=100,
                                  window_seconds=1000.0,
                                  wall_clock_seconds=60.0,
                                  max_pending=4)
            front.add_stream("s")
            await front.start()
            stream = front._streams["s"]
            stop_task = asyncio.create_task(front.stop())
            await asyncio.sleep(0)
            assert stream.queue.qsize() == 1     # the sentinel
            for event in late:                   # racing puts land behind
                stream.queue.put_nowait(event)
                stream.n_submitted += 1
            await stop_task
            await asyncio.wait_for(front.join(), timeout=5.0)
            return front

        front = asyncio.run(drive())
        stats = front.stats("s")
        assert stats.n_dropped == 1
        assert stats.n_flush_failures == 0
        assert stats.n_pending == 0
        assert front.serve("s", 1) and front.serve("s", 3)
        assert not front.serve("s", 2)

    def test_duplicate_equal_events_with_flush_failure_are_retryable(
            self, fig3_model):
        """The retention signal is the public buffered-count delta, not
        equality membership against the service's private buffer (an
        *equal* duplicate already in flight would satisfy a membership
        probe whether or not the incoming event was kept).  A batch
        carrying duplicate equal events through an injected flush
        failure counts one retryable failure, drops nothing, and serves
        the item after the retry."""
        flaky = FlakyEnrich(1)
        dup = make_event(5, 0.0)

        async def drive():
            front = AsyncNRTFront(fig3_model, window_size=2,
                                  window_seconds=1000.0,
                                  wall_clock_seconds=30.0, enrich=flaky)
            front.add_stream("s")
            async with front:
                await front.submit("s", dup)
                await front.submit("s", dup)     # equal twin in flight
                await front.join()
                await front.flush_all()
            return front

        front = asyncio.run(drive())
        stats = front.stats("s")
        assert stats.n_dropped == 0
        assert stats.n_flush_failures == 1
        assert stats.n_pending == 0
        assert front.serve("s", 5)
        # The whole window (both copies) replayed through the retry.
        assert sum(w.n_events
                   for w in front.processed_windows("s")) == 2

    def test_retained_event_after_successful_stale_flush_not_miscounted(
            self, fig3_model):
        """Regression for the retention signal: one submit can flush a
        stale window *successfully* (shrinking the buffer) and then
        fail its own event's size-bound flush (which restores it).  A
        buffered-count delta reads that as "buffer shrank → dropped";
        the front counts a drop only when ``add`` raises, before the
        event is buffered, so the event is counted retryable and
        replayed."""
        # Enrich failure pattern, one flag per enrich CALL:
        # flush[e1] fails; flush[e1,e2] fails on e1; flush[e1,e2]
        # succeeds (2 calls); flush[e3] fails; retry flush[e3] succeeds.
        pattern = [True, True, False, False, True, False]
        lock = threading.Lock()

        def enrich(event):
            with lock:
                fail = pattern.pop(0) if pattern else False
            if fail:
                raise RuntimeError("injected mid-flush failure")
            return event.title

        async def drive():
            front = AsyncNRTFront(fig3_model, window_size=1,
                                  window_seconds=1.0,
                                  wall_clock_seconds=30.0,
                                  enrich=enrich)
            front.add_stream("s")
            async with front:
                # Separate batches so each submit's outcome is judged
                # on its own.
                await front.submit("s", make_event(1, 0.0))
                await front.join()
                await front.submit("s", make_event(2, 0.5))
                await front.join()
                # Time-up arrival: its submit first flushes the stale
                # [e1, e2] window (succeeds), then fails e3's own flush.
                await front.submit("s", make_event(3, 5.0))
                await front.join()
                await front.flush_all()       # replay e3
            return front

        front = asyncio.run(drive())
        stats = front.stats("s")
        assert stats.n_dropped == 0           # e3 was never lost
        assert stats.n_flush_failures == 3
        assert stats.n_pending == 0
        for item_id in (1, 2, 3):
            assert front.serve("s", item_id)
        assert sum(w.n_events
                   for w in front.processed_windows("s")) == 3

    @pytest.mark.parametrize("failing", ["create_version", "promote",
                                         "prune"])
    def test_store_failure_around_the_fill_is_retryable_not_a_drop(
            self, fig3_model, failing):
        """Regression: a store failing to stage, promote or prune sat
        outside the window-restoring handler, so the event whose submit
        triggered the flush was booked as dropped and the rest of the
        window vanished."""
        store = FlakyStore()
        store.fail_on = failing

        async def drive():
            front = AsyncNRTFront(fig3_model, window_size=2,
                                  window_seconds=1000.0,
                                  wall_clock_seconds=30.0)
            front.add_stream("s", store=store)
            async with front:
                await front.submit("s", make_event(1, 0.0))
                await front.submit("s", make_event(2, 0.1, 1))
                await front.join()
                await front.flush_all()      # the retry
            return front.stats("s")

        stats = asyncio.run(drive())
        assert (stats.n_dropped, stats.n_flush_failures,
                stats.n_pending) == (0, 1, 0)
        assert store.get(1) and store.get(2)
        assert store._open_staging == set()

    def test_one_flush_at_a_time_across_streams(self, fig3_model):
        """Every stream's windows go through the front's one flush lane:
        three streams on private stores never have two flushes in
        flight at once."""
        counter = threading.Lock()
        in_flight, peak = [0], [0]

        def counting_enrich(event):
            with counter:
                in_flight[0] += 1
                peak[0] = max(peak[0], in_flight[0])
            time.sleep(0.02)
            with counter:
                in_flight[0] -= 1
            return event.title

        async def drive():
            front = AsyncNRTFront(fig3_model, window_size=2,
                                  wall_clock_seconds=30.0,
                                  enrich=counting_enrich)
            for name in ("a", "b", "c"):
                front.add_stream(name)
            async with front:
                await asyncio.gather(*(
                    _feed(front, name, [make_event(i, i * 0.1)
                                        for i in range(4)])
                    for name in ("a", "b", "c")))
            return front

        front = asyncio.run(drive())
        assert all(front.stats(name).n_windows == 2
                   for name in ("a", "b", "c"))
        assert peak[0] == 1

    def test_malformed_event_counts_as_dropped_not_retryable(
            self, fig3_model):
        """An event rejected *before* it reaches the window buffer (the
        only loss the front allows) is surfaced as ``n_dropped``, not
        miscounted as a retryable flush failure; later events still
        flow."""
        bad = ItemEvent(kind=ItemEventKind.CREATED, item_id=1,
                        title=TITLES[0], leaf_id=FIG3_LEAF_ID,
                        timestamp=None)   # poisons the window arithmetic

        async def drive():
            front = AsyncNRTFront(fig3_model, window_size=2)
            front.add_stream("s")
            async with front:
                await front.submit("s", make_event(7, 0.0))
                await front.submit("s", bad)
                await front.submit("s", make_event(8, 0.1))
            return front

        front = asyncio.run(drive())
        stats = front.stats("s")
        assert stats.n_dropped == 1
        assert stats.n_flush_failures == 0
        assert stats.n_pending == 0
        assert front.serve("s", 7) and front.serve("s", 8)

    def test_malformed_timestamp_does_not_poison_the_stream(
            self, fig3_model):
        """Regression: a malformed-timestamp event arriving while no
        window was open used to install its timestamp as
        ``_window_opened_at`` before the arithmetic raised, so every
        later well-formed event raised too and the whole stream went
        permanently dark.  The bad event now dies alone.  (The
        timestamp must be non-None to poison: None reads back as "no
        window open".)"""
        bad = ItemEvent(kind=ItemEventKind.CREATED, item_id=1,
                        title=TITLES[0], leaf_id=FIG3_LEAF_ID,
                        timestamp="bogus")

        async def drive():
            front = AsyncNRTFront(fig3_model, window_size=2)
            front.add_stream("s")
            async with front:
                await front.submit("s", bad)     # no window open yet
                for i in range(4):
                    await front.submit("s", make_event(10 + i, i * 0.1))
            return front

        front = asyncio.run(drive())
        stats = front.stats("s")
        assert stats.n_dropped == 1              # only the bad event
        assert stats.n_pending == 0
        for i in range(4):
            assert front.serve("s", 10 + i)

    def test_api_contracts(self, fig3_model):
        front = AsyncNRTFront(fig3_model)
        front.add_stream("s")
        with pytest.raises(ValueError, match="already exists"):
            front.add_stream("s")
        with pytest.raises(KeyError, match="unknown stream"):
            front.serve("nope", 1)
        with pytest.raises(ValueError, match="max_pending"):
            AsyncNRTFront(fig3_model, max_pending=0)
        with pytest.raises(ValueError, match="wall_clock_seconds"):
            AsyncNRTFront(fig3_model, wall_clock_seconds=0.0)
        # A bad executor spelling or cap fails at front construction,
        # exactly like the sync service (no event can be buffered then
        # lost).
        with pytest.raises(ValueError, match="unknown executor"):
            AsyncNRTFront(fig3_model, executor="fiber")
        with pytest.raises(ValueError, match="hard_limit"):
            AsyncNRTFront(fig3_model, hard_limit=-1)

        async def submit_unstarted():
            await front.submit("s", make_event(1, 0.0))

        with pytest.raises(RuntimeError, match="not started"):
            asyncio.run(submit_unstarted())

    @pytest.mark.parametrize("window_seconds", [0.0, -1.0])
    def test_a_non_positive_wall_clock_window_is_refused(
            self, fig3_model, window_seconds):
        """Regression: with no ``wall_clock_seconds``, ``window_seconds``
        is the wall-clock bound, and a bound <= 0 was accepted: a window
        whose flush kept failing re-armed its retry at once (thousands
        of retries in 0.3 s).  It is refused like an explicit
        ``wall_clock_seconds <= 0``; as the event-time bound alone, with
        its own wall-clock bound, it stays allowed."""
        with pytest.raises(ValueError, match=r"wall-clock bound \("
                           r"wall_clock_seconds, else window_seconds\)"):
            AsyncNRTFront(fig3_model, window_seconds=window_seconds)
        AsyncNRTFront(fig3_model, window_seconds=window_seconds,
                      wall_clock_seconds=0.05)


class TestModelHotSwap:
    def test_refresh_before_start_and_streams_added_after_swap(
            self, fig3_model, fig3_variant_model):
        """refresh_model works on a not-yet-started front, and streams
        added after the swap start on the new model with the front's
        generation."""

        async def drive():
            front = AsyncNRTFront(fig3_model, window_size=1)
            front.add_stream("old")
            assert await front.refresh_model(fig3_variant_model) == 1
            front.add_stream("late")     # added after the swap
            assert front.model_generation == 1
            async with front:
                await front.submit("old", make_event(1, 0.0))
                await front.submit("late", make_event(2, 0.0))
            return front

        front = asyncio.run(drive())
        for name, item_id in (("old", 1), ("late", 2)):
            sync = feed_sync(fig3_variant_model,
                             [make_event(item_id, 0.0)], window_size=1)
            assert front.serve(name, item_id) == sync.serve(item_id)
            assert all(w.model_generation == 1
                       for w in front.processed_windows(name))

    def test_a_stream_added_after_a_swap_took_no_refresh(
            self, fig3_model, fig3_variant_model):
        """A late stream starts on the front's model and generation, but
        the swap happened before it existed: ``nrt.refreshes`` counts 1
        for the stream that took it and 0 for the late one."""

        async def drive():
            front = AsyncNRTFront(fig3_model, window_size=1)
            front.add_stream("old")
            await front.refresh_model(fig3_variant_model)
            front.add_stream("late")
            async with front:
                await front.submit("late", make_event(2, 0.0))
            return front

        front = asyncio.run(drive())
        assert [front.metrics.counter_value("nrt.refreshes", stream=name)
                for name in ("old", "late")] == [1, 0]
        assert [w.model_generation for w in front.processed_windows(
            "late")] == [1]
        sync = feed_sync(fig3_variant_model, [make_event(2, 0.0)],
                         window_size=1)
        assert front.serve("late", 2) == sync.serve(2)

    def test_a_stream_added_after_a_swap_reports_the_swaps_age(
            self, fig3_model, fig3_variant_model):
        """Every stream of a front reads one load stamp: a stream added
        0.2 s after a swap reports the swapped model's age, not its own
        construction's — through the property and through the
        ``nrt.staleness_seconds`` gauge a stats poll records."""
        pause = 0.2

        async def drive():
            front = AsyncNRTFront(fig3_model)
            front.add_stream("old")
            await front.refresh_model(fig3_variant_model)
            await asyncio.sleep(pause)
            front.add_stream("late")
            return front

        front = asyncio.run(drive())
        ages, gauges = {}, {}
        for name in ("old", "late"):
            ages[name] = front._streams[name].service.model_staleness_seconds
            front.stats(name)
            gauges[name] = front.metrics.gauge_value(
                "nrt.staleness_seconds", stream=name)
        for reading in (ages, gauges):
            assert reading["late"] >= pause
            assert reading["late"] == pytest.approx(reading["old"], rel=0.1)

    def test_refresh_validation_leaves_every_stream_on_old_model(
            self, fig3_model, tmp_path):
        """An artifact that does not open fails before any stream is
        swapped, and the front keeps serving."""
        bad = malformed_artifact(fig3_model, tmp_path)

        async def drive():
            front = AsyncNRTFront(fig3_model, window_size=1)
            front.add_stream("s")
            async with front:
                with pytest.raises(ValueError,
                                   match="malformed .*model.json"):
                    await front.refresh_model(bad)
                assert front.model_generation == 0
                await front.submit("s", make_event(1, 0.0))
            return front

        front = asyncio.run(drive())
        assert front.serve("s", 1)
        assert front._streams["s"].service.model is fig3_model

    def test_refresh_waits_for_in_flight_flush(self, fig3_model,
                                               fig3_variant_model):
        """The swap queues behind it on the lane: a flush already in
        progress when refresh_model is issued completes under the old
        model (generation 0 window), and the swap lands right after
        it."""
        release = threading.Event()
        entered = threading.Event()

        def slow_enrich(event):
            entered.set()
            release.wait(timeout=10.0)
            return event.title

        async def drive():
            front = AsyncNRTFront(fig3_model, window_size=2,
                                  window_seconds=1000.0,
                                  wall_clock_seconds=30.0,
                                  enrich=slow_enrich)
            front.add_stream("s")
            async with front:
                await front.submit("s", make_event(1, 0.0))
                await front.submit("s", make_event(2, 0.1))
                # The size-bound flush is now blocked inside the enrich
                # hook, holding the lane.
                await asyncio.get_running_loop().run_in_executor(
                    None, entered.wait)
                refresh = asyncio.create_task(
                    front.refresh_model(fig3_variant_model))
                await asyncio.sleep(0.05)
                assert not refresh.done()    # queued on the lane
                release.set()
                assert await refresh == 1
            return front

        front = asyncio.run(drive())
        windows = front.processed_windows("s")
        assert [w.model_generation for w in windows] == [0]
        sync = feed_sync(fig3_model,
                         [make_event(1, 0.0), make_event(2, 0.1)],
                         window_size=2)
        for item_id in (1, 2):
            assert front.serve("s", item_id) == sync.serve(item_id)

    def test_refresh_completes_even_if_front_stops_mid_swap(
            self, fig3_model, fig3_variant_model, tmp_path, monkeypatch):
        """A stop() that closes the lane while refresh_model is still
        opening its artifact does not strand the swap: it runs inline,
        so the front never ends half-swapped (some streams on the new
        model, some on the old)."""
        from repro.core.serialization import save_model
        from repro.serving import async_front

        artifact = save_model(fig3_variant_model, tmp_path / "m")
        entered, release = threading.Event(), threading.Event()
        opened = []

        def slow_open(model):
            entered.set()
            release.wait(timeout=10.0)
            opened.append(open_model(model))
            return opened[-1]

        open_model = async_front.open_model
        monkeypatch.setattr(async_front, "open_model", slow_open)

        async def drive():
            front = AsyncNRTFront(fig3_model, window_size=2,
                                  wall_clock_seconds=30.0)
            front.add_stream("a")
            front.add_stream("b")
            await front.start()
            await front.submit("a", make_event(1, 0.0))
            refresh = asyncio.create_task(
                front.refresh_model(str(artifact)))
            await asyncio.get_running_loop().run_in_executor(
                None, entered.wait)
            await front.stop()               # closes the lane
            release.set()
            assert await refresh == 1
            return front

        front = asyncio.run(drive())
        assert front.model_generation == 1
        for name in ("a", "b"):
            assert front._streams[name].service.model is opened[0]
        assert front.serve("a", 1)

    def test_fleet_backed_front_serves_each_window_on_its_generation(
            self, fig3_model, fig3_variant_model, fleet, tmp_path):
        """A front whose windows scatter over a worker fleet, swapped
        mid-run: every item serves byte-identical to a synchronous
        service on the model generation its window recorded."""
        events = [make_event(i, i * 0.1, title_index=i % 4)
                  for i in range(8)]          # one item per event
        day1 = open_saved(fig3_model, tmp_path / "day1")
        day2 = open_saved(fig3_variant_model, tmp_path / "day2")

        async def drive():
            front = AsyncNRTFront(day1, window_size=2,
                                  wall_clock_seconds=30.0,
                                  executor=fleet)
            front.add_stream("a")
            front.add_stream("b")
            swapped = asyncio.Event()

            async def feed(name):
                await _feed(front, name, events[:4])
                await swapped.wait()
                await _feed(front, name, events[4:])

            async def swap():
                await asyncio.sleep(0)
                await front.refresh_model(day2)
                swapped.set()

            async with front:
                await asyncio.gather(feed("a"), feed("b"), swap())
            return front

        front = asyncio.run(drive())
        sync = {generation: feed_sync(model, events, window_size=2)
                for generation, model in ((0, fig3_model),
                                          (1, fig3_variant_model))}
        for name in ("a", "b"):
            windows = front.processed_windows(name)
            assert [w.n_events for w in windows] == [2, 2, 2, 2]
            assert [w.model_generation for w in windows][2:] == [1, 1]
            for index, event in enumerate(events):
                generation = windows[index // 2].model_generation
                assert front.serve(name, event.item_id) \
                    == sync[generation].serve(event.item_id)

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(specs1=event_specs, specs2=event_specs,
           window_size=st.integers(1, 4), by_path=st.booleans())
    def test_mid_run_swap_loses_nothing_and_post_swap_output_is_fresh(
            self, fig3_model, fig3_variant_model, specs1, specs2,
            window_size, by_path):
        """Acceptance property: a refresh_model issued mid-run with
        concurrent traffic on 3 streams loses zero events, never swaps
        mid-window (every window carries exactly one generation,
        monotone per stream), and the served output of every event
        submitted after the swap is byte-identical to a fresh front
        constructed on the new model and fed those events.

        ``by_path`` additionally exercises the ISSUE 6 hand-off: the
        refresh receives a saved artifact *directory* instead of a
        model object, so the swap is a zero-copy remap — with the same
        served bytes."""
        names = ("s0", "s1", "s2")
        phase1 = build_events(specs1)
        # Post-swap events get disjoint item ids so their served rows
        # are attributable regardless of window composition.
        phase2 = [dataclasses.replace(e, item_id=e.item_id + 100)
                  for e in build_events(specs2)]

        async def drive(swap_target):
            front = AsyncNRTFront(fig3_model, window_size=window_size,
                                  window_seconds=1.0,
                                  wall_clock_seconds=30.0)
            for name in names:
                front.add_stream(name)
            swap_done = asyncio.Event()

            async def feed_phases(name):
                for event in phase1:
                    await front.submit(name, event)
                await swap_done.wait()
                for event in phase2:
                    await front.submit(name, event)

            async def swapper():
                # Mid-run: phase-1 traffic is still queued/in flight on
                # every stream when the refresh is issued.
                await asyncio.sleep(0)
                await front.refresh_model(swap_target)
                swap_done.set()

            async with front:
                await asyncio.gather(
                    *(feed_phases(name) for name in names), swapper())
            return front

        async def drive_fresh():
            fresh = AsyncNRTFront(fig3_variant_model,
                                  window_size=window_size,
                                  window_seconds=1.0,
                                  wall_clock_seconds=30.0)
            fresh.add_stream("fresh")
            async with fresh:
                await _feed(fresh, "fresh", phase2)
            return fresh

        if by_path:
            from repro.core.serialization import save_model
            with tempfile.TemporaryDirectory() as tmp:
                artifact = save_model(fig3_variant_model,
                                      Path(tmp) / "m")
                front = asyncio.run(drive(str(artifact)))
        else:
            front = asyncio.run(drive(fig3_variant_model))
        fresh = asyncio.run(drive_fresh())
        total = len(phase1) + len(phase2)
        for name in names:
            stats = front.stats(name)
            assert stats.n_pending == 0
            assert stats.n_flush_failures == 0
            windows = front.processed_windows(name)
            # Zero events lost, across both phases and the swap.
            assert sum(w.n_events for w in windows) == total
            # Never swaps mid-window: one generation per window,
            # monotone across the stream's run.
            generations = [w.model_generation for w in windows]
            assert generations == sorted(generations)
            assert set(generations) <= {0, 1}
            # Post-swap served output is byte-identical to the fresh
            # front built on the new model.
            for item_id in {e.item_id for e in phase2}:
                assert front.serve(name, item_id) \
                    == fresh.serve("fresh", item_id), (name, item_id)


# ---------------------------------------------------------------------
# Zero-event-loss property (acceptance criterion), sync and async.


class TestZeroEventLoss:
    @settings(max_examples=examples(40), deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(specs=event_specs, n_failures=st.integers(0, 3),
           window_size=st.integers(1, 4))
    def test_sync_no_loss_under_mid_flush_failures(
            self, fig3_model, specs, n_failures, window_size):
        events = build_events(specs)
        flaky = FlakyEnrich(n_failures)
        store = KeyValueStore()
        service = NRTService(fig3_model, store, window_size=window_size,
                             window_seconds=1.0, enrich=flaky)
        for event in events:
            try:
                service.submit(event)
            except RuntimeError:
                pass                         # event retained, retry later
        for _ in range(n_failures + 1):      # retries bounded by budget
            try:
                service.flush()
                break
            except RuntimeError:
                continue
        assert service.pending_events == 0
        # Every event was processed exactly once, across all retries.
        assert sum(w.n_events for w in service.processed_windows) \
            == len(events)
        # No leaked staging table: every retained version was promoted
        # or abandoned (serving + at most keep_latest retained).
        assert len(store.versions) <= 2
        clean = feed_sync(fig3_model, events, window_size=window_size,
                          window_seconds=1.0)
        for item_id in {e.item_id for e in events}:
            assert service.serve(item_id) == clean.serve(item_id)

    @settings(max_examples=examples(15), deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(specs=event_specs, n_failures=st.integers(0, 3),
           window_size=st.integers(1, 4))
    def test_async_no_loss_under_mid_flush_failures(
            self, fig3_model, specs, n_failures, window_size):
        events = build_events(specs)
        flaky = FlakyEnrich(n_failures)
        names = ("s0", "s1", "s2")

        async def drive():
            front = AsyncNRTFront(
                fig3_model, window_size=window_size, window_seconds=1.0,
                wall_clock_seconds=30.0,     # timers out of the picture
                enrich=flaky)
            for name in names:
                front.add_stream(name)
            async with front:
                await asyncio.gather(*(
                    _feed(front, name, events) for name in names))
                await front.join()           # queues fully consumed
                for _ in range(n_failures + 1):
                    if not any(s.n_pending for s in front.all_stats()):
                        break
                    await front.flush_all()
            return front

        front = asyncio.run(drive())
        clean = feed_sync(fig3_model, events, window_size=window_size,
                          window_seconds=1.0)
        for name in names:
            stats = front.stats(name)
            assert stats.n_pending == 0
            assert (sum(w.n_events
                        for w in front._streams[name]
                        .service.processed_windows) == len(events))
            for item_id in {e.item_id for e in events}:
                assert front.serve(name, item_id) \
                    == clean.serve(item_id), (name, item_id)


class RecordingStore(KeyValueStore):
    """A store that records what readers see after every promote: one
    table per served window."""

    def __init__(self) -> None:
        super().__init__()
        self.tables = []

    def promote(self, version: int) -> None:
        super().promote(version)
        self.tables.append({key: self.get(key) for key in self.keys()})


class PromoteFailsAt(RecordingStore):
    """A recording store whose ``fail_at``-th promote raises, once."""

    def __init__(self, fail_at: int) -> None:
        super().__init__()
        self.fail_at = fail_at

    def promote(self, version: int) -> None:
        self.fail_at -= 1
        if self.fail_at == 0:
            raise OSError("kv outage in promote")
        super().promote(version)


def xbox_enrich(event: ItemEvent) -> str:
    return event.title + " xbox"


def feed_backlogs(model, backlogs, store, *, swap_to=None, **kwargs):
    """Hand each backlog to one stream of a front in one lane hand-off
    (``submit`` does not yield on a queue with room, so the consumer
    finds the whole backlog queued), swapping ``swap_to`` in after the
    first; returns the front after its shutdown flush."""

    async def drive():
        front = AsyncNRTFront(model, wall_clock_seconds=30.0, **kwargs)
        front.add_stream("s", store=store)
        async with front:
            for index, backlog in enumerate(backlogs):
                if index == 1 and swap_to is not None:
                    await front.refresh_model(swap_to)
                await _feed(front, "s", backlog)
                await front.join()
        return front

    return asyncio.run(drive())


def per_event_sync(model, backlogs, *, swap_to=None, **kwargs):
    """The oracle: the same events submitted one at a time to a
    synchronous service, the same swap between the same events."""
    service = NRTService(model, RecordingStore(), **kwargs)
    for index, backlog in enumerate(backlogs):
        if index == 1 and swap_to is not None:
            service.refresh_model(swap_to)
        for event in backlog:
            service.submit(event)
    service.flush()
    return service


class TestBacklogCoalescing:
    """A lane hand-off that closes several windows infers them in one
    engine call and still serves, window by window, what per-event
    submits serve."""

    @settings(max_examples=examples(15), deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(specs1=event_specs, specs2=event_specs,
           window_size=st.integers(1, 4), enrich=st.booleans(),
           swap=st.booleans())
    def test_backlogs_serve_what_per_event_submits_serve(
            self, fig3_model, fig3_variant_model, specs1, specs2,
            window_size, enrich, swap):
        """Byte-identical tables after every window, the same
        ``WindowStats`` sequence (generations included), through
        deletes, an enrich hook, an item revised with different titles
        in two windows of one hand-off and a swap between hand-offs."""
        backlogs = [build_events(specs1), build_events(specs2)]
        kwargs = dict(window_size=window_size, window_seconds=1.0,
                      enrich=xbox_enrich if enrich else None,
                      swap_to=fig3_variant_model if swap else None)
        store = RecordingStore()
        front = feed_backlogs(fig3_model, backlogs, store, **kwargs)
        sync = per_event_sync(fig3_model, backlogs, **kwargs)
        stats = front.stats("s")
        assert (stats.n_pending, stats.n_flush_failures,
                stats.n_dropped) == (0, 0, 0)
        assert front.processed_windows("s") == sync.processed_windows
        assert store.tables == sync._store.tables

    def test_a_hand_off_closing_n_windows_calls_the_engine_once(
            self, fig3_model, monkeypatch):
        """Eight events, window size 2, one hand-off: four windows, one
        ``batch_recommend`` call (per-event submits make four), and
        item 1, revised with a new title in each of two windows, is
        served each window's own rows."""
        import repro.serving.nrt as nrt_module

        calls = []
        real = nrt_module.batch_recommend

        def spy(model, requests, **kwargs):
            calls.append(len(requests))
            return real(model, requests, **kwargs)

        monkeypatch.setattr(nrt_module, "batch_recommend", spy)
        backlog = [make_event(1, 0.0, 0), make_event(2, 0.1, 1),
                   make_event(1, 0.2, 1), make_event(3, 0.3, 2),
                   make_event(4, 0.4, 3), make_event(5, 0.5, 0),
                   make_event(6, 0.6, 1), make_event(7, 0.7, 2)]
        store = RecordingStore()
        front = feed_backlogs(fig3_model, [backlog], store,
                              window_size=2, window_seconds=1000.0)
        assert calls == [8]
        assert front.stats("s").n_windows == 4
        calls.clear()
        sync = per_event_sync(fig3_model, [backlog], window_size=2,
                              window_seconds=1000.0)
        assert calls == [2, 2, 2, 2]
        assert store.tables == sync._store.tables
        assert store.tables[0][1] != store.tables[1][1]

    @pytest.mark.parametrize("n_events,window_size", [(8, 2), (7, 3),
                                                      (5, 100)])
    def test_a_queued_backlog_reaches_the_service_in_one_lane_trip(
            self, fig3_model, n_events, window_size):
        """Events queued before the consumer wakes are added to the
        service in one lane trip that ends in one ``flush_closed``,
        whether or not the first event closes a window; any later trip
        (the shutdown flush of an open window) adds nothing."""
        trips = []

        async def drive():
            front = AsyncNRTFront(fig3_model, window_size=window_size,
                                  window_seconds=1000.0,
                                  wall_clock_seconds=30.0)
            front.add_stream("s")
            service = front._streams["s"].service
            on_lane, add, flush_closed = (front._on_lane, service.add,
                                          service.flush_closed)

            def trip(fn, *args):
                trips.append([])
                return on_lane(fn, *args)

            def spy_add(event):
                trips[-1].append("add")
                return add(event)

            def spy_flush_closed():
                trips[-1].append("flush_closed")
                return flush_closed()

            front._on_lane = trip
            service.add, service.flush_closed = spy_add, spy_flush_closed
            async with front:
                await _feed(front, "s", [make_event(i, i * 0.1, i)
                                         for i in range(n_events)])
                await front.join()
            return front

        front = asyncio.run(drive())
        assert trips[0] == ["add"] * n_events + ["flush_closed"]
        assert all("add" not in later for later in trips[1:])
        assert front.stats("s").n_inferred == n_events

    @pytest.mark.parametrize("failing", ["enrich", "engine"])
    def test_an_inference_failure_retains_every_window(
            self, fig3_model, monkeypatch, failing):
        """An enrich hook or the engine failing inside a coalesced flush
        serves no window: every window of the hand-off and the open one
        stay buffered, no version leaks, and the retry serves what a
        clean run serves, window by window."""
        import repro.serving.nrt as nrt_module

        backlog = [make_event(i, i * 0.1, i) for i in range(7)]
        enrich = FlakyEnrich(1) if failing == "enrich" else None
        if failing == "engine":
            real = nrt_module.batch_recommend
            budget = [1]

            def flaky_engine(*args, **kwargs):
                if budget[0]:
                    budget[0] -= 1
                    raise RuntimeError("engine outage")
                return real(*args, **kwargs)

            monkeypatch.setattr(nrt_module, "batch_recommend",
                                flaky_engine)
        store = RecordingStore()
        seen = {}

        async def drive():
            front = AsyncNRTFront(fig3_model, window_size=2,
                                  window_seconds=1000.0,
                                  wall_clock_seconds=30.0, enrich=enrich)
            front.add_stream("s", store=store)
            async with front:
                await _feed(front, "s", backlog)
                await front.join()
                service = front._streams["s"].service
                seen.update(
                    pending=service.pending_events,
                    stats=front.stats("s"), versions=list(store.versions),
                    staging=set(store._open_staging))
                await front.flush_all()         # the retry
            return front

        front = asyncio.run(drive())
        assert seen["pending"] == len(backlog)
        assert (seen["stats"].n_windows, seen["stats"].n_flush_failures,
                seen["stats"].n_pending) == (0, 1, len(backlog))
        assert seen["versions"] == [] and seen["staging"] == set()
        clean = per_event_sync(fig3_model, [backlog], window_size=2,
                               window_seconds=1000.0)
        assert [w.n_events for w in front.processed_windows("s")] \
            == [2, 2, 2, 1]
        assert store.tables == clean._store.tables
        assert [front.serve("s", e.item_id) for e in backlog] \
            == [clean.serve(e.item_id) for e in backlog]
        assert front.stats("s").n_pending == 0

    @pytest.mark.parametrize("window", [1, 2, 3])
    def test_a_store_failure_at_window_j_keeps_the_windows_before_it(
            self, fig3_model, window):
        """The ``window``-th promote of a three-window hand-off fails:
        the windows before it stay served, it and the rest (and the
        open window) stay buffered, and the retry serves what a clean
        run serves."""
        backlog = [make_event(i, i * 0.1, i) for i in range(7)]
        store = PromoteFailsAt(window)
        seen = {}

        async def drive():
            front = AsyncNRTFront(fig3_model, window_size=2,
                                  window_seconds=1000.0,
                                  wall_clock_seconds=30.0)
            front.add_stream("s", store=store)
            async with front:
                await _feed(front, "s", backlog)
                await front.join()
                seen.update(stats=front.stats("s"),
                            tables=len(store.tables),
                            staging=set(store._open_staging))
                await front.flush_all()         # the retry
            return front

        front = asyncio.run(drive())
        served = window - 1
        assert (seen["stats"].n_windows, seen["stats"].n_flush_failures,
                seen["stats"].n_pending) == (served, 1, 7 - 2 * served)
        assert seen["tables"] == served and seen["staging"] == set()
        clean = per_event_sync(fig3_model, [backlog], window_size=2,
                               window_seconds=1000.0)
        assert front.processed_windows("s") == clean.processed_windows
        assert store.tables == clean._store.tables


class TestConsumerPollsWindowCountInConstantTime:
    def test_consume_never_copies_the_window_history(self, fig3_model,
                                                     monkeypatch):
        """``_consume`` asks "did this batch close a window?" twice per
        drained batch; it must read the O(1) ``n_windows``, never the
        ``processed_windows`` copy (quadratic over a long run)."""
        reads = []
        history = NRTService.processed_windows
        monkeypatch.setattr(
            NRTService, "processed_windows",
            property(lambda self: reads.append(1) or history.fget(self)))
        events = [make_event(i, i * 0.01, title_index=i % 4)
                  for i in range(12)]

        async def drive():
            front = AsyncNRTFront(fig3_model, window_size=4,
                                  wall_clock_seconds=30.0)
            front.add_stream("s")
            async with front:
                await _feed(front, "s", events)
                await front.join()
            return front

        front = asyncio.run(drive())
        assert reads == []
        assert front.stats("s").n_windows == 3 \
            == len(front.processed_windows("s"))
        assert reads                      # the probe does see reads

    def test_stats_read_running_totals_through_a_retried_flush(
            self, fig3_model, monkeypatch):
        """``stats()`` is polled while a front runs; its ``n_inferred`` /
        ``n_deleted`` are the service's running totals, read in O(1)
        without the window history, and they count served windows only:
        a flush that failed and was retried counts once."""
        events = [make_event(i % 5, i * 0.01, title_index=i,
                             kind=KINDS[i % 3]) for i in range(14)]

        async def drive():
            front = AsyncNRTFront(fig3_model, window_size=4,
                                  wall_clock_seconds=30.0,
                                  enrich=FlakyEnrich(1))
            front.add_stream("s")
            async with front:
                await _feed(front, "s", events)
                await front.join()
            return front

        front = asyncio.run(drive())
        windows = front.processed_windows("s")
        reads = []
        history = NRTService.processed_windows
        monkeypatch.setattr(
            NRTService, "processed_windows",
            property(lambda self: reads.append(1) or history.fget(self)))
        stats = front.stats("s")
        assert reads == []
        assert stats.n_flush_failures == 1 and stats.n_pending == 0
        assert sum(w.n_events for w in windows) == len(events)
        assert stats.n_inferred == sum(w.n_inferred for w in windows) > 0
        assert stats.n_deleted == sum(w.n_deleted for w in windows) > 0


class TestQueueHighWaterMark:
    """Satellite regression: ``StreamStats.n_pending`` is a
    point-in-time read, so a burst enqueued and fully drained between
    two stats() polls used to be invisible — the front looked idle
    even though its queue had saturated.  ``n_queue_hwm`` (and the
    ``front.queue.depth`` gauge's max) record depth at enqueue time."""

    def test_burst_drained_between_polls_is_still_visible(
            self, fig3_model):
        n = 12

        async def drive():
            front = AsyncNRTFront(fig3_model, window_size=100,
                                  window_seconds=100.0,
                                  wall_clock_seconds=100.0,
                                  max_pending=64)
            front.add_stream("s")
            async with front:
                # queue.put on a non-full queue never suspends, so the
                # whole burst lands before the consumer task gets a
                # turn — the queue deterministically climbs to n.
                for i in range(n):
                    await front.submit("s", make_event(i, 0.01 * i))
                await front.join()
                await front.flush_all()
                stats = front.stats("s")
            return front, stats

        front, stats = asyncio.run(drive())
        # The poll sees an idle stream ... n_pending has forgotten the
        # burst entirely ...
        assert stats.n_pending == 0
        # ... but the high-water mark kept it, in the dataclass and in
        # the registry gauge alike.
        assert stats.n_queue_hwm == n
        assert front.metrics.gauge_max("front.queue.depth",
                                       stream="s") == float(n)
        assert front.metrics.counter_value("front.submitted",
                                           stream="s") == n

    def test_hwm_defaults_to_zero_for_quiet_stream(self, fig3_model):
        async def drive():
            front = AsyncNRTFront(fig3_model)
            front.add_stream("quiet")
            async with front:
                pass
            return front.stats("quiet")

        stats = asyncio.run(drive())
        assert stats.n_queue_hwm == 0

    def test_staleness_gauge_tracks_refresh(self, fig3_model):
        async def drive():
            front = AsyncNRTFront(fig3_model, window_size=2,
                                  window_seconds=100.0,
                                  wall_clock_seconds=100.0)
            front.add_stream("s")
            async with front:
                await front.submit("s", make_event(1, 0.0))
                await front.submit("s", make_event(2, 0.01))
                await front.join()
                await front.flush_all()
                before = front.metrics.gauge_value(
                    "nrt.staleness_seconds", stream="s")
                await front.refresh_model(fig3_model)
                after = front.metrics.gauge_value(
                    "nrt.staleness_seconds", stream="s")
            return before, after

        before, after = asyncio.run(drive())
        assert before is not None and before >= 0.0
        # The refresh reset the load stamp: the gauge's last reading
        # is the freshly swapped model's (near-zero) age.
        assert after is not None and after <= before + 1.0


class SpyRegistry(MetricsRegistry):
    """A registry that also lists every recording call it receives, and
    the value of every count and gauge call."""

    def __init__(self) -> None:
        super().__init__()
        self.calls = []
        self.values = []

    def inc(self, name, n=1, **labels):
        self.calls.append(("inc", name))
        self.values.append((name, n))
        super().inc(name, n, **labels)

    def gauge(self, name, value, **labels):
        self.calls.append(("gauge", name))
        self.values.append((name, value))
        super().gauge(name, value, **labels)

    def observe(self, name, seconds, **labels):
        self.calls.append(("observe", name))
        super().observe(name, seconds, **labels)


class TestNoRegistryCallPerEvent:
    """The NRT hot path records per hand-off and per served window, so
    the registry costs O(windows + hand-offs) calls, not O(events)."""

    def test_adds_that_close_no_window_record_nothing(self, fig3_model):
        spy = SpyRegistry()
        front = AsyncNRTFront(fig3_model, window_size=4,
                              window_seconds=100.0, metrics=spy)
        front.add_stream("s")
        service = front._stream("s").service
        spy.calls.clear()
        for i in range(3):                     # window_size - 1
            service.add(make_event(i, 0.01 * i))
        assert spy.calls == []
        service.add(make_event(3, 0.03))       # closes the window
        service.flush_closed()
        assert spy.counter_value("nrt.events", stream="s") == 4
        assert spy.gauge_max("nrt.window.depth", stream="s") == 4.0

    def test_a_burst_of_submits_records_nothing(self, fig3_model):
        n = 12
        spy = SpyRegistry()

        async def drive():
            front = AsyncNRTFront(fig3_model, window_size=100,
                                  window_seconds=100.0,
                                  wall_clock_seconds=100.0,
                                  max_pending=64, metrics=spy)
            front.add_stream("s")
            async with front:
                spy.calls.clear()
                # queue.put on a non-full queue never suspends: the
                # burst lands before the consumer gets a turn.
                for i in range(n):
                    await front.submit("s", make_event(i, 0.01 * i))
                during_burst = list(spy.calls)
                await front.join()
                after_drain = list(spy.calls)
            return during_burst, after_drain

        during_burst, after_drain = asyncio.run(drive())
        assert during_burst == []
        # The one drain records the burst in one call per series.
        assert after_drain == [("inc", "front.submitted"),
                               ("gauge", "front.queue.depth")]
        assert spy.counter_value("front.submitted", stream="s") == n
        assert spy.gauge_max("front.queue.depth", stream="s") == float(n)


def _drive_to_quiescence(model, events, *, window_size, max_pending,
                         enrich, names=("s",)):
    """Feed ``events`` to every stream, then join and flush until
    nothing is pending; returns the front (still running) and its
    stats, read before ``stop()`` queues its sentinel."""

    async def drive():
        front = AsyncNRTFront(model, window_size=window_size,
                              window_seconds=1.0,
                              wall_clock_seconds=30.0,
                              max_pending=max_pending, enrich=enrich)
        for name in names:
            front.add_stream(name)
        async with front:
            await asyncio.gather(*(_feed(front, name, events)
                                   for name in names))
            await front.join()
            for _ in range(3):
                await front.flush_all()
                if not any(s.n_pending for s in front.all_stats()):
                    break
            stats = {name: front.stats(name) for name in names}
            snapshot = front.metrics.snapshot()
        return front, stats, snapshot

    return asyncio.run(drive())


class TestFrontMetricsMatchStats:
    """Every ``front.*`` / ``nrt.*`` series a stats view also reports
    agrees with that view at a quiescent point."""

    def test_hand_off_failures_and_drops_reach_the_registry(
            self, tiny_model, tiny_dataset):
        items = tiny_dataset.catalog.items[:6]
        events = [ItemEvent(ItemEventKind.CREATED, item.item_id,
                            item.title, item.leaf_id, 0.01 * i)
                  for i, item in enumerate(items)]
        events.insert(3, dataclasses.replace(events[3], timestamp=None))
        front, stats, snapshot = _drive_to_quiescence(
            tiny_model, events, window_size=2, max_pending=64,
            enrich=FlakyEnrich(1))
        stats = stats["s"]
        counters = snapshot["counters"]
        assert (stats.n_flush_failures, stats.n_dropped) == (1, 1)
        assert counters["front.flush.failures{stream=s}"] == 1
        assert counters["front.dropped{stream=s}"] == 1
        assert counters["front.submitted{stream=s}"] \
            == stats.n_submitted == len(events)
        assert counters["nrt.events{stream=s}"] == len(events) - 1

    @settings(max_examples=examples(25), deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(specs=event_specs, data=st.data(),
           window_size=st.integers(1, 4), max_pending=st.integers(1, 3))
    def test_aggregated_series_equal_the_stats_views(
            self, fig3_model, specs, data, window_size, max_pending):
        events = build_events(specs)
        malformed = data.draw(st.integers(0, len(events)), label="at")
        events.insert(malformed, dataclasses.replace(
            make_event(99, 0.0), timestamp=None))
        names = ("s0", "s1")
        front, stats, _ = _drive_to_quiescence(
            fig3_model, events, window_size=window_size,
            max_pending=max_pending, enrich=FlakyEnrich(1), names=names)
        metrics = front.metrics
        for name in names:
            view = stats[name]
            windows = front.processed_windows(name)
            assert view.n_pending == 0 and view.n_dropped == 1
            assert metrics.counter_value("front.submitted", stream=name) \
                == view.n_submitted == len(events)
            assert metrics.counter_value("nrt.events", stream=name) \
                == sum(w.n_events for w in windows) == len(events) - 1
            assert metrics.gauge_max("front.queue.depth", stream=name) \
                == view.n_queue_hwm
            assert metrics.gauge_max("nrt.window.depth", stream=name) \
                == max(w.n_events for w in windows)
            assert metrics.counter_value("front.dropped", stream=name) \
                == view.n_dropped
            assert metrics.counter_value("front.flush.failures",
                                         stream=name) \
                == view.n_flush_failures


def test_each_drain_gauges_the_events_it_took(fig3_model):
    """With a window open, the consumer's first get runs under the
    wall-clock timer; each drain's ``front.queue.depth`` is still the
    number of events it took (its ``front.submitted``), even when an
    event lands one loop tick after the first."""
    spy = SpyRegistry()

    async def drive():
        front = AsyncNRTFront(fig3_model, window_size=100,
                              window_seconds=1000.0,
                              wall_clock_seconds=30.0, metrics=spy)
        front.add_stream("s")
        async with front:
            await front.submit("s", make_event(0, 0.0))
            await front.join()
            assert front.stats("s").n_pending == 1     # a window is open
            await front.submit("s", make_event(1, 0.01))
            await asyncio.sleep(0)
            await front.submit("s", make_event(2, 0.02))
            await front.join()
            readings = [value for name, value in spy.values
                        if name in ("front.submitted", "front.queue.depth")]
        return readings

    readings = asyncio.run(drive())
    drains = list(zip(readings[::2], readings[1::2]))
    assert sum(taken for taken, _ in drains) == 3
    assert all(depth == taken for taken, depth in drains), drains


def test_an_expired_window_flushes_before_a_queued_event_joins_it(
        fig3_model):
    """Event 0 opens a 0.05 s wall-clock window; while the lane is held
    for 0.2 s, event 1 is handed off (it joins the window) and event 2
    queues.  By the time the lane frees, the window has expired: it is
    flushed with events 0 and 1, and event 2 opens the next one rather
    than riding along in the expired one."""

    async def drive():
        front = AsyncNRTFront(fig3_model, window_size=100,
                              window_seconds=1000.0,
                              wall_clock_seconds=0.05)
        front.add_stream("s")
        async with front:
            await front.submit("s", make_event(0, 0.0))
            await front.join()
            hold = asyncio.create_task(front._on_lane(time.sleep, 0.2))
            await asyncio.sleep(0)
            await front.submit("s", make_event(1, 0.01))
            # The consumer takes event 1; its hand-off waits on the lane.
            await asyncio.sleep(0.01)
            await front.submit("s", make_event(2, 0.02))
            await hold
        return front

    front = asyncio.run(drive())
    assert [w.n_events for w in front.processed_windows("s")] == [2, 1]
