"""Tests for the serving layer: KV store, batch pipeline, NRT service."""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.serving import (
    BatchPipeline,
    ItemEvent,
    ItemEventKind,
    KeyValueStore,
    NRTService,
)
from tests.conftest import (FIG3_LEAF_ID, FlakyStore, build_fig3_curated,
                            malformed_artifact, open_saved)
from repro.core.batch import batch_recommend
from repro.core.model import GraphExModel
from repro.core.serialization import open_model, save_model


@pytest.fixture()
def model():
    return GraphExModel.construct(build_fig3_curated())


REQUESTS = [
    (1, "audeze maxwell gaming headphones", FIG3_LEAF_ID),
    (2, "bluetooth wireless headphones new", FIG3_LEAF_ID),
    (3, "no tokens in common here", FIG3_LEAF_ID),
]


#: Every store call every writer's transaction makes, failing with an
#: OSError — and an interrupt mid-window, which the transaction
#: abandons on like any other failure.
FAILURE_POINTS = [(writer, failing, OSError) for writer, fills in (
    ("full_load", ("bulk_load",)),
    ("daily_differential", ("copy_from_serving", "bulk_load")),
    ("flush", ("copy_from_serving", "put")))
    for failing in ("create_version", *fills, "promote", "prune")] + [
    ("flush", "put", KeyboardInterrupt)]


def table(store):
    """What readers see: the serving table, whole."""
    return {key: store.get(key) for key in store.keys()}


class TestKeyValueStore:
    def test_reads_before_promotion_are_empty(self):
        store = KeyValueStore()
        version = store.create_version()
        store.put(version, 1, "x")
        assert store.get(1) is None

    def test_promotion_makes_data_visible(self):
        store = KeyValueStore()
        version = store.create_version()
        store.put(version, 1, "x")
        store.promote(version)
        assert store.get(1) == "x"

    def test_promote_unknown_version_raises(self):
        with pytest.raises(KeyError):
            KeyValueStore().promote(77)

    def test_serving_version_is_immutable(self):
        store = KeyValueStore()
        version = store.create_version()
        store.promote(version)
        with pytest.raises(ValueError):
            store.put(version, 1, "x")
        with pytest.raises(ValueError):
            store.bulk_load(version, {1: "x"})
        with pytest.raises(ValueError):
            store.delete(version, 1)

    def test_atomic_swap(self):
        store = KeyValueStore()
        v1 = store.create_version()
        store.bulk_load(v1, {1: "old"})
        store.promote(v1)
        v2 = store.create_version()
        store.bulk_load(v2, {1: "new"})
        assert store.get(1) == "old"  # still serving v1
        store.promote(v2)
        assert store.get(1) == "new"

    def test_copy_from_serving(self):
        store = KeyValueStore()
        v1 = store.create_version()
        store.bulk_load(v1, {1: "a", 2: "b"})
        store.promote(v1)
        v2 = store.create_version()
        store.copy_from_serving(v2)
        store.delete(v2, 1)
        store.promote(v2)
        assert store.get(1) is None
        assert store.get(2) == "b"

    def test_size_and_keys(self):
        store = KeyValueStore()
        assert store.size() == 0
        v = store.create_version()
        store.bulk_load(v, {1: "a", 2: "b"})
        store.promote(v)
        assert store.size() == 2
        assert sorted(store.keys()) == [1, 2]

    def test_prune_keeps_serving(self):
        store = KeyValueStore()
        versions = [store.create_version() for _ in range(5)]
        for version in versions:
            store.promote(version)   # each once-promoted: no open writers
        store.promote(versions[0])   # serving is the oldest
        store.prune(keep_latest=2)
        assert versions[0] in store.versions
        assert len(store.versions) <= 3

    def test_delete_absent_key_is_noop(self):
        """Documented contract: deleting a key that was never written
        (or already deleted) changes nothing and does not raise."""
        store = KeyValueStore()
        version = store.create_version()
        store.bulk_load(version, {1: "a"})
        store.delete(version, 99)
        store.delete(version, 1)
        store.delete(version, 1)  # already gone: still a no-op
        assert store.size(version) == 0

    def test_delete_unknown_version_raises_like_put(self):
        """Documented contract: an unknown *version* is a caller bug for
        both mutators, not a silent no-op."""
        store = KeyValueStore()
        with pytest.raises(KeyError):
            store.delete(77, 1)
        with pytest.raises(KeyError):
            store.put(77, 1, "x")

    def test_prune_exempts_open_staging_version(self):
        """Regression: ``prune(keep_latest=1)`` used to drop an open
        (created, never promoted) staging version a writer still held,
        so the writer's later ``put`` raised KeyError on a version id it
        was handed in good faith."""
        store = KeyValueStore()
        v1 = store.create_version()
        store.promote(v1)
        slow_writer = store.create_version()   # open staging
        v3 = store.create_version()
        store.promote(v3)
        store.prune(keep_latest=1)
        store.put(slow_writer, 1, "late write")   # must not raise
        store.promote(slow_writer)
        assert store.get(1) == "late write"

    def test_prune_drops_abandoned_and_superseded_versions(self):
        """The exemption is only for *open* versions: abandoning closes
        it, and promoted-then-superseded tables still prune away."""
        store = KeyValueStore()
        old = store.create_version()
        store.promote(old)
        failed = store.create_version()
        store.abandon(failed)
        for _ in range(3):
            v = store.create_version()
            store.promote(v)
            store.prune(keep_latest=1)
        assert failed not in store.versions
        assert old not in store.versions
        assert store.versions == [v]

    def test_prune_keep_latest_zero_keeps_only_exemptions(self):
        """Regression: ``prune(keep_latest=0)`` sliced the whole list
        (``[-0:]``), so "keep no history" silently kept every version.
        Zero now retains only the serving version and open staging."""
        store = KeyValueStore()
        for _ in range(4):
            serving = store.create_version()
            store.promote(serving)
        open_staging = store.create_version()
        store.prune(keep_latest=0)
        assert store.versions == sorted([serving, open_staging])
        store.prune(keep_latest=0)   # idempotent
        assert store.versions == sorted([serving, open_staging])
        # The exemptions still function: the slow writer finishes.
        store.put(open_staging, 1, "late write")
        store.promote(open_staging)
        store.prune(keep_latest=0)
        assert store.versions == [open_staging]
        assert store.get(1) == "late write"

    def test_prune_negative_keep_latest_rejected(self):
        store = KeyValueStore()
        store.promote(store.create_version())
        with pytest.raises(ValueError, match="keep_latest"):
            store.prune(keep_latest=-1)

    def test_copy_from_serving_unknown_version_raises_like_put(self):
        """Regression: with nothing serving yet, ``copy_from_serving``
        never touched the target table, so an unknown version was a
        silent no-op instead of the caller bug ``put``/``delete``
        report.  The version is now validated up front either way."""
        store = KeyValueStore()
        with pytest.raises(KeyError):
            store.copy_from_serving(77)      # nothing serving yet
        serving = store.create_version()
        store.put(serving, 1, "a")
        store.promote(serving)
        with pytest.raises(KeyError):
            store.copy_from_serving(77)      # serving present
        with pytest.raises(ValueError):
            store.copy_from_serving(serving)  # serving is immutable
        # The valid path still seeds from the serving table.
        staged = store.create_version()
        store.copy_from_serving(staged)
        assert store.size(staged) == 1

    def test_copy_from_serving_into_empty_store_is_valid_and_empty(self):
        """A known version with nothing serving seeds an empty table —
        the first daily differential of a brand-new store."""
        store = KeyValueStore()
        staged = store.create_version()
        store.copy_from_serving(staged)
        assert store.size(staged) == 0

    def test_abandon_contracts(self):
        """Abandon mirrors the other mutators: unknown version raises
        KeyError, the serving version is untouchable."""
        store = KeyValueStore()
        with pytest.raises(KeyError):
            store.abandon(77)
        v = store.create_version()
        store.promote(v)
        with pytest.raises(ValueError):
            store.abandon(v)
        staged = store.create_version()
        store.abandon(staged)
        with pytest.raises(KeyError):
            store.put(staged, 1, "x")  # abandoned: the table is gone


class TestStoreTransaction:
    """``KeyValueStore.transaction()``: the one place a staging version
    begins and ends."""

    def test_leaving_the_block_promotes_and_prunes(self):
        store = KeyValueStore()
        seen = []
        for value in ("a", "b", "c"):
            with store.transaction() as version:
                store.put(version, 1, value)
                assert store.get(1) != value     # staged, not served
            seen.append(version)
            assert (store.serving_version, store.get(1)) == (version, value)
        assert store.versions == seen[1:]        # pruned to the default 2
        assert store._open_staging == set()

    @pytest.mark.parametrize("failing", ["body", "create_version",
                                         "promote", "prune"])
    def test_a_failure_abandons_unless_the_promote_took_effect(
            self, failing):
        store = FlakyStore()
        with store.transaction() as version:
            store.put(version, 1, "old")
        before = store.versions, store.serving_version
        store.fail_on = failing
        with pytest.raises((OSError, ZeroDivisionError)):
            with store.transaction() as version:
                store.put(version, 1, "new")
                if failing == "body":
                    1 / 0
        if failing == "prune":       # the new table serves, unpruned
            assert (store.serving_version, store.get(1)) == (version, "new")
        else:                        # everything as it was
            assert (store.versions, store.serving_version) == before
            assert store.get(1) == "old"
        assert store._open_staging == set()
        assert store.lock.acquire(blocking=False)    # and released
        store.lock.release()

    def test_overrides_and_a_replaced_lock_are_honoured(self):
        """The benchmark subclasses ``promote`` and wraps ``lock`` after
        construction: both are read through the instance, per call."""
        calls = []

        class Stamped(KeyValueStore):
            def promote(self, version):
                super().promote(version)
                calls.append("promote")

        class Wrapped:
            def __init__(self, lock):
                self.lock = lock

            def __enter__(self):
                calls.append("lock")
                return self.lock.__enter__()

            def __exit__(self, *exc_info):
                return self.lock.__exit__(*exc_info)

        store = Stamped()
        store.lock = Wrapped(store.lock)
        with store.transaction() as version:
            store.put(version, 1, "x")
        assert calls == ["lock", "promote"] and store.get(1) == "x"

    def test_a_second_threads_transaction_waits_for_the_first(self):
        import threading
        store = KeyValueStore()
        inside, order = threading.Event(), []

        def second():
            inside.wait()
            with store.transaction() as version:
                order.append(("second", version, store.serving_version))

        thread = threading.Thread(target=second)
        thread.start()
        with store.lock:                         # the front's hold ...
            with store.transaction() as first:   # ... which a flush re-enters
                inside.set()
                thread.join(timeout=0.2)         # it cannot get in
                assert thread.is_alive() and order == []
        thread.join(timeout=5)
        # It ran after the first transaction promoted, on its own id.
        assert order == [("second", first + 1, first)]


class TestBatchPipeline:
    def test_full_load_serves_everything(self, model):
        pipeline = BatchPipeline(model)
        report = pipeline.full_load(REQUESTS)
        assert report.n_inferred == 3
        assert pipeline.serve(1)
        assert pipeline.serve(3) == []  # no candidates for item 3

    def test_daily_differential_only_reinfers_changed(self, model):
        pipeline = BatchPipeline(model)
        pipeline.full_load(REQUESTS)
        before = pipeline.serve(2)
        report = pipeline.daily_differential(
            [(1, "gaming headphones xbox", FIG3_LEAF_ID)])
        assert report.n_inferred == 1
        assert pipeline.serve(2) == before  # untouched item kept

    def test_daily_differential_deletes(self, model):
        pipeline = BatchPipeline(model)
        pipeline.full_load(REQUESTS)
        report = pipeline.daily_differential([], deleted_item_ids=[1])
        assert report.n_deleted == 1
        assert pipeline.serve(1) == []

    def test_daily_differential_changed_beats_deleted(self, model):
        """Pinned semantics: an item both deleted and changed is served
        with its fresh inference — deletions hit yesterday's table
        first, then the re-inferences merge on top (the revision is
        newer evidence the item exists, mirroring the NRT
        last-event-per-item-wins rule)."""
        pipeline = BatchPipeline(model)
        pipeline.full_load(REQUESTS)
        report = pipeline.daily_differential(
            [(1, "gaming headphones xbox", FIG3_LEAF_ID)],
            deleted_item_ids=[1, 2])
        assert report.n_deleted == 2 and report.n_served == 2
        clean = BatchPipeline(model)
        clean.full_load([(1, "gaming headphones xbox", FIG3_LEAF_ID)])
        assert pipeline.serve(1) == clean.serve(1) != []
        assert pipeline.serve(2) == []   # deleted, no competing revision

    def test_daily_differential_fleet_merges_what_serial_merges(
            self, fleet, tmp_path):
        """One item id re-inferred in requests that land on *different*
        shards (different leaf groups) keeps the last request, and a
        same-day delete+revise resolves to the revision across shard
        boundaries too."""
        from tests.test_sharding import make_model
        model = open_saved(make_model({
            leaf_id: [(f"shard{leaf_id} phrase {i}", 5 + i, 5)
                      for i in range(4)] for leaf_id in (1, 2, 3, 4)}),
            tmp_path)
        # Item 7 appears three times, targeting three different leaves —
        # the LPT plan spreads those leaf groups across the two workers.
        changed = [(7, "shard1 phrase 0", 1), (8, "shard2 phrase 1", 2),
                   (7, "shard3 phrase 2", 3), (9, "shard4 phrase 3", 4),
                   (7, "shard2 phrase 0", 2)]          # last one wins
        tables = []
        for executor in (None, fleet):
            pipeline = BatchPipeline(model, executor=executor, k=5)
            pipeline.full_load([(7, "shard1 phrase 1", 1),
                                (99, "shard4 phrase 0", 4)])
            report = pipeline.daily_differential(
                changed, deleted_item_ids=[99, 7])
            assert report.n_inferred == 3 and report.n_deleted == 2
            tables.append(table(pipeline.store))
        assert tables[1] == tables[0]
        assert sorted(tables[0]) == [7, 8, 9]
        assert tables[0][7][0] == "shard2 phrase 0"

    def test_repeated_full_loads_bound_version_retention(self, model):
        """Regression: ``full_load`` promotes but used to skip the prune
        ``daily_differential`` performs, so a daily full refresh retained
        every historical table ever written."""
        pipeline = BatchPipeline(model)
        for _ in range(6):
            report = pipeline.full_load(REQUESTS)
        assert len(pipeline.store.versions) <= 3
        assert pipeline.store.serving_version == report.version
        assert pipeline.serve(1)  # latest table still serves

    def test_full_load_then_differential_history_stays_bounded(self, model):
        pipeline = BatchPipeline(model)
        for day in range(4):
            pipeline.full_load(REQUESTS)
            pipeline.daily_differential(
                [(1, "gaming headphones xbox", FIG3_LEAF_ID)])
        assert len(pipeline.store.versions) <= 3

    def test_bad_executor_or_cap_rejected_at_construction(self, model):
        """Fails at construction, not mid-load."""
        with pytest.raises(ValueError, match="unknown executor"):
            BatchPipeline(model, executor="fiber")
        with pytest.raises(ValueError, match="hard_limit"):
            BatchPipeline(model, hard_limit=-1)

    def test_process_parallel_full_load_serves_identically(self, fleet,
                                                           model,
                                                           tmp_path):
        serial = BatchPipeline(model)
        serial.full_load(REQUESTS)
        sharded = BatchPipeline(open_saved(model, tmp_path),
                                executor=fleet)
        sharded.full_load(REQUESTS)
        for item_id, _title, _leaf in REQUESTS:
            assert sharded.serve(item_id) == serial.serve(item_id)

    def test_refresh_model_swaps(self, model):
        pipeline = BatchPipeline(model)
        pipeline.full_load(REQUESTS)
        fresh = GraphExModel.construct(build_fig3_curated())
        assert pipeline.model_generation == 0
        assert pipeline.refresh_model(fresh) == 1
        assert pipeline.model is fresh
        assert pipeline.model_generation == 1
        # An orchestrator can impose its own numbering.
        assert pipeline.refresh_model(fresh, generation=7) == 7

    def test_refresh_model_from_artifact_path(self, model, tmp_path):
        """ISSUE 6: the hand-off can be a directory path — a format-3
        artifact opens zero-copy, and the swapped pipeline serves
        byte-identically to an in-memory swap."""
        from repro.core.serialization import save_model

        artifact = save_model(model, tmp_path / "m")
        pipeline = BatchPipeline(model)
        baseline = BatchPipeline(model)
        assert pipeline.refresh_model(str(artifact)) == 1
        # The path was mapped: the serving model's arrays are
        # read-only views over the artifact file.
        leaf_id = pipeline.model.leaf_ids[0]
        assert pipeline.model.leaf_graph(leaf_id).graph.is_readonly
        pipeline.full_load(REQUESTS)
        baseline.full_load(REQUESTS)
        for item_id, _title, _leaf in REQUESTS:
            assert pipeline.serve(item_id) == baseline.serve(item_id)

    def test_refresh_model_validates_before_swapping(self, model,
                                                     tmp_path):
        """An artifact that does not open must leave the pipeline
        serving the old model (generation included)."""
        pipeline = BatchPipeline(model)
        with pytest.raises(ValueError, match="malformed .*model.json"):
            pipeline.refresh_model(malformed_artifact(model, tmp_path))
        assert pipeline.model is model
        assert pipeline.model_generation == 0
        assert pipeline.full_load(REQUESTS).n_inferred == 3

    def test_hard_limit_applied(self, model):
        pipeline = BatchPipeline(model, hard_limit=1)
        pipeline.full_load(REQUESTS)
        assert len(pipeline.serve(1)) <= 1

    @staticmethod
    def _stack(model, store):
        """A loaded store with a pending NRT window on it, and one
        callable per writer; each writer changes the table."""
        pipeline = BatchPipeline(model, store=store)
        service = NRTService(model, store, window_size=10)
        pipeline.full_load(REQUESTS)
        service.submit(ItemEvent(ItemEventKind.CREATED, 99,
                                 "gaming headphones xbox", FIG3_LEAF_ID,
                                 0.0))
        service.submit(ItemEvent(ItemEventKind.DELETED, 1, "",
                                 FIG3_LEAF_ID, 0.1))
        return service, {
            "full_load": lambda: pipeline.full_load(REQUESTS[:1]),
            "daily_differential": lambda: pipeline.daily_differential(
                [(2, "gaming headphones xbox", FIG3_LEAF_ID)],
                deleted_item_ids=[1]),
            "flush": service.flush}

    @pytest.mark.parametrize(
        "writer,failing,error", FAILURE_POINTS,
        ids=["-".join([w, f] + [e.__name__] * (e is not OSError))
             for w, f, e in FAILURE_POINTS])
    def test_failed_load_abandons_staged_version(self, model, writer,
                                                 failing, error):
        """Whichever store call of whichever writer fails, no staging
        version is left open (prune-exempt), readers see the old table
        whole or the new one whole, and an NRT flush keeps its events
        and counts the failure."""
        store, twin = FlakyStore(), KeyValueStore()
        service, writers = self._stack(model, store)
        self._stack(model, twin)[1][writer]()
        old, new = table(store), table(twin)
        assert old != new
        before = store.serving_version, store.versions

        store.fail_on, store.error = failing, error
        with pytest.raises(error, match=f"kv outage in {failing}"):
            writers[writer]()
        assert store._open_staging == set()
        if failing == "prune":       # after the promote took effect
            assert table(store) == new
        else:
            assert table(store) == old
            assert (store.serving_version, store.versions) == before
        if writer == "flush":
            assert service.pending_events == 2
            assert service.metrics.counter_value(
                "nrt.flush.failures", stream="default") == 1
        # The next clean run works (idempotently, after a failed prune)
        # and prunes normally.
        writers[writer]()
        assert table(store) == new
        assert store._open_staging == set()
        assert len(store.versions) <= 2
        assert service.pending_events == (0 if writer == "flush" else 2)


class TestNRTService:
    def _service(self, model, **kwargs):
        store = KeyValueStore()
        return NRTService(model, store, **kwargs)

    def _event(self, item_id, ts, kind=ItemEventKind.CREATED,
               title="audeze maxwell gaming headphones"):
        return ItemEvent(kind=kind, item_id=item_id, title=title,
                         leaf_id=FIG3_LEAF_ID, timestamp=ts)

    def test_window_closes_on_size(self, model):
        service = self._service(model, window_size=2)
        assert service.submit(self._event(1, 0.0)) is None
        stats = service.submit(self._event(2, 0.1))
        assert stats is not None
        assert stats.n_events == 2
        assert service.serve(1)

    def test_window_closes_on_time(self, model):
        service = self._service(model, window_size=100, window_seconds=1.0)
        assert service.submit(self._event(1, 0.0)) is None
        stats = service.submit(self._event(2, 5.0))
        assert stats is not None and stats.n_events == 1
        assert service.pending_events == 1  # the late event started a window

    def test_flush_empty_is_none(self, model):
        assert self._service(model).flush() is None

    def test_negative_hard_limit_rejected_at_construction(self, model):
        """A bad cap must fail before any window event is buffered —
        failing inside flush() would lose the drained window."""
        with pytest.raises(ValueError, match="hard_limit"):
            self._service(model, hard_limit=-1)

    def test_bad_executor_rejected_at_construction(self, model):
        """Same invariant again for the shard-execution substrate."""
        with pytest.raises(ValueError, match="unknown executor"):
            self._service(model, executor="fiber")

    def test_process_parallel_window_serves_identically(self, fleet,
                                                        model, tmp_path):
        serial = self._service(model, window_size=2)
        sharded = self._service(open_saved(model, tmp_path),
                                window_size=2, executor=fleet)
        for service in (serial, sharded):
            service.submit(self._event(1, 0.0))
            stats = service.submit(self._event(
                2, 0.1, title="bluetooth wireless headphones new"))
            assert stats is not None and stats.n_inferred == 2
        assert sharded.serve(1) == serial.serve(1)
        assert sharded.serve(2) == serial.serve(2)

    def test_window_size_rechecked_after_time_flush(self, model):
        """Regression: the time-elapsed path used to buffer the incoming
        event without re-checking ``window_size``, so with
        ``window_size=1`` a window-opening event would sit unflushed
        until the next arrival.  The stale window is seeded directly (no
        organic submit sequence leaves a window_size=1 buffer non-empty
        today) — the re-check makes submit's invariant
        ``pending_events < window_size`` structural rather than an
        accident of the current call graph."""
        service = self._service(model, window_size=1, window_seconds=1.0)
        service._buffer.append(self._event(1, 0.0))
        service._window_opened_at = 0.0
        stats = service.submit(self._event(2, 5.0))
        # Both windows closed: the stale one by time, the new one by
        # size; the latest window's stats are returned and both are
        # recorded.
        assert stats is not None and stats.n_events == 1
        assert service.pending_events == 0
        assert len(service.processed_windows) == 2
        assert service.serve(1) and service.serve(2)

    def test_window_size_one_never_buffers(self, model):
        """Boundary: with ``window_size=1`` every submit closes a window
        immediately, however the arrivals straddle ``window_seconds``."""
        service = self._service(model, window_size=1, window_seconds=1.0)
        for i, ts in enumerate((0.0, 0.5, 5.0, 5.2, 99.0)):
            stats = service.submit(self._event(i, ts))
            assert stats is not None and stats.n_events == 1
            assert service.pending_events == 0
        assert len(service.processed_windows) == 5

    def test_event_exactly_at_window_seconds_closes_window(self, model):
        """The boundary is inclusive: an event arriving exactly
        ``window_seconds`` after the window opened closes it."""
        service = self._service(model, window_size=100, window_seconds=1.0)
        assert service.submit(self._event(1, 0.0)) is None
        stats = service.submit(self._event(2, 1.0))
        assert stats is not None and stats.n_events == 1
        assert service.pending_events == 1  # boundary event opens anew

    def test_deleted_then_created_in_one_window_serves_item(self, model):
        """Last event per item wins: DELETE then CREATE inside one window
        must infer (not delete) the item."""
        service = self._service(model, window_size=10)
        service.submit(self._event(1, 0.0, kind=ItemEventKind.DELETED))
        service.submit(self._event(1, 0.1, kind=ItemEventKind.CREATED))
        stats = service.flush()
        assert stats.n_deleted == 0 and stats.n_inferred == 1
        assert service.serve(1)

    def test_flush_idempotent_on_empty_buffer(self, model):
        """Repeated flushes of an empty buffer are no-ops: no stats
        recorded, no KV version churn."""
        service = self._service(model, window_size=10)
        service.submit(self._event(1, 0.0))
        first = service.flush()
        assert first is not None
        served = service.serve(1)
        versions_before = list(service._store.versions)
        assert service.flush() is None
        assert service.flush() is None
        assert service.processed_windows == [first]
        assert service._store.versions == versions_before
        assert service.serve(1) == served

    def test_last_event_per_item_wins(self, model):
        service = self._service(model, window_size=10)
        service.submit(self._event(1, 0.0, title="unmatchable tokens qqq"))
        service.submit(self._event(
            1, 0.1, kind=ItemEventKind.REVISED,
            title="audeze maxwell gaming headphones"))
        service.flush()
        assert service.serve(1)  # revised title produced recommendations

    def test_delete_event(self, model):
        service = self._service(model, window_size=10)
        service.submit(self._event(1, 0.0))
        service.flush()
        assert service.serve(1)
        service.submit(self._event(1, 1.0, kind=ItemEventKind.DELETED))
        stats = service.flush()
        assert stats.n_deleted == 1
        assert service.serve(1) == []

    def test_enrichment_hook(self, model):
        service = NRTService(
            model, KeyValueStore(), window_size=1,
            enrich=lambda e: e.title + " xbox")
        service.submit(self._event(1, 0.0, title="gaming headphones"))
        served = service.serve(1)
        assert "gaming headphones xbox" in served

    def test_processed_windows_recorded(self, model):
        service = self._service(model, window_size=1)
        service.submit(self._event(1, 0.0))
        service.submit(self._event(2, 0.1))
        assert len(service.processed_windows) == 2

    def test_n_windows_tracks_processed_windows_across_a_retried_flush(
            self, model):
        """The O(1) count the async front polls equals the history's
        length at every step — a failed flush records no window, its
        retry records one."""
        state = {"failures": 1}

        def flaky_enrich(event):
            if state["failures"] > 0:
                state["failures"] -= 1
                raise RuntimeError("enrichment outage")
            return event.title

        service = self._service(model, window_size=2, enrich=flaky_enrich)

        def check(expected):
            assert service.n_windows == expected
            assert service.n_windows == len(service.processed_windows)

        check(0)
        service.submit(self._event(1, 0.0))
        with pytest.raises(RuntimeError, match="enrichment outage"):
            service.submit(self._event(2, 0.1))    # closes, flush fails
        check(0)
        assert service.flush() is not None         # the retry
        check(1)
        service.submit(self._event(3, 0.2))
        service.submit(self._event(4, 0.3))
        check(2)
        assert service.flush() is None             # empty: no window
        check(2)

    def test_flush_failure_loses_no_events_and_no_version(self, model):
        """Regression: a failing enrich hook (or engine) mid-flush used
        to lose the whole drained window *and* leak the staged KV
        version unpromoted.  Now the events are restored, the version is
        abandoned, and a retry serves everything."""
        state = {"failures": 2}

        def flaky_enrich(event):
            if state["failures"] > 0:
                state["failures"] -= 1
                raise RuntimeError("enrichment outage")
            return event.title

        store = KeyValueStore()
        service = NRTService(model, store, window_size=10,
                             enrich=flaky_enrich)
        service.submit(self._event(1, 0.0))
        service.submit(self._event(2, 0.1))
        for _ in range(2):
            with pytest.raises(RuntimeError, match="enrichment outage"):
                service.flush()
            assert service.pending_events == 2   # window restored
            assert store.versions == []          # staged version abandoned
            assert service.processed_windows == []
        stats = service.flush()                  # failures exhausted
        assert stats is not None and stats.n_events == 2
        assert stats.n_inferred == 2
        assert service.serve(1) and service.serve(2)

        clean = self._service(model, window_size=10)
        clean.submit(self._event(1, 0.0))
        clean.submit(self._event(2, 0.1))
        clean.flush()
        assert service.serve(1) == clean.serve(1)
        assert service.serve(2) == clean.serve(2)

    def test_failed_time_up_flush_keeps_incoming_event(self, model):
        """The event whose arrival triggered the failing time-up flush
        must not vanish with the exception: it opens the next window,
        the stale one stays closed, and the retry serves both windows
        as a clean run cut them."""
        state = {"failures": 1}

        def flaky_enrich(event):
            if state["failures"] > 0:
                state["failures"] -= 1
                raise RuntimeError("boom")
            return event.title

        service = NRTService(model, KeyValueStore(), window_size=10,
                             window_seconds=1.0, enrich=flaky_enrich)
        service.submit(self._event(1, 0.0))
        late = self._event(2, 5.0)
        with pytest.raises(RuntimeError, match="boom"):
            service.submit(late)                  # time-up flush fails
        assert service.pending_events == 2
        service.flush()
        assert [w.n_events for w in service.processed_windows] == [1, 1]
        assert service.serve(1) and service.serve(2)

    def test_engine_failure_mid_flush_is_crash_safe(self, model,
                                                    monkeypatch):
        """Same crash-safety contract when the *engine* (not the enrich
        hook) raises: window restored, staged version abandoned."""
        import repro.serving.nrt as nrt_module
        real = nrt_module.batch_recommend
        state = {"failures": 1}

        def flaky_engine(*args, **kwargs):
            if state["failures"] > 0:
                state["failures"] -= 1
                raise RuntimeError("engine outage")
            return real(*args, **kwargs)

        monkeypatch.setattr(nrt_module, "batch_recommend", flaky_engine)
        store = KeyValueStore()
        service = NRTService(model, store, window_size=2)
        service.submit(self._event(1, 0.0))
        with pytest.raises(RuntimeError, match="engine outage"):
            service.submit(self._event(2, 0.1))  # size-bound flush fails
        assert service.pending_events == 2
        assert store.versions == []
        assert service.flush().n_inferred == 2
        assert service.serve(1) and service.serve(2)

    def test_refresh_model_swaps_at_window_boundary(self, model,
                                                    fig3_variant_model):
        """Events buffered in the open (not yet drained) window are
        inferred under the new model: the swap lands at the next drain,
        and the window's stats carry the new generation."""
        service = self._service(model, window_size=10)
        service.submit(self._event(1, 0.0))
        assert service.model_generation == 0
        assert service.refresh_model(fig3_variant_model) == 1
        assert service.model is fig3_variant_model
        stats = service.flush()
        assert stats.model_generation == 1
        clean = self._service(fig3_variant_model, window_size=10)
        clean.submit(self._event(1, 0.0))
        clean.flush()
        assert service.serve(1) == clean.serve(1)

    def test_refresh_model_from_artifact_path(self, model,
                                              fig3_variant_model,
                                              tmp_path):
        """ISSUE 6: hot-swap by artifact path — the service remaps a
        saved directory zero-copy and serves byte-identically to an
        in-memory swap of the same model."""
        from repro.core.serialization import save_model

        artifact = save_model(fig3_variant_model, tmp_path / "m")
        service = self._service(model, window_size=10)
        service.submit(self._event(1, 0.0))
        assert service.refresh_model(str(artifact)) == 1
        leaf_id = service.model.leaf_ids[0]
        assert service.model.leaf_graph(leaf_id).graph.is_readonly
        stats = service.flush()
        assert stats.model_generation == 1
        clean = self._service(fig3_variant_model, window_size=10)
        clean.submit(self._event(1, 0.0))
        clean.flush()
        assert service.serve(1) == clean.serve(1)

    def test_refresh_model_never_retargets_window_mid_flush(
            self, model, fig3_variant_model):
        """A window drained under the old model finishes under it even
        when the swap lands *mid-flush* (the async front swaps from
        another thread): flush snapshots model + generation at drain
        time.  The next window then runs under the new model."""
        holder = {}

        def swapping_enrich(event):
            if holder["service"].model_generation == 0:
                holder["service"].refresh_model(fig3_variant_model)
            return event.title

        service = NRTService(model, KeyValueStore(), window_size=10,
                             enrich=swapping_enrich)
        holder["service"] = service
        service.submit(self._event(1, 0.0))
        stats = service.flush()              # swap lands inside here
        assert service.model_generation == 1
        assert stats.model_generation == 0   # old model finished it
        old = self._service(model, window_size=1)
        old.submit(self._event(1, 0.0))
        assert service.serve(1) == old.serve(1)
        service.submit(self._event(2, 0.1))
        stats = service.flush()
        assert stats.model_generation == 1
        new = self._service(fig3_variant_model, window_size=1)
        new.submit(self._event(2, 0.1))
        assert service.serve(2) == new.serve(2)

    def test_refresh_model_validates_before_swapping(self, model,
                                                     tmp_path):
        """An artifact that does not open must leave the service on the
        old model (it keeps serving)."""
        service = self._service(model, window_size=1)
        with pytest.raises(ValueError, match="malformed .*model.json"):
            service.refresh_model(malformed_artifact(model, tmp_path))
        assert service.model is model
        assert service.model_generation == 0
        service.submit(self._event(1, 0.0))
        assert service.serve(1)

    def test_refresh_model_adopts_orchestrator_generation(
            self, model, fig3_variant_model):
        service = self._service(model, window_size=1)
        assert service.refresh_model(fig3_variant_model,
                                     generation=7) == 7
        service.submit(self._event(1, 0.0))
        assert service.processed_windows[-1].model_generation == 7

    def test_generation_never_goes_backwards(self, model,
                                             fig3_variant_model):
        """Mixing local refreshes with an orchestrator's explicit
        numbering cannot reuse a generation for a different model: an
        explicit number at or below the local history is bumped past
        it, keeping per-service generations strictly increasing."""
        service = self._service(model, window_size=1)
        assert service.refresh_model(fig3_variant_model,
                                     generation=5) == 5
        assert service.refresh_model(model) == 6         # local bump
        # A stale orchestrator (counter behind this service) cannot
        # relabel: 2 < 6 is bumped to 7.
        assert service.refresh_model(fig3_variant_model,
                                     generation=2) == 7
        assert service.model_generation == 7

    def test_shares_store_with_batch(self, model):
        """NRT writes land in the same store the batch pipeline serves —
        the Figure 7 integration point."""
        store = KeyValueStore()
        pipeline = BatchPipeline(model, store=store)
        pipeline.full_load(REQUESTS)
        service = NRTService(model, store, window_size=1)
        service.submit(self._event(
            99, 0.0, title="gaming headphones xbox"))
        assert pipeline.serve(99)
        assert pipeline.serve(1)  # batch results still present


class TestNoViewPinsServingState:
    """The fast engine answers with row views over its chunk columns;
    what reaches a store, and what outlives a hot-swap, must be plain."""

    @staticmethod
    def _event(item_id, ts, kind=ItemEventKind.CREATED,
               title="gaming headphones xbox"):
        return ItemEvent(kind=kind, item_id=item_id, title=title,
                         leaf_id=FIG3_LEAF_ID, timestamp=ts)

    def test_every_stored_value_is_a_plain_list_of_str(
            self, model, fig3_variant_model, tmp_path):
        """A full load, an NRT window with a DELETE+CREATE, a hot-swap
        to a mapped artifact and a differential: the writers store
        ``.texts()``, so every served value is a ``list`` of ``str`` —
        no view, no row, nothing holding a chunk."""
        store = KeyValueStore()
        pipeline = BatchPipeline(model, store=store)
        pipeline.full_load(REQUESTS)
        service = NRTService(model, store, window_size=3)
        service.submit(self._event(1, 0.0, ItemEventKind.DELETED))
        service.submit(self._event(1, 0.1))
        service.submit(self._event(99, 0.2))
        artifact = str(save_model(fig3_variant_model, tmp_path / "m"))
        service.refresh_model(artifact)
        pipeline.refresh_model(artifact)
        service.submit(self._event(98, 1.0))
        service.flush()
        pipeline.daily_differential(REQUESTS[1:])
        served = table(store)
        assert set(served) == {1, 2, 3, 98, 99} and served[99]
        for value in served.values():
            assert type(value) is list
            assert all(type(text) is str for text in value)

    def test_an_old_view_does_not_pin_the_swapped_out_model(
            self, model, fig3_variant_model, tmp_path):
        """A caller still holding a view from the old generation keeps
        neither the swapped-out mapped model nor its leaf graphs alive,
        and the view still reads — its rows built after they are gone."""
        old = open_model(save_model(model, tmp_path / "old"))
        service = NRTService(old, KeyValueStore(), window_size=1)
        service.submit(self._event(99, 0.0))
        view = batch_recommend(old, REQUESTS, k=5)[1]
        assert len(view) > 0 and view._batch.rows is None
        gone = [weakref.ref(old), weakref.ref(old.leaf_graph(FIG3_LEAF_ID))]
        service.refresh_model(fig3_variant_model)
        del old
        gc.collect()
        assert [ref() for ref in gone] == [None, None]
        assert view == batch_recommend(model, REQUESTS, k=5,
                                       engine="reference")[1]
        assert service.serve(99)
