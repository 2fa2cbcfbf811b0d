"""The telemetry plane: registry semantics and the merge algebra.

The load-bearing property is exactness: N worker registries snapshotted
and merged — in any order, any grouping — must equal the single shared
registry that would have recorded every event directly.  That is what
lets the coordinator fold heartbeat snapshots into a fleet view whose
counters are *equal*, not approximately equal, to a single-process run
(asserted again end-to-end in CI's 2-worker cluster smoke).
"""

from __future__ import annotations

import json
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import (SCHEMA_VERSION, MetricsRegistry, NullRegistry,
                       Span, Tracer, empty_snapshot, merge_snapshots,
                       metric_key, validate_snapshot)
from repro.obs.metrics import TICKS_PER_SECOND


class TestMetricKey:
    def test_no_labels_is_bare_name(self):
        assert metric_key("a.b", {}) == "a.b"

    def test_labels_sorted_into_key(self):
        assert metric_key("a", {"z": 1, "b": "x"}) == "a{b=x,z=1}"


class TestRegistryBasics:
    def test_counter_increments(self):
        registry = MetricsRegistry()
        registry.inc("events")
        registry.inc("events", 4)
        assert registry.counter_value("events") == 5

    def test_counter_labels_are_distinct_series(self):
        registry = MetricsRegistry()
        registry.inc("events", stream="a")
        registry.inc("events", 2, stream="b")
        assert registry.counter_value("events", stream="a") == 1
        assert registry.counter_value("events", stream="b") == 2
        assert registry.counter_value("events") == 0

    def test_gauge_tracks_water_marks(self):
        registry = MetricsRegistry()
        for value in (3.0, 9.0, 1.0):
            registry.gauge("depth", value)
        assert registry.gauge_value("depth") == 1.0
        assert registry.gauge_max("depth") == 9.0
        assert registry.snapshot()["gauges"]["depth"] == [1.0, 9.0, 1.0]

    def test_histogram_stats_and_buckets(self):
        registry = MetricsRegistry(buckets=(0.01, 0.1, 1.0))
        registry.observe("lat", 0.005)
        registry.observe("lat", 0.05)
        registry.observe("lat", 5.0)     # overflow bucket
        stats = registry.histogram_stats("lat")
        assert stats["count"] == 3
        assert stats["sum_seconds"] == pytest.approx(5.055)
        hist = registry.snapshot()["histograms"]["lat"]
        assert hist["counts"] == [1, 1, 0, 1]
        assert hist["count"] == 3
        # A value lands in the first bucket whose bound is >= it: on a
        # bound, between bounds, zero, negative (clamped to zero), and
        # just past the last bound (overflow).
        for value in (0.01, 0.1, 1.0, 0.05, 0.5, 0.0, -1.0, 1.0 + 1e-9):
            registry.observe("edges", value)
        assert registry.snapshot()["histograms"]["edges"]["counts"] \
            == [3, 2, 2, 1]

    def test_timer_records_a_duration(self):
        registry = MetricsRegistry()
        with registry.timer("t", stage="x") as timer:
            pass
        assert timer.seconds >= 0.0
        assert registry.histogram_stats("t", stage="x")["count"] == 1

    def test_negative_observation_clamps_to_zero(self):
        registry = MetricsRegistry()
        registry.observe("lat", -1.0)
        assert registry.histogram_stats("lat")["sum_seconds"] == 0.0

    def test_thread_safety_exact_totals(self):
        registry = MetricsRegistry()

        def worker():
            for _ in range(500):
                registry.inc("n")
                registry.observe("lat", 0.001)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert registry.counter_value("n") == 4000
        assert registry.histogram_stats("lat")["count"] == 4000

    def test_null_registry_records_nothing(self):
        registry = NullRegistry()
        registry.inc("n")
        registry.gauge("g", 1.0)
        with registry.timer("t"):
            pass
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {}
        assert snapshot["gauges"] == {}
        assert snapshot["histograms"] == {}


class TestSnapshotSchema:
    def test_snapshot_is_json_round_trippable(self):
        registry = MetricsRegistry()
        registry.inc("n", 3, host="w0")
        registry.gauge("g", 2.5)
        registry.observe("lat", 0.02)
        snapshot = registry.snapshot()
        assert snapshot["schema_version"] == SCHEMA_VERSION
        restored = json.loads(json.dumps(snapshot))
        assert restored == snapshot
        validate_snapshot(restored)

    def test_empty_snapshot_validates(self):
        validate_snapshot(empty_snapshot())

    @pytest.mark.parametrize("mutate", [
        lambda s: s.pop("schema_version"),
        lambda s: s.__setitem__("schema_version", 999),
        lambda s: s.__setitem__("bounds", []),
        lambda s: s.__setitem__("bounds", [2.0, 1.0]),
        lambda s: s.__setitem__("counters", {"k": 1.5}),
        lambda s: s.__setitem__("gauges", {"k": [1.0]}),
        lambda s: s.__setitem__(
            "histograms", {"k": {"counts": [1], "count": 1,
                                 "sum_ticks": 0}}),
    ])
    def test_malformed_snapshots_rejected(self, mutate):
        snapshot = empty_snapshot()
        mutate(snapshot)
        with pytest.raises(ValueError):
            validate_snapshot(snapshot)

    def test_histogram_count_must_match_buckets(self):
        registry = MetricsRegistry()
        registry.observe("lat", 0.01)
        snapshot = registry.snapshot()
        snapshot["histograms"]["lat"]["count"] = 7
        with pytest.raises(ValueError, match="!= sum"):
            validate_snapshot(snapshot)

    def test_merge_rejects_mismatched_bounds(self):
        a = MetricsRegistry(buckets=(0.1, 1.0))
        b = MetricsRegistry(buckets=(0.2, 1.0))
        b.observe("lat", 0.05)
        with pytest.raises(ValueError, match="bounds mismatch"):
            a.merge(b)


# One recorded event, as hypothesis generates them.  Durations are
# drawn in integer microseconds and scaled, so the "ground truth single
# registry" comparison is about merge exactness, not float generation.
_EVENTS = st.lists(
    st.one_of(
        st.tuples(st.just("inc"), st.sampled_from(["a", "b", "c"]),
                  st.integers(min_value=0, max_value=1000)),
        st.tuples(st.just("gauge"), st.sampled_from(["g", "h"]),
                  st.integers(min_value=-1000, max_value=1000)),
        st.tuples(st.just("observe"), st.sampled_from(["x", "y"]),
                  st.integers(min_value=0, max_value=40_000_000)),
    ),
    max_size=60)


def _record(registry, events):
    for kind, name, value in events:
        if kind == "inc":
            registry.inc(name, value)
        elif kind == "gauge":
            registry.gauge(name, float(value))
        else:
            registry.observe(name, value / 1_000_000)


def _strip_gauge_values(snapshot):
    """Drop the last-set gauge component, keep the water marks.

    'Last set' is inherently order-dependent across workers (the merge
    takes the max as the conservative fleet reading); the exactness
    property quantifies over everything else.
    """
    out = json.loads(json.dumps(snapshot))
    for entry in out["gauges"].values():
        entry[0] = None
    return out


class TestMergeAlgebra:
    """Satellite: merge() is exact, associative, order-independent."""

    @given(worker_events=st.lists(_EVENTS, min_size=1, max_size=5),
           order_seed=st.randoms(use_true_random=False))
    @settings(max_examples=50)
    def test_merged_workers_equal_single_registry(self, worker_events,
                                                  order_seed):
        # Ground truth: one registry that saw every event directly.
        truth = MetricsRegistry()
        for events in worker_events:
            _record(truth, events)

        # N worker registries, snapshotted and merged in random order.
        snapshots = []
        for events in worker_events:
            worker = MetricsRegistry()
            _record(worker, events)
            # The snapshot crosses a (simulated) process boundary as
            # JSON, exactly as cluster heartbeat frames carry it.
            snapshots.append(json.loads(json.dumps(worker.snapshot())))
        order_seed.shuffle(snapshots)

        merged = merge_snapshots(snapshots)
        assert _strip_gauge_values(merged) == \
            _strip_gauge_values(truth.snapshot())
        # Counters and histograms are exact including sums: integer
        # ticks never lose a nanosecond to float folding.
        assert merged["counters"] == truth.snapshot()["counters"]
        assert merged["histograms"] == truth.snapshot()["histograms"]

    @given(worker_events=st.lists(_EVENTS, min_size=3, max_size=4))
    @settings(max_examples=25)
    def test_merge_is_associative(self, worker_events):
        snapshots = []
        for events in worker_events:
            worker = MetricsRegistry()
            _record(worker, events)
            snapshots.append(worker.snapshot())

        left = merge_snapshots(
            [merge_snapshots(snapshots[:2])] + snapshots[2:])
        right = merge_snapshots(
            snapshots[:1] + [merge_snapshots(snapshots[1:])])
        flat = merge_snapshots(snapshots)
        assert _strip_gauge_values(left) == _strip_gauge_values(flat)
        assert _strip_gauge_values(right) == _strip_gauge_values(flat)

    @given(events=_EVENTS)
    @settings(max_examples=25)
    def test_empty_snapshot_is_identity(self, events):
        worker = MetricsRegistry()
        _record(worker, events)
        snapshot = worker.snapshot()
        assert merge_snapshots([empty_snapshot(), snapshot,
                                empty_snapshot()]) == snapshot


class TestTracer:
    def test_spans_nest_with_parent_ids(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        # Inner completes first; export preserves completion order.
        names = [span["name"] for span in tracer.export()["spans"]]
        assert names == ["inner", "outer"]

    def test_duration_sums_spans_by_name(self):
        tracer = Tracer()
        for _ in range(3):
            with tracer.span("step"):
                pass
        assert tracer.duration("step") == pytest.approx(
            sum(span.duration_s for span in tracer.spans("step")))
        assert tracer.duration("missing") == 0.0

    def test_export_is_json_safe_and_versioned(self):
        tracer = Tracer()
        with tracer.span("s", shard=3):
            pass
        payload = json.loads(json.dumps(tracer.export()))
        assert payload["schema_version"] == 1
        assert payload["spans"][0]["meta"] == {"shard": 3}
        assert payload["spans"][0]["duration_s"] >= 0.0

    def test_error_annotates_span(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("s"):
                raise RuntimeError("boom")
        assert tracer.spans("s")[0].meta["error"] == "RuntimeError"

    def test_sibling_spans_share_parent(self):
        tracer = Tracer()
        with tracer.span("parent") as parent:
            with tracer.span("a") as a:
                pass
            with tracer.span("b") as b:
                pass
        assert a.parent_id == parent.span_id
        assert b.parent_id == parent.span_id
        assert isinstance(a, Span)
