"""Mergeable metrics: counters, gauges, histograms, monotonic timers.

The one telemetry substrate every layer records into.  A
:class:`MetricsRegistry` holds three metric families keyed by
``name{label=value,...}``:

* **counters** — monotonically increasing integers (events submitted,
  shards run, windows flushed).  Merged by integer addition.
* **gauges** — last-set readings with high/low water marks (queue
  depth, staleness seconds).  Merged by taking the extreme of each
  component: ``max`` of maxima, ``min`` of minima, ``max`` of current
  values — the conservative fleet-wide reading.
* **histograms** — fixed-bucket latency distributions whose sums are
  kept in **integer nanosecond ticks**, quantized once at record time.
  Merged by element-wise integer addition.

Merging is the load-bearing property: worker registries travel to the
coordinator as :meth:`snapshot` JSON over the existing cluster frames
(never pickle), and :meth:`merge_snapshot` must fold N of them into a
fleet view that equals a single shared registry.  That is why every
additive quantity is an integer — int addition is exact, associative,
and commutative, where float addition is none of the three — and why
gauges merge by ``max``/``min``, which are idempotent besides.  The
hypothesis suite in ``tests/test_obs.py`` pins all of it.

Timers read ``time.perf_counter()`` only.  This module is inside the
repro-lint monotonic-clock scope: a wall-clock read here is a lint
violation, not a style nit (see docs/OBSERVABILITY.md).
"""

from __future__ import annotations

import json
import threading
import time
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

__all__ = ["SCHEMA_VERSION", "TICKS_PER_SECOND", "DEFAULT_BUCKETS",
           "MetricsRegistry", "NullRegistry", "metric_key",
           "validate_snapshot", "merge_snapshots", "empty_snapshot",
           "load_snapshot", "dump_snapshot"]

#: Version stamped into every snapshot; bump on wire-format changes.
SCHEMA_VERSION = 1

#: Histogram sums are integer nanoseconds: quantize once at record
#: time so merges are exact integer addition, never float folding.
TICKS_PER_SECOND = 1_000_000_000

#: Default histogram bucket upper bounds, in seconds (+inf implicit).
#: Decade-and-a-half steps from 10 us to 30 s cover everything from a
#: single fleet shard to a full daily construct.
DEFAULT_BUCKETS = (1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2,
                   0.1, 0.3, 1.0, 3.0, 10.0, 30.0)


def metric_key(name: str, labels: Mapping[str, Any]) -> str:
    """Canonical ``name{k=v,...}`` key (labels sorted, stringified)."""
    if not labels:
        return name
    inner = ",".join(f"{key}={labels[key]}" for key in sorted(labels))
    return f"{name}{{{inner}}}"


class _Timer:
    """Context manager recording a perf_counter interval on exit."""

    __slots__ = ("_registry", "_name", "_labels", "_start", "seconds")

    def __init__(self, registry: "MetricsRegistry", name: str,
                 labels: Mapping[str, Any]) -> None:
        self._registry = registry
        self._name = name
        self._labels = labels
        self._start = 0.0
        self.seconds = 0.0

    def __enter__(self) -> "_Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.seconds = time.perf_counter() - self._start
        self._registry.observe(self._name, self.seconds, **self._labels)


class MetricsRegistry:
    """Thread-safe metric store with exact, associative merging.

    Args:
        buckets: Histogram upper bounds in seconds, strictly
            increasing; the ``+inf`` overflow bucket is implicit.
            Registries only merge when their bounds match.
    """

    def __init__(self, buckets: Iterable[float] = DEFAULT_BUCKETS) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(b <= a for a, b in zip(bounds, bounds[1:])):
            raise ValueError(
                f"histogram bounds must be non-empty and strictly "
                f"increasing, got {bounds!r}")
        self._bounds = bounds
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        # key -> [value, max, min]
        self._gauges: Dict[str, List[float]] = {}
        # key -> [bucket counts..., overflow] + [count, sum_ticks]
        self._hist_counts: Dict[str, List[int]] = {}
        self._hist_totals: Dict[str, List[int]] = {}

    # -- recording ---------------------------------------------------

    def inc(self, name: str, n: int = 1, **labels: Any) -> None:
        """Add ``n`` (an int) to a counter."""
        key = metric_key(name, labels)
        n = int(n)
        with self._lock:
            self._counters[key] = self._counters.get(key, 0) + n

    def gauge(self, name: str, value: float, **labels: Any) -> None:
        """Set a gauge, folding the value into its water marks."""
        key = metric_key(name, labels)
        value = float(value)
        with self._lock:
            entry = self._gauges.get(key)
            if entry is None:
                self._gauges[key] = [value, value, value]
            else:
                entry[0] = value
                entry[1] = max(entry[1], value)
                entry[2] = min(entry[2], value)

    def observe(self, name: str, seconds: float, **labels: Any) -> None:
        """Record one duration into a histogram (quantized to ticks)."""
        key = metric_key(name, labels)
        seconds = max(0.0, float(seconds))
        ticks = round(seconds * TICKS_PER_SECOND)
        bucket = len(self._bounds)  # overflow
        for index, bound in enumerate(self._bounds):
            if seconds <= bound:
                bucket = index
                break
        with self._lock:
            counts = self._hist_counts.get(key)
            if counts is None:
                counts = self._hist_counts[key] = \
                    [0] * (len(self._bounds) + 1)
                self._hist_totals[key] = [0, 0]
            counts[bucket] += 1
            totals = self._hist_totals[key]
            totals[0] += 1
            totals[1] += ticks

    def timer(self, name: str, **labels: Any) -> _Timer:
        """``with registry.timer("x.seconds"): ...`` — a perf_counter
        interval recorded into the ``x.seconds`` histogram on exit."""
        return _Timer(self, name, labels)

    # -- reading -----------------------------------------------------

    def counter_value(self, name: str, **labels: Any) -> int:
        with self._lock:
            return self._counters.get(metric_key(name, labels), 0)

    def gauge_value(self, name: str, **labels: Any) -> Optional[float]:
        with self._lock:
            entry = self._gauges.get(metric_key(name, labels))
            return entry[0] if entry is not None else None

    def gauge_max(self, name: str, **labels: Any) -> Optional[float]:
        """The high-water mark — what a poll-time read misses."""
        with self._lock:
            entry = self._gauges.get(metric_key(name, labels))
            return entry[1] if entry is not None else None

    def histogram_stats(self, name: str, **labels: Any
                        ) -> Optional[Dict[str, float]]:
        """``{count, sum_seconds, mean_seconds}`` for one histogram."""
        with self._lock:
            totals = self._hist_totals.get(metric_key(name, labels))
        if totals is None:
            return None
        count, sum_ticks = totals
        sum_seconds = sum_ticks / TICKS_PER_SECOND
        return {"count": count, "sum_seconds": sum_seconds,
                "mean_seconds": sum_seconds / count if count else 0.0}

    # -- snapshot / merge --------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """A self-describing JSON-safe dict; the only wire format.

        Everything additive is an integer, so a snapshot round-trips
        through ``json.dumps``/``loads`` without loss and merges
        exactly (gauge floats travel via json's repr, also exact).
        """
        with self._lock:
            return {
                "schema_version": SCHEMA_VERSION,
                "bounds": list(self._bounds),
                "counters": dict(self._counters),
                "gauges": {key: list(entry)
                           for key, entry in self._gauges.items()},
                "histograms": {
                    key: {"counts": list(self._hist_counts[key]),
                          "count": self._hist_totals[key][0],
                          "sum_ticks": self._hist_totals[key][1]}
                    for key in self._hist_counts},
            }

    def merge_snapshot(self, payload: Mapping[str, Any]) -> None:
        """Fold a validated snapshot in (exact; see module docstring)."""
        payload = validate_snapshot(payload)
        bounds = tuple(payload["bounds"])
        if bounds != self._bounds:
            raise ValueError(
                f"histogram bounds mismatch: registry has "
                f"{self._bounds!r}, snapshot has {bounds!r}")
        with self._lock:
            for key, value in payload["counters"].items():
                self._counters[key] = self._counters.get(key, 0) \
                    + int(value)
            for key, (value, high, low) in payload["gauges"].items():
                entry = self._gauges.get(key)
                if entry is None:
                    self._gauges[key] = [float(value), float(high),
                                         float(low)]
                else:
                    entry[0] = max(entry[0], float(value))
                    entry[1] = max(entry[1], float(high))
                    entry[2] = min(entry[2], float(low))
            for key, hist in payload["histograms"].items():
                counts = self._hist_counts.get(key)
                if counts is None:
                    self._hist_counts[key] = [int(c)
                                              for c in hist["counts"]]
                    self._hist_totals[key] = [int(hist["count"]),
                                              int(hist["sum_ticks"])]
                else:
                    for index, c in enumerate(hist["counts"]):
                        counts[index] += int(c)
                    totals = self._hist_totals[key]
                    totals[0] += int(hist["count"])
                    totals[1] += int(hist["sum_ticks"])

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry in via its snapshot."""
        self.merge_snapshot(other.snapshot())

    def __repr__(self) -> str:
        with self._lock:
            return (f"MetricsRegistry(counters={len(self._counters)}, "
                    f"gauges={len(self._gauges)}, "
                    f"histograms={len(self._hist_counts)})")


class NullRegistry(MetricsRegistry):
    """Telemetry-off: every record call is a no-op.

    The default for hot paths that were not handed a registry, so
    instrumented code never branches on ``metrics is None`` and the
    telemetry-off bench column measures a real disabled path.
    """

    def inc(self, name: str, n: int = 1, **labels: Any) -> None:
        pass

    def gauge(self, name: str, value: float, **labels: Any) -> None:
        pass

    def observe(self, name: str, seconds: float, **labels: Any) -> None:
        pass


def empty_snapshot() -> Dict[str, Any]:
    """A valid snapshot with nothing in it (merge identity)."""
    return MetricsRegistry().snapshot()


def validate_snapshot(payload: Mapping[str, Any]) -> Mapping[str, Any]:
    """Check a snapshot against the schema; returns it, else raises.

    Shared by the CLI, the coordinator's frame handling, CI's fleet
    assertion, and the tests — one schema, one checker.
    """
    if not isinstance(payload, Mapping):
        raise ValueError(f"snapshot must be an object, got "
                         f"{type(payload).__name__}")
    version = payload.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(f"unsupported snapshot schema_version "
                         f"{version!r} (expected {SCHEMA_VERSION})")
    bounds = payload.get("bounds")
    if not isinstance(bounds, list) or not bounds or any(
            not isinstance(b, (int, float)) for b in bounds):
        raise ValueError("snapshot 'bounds' must be a non-empty list "
                         "of numbers")
    if any(b <= a for a, b in zip(bounds, bounds[1:])):
        raise ValueError("snapshot 'bounds' must be strictly increasing")
    counters = payload.get("counters")
    if not isinstance(counters, Mapping) or any(
            not isinstance(v, int) or isinstance(v, bool)
            for v in counters.values()):
        raise ValueError("snapshot 'counters' must map keys to ints")
    gauges = payload.get("gauges")
    if not isinstance(gauges, Mapping):
        raise ValueError("snapshot 'gauges' must be an object")
    for key, entry in gauges.items():
        if not isinstance(entry, list) or len(entry) != 3 or any(
                not isinstance(v, (int, float)) or isinstance(v, bool)
                for v in entry):
            raise ValueError(f"snapshot gauge {key!r} must be a "
                             f"[value, max, min] number triple")
    histograms = payload.get("histograms")
    if not isinstance(histograms, Mapping):
        raise ValueError("snapshot 'histograms' must be an object")
    n_buckets = len(bounds) + 1
    for key, hist in histograms.items():
        if not isinstance(hist, Mapping):
            raise ValueError(f"snapshot histogram {key!r} must be an "
                             f"object")
        counts = hist.get("counts")
        if not isinstance(counts, list) or len(counts) != n_buckets \
                or any(not isinstance(c, int) or isinstance(c, bool)
                       for c in counts):
            raise ValueError(
                f"snapshot histogram {key!r} 'counts' must be a list "
                f"of {n_buckets} ints (bounds + overflow)")
        for field in ("count", "sum_ticks"):
            if not isinstance(hist.get(field), int) \
                    or isinstance(hist.get(field), bool):
                raise ValueError(f"snapshot histogram {key!r} "
                                 f"{field!r} must be an int")
        if hist["count"] != sum(counts):
            raise ValueError(
                f"snapshot histogram {key!r} count {hist['count']} != "
                f"sum of bucket counts {sum(counts)}")
    return payload


def merge_snapshots(payloads: Iterable[Mapping[str, Any]]
                    ) -> Dict[str, Any]:
    """Fold snapshots into one (associativity pinned by the tests)."""
    payloads = list(payloads)
    registry = MetricsRegistry(
        buckets=payloads[0]["bounds"]) if payloads else MetricsRegistry()
    for payload in payloads:
        registry.merge_snapshot(payload)
    return registry.snapshot()


def load_snapshot(path: str) -> Dict[str, Any]:
    """Read and validate a snapshot JSON file."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    validate_snapshot(payload)
    return payload


def dump_snapshot(payload: Mapping[str, Any], path: str) -> None:
    """Validate and write a snapshot as JSON."""
    validate_snapshot(payload)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
