"""Bench-side tracing: spans around the program's public layer
boundaries, recorded from outside.

The traced run patches wrappers onto public callables *at the
attribute their callers resolve* (``repro.serving.nrt.batch_recommend``
is a different binding from ``repro.core.batch.batch_recommend``), and
removes them afterwards; the untraced run installs none, so end-to-end
numbers never pay for tracing.  Spans inside ``src/`` are a later
change (ROADMAP item 1b).

Two recorders, by cost:

* coarse, synchronous boundaries become parent-linked
  :class:`repro.obs.Tracer` spans (name, start, duration, parent, and
  the op they ran under), so self time = span − children;
* hot or ``async`` boundaries (a tokenizer call, a KV ``put``, a
  transport ``recv`` that is parked across ops) append a flat
  ``(start, duration, value, key)`` record — two clock reads and an
  atomic ``list.append`` — and are attributed to ops by time overlap.

A target that no longer exists is skipped with a warning, never a
crash: the benchmark must keep running against later versions of the
program.  (Named ``tracing`` rather than ``trace`` so the script
directory on ``sys.path`` cannot shadow the stdlib module.)
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time
from bisect import bisect_right
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.obs import Span, Tracer

#: Flat record: (start on perf_counter, duration, value, key).
Record = Tuple[float, float, float, int]

#: name → [(owner, attribute)]; an owner is ``module`` or
#: ``module:Class``.  Synchronous, coarse: Tracer spans.
SPAN_TARGETS: Dict[str, List[Tuple[str, str]]] = {
    "core.execution.batch_recommend": [
        ("workloads", "batch_recommend"),
        ("repro.serving.nrt", "batch_recommend"),
        ("repro.serving.batch_pipeline", "batch_recommend")],
    "core.fast_inference.run_indexed": [
        ("repro.core.fast_inference:LeafBatchRunner", "run_indexed")],
    "core.sharding.plan": [
        ("repro.core.sharding:ShardPlan", "for_inference")],
    "core.curation.curate": [("workloads", "fast_curate")],
    "core.model.construct": [
        ("repro.core.model:GraphExModel", "construct")],
    "core.fast_construct.leaf_graph": [
        ("repro.core.execution", "build_leaf_graph_fast"),
        ("repro.core.fast_construct", "build_leaf_graph_fast")],
    "core.serialization.save": [("repro.serving.refresh", "save_model")],
    "core.serialization.open": [
        ("repro.serving.refresh", "load_model"),
        ("repro.serving.async_front", "open_model"),
        ("repro.cluster.coordinator", "open_model"),
        ("workloads", "open_model")],
    "serving.batch_pipeline.full_load": [
        ("repro.serving.batch_pipeline:BatchPipeline", "full_load")],
    "serving.kvstore.bulk_load": [
        ("repro.serving.kvstore:KeyValueStore", "bulk_load")],
    "serving.kvstore.copy_from_serving": [
        ("repro.serving.kvstore:KeyValueStore", "copy_from_serving")],
    "serving.nrt.flush": [("repro.serving.nrt:NRTService", "flush")],
    "cluster.protocol.encode": [
        ("repro.cluster.protocol", "encode_frame")],
    "cluster.protocol.decode": [
        ("repro.cluster.protocol", "decode_frame")],
}

#: Hot or async boundaries: flat records.
RECORD_TARGETS: Dict[str, List[Tuple[str, str]]] = {
    "core.tokenize.call": [
        ("repro.core.tokenize:SpaceTokenizer", "__call__")],
    "serving.kvstore.put": [
        ("repro.serving.kvstore:KeyValueStore", "put")],
    "serving.kvstore.promote": [
        ("repro.serving.kvstore:KeyValueStore", "promote")],
    "serving.kvstore.prune": [
        ("repro.serving.kvstore:KeyValueStore", "prune")],
    "serving.nrt.submit": [("repro.serving.nrt:NRTService", "submit")],
    "serving.async_front.submit": [
        ("repro.serving.async_front:AsyncNRTFront", "submit")],
    "cluster.coordinator.merge": [
        ("repro.cluster.coordinator", "unpack_recommendations")],
    "cluster.transport.send": [
        ("repro.cluster.transport:Transport", "send")],
    "cluster.transport.recv": [
        ("repro.cluster.transport:Transport", "recv")],
}


def _size(value) -> float:
    try:
        return float(len(value))
    except TypeError:
        return 0.0


#: What a span notes about a call: (args, result) → meta entries.
SPAN_NOTES: Dict[str, Callable] = {
    "core.fast_inference.run_indexed": lambda args, result: {
        "items": _size(args[1]), "recs": float(sum(map(len, result)))},
    "core.sharding.plan": lambda args, result: {
        "shards": float(result[0].n_shards)},
    "core.fast_construct.leaf_graph": lambda args, result: {
        "edges": _size(result.graph.indices)},
    "cluster.protocol.encode": lambda args, result: {
        "bytes": _size(result)},
    "cluster.protocol.decode": lambda args, result: {
        "bytes": _size(args[0])},
}

#: What a flat record notes about a call: (args, result) → number.
RECORD_NOTES: Dict[str, Callable] = {
    "core.tokenize.call": lambda args, result: _size(result),
}


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    module = sys.modules.get(module_name) \
        or importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


class LockTimer:
    """Wraps a store's transaction lock and records how long each
    acquisition waited (the per-stream serialisation point)."""

    def __init__(self, lock, records: List[Record]) -> None:
        self._lock = lock
        self._records = records

    def acquire(self, *args, **kwargs):
        start = time.perf_counter()
        got = self._lock.acquire(*args, **kwargs)
        self._records.append((start, time.perf_counter() - start, 0.0, 0))
        return got

    def release(self) -> None:
        self._lock.release()

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()


class Trace:
    """One traced run: the tracer, the flat records, the patches."""

    def __init__(self) -> None:
        before = time.perf_counter()
        self.tracer = Tracer()
        probe = self.tracer.span("bench.epoch").span
        after = time.perf_counter()
        #: perf_counter reading at the tracer's epoch, so spans and
        #: flat records share one time base.
        self.epoch = (before + after) / 2 - probe.start_s
        self.records: Dict[str, List[Record]] = defaultdict(list)
        self.skipped: List[str] = []
        self._undo: List[Tuple[object, str, object]] = []
        self._ops: List[Span] = []

    # -- op spans -------------------------------------------------------

    @contextmanager
    def __call__(self, phase: str, index: int):
        with self.tracer.span("op", phase=phase, index=index) as span:
            self._ops.append(span)
            yield span

    def annotate(self, factor: float) -> None:
        self._ops[-1].meta["factor"] = factor

    @property
    def ops(self) -> List[Span]:
        return [span for span in self._ops if "factor" in span.meta]

    # -- patching -------------------------------------------------------

    def _span_wrapper(self, name: str, raw: Callable) -> Callable:
        tracer, note = self.tracer, SPAN_NOTES.get(name)

        @functools.wraps(raw)
        def wrapper(*args, **kwargs):
            with tracer.span(name) as span:
                result = raw(*args, **kwargs)
                if note is not None:
                    span.meta.update(note(args, result))
                return result
        return wrapper

    def _record_wrapper(self, name: str, raw: Callable) -> Callable:
        records, note = self.records[name], RECORD_NOTES.get(name)
        clock = time.perf_counter

        if inspect.iscoroutinefunction(raw):
            @functools.wraps(raw)
            async def wrapper(*args, **kwargs):
                start = clock()
                result = await raw(*args, **kwargs)
                records.append((start, clock() - start, 0.0,
                                id(args[0])))
                return result
            return wrapper

        @functools.wraps(raw)
        def wrapper(*args, **kwargs):
            start = clock()
            result = raw(*args, **kwargs)
            records.append((start, clock() - start,
                            note(args, result) if note else 0.0, 0))
            return result
        return wrapper

    def _patch(self, name: str, owner_name: str, attr: str,
               make: Callable) -> None:
        try:
            owner = _resolve(owner_name)
            raw = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
        except (ImportError, AttributeError, KeyError):
            self.skipped.append(f"{name} ({owner_name}.{attr})")
            print(f"trace: skipping {name}: {owner_name}.{attr} "
                  "is gone", file=sys.stderr)
            return
        if isinstance(raw, classmethod):
            wrapped = classmethod(make(name, raw.__func__))
        else:
            wrapped = make(name, raw)
        self._undo.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def install(self) -> None:
        """Patch every target in (idempotent per :meth:`uninstall`)."""
        if self._undo:
            return
        for targets, make in ((SPAN_TARGETS, self._span_wrapper),
                              (RECORD_TARGETS, self._record_wrapper)):
            for name, places in targets.items():
                for owner_name, attr in places:
                    self._patch(name, owner_name, attr, make)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def time_lock(self, store) -> None:
        """Record waits on ``store``'s transaction lock."""
        store.lock = LockTimer(store.lock,
                               self.records["serving.kvstore.lock_wait"])

    # -- analysis -------------------------------------------------------

    def _children(self) -> Dict[Optional[int], List[Span]]:
        children: Dict[Optional[int], List[Span]] = defaultdict(list)
        for span in self.tracer.spans():
            children[span.parent_id].append(span)
        return children

    def descendants(self, root: Span,
                    children: Dict[Optional[int], List[Span]]
                    ) -> Iterable[Span]:
        stack = list(children.get(root.span_id, ()))
        while stack:
            span = stack.pop()
            yield span
            stack.extend(children.get(span.span_id, ()))

    def self_times(self, root: Span, children=None) -> Dict[str, float]:
        """Self time (span − children) by name, under one root."""
        children = children or self._children()
        out: Dict[str, float] = defaultdict(float)
        for span in [root, *self.descendants(root, children)]:
            inner = sum(child.duration_s
                        for child in children.get(span.span_id, ()))
            out[span.name] += max(0.0, span.duration_s - inner)
        return dict(out)

    def export(self) -> dict:
        """Everything recorded, JSON-safe (written by ``--out``)."""
        return {"epoch_perf_counter": self.epoch,
                "skipped": list(self.skipped),
                "spans": self.tracer.export()["spans"],
                "records": {name: [list(record) for record in records]
                            for name, records in self.records.items()}}


class Analysis:
    """Per-layer numbers out of one :class:`Trace`.

    A span or record belongs to the op during which it started, on
    whatever thread it ran (refresh steps and window flushes run on
    pool threads, so parent links alone would lose them).  Times are
    normalised by that op's speed factor and reported as medians in
    milliseconds; counts are exact.

    Args:
        trace: The finished trace.
        cold: Analyse the cold-start ops instead of the timed ones.
    """

    def __init__(self, trace: Trace, cold: bool = False) -> None:
        self.trace = trace
        self.ops = sorted((op for op in trace.ops
                           if (op.meta["phase"] == "cold") == cold),
                          key=lambda span: span.start_s)
        self._starts = [op.start_s for op in self.ops]
        self._children = trace._children()
        self._overlap_cache: Dict[str, dict] = {}
        self._under: Dict[int, List[Span]] = {
            op.span_id: [] for op in self.ops}
        for span in trace.tracer.spans():
            op = self._op_at(span.start_s)
            if op is not None and span is not op:
                self._under[op.span_id].append(span)

    def _op_at(self, at: float) -> Optional[Span]:
        """The analysed op running at tracer time ``at``, if any."""
        slot = bisect_right(self._starts, at) - 1
        if slot < 0:
            return None
        op = self.ops[slot]
        return op if at <= op.start_s + op.duration_s else None

    def _median(self, per_op: Callable[[Span], float]) -> float:
        return statistics.median(map(per_op, self.ops)) if self.ops \
            else 0.0

    # spans --------------------------------------------------------------

    def spans(self, name: str) -> List[Tuple[Span, float]]:
        """``name`` spans under the analysed ops, with the op's factor."""
        return [(span, op.meta["factor"]) for op in self.ops
                for span in self._under[op.span_id] if span.name == name]

    def per_op_ms(self, name: str) -> float:
        """Median over ops of the time spent in ``name`` spans."""
        return 1e3 * self._median(lambda op: sum(
            span.duration_s for span in self._under[op.span_id]
            if span.name == name) / op.meta["factor"])

    def per_op_note(self, name: str, key: str = "") -> float:
        """Median over ops of a noted quantity of ``name`` spans
        (their number when ``key`` is empty)."""
        return self._median(lambda op: sum(
            span.meta.get(key, 0.0) if key else 1.0
            for span in self._under[op.span_id] if span.name == name))

    def per_call_ms(self, name: str, minus: str = "") -> float:
        """Median duration of ``name`` spans (less their ``minus``
        descendants), normalised."""
        values = []
        for span, factor in self.spans(name):
            inner = sum(child.duration_s for child in
                        self.trace.descendants(span, self._children)
                        if child.name == minus) if minus else 0.0
            values.append((span.duration_s - inner) / factor)
        return 1e3 * statistics.median(values) if values else 0.0

    def per_call_note(self, name: str, key: str) -> float:
        values = [span.meta.get(key, 0.0) for span, _ in self.spans(name)]
        return statistics.median(values) if values else 0.0

    # flat records -------------------------------------------------------

    def _overlaps(self, name: str) -> Dict[int, Dict[int, List[float]]]:
        """op id → record key → [overlap seconds, values, calls]."""
        if name in self._overlap_cache:
            return self._overlap_cache[name]
        out: Dict[int, Dict[int, List[float]]] = {
            op.span_id: {} for op in self.ops}
        self._overlap_cache[name] = out
        epoch = self.trace.epoch
        for start, duration, value, key in self.trace.records.get(
                name, ()):
            begin = start - epoch
            end = begin + duration
            slot = max(0, bisect_right(self._starts, begin) - 1)
            while slot < len(self.ops) \
                    and self.ops[slot].start_s <= end:
                op = self.ops[slot]
                op_end = op.start_s + op.duration_s
                if begin <= op_end:
                    cell = out[op.span_id].setdefault(key, [0., 0., 0.])
                    cell[0] += max(0.0, min(end, op_end)
                                   - max(begin, op.start_s))
                    if op.start_s <= begin:
                        cell[1] += value
                        cell[2] += 1
                slot += 1
        return out

    def record_per_op(self, name: str, field: int = 0,
                      reduce=sum) -> float:
        """Median over ops of a record total — field 0 overlap seconds
        (normalised), 1 noted values, 2 calls — summed or maxed across
        record keys (a key is one connection)."""
        overlaps = self._overlaps(name)

        def total(op: Span) -> float:
            cells = [cell[field]
                     for cell in overlaps[op.span_id].values()]
            value = reduce(cells) if cells else 0.0
            return value / op.meta["factor"] if field == 0 else value
        return self._median(total)

    def record_sum(self, name: str, field: int = 0,
                   normalised: bool = True) -> float:
        """Total over all analysed ops of one record field."""
        overlaps = self._overlaps(name)
        return sum(cell[field] / (op.meta["factor"]
                                  if field == 0 and normalised else 1.0)
                   for op in self.ops
                   for cell in overlaps[op.span_id].values())

    def op_wall_total(self) -> float:
        return sum(op.duration_s for op in self.ops)

    def op_ms(self) -> float:
        return 1e3 * self._median(
            lambda op: op.duration_s / op.meta["factor"])

    def selftime_coverage(self) -> float:
        """Median over ops of Σ self times ÷ the op's span, over the
        op's own call tree (1.0 when the spans nest cleanly)."""
        return self._median(lambda op: sum(
            self.trace.self_times(op, self._children).values())
            / op.duration_s if op.duration_s > 0 else 0.0)
