"""The per-layer metrics of the traced run, by the module they watch.

``PER_LAYER`` is the list ``BENCHMARK.json`` records.  Every traced
run emits every name; a layer the workload does not exercise reads 0
(that *is* its busy time there, and "must not move" predictions are
checked against it).  ``*_ms`` / ``*_us`` are normalised medians,
counts are exact, ``*_share`` are ratios of raw seconds.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from measure import Sample
from tracing import Analysis, Trace

#: (name, unit, better)
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("core.tokenize.busy_share", "share", "lower"),
    ("core.tokenize.tokens_per_s", "1/s", "higher"),
    ("core.fast_inference.run_ms", "ms", "lower"),
    ("core.fast_inference.groups_per_op", "count", "lower"),
    ("core.fast_inference.items_per_group", "count", "higher"),
    ("core.fast_inference.recs_per_item", "count", "higher"),
    ("core.fast_inference.microbatch_ms", "ms", "lower"),
    ("core.execution.dispatch_overhead_ms", "ms", "lower"),
    ("core.execution.shards_per_call", "count", "lower"),
    ("core.curation.curate_ms", "ms", "lower"),
    ("core.curation.kept_share", "share", "higher"),
    ("core.model.construct_ms", "ms", "lower"),
    ("core.fast_construct.leaf_graphs_ms", "ms", "lower"),
    ("core.fast_construct.edges", "count", "lower"),
    ("core.serialization.save_ms", "ms", "lower"),
    ("core.serialization.open_mmap_ms", "ms", "lower"),
    ("core.serialization.open_copied_ms", "ms", "lower"),
    ("core.serialization.first_batch_ms", "ms", "lower"),
    ("core.serialization.artifact_bytes", "bytes", "lower"),
    ("core.sharding.plan_ms", "ms", "lower"),
    ("core.sharding.units_per_op", "count", "lower"),
    ("serving.batch_pipeline.full_load_ms", "ms", "lower"),
    ("serving.kvstore.bulk_load_ms", "ms", "lower"),
    ("serving.refresh.construct_s", "s", "lower"),
    ("serving.refresh.load_s", "s", "lower"),
    ("serving.refresh.swap_s", "s", "lower"),
    ("serving.refresh.retries", "count", "lower"),
    ("serving.kvstore.copy_from_serving_ms", "ms", "lower"),
    ("serving.kvstore.put_ms_per_window", "ms", "lower"),
    ("serving.kvstore.promote_prune_ms", "ms", "lower"),
    ("serving.kvstore.lock_wait_ms", "ms", "lower"),
    ("serving.nrt.flush_ms", "ms", "lower"),
    ("serving.nrt.submit_us", "us", "lower"),
    ("serving.nrt.windows", "count", "higher"),
    ("serving.nrt.flush_failures", "count", "lower"),
    ("serving.async_front.queue_wait_ms", "ms", "lower"),
    ("serving.async_front.queue_depth_hwm", "count", "lower"),
    ("serving.async_front.submit_block_share", "share", "lower"),
    ("serving.async_front.swap_pause_ms", "ms", "lower"),
    ("serving.async_front.swap_max_latency_ms", "ms", "lower"),
    ("cluster.protocol.encode_ms", "ms", "lower"),
    ("cluster.protocol.decode_ms", "ms", "lower"),
    ("cluster.protocol.bytes_per_op", "bytes", "lower"),
    ("cluster.protocol.frames_per_op", "count", "lower"),
    ("cluster.transport.send_wait_ms", "ms", "lower"),
    ("cluster.transport.recv_wait_ms", "ms", "lower"),
    ("cluster.coordinator.run_ms", "ms", "lower"),
    ("cluster.coordinator.merge_ms", "ms", "lower"),
    ("cluster.coordinator.retries", "count", "lower"),
    ("cluster.coordinator.replans", "count", "lower"),
    ("cluster.coordinator.local_units", "count", "lower"),
    ("cluster.worker.busy_ms", "ms", "lower"),
    ("cluster.worker.idle_share", "share", "lower"),
    ("bench.trace.overhead_share", "share", "lower"),
    ("bench.machine.speed_factor_p50", "share", "lower"),
    ("bench.loadgen.lag_p99_ms", "ms", "lower"),
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _worker_busy(analysis: Analysis, trace_files: Sequence[Path]
                 ) -> Tuple[float, float]:
    """``(busy_ms, idle_share)`` of the slower worker, medians over ops.

    The op waits for the slower of its workers, so per op the busiest
    worker's time is the one that counts; what is left of the op's
    wall is wire, merge and scheduling.
    """
    intervals: List[List[Tuple[float, float]]] = []
    for path in trace_files:
        with open(path, encoding="utf-8") as handle:
            intervals.append([tuple(pair) for pair in
                              json.load(handle)["busy"]])
    epoch = analysis.trace.epoch
    busy_ms, idle = [], []
    for op in analysis.ops:
        begin, end = op.start_s + epoch, op.start_s + op.duration_s + epoch
        busiest = max((sum(max(0.0, min(stop, end) - max(start, begin))
                           for start, stop in worker)
                       for worker in intervals), default=0.0)
        busy_ms.append(1e3 * busiest / op.meta["factor"])
        idle.append(1.0 - _ratio(busiest, op.duration_s))
    if not busy_ms:
        return 0.0, 0.0
    return statistics.median(busy_ms), statistics.median(idle)


def layer_metrics(*, trace: Trace, facts: Dict[str, float],
                  traced_p50_ms: float,
                  untraced_p50_ms: float, factor_p50: float,
                  copied_open: Sample, artifact_bytes: int,
                  worker_traces: Sequence[Path]) -> Dict[str, float]:
    """Every ``PER_LAYER`` value of one traced run."""
    timed = Analysis(trace)
    cold = Analysis(trace, cold=True)
    out = {name: 0.0 for name, _unit, _better in PER_LAYER}

    tokenize_s = timed.record_sum("core.tokenize.call", normalised=False)
    out["core.tokenize.busy_share"] = _ratio(tokenize_s,
                                             timed.op_wall_total())
    out["core.tokenize.tokens_per_s"] = _ratio(
        timed.record_sum("core.tokenize.call", field=1),
        timed.record_sum("core.tokenize.call"))

    run = "core.fast_inference.run_indexed"
    groups = timed.per_op_note(run)
    items = timed.per_op_note(run, "items")
    out["core.fast_inference.run_ms"] = timed.per_op_ms(run)
    out["core.fast_inference.groups_per_op"] = groups
    out["core.fast_inference.items_per_group"] = _ratio(items, groups)
    out["core.fast_inference.recs_per_item"] = _ratio(
        timed.per_op_note(run, "recs"), items)
    out["core.fast_inference.microbatch_ms"] = timed.per_call_ms(run)
    out["core.execution.dispatch_overhead_ms"] = timed.per_call_ms(
        "core.execution.batch_recommend", minus=run)
    out["core.execution.shards_per_call"] = timed.per_call_note(
        "core.sharding.plan", "shards")

    out["core.curation.curate_ms"] = timed.per_op_ms(
        "core.curation.curate")
    out["core.model.construct_ms"] = timed.per_op_ms(
        "core.model.construct")
    leaf = "core.fast_construct.leaf_graph"
    out["core.fast_construct.leaf_graphs_ms"] = timed.per_op_ms(leaf)
    out["core.fast_construct.edges"] = timed.per_op_note(leaf, "edges")

    opened = "core.serialization.open"
    out["core.serialization.save_ms"] = timed.per_op_ms(
        "core.serialization.save")
    out["core.serialization.open_mmap_ms"] = (
        timed.per_op_ms(opened) or cold.per_op_ms(opened))
    out["core.serialization.open_copied_ms"] = 1e3 * copied_open.norm_s
    out["core.serialization.first_batch_ms"] = cold.per_op_ms(
        "core.execution.batch_recommend")
    out["core.serialization.artifact_bytes"] = float(artifact_bytes)

    plan = "core.sharding.plan"
    out["core.sharding.plan_ms"] = timed.per_op_ms(plan)
    out["core.sharding.units_per_op"] = timed.per_op_note(plan, "shards")
    out["serving.batch_pipeline.full_load_ms"] = timed.per_op_ms(
        "serving.batch_pipeline.full_load")
    out["serving.kvstore.bulk_load_ms"] = timed.per_op_ms(
        "serving.kvstore.bulk_load")

    flush = "serving.nrt.flush"
    windows = len(timed.spans(flush))
    flush_s = sum(span.duration_s / factor
                  for span, factor in timed.spans(flush))
    out["serving.kvstore.copy_from_serving_ms"] = timed.per_call_ms(
        "serving.kvstore.copy_from_serving")
    out["serving.kvstore.put_ms_per_window"] = 1e3 * _ratio(
        timed.record_sum("serving.kvstore.put"), windows)
    out["serving.kvstore.promote_prune_ms"] = 1e3 * _ratio(
        timed.record_sum("serving.kvstore.promote")
        + timed.record_sum("serving.kvstore.prune"), windows)
    out["serving.kvstore.lock_wait_ms"] = 1e3 * _ratio(
        timed.record_sum("serving.kvstore.lock_wait"), windows)
    out["serving.nrt.flush_ms"] = timed.per_call_ms(flush)
    out["serving.nrt.submit_us"] = 1e6 * _ratio(
        timed.record_sum("serving.nrt.submit") - flush_s,
        timed.record_sum("serving.nrt.submit", field=2))
    # due → flush start, observed from outside as what is left of the
    # window's latency once its flush is taken out.
    out["serving.async_front.queue_wait_ms"] = max(
        0.0, traced_p50_ms - out["serving.nrt.flush_ms"]) \
        if windows else 0.0
    out["serving.async_front.submit_block_share"] = _ratio(
        timed.record_sum("serving.async_front.submit", normalised=False),
        2 * timed.op_wall_total())

    encode, decode = "cluster.protocol.encode", "cluster.protocol.decode"
    out["cluster.protocol.encode_ms"] = timed.per_op_ms(encode)
    out["cluster.protocol.decode_ms"] = timed.per_op_ms(decode)
    out["cluster.protocol.bytes_per_op"] = (
        timed.per_op_note(encode, "bytes")
        + timed.per_op_note(decode, "bytes"))
    out["cluster.protocol.frames_per_op"] = (
        timed.per_op_note(encode) + timed.per_op_note(decode))
    out["cluster.transport.send_wait_ms"] = max(0.0, 1e3 * (
        timed.record_per_op("cluster.transport.send"))
        - out["cluster.protocol.encode_ms"])
    out["cluster.transport.recv_wait_ms"] = 1e3 * timed.record_per_op(
        "cluster.transport.recv", reduce=max)
    out["cluster.coordinator.merge_ms"] = 1e3 * timed.record_per_op(
        "cluster.coordinator.merge")
    if worker_traces:
        out["cluster.coordinator.run_ms"] = timed.op_ms()
        (out["cluster.worker.busy_ms"],
         out["cluster.worker.idle_share"]) = _worker_busy(timed,
                                                         worker_traces)

    out["bench.trace.overhead_share"] = _ratio(
        traced_p50_ms, untraced_p50_ms) - 1.0 if untraced_p50_ms else 0.0
    out["bench.machine.speed_factor_p50"] = factor_p50
    unknown = set(facts) - set(out)
    if unknown:
        raise KeyError(f"facts outside PER_LAYER: {sorted(unknown)}")
    out.update(facts)
    return out
