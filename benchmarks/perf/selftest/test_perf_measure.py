"""The measurement rules: normalisation, tail rule, inputs, spellings."""

import json
import re
from pathlib import Path

import pytest

import layers
import measure
import tracing
import world
import workloads
from calibrate import CALIB_REF_S

PERF = Path(__file__).resolve().parents[1]
ROOT = PERF.parents[1]


class SlowedBox:
    """A fake clock on a box that runs everything ``slowdown`` x slower."""

    def __init__(self, slowdown: float) -> None:
        self.slowdown = slowdown
        self.now = 0.0

    def clock(self) -> float:
        return self.now

    def calibrate(self) -> float:
        self.now += CALIB_REF_S * self.slowdown
        return CALIB_REF_S * self.slowdown

    def op(self, cost_s: float):
        def run():
            self.now += cost_s * self.slowdown
        return run


def _metrics(slowdown: float):
    box = SlowedBox(slowdown)
    sampler = measure.Sampler(clock=box.clock, calibrate=box.calibrate)
    costs = [0.2 + 0.01 * (i % 7) for i in range(60)]
    samples = [sampler.sample(box.op(cost))[0] for cost in costs]
    setup = measure.median_sample(samples[:5])
    return measure.summarise(samples, 1200, 80), setup


def test_uniform_slowdown_leaves_normalised_metrics_unchanged():
    (base, base_setup), (slow, slow_setup) = _metrics(1.0), _metrics(1.5)
    for name in ("throughput_per_s", "latency_p50_ms", "latency_tail_ms"):
        assert slow[name] == pytest.approx(base[name], rel=1e-12)
    assert slow_setup["norm_s"] == pytest.approx(base_setup["norm_s"])
    # ... while the raw twins carry the slowdown, so raw = normalised x
    # factor stays recoverable.
    assert slow["wall.latency_p50_ms"] == pytest.approx(
        1.5 * base["wall.latency_p50_ms"])
    assert slow["wall.throughput_per_s"] == pytest.approx(
        base["wall.throughput_per_s"] / 1.5)
    assert slow_setup["wall_s"] == pytest.approx(1.5 * base_setup["wall_s"])


@pytest.mark.parametrize("n_samples, expected", [
    (50, 80), (100, 90), (200, 95), (900, 95), (1000, 99)])
def test_tail_rule_keeps_ten_samples_beyond(n_samples, expected):
    assert measure.tail_percentile(n_samples) == expected


def test_each_workload_reports_the_tail_its_sample_floor_supports():
    for workload in workloads.WORKLOADS.values():
        floor = [phase.min_samples for phase in workload.phases
                 if phase.latency][0]
        assert measure.tail_percentile(floor) == workload.tail_pct


def test_percentile_interpolates_like_numpy():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert measure.percentile(values, 50) == 3.0
    assert measure.percentile(values, 90) == pytest.approx(4.6)
    assert measure.percentile(values, 0) == 1.0


def test_world_is_stable_for_a_seed_and_differs_across_seeds():
    first = world.world_digest(7, world.SMOKE)
    assert first == world.world_digest(7, world.SMOKE)
    assert first != world.world_digest(8, world.SMOKE)


def test_benchmark_files_use_only_the_spellings_the_roadmap_keeps():
    dash = "--"
    banned = [r"\bimport\s+bench_", r"\bfrom\s+bench_", r"_help" + "ers",
              r"\bparallel\s*=", r"\bcluster\s*=", dash + "parallel",
              r"format_version\s*=\s*[12]\b"]
    offenders = [
        (path.name, pattern)
        for path in PERF.rglob("*.py") if path != Path(__file__)
        for pattern in banned if re.search(pattern, path.read_text())]
    assert offenders == []


def test_benchmark_json_lists_what_the_runner_emits():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["benchmarks/perf"]
    assert [w["name"] for w in spec["workloads"]] == list(
        workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == list(layers.PER_LAYER)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "throughput_per_s", "latency_p50_ms",
        "latency_tail_ms", "peak_rss_mb"}


def test_self_time_is_span_minus_children():
    trace = tracing.Trace()
    with trace("ops", 0) as op:
        with trace.tracer.span("outer"):
            with trace.tracer.span("inner"):
                pass
            with trace.tracer.span("inner"):
                pass
    selfs = trace.self_times(op)
    spans = {name: trace.tracer.spans(name) for name in ("outer", "inner")}
    inner = sum(span.duration_s for span in spans["inner"])
    outer = spans["outer"][0].duration_s
    assert selfs["inner"] == pytest.approx(inner)
    assert selfs["outer"] == pytest.approx(outer - inner)
    assert sum(selfs.values()) == pytest.approx(op.duration_s)


def test_a_vanished_trace_target_is_skipped_not_fatal(capsys):
    trace = tracing.Trace()
    trace._patch("core.gone", "repro.core.batch", "no_such_callable",
                 trace._span_wrapper)
    trace._patch("core.gone", "repro.no_such_module", "f",
                 trace._span_wrapper)
    assert len(trace.skipped) == 2
    assert "skipping core.gone" in capsys.readouterr().err
    trace.uninstall()


def test_install_patches_where_callers_resolve_and_uninstall_restores():
    import repro.serving.nrt as nrt_module
    from repro.core.fast_inference import LeafBatchRunner

    before = (nrt_module.batch_recommend, LeafBatchRunner.run_indexed)
    trace = tracing.Trace()
    trace.install()
    try:
        assert nrt_module.batch_recommend is not before[0]
        assert LeafBatchRunner.run_indexed is not before[1]
        assert trace.skipped == []
    finally:
        trace.uninstall()
    assert (nrt_module.batch_recommend,
            LeafBatchRunner.run_indexed) == before
