"""Run the benchmark: four workloads, each in a fresh subprocess.

    python benchmarks/perf/run.py --seed S [--workload W] [--seconds N]
                                  [--trace 0|1] [--out F] [--smoke]

Prints every metric by name with its unit and the operations attempted
and failed, checks every output against the oracle, and ends with one
JSON object on the last line of stdout::

    {"correct": true, "attempted": 71, "failed": 0,
     "metrics": {"latency_p50_ms": {"value": 281.3, "unit": "ms"}, ...}}

``--trace 0`` (default) reports the end-to-end metrics from an untraced
run; ``--trace 1`` reruns with the bench-side wrappers of
``tracing.py`` installed and reports the per-layer metrics instead.
With one ``--workload`` the metric names are bare; without, all four
run and names are prefixed ``<workload>.``.  ``--out`` writes the full
record: normalised values, their raw ``wall.*`` twins, the machine's
speed factors, sample counts and (traced) every span.

The runner pins the environment (hash seed, one BLAS thread) and keeps
every file it writes inside the checkout, under ``.perfbench_work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
WORK = ROOT / ".perfbench_work"
DEFAULT_SEED = 20250
#: Together under the 180 s a run may take.
STAGE_TIMEOUT_S = {"generate": 40, "measure": 130}

#: glibc decides at run time, from the history of frees, whether the
#: engine's multi-megabyte temporaries come from the heap or from a
#: fresh mmap that is page-faulted in and unmapped again on every op; a
#: fresh process lands on either side, 15 % apart.  Pinning the
#: thresholds keeps freed memory in the heap, as in a long-lived
#: server.
PINNED_ENV = {"PYTHONHASHSEED": "0", "OMP_NUM_THREADS": "1",
              "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "MALLOC_MMAP_THRESHOLD_": str(1 << 30),
              "MALLOC_TRIM_THRESHOLD_": str(1 << 30),
              "MALLOC_TOP_PAD_": str(1 << 28)}


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of each timed region (default: "
                             "run_seconds of BENCHMARK.json; 1.5 with "
                             "--smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        nargs="?", const=1)
    parser.add_argument("--out", default=None, metavar="FILE")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny world, short regions, every workload "
                             "untraced and traced")
    parser.add_argument("--stage", choices=("generate", "measure"),
                        default=None, help=argparse.SUPPRESS)
    parser.add_argument("--workdir", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--profile", default="full",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# Stages: each runs one workload's half in a fresh interpreter.  Inputs
# are generated in one process and measured in another, so the measured
# process's peak memory is the program's and not the generator's.


def stage_generate(args: argparse.Namespace) -> int:
    sys.path.insert(0, str(HERE))
    import world
    from workloads import WORKLOADS

    workdir = Path(args.workdir)
    workload = WORKLOADS[args.workload](
        args.seed, world.PROFILES[args.profile], workdir)
    with open(workdir / "inputs.pkl", "wb") as handle:
        pickle.dump(workload.generate(), handle)
    return 0


def stage_measure(args: argparse.Namespace) -> int:
    sys.path.insert(0, str(HERE))
    import layers
    import tracing
    import world
    from calibrate import BENCHMARK_VERSION
    from measure import Sampler, median_sample, summarise
    from repro.core.serialization import load_model, model_size_bytes
    from workloads import (WORKLOADS, RunLog, cold_starts, run_phases,
                           self_rss_mb)

    profile = world.PROFILES[args.profile]
    workdir = Path(args.workdir)
    trace = tracing.Trace() if args.trace else None
    workload = WORKLOADS[args.workload](args.seed, profile, workdir,
                                        trace=trace)
    if workload.single_cpu and hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sampler = Sampler()
    log, reference = RunLog(), RunLog()
    try:
        # Only ever bytes the generate stage of this run just wrote.
        with open(workdir / "inputs.pkl", "rb") as handle:
            workload.attach(pickle.load(handle))
        if trace is None:
            cold_starts(workload, sampler, log)
            run_phases(workload, args.seconds, sampler, log)
        else:
            # Cold starts traced (they carry the open / first-batch
            # layers), then a short untraced stretch as the overhead
            # reference, then the traced stretch.
            trace.install()
            cold_starts(workload, sampler, log, span=trace)
            trace.uninstall()
            run_phases(workload, 0.3 * args.seconds, sampler, reference,
                       min_scale=0.3)
            trace.install()
            run_phases(workload, 0.7 * args.seconds, sampler, log,
                       min_scale=0.7, span=trace)
            trace.uninstall()
            log.attempted += reference.attempted
            log.failed += reference.failed
        rss_mb = self_rss_mb()
        facts = workload.layer_facts()
        log.failed += workload.finish()
        if trace is not None:
            # The copied (non-mmap) open, probed once for comparison.
            copied_open, _model = sampler.sample(
                lambda: load_model(workload.probe_artifact()))
            artifact_bytes = model_size_bytes(workload.probe_artifact())
        workload.teardown()
        rss_mb += workload.children_rss_mb()

        if not (log.setup and log.ops and log.latencies):
            print("no op survived verification", file=sys.stderr)
            return 1
        timing = summarise(log.ops, workload.units_per_op,
                           workload.tail_pct, log.latencies)
        setup = median_sample(log.setup)
        factor_p50 = statistics.median(sampler.factors)
        detail = {
            "benchmark_version": BENCHMARK_VERSION,
            "profile": profile.name, "seed": args.seed,
            "seconds": args.seconds, "units": workload.units,
            "units_per_op": workload.units_per_op,
            "tail_percentile": workload.tail_pct,
            "n_setup_samples": len(log.setup),
            "n_op_samples": len(log.ops),
            "n_latency_samples": len(log.latencies),
            "wall.setup_s": setup["wall_s"],
            **{key: value for key, value in timing.items()
               if key.startswith("wall.")},
            "bench.machine.speed_factor_p50": factor_p50,
            "bench.machine.speed_factor_max": max(sampler.factors),
            "samples": {name: [[s.wall_s, s.factor] for s in samples]
                        for name, samples in (
                            ("setup", log.setup), ("ops", log.ops),
                            ("latencies", log.latencies))},
        }
        if trace is None:
            values = {"setup_s": setup["norm_s"],
                      "throughput_per_s": timing["throughput_per_s"],
                      "latency_p50_ms": timing["latency_p50_ms"],
                      "latency_tail_ms": timing["latency_tail_ms"],
                      "peak_rss_mb": rss_mb}
        else:
            values = layers.layer_metrics(
                trace=trace, facts=facts,
                traced_p50_ms=timing["latency_p50_ms"],
                untraced_p50_ms=1e3 * statistics.median(
                    s.norm_s for s in reference.latencies)
                if reference.latencies else 0.0,
                factor_p50=factor_p50,
                copied_open=copied_open, artifact_bytes=artifact_bytes,
                worker_traces=workload.worker_trace_paths())
            analysis = tracing.Analysis(trace)
            detail["bench.trace.selftime_coverage"] = \
                analysis.selftime_coverage()
            detail["bench.trace.skipped"] = trace.skipped
            detail["trace"] = trace.export()
        print(json.dumps({
            "workload": workload.name, "correct": log.failed == 0,
            "attempted": log.attempted, "failed": log.failed,
            "values": values, "detail": detail}))
        return 0
    finally:
        workload.teardown()


# ---------------------------------------------------------------------------
# Parent: spawn, collect, validate, print


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                      else []))
    env["TMPDIR"] = str(WORK)
    return env


def run_stage(stage: str, workload: str, stage_args: List[str]) -> str:
    """Run one stage in a fresh interpreter; returns its stdout."""
    argv = [sys.executable, str(Path(__file__).resolve()),
            "--stage", stage, "--workload", workload, *stage_args]
    proc = subprocess.Popen(argv, env=child_env(), stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=STAGE_TIMEOUT_S[stage])
    except subprocess.TimeoutExpired:
        # The stage leads its own session: take its workers with it.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise SystemExit(f"{workload}: {stage} stage gave no result "
                         f"within {STAGE_TIMEOUT_S[stage]}s")
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: {stage} stage exited "
                         f"{proc.returncode}")
    return stdout


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 profile: str) -> dict:
    """Generate, then measure, one workload; returns its record."""
    workdir = WORK / f"{workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    stage_args = ["--workdir", str(workdir), "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace),
                  "--profile", profile]
    try:
        run_stage("generate", workload, stage_args)
        stdout = run_stage("measure", workload, stage_args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return json.loads(stdout.strip().splitlines()[-1])


def metric_units(spec: dict, trace: int) -> Dict[str, str]:
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {metric["name"]: metric["unit"] for metric in section}


def validate(record: dict, spec: dict, trace: int) -> None:
    """The emitted names must be exactly the ones BENCHMARK.json lists."""
    names = {workload["name"] for workload in spec["workloads"]}
    if record["workload"] not in names:
        raise SystemExit(f"workload {record['workload']!r} is not in "
                         "BENCHMARK.json")
    expected = set(metric_units(spec, trace))
    emitted = set(record["values"])
    if emitted != expected:
        raise SystemExit(
            f"{record['workload']}: metrics differ from BENCHMARK.json: "
            f"missing {sorted(expected - emitted)}, "
            f"unlisted {sorted(emitted - expected)}")


def machine_fingerprint() -> dict:
    sys.path.insert(0, str(HERE))
    import numpy

    from calibrate import calibrate
    return {"cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform(),
            "calibration_min_s": min(calibrate() for _ in range(20))}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir() or not SPEC_PATH.is_file():
        print("run.py needs the repository around it: src/repro and "
              "BENCHMARK.json", file=sys.stderr)
        return 2
    if args.stage == "generate":
        return stage_generate(args)
    if args.stage == "measure":
        return stage_measure(args)

    spec = load_spec()
    names = [workload["name"] for workload in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        print(f"unknown workload {args.workload!r}; expected one of "
              f"{names}", file=sys.stderr)
        return 2
    selected = [args.workload] if args.workload else names
    profile = "smoke" if args.smoke else "full"
    seconds = args.seconds if args.seconds is not None else (
        1.5 if args.smoke else float(spec["run_seconds"]))
    traces = (0, 1) if args.smoke else (args.trace,)

    records: List[dict] = []
    try:
        for trace in traces:
            for name in selected:
                record = run_workload(name, args.seed, seconds, trace,
                                      profile)
                validate(record, spec, trace)
                record["trace"] = trace
                records.append(record)
    finally:
        try:
            WORK.rmdir()          # unless another run is using it
        except OSError:
            pass

    metrics: Dict[str, dict] = {}
    for record in records:
        units = metric_units(spec, record["trace"])
        print(f"{record['workload']}"
              f"{' (traced)' if record['trace'] else ''}: "
              f"attempted={record['attempted']} "
              f"failed={record['failed']} "
              f"samples={record['detail']['n_latency_samples']} "
              f"p{record['detail']['tail_percentile']} tail, "
              f"speed factor "
              f"{record['detail']['bench.machine.speed_factor_p50']:.3f}")
        for name, value in record["values"].items():
            print(f"  {name} = {value:.6g} {units[name]}")
            key = name if len(selected) == 1 and not args.smoke \
                else f"{record['workload']}.{name}"
            metrics[key] = {"value": value, "unit": units[name]}

    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"seed": args.seed, "profile": profile,
                       "machine": machine_fingerprint(),
                       "runs": records}, handle, indent=1)
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
