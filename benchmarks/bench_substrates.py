"""One-off substrate reading: where should a shard run on this box?

Backs the table in ``repro.core.execution.Executor``'s docstring.  Not
part of ``benchmarks/perf`` (no normalisation, no bounds, no driver):
it times the same three jobs on every execution substrate the checkout
it runs against still offers, and prints every run.

* bench serving world (``benchmarks/perf/world.py``, FULL profile,
  ``--seed``): ~98k keyphrases in 24 leaves, a 9600-item catalog;
* jobs: ``batch_recommend`` on 1200 and 7200 items against the
  *mapped* model, and ``GraphExModel.construct`` on the whole corpus;
* substrates: ``serial`` everywhere; ``thread`` × 2 and ``process`` × 2
  where ``resolve_executor`` still takes ``workers=`` (checkouts that
  still had the pools); ``fleet`` × 2 — ``ClusterExecutor.local(2)``
  held across calls — for inference only: construction runs in process
  and ``GraphExModel.construct`` refuses a fleet.  Fleet boot and the
  first call on a model (spool + open on every worker) are reported as
  ``setup``;
* protocol: ``--reps`` rounds, each round runs every substrate once in
  an order rotated per round (so no substrate always runs first or
  after the same neighbour), ``gc.collect()`` before each timing,
  outputs checked against serial once.  Report medians; to compare two
  checkouts run this script against each alternately
  (``PYTHONPATH=<checkout>/src``) and keep every pair.

Usage::

    PYTHONPATH=src python benchmarks/bench_substrates.py --reps 7
"""

from __future__ import annotations

import argparse
import gc
import inspect
import json
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent / "perf"))

import world  # noqa: E402  (benchmarks/perf/world.py)

from repro.core.batch import batch_recommend  # noqa: E402
from repro.core.execution import (ClusterExecutor,  # noqa: E402
                                  resolve_executor)
from repro.core.model import GraphExModel  # noqa: E402
from repro.core.serialization import load_model, save_model  # noqa: E402

K, HARD_LIMIT = world.K, world.HARD_LIMIT


def timed(fn):
    gc.collect()
    start = time.perf_counter()
    out = fn()
    return out, 1e3 * (time.perf_counter() - start)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--reps", type=int, default=7)
    parser.add_argument("--json", default=None,
                        help="append this run's record to a JSON-lines file")
    args = parser.parse_args(argv)

    generated = world.serving_world(args.seed, world.FULL)
    curated = generated.curated_a
    workdir = Path(tempfile.mkdtemp(prefix="substrates-"))
    artifact = save_model(GraphExModel.construct(curated, build_pooled=True),
                          workdir / "model")
    model = load_model(artifact, mmap=True)
    batches = {"inference_1200": generated.catalog[:1200],
               "inference_7200": generated.catalog[:7200]}

    pooled = "workers" in inspect.signature(resolve_executor).parameters
    substrates = {"serial": resolve_executor("serial")}
    if pooled:
        substrates["thread_x2"] = resolve_executor("thread", workers=2)
        substrates["process_x2"] = resolve_executor("process", workers=2)
    setup = {}
    fleet, setup["fleet_boot_ms"] = timed(lambda: ClusterExecutor.local(2))
    substrates["fleet_x2"] = fleet
    try:
        jobs = {name: (lambda executor, chunk=chunk: batch_recommend(
            model, chunk, k=K, hard_limit=HARD_LIMIT, executor=executor))
            for name, chunk in batches.items()}
        jobs["construct_98k"] = lambda executor: GraphExModel.construct(
            curated, executor=executor)

        def runs_on(name: str, label: str) -> bool:
            """Construction runs in process only; a fleet is refused."""
            return not (name == "construct_98k" and label == "fleet_x2")

        # Warm-up doubles as the correctness check and as the fleet's
        # first call on this model (spool it, open it on every worker).
        expected = {name: job(substrates["serial"])
                    for name, job in jobs.items() if name != "construct_98k"}
        for label, executor in substrates.items():
            for name, job in jobs.items():
                if not runs_on(name, label):
                    continue
                got, ms = timed(lambda: job(executor))
                if label == "fleet_x2":
                    setup[f"fleet_first_{name}_ms"] = ms
                if name in expected:
                    assert got == expected[name], (label, name)
                else:
                    assert got.n_keyphrases == model.n_keyphrases

        runs = {name: {label: [] for label in substrates
                       if runs_on(name, label)} for name in jobs}
        labels = list(substrates)
        for rep in range(args.reps):
            order = labels[rep % len(labels):] + labels[:rep % len(labels)]
            for name, job in jobs.items():
                for label in order:
                    if not runs_on(name, label):
                        continue
                    _out, ms = timed(lambda: job(substrates[label]))
                    runs[name][label].append(round(ms, 1))
    finally:
        fleet.close()
        shutil.rmtree(workdir, ignore_errors=True)

    record = {"seed": args.seed, "reps": args.reps,
              "n_keyphrases": model.n_keyphrases,
              "setup": {key: round(value, 1) for key, value in setup.items()},
              "runs_ms": runs,
              "median_ms": {name: {label: statistics.median(values)
                                   for label, values in by_label.items()}
                            for name, by_label in runs.items()}}
    print(f"seed {args.seed}, {model.n_keyphrases} keyphrases, "
          f"{args.reps} rotated rounds; setup {record['setup']}")
    for name, by_label in runs.items():
        serial = record["median_ms"][name]["serial"]
        for label, values in by_label.items():
            median = record["median_ms"][name][label]
            print(f"  {name:15s} {label:11s} median {median:7.1f} ms "
                  f"({serial / median:4.2f}x of serial)  runs {values}")
    if args.json:
        with open(args.json, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
