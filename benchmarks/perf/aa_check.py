"""A/A check: does the benchmark repeat within its own bounds?

Runs two interleaved sets (A1 B1 A2 B2 ...) of N runs of the *same*
checkout, every run on another seed as the acceptance driver does, and
prints per workload x end-to-end metric both medians, how much worse
the second is than the first, the spread of each set and of all 2N
runs (distance between the quartiles over the median) and the bound
from ``BENCHMARK.json``.
Exits non-zero when a second median is worse than the first by more
than the bound, or (``setup_s`` excepted) a spread exceeds it.

    python benchmarks/perf/aa_check.py [--runs 3] [--workload W]
                                       [--seed 20250] [--out FILE]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (sibling script, after the path insert)


def one_run(workload: str, seed: int, seconds: float) -> Dict[str, float]:
    """One untraced run of one workload; its end-to-end values."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, stdout=subprocess.PIPE, text=True,
                          check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} of "
                         f"{result['attempted']} ops failed")
    return {name: metric["value"]
            for name, metric in result["metrics"].items()}


def spread(values: List[float]) -> float:
    """Interquartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def worsening(first: float, second: float, better: str) -> float:
    """How much worse the second median is, as a share of the first."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=3,
                        help="runs per set")
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seed", type=int, default=run.DEFAULT_SEED,
                        help="seed of the first run; every further run "
                             "takes the next")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--out", default=None, metavar="FILE")
    args = parser.parse_args(argv)

    spec = run.load_spec()
    seconds = args.seconds if args.seconds is not None \
        else float(spec["run_seconds"])
    workloads = [args.workload] if args.workload else \
        [workload["name"] for workload in spec["workloads"]]
    report = {"runs_per_set": args.runs, "seconds": seconds,
              "machine": run.machine_fingerprint(), "rows": []}
    breaches = 0
    print(f"{'workload':16} {'metric':18} {'median A':>12} "
          f"{'median B':>12} {'B worse':>8} {'spread A':>9} "
          f"{'spread B':>9} {'spread 2N':>9} {'bound':>6}")
    for workload in workloads:
        sets: List[List[Dict[str, float]]] = [[], []]
        seed = args.seed
        for _ in range(args.runs):
            for values in sets:
                values.append(one_run(workload, seed, seconds))
                seed += 1
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            first, second = ([values[name] for values in one_set]
                             for one_set in sets)
            medians = statistics.median(first), statistics.median(second)
            worse = worsening(*medians, metric["better"])
            spreads = spread(first), spread(second), spread(first + second)
            breach = worse > bound or (name != "setup_s"
                                       and max(spreads) > bound)
            breaches += breach
            print(f"{workload:16} {name:18} {medians[0]:12.5g} "
                  f"{medians[1]:12.5g} {worse:+8.3f} {spreads[0]:9.3f} "
                  f"{spreads[1]:9.3f} {spreads[2]:9.3f} {bound:6.2f}"
                  f"{'  BREACH' if breach else ''}")
            report["rows"].append({
                "workload": workload, "metric": name, "unit":
                metric["unit"], "values_a": first, "values_b": second,
                "median_a": medians[0], "median_b": medians[1],
                "b_worse_by": worse, "spread_a": spreads[0],
                "spread_b": spreads[1], "spread_all": spreads[2],
                "bound": bound,
                "breach": bool(breach)})
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1)
    print(f"{breaches} breach(es)")
    return 1 if breaches else 0


if __name__ == "__main__":
    sys.exit(main())
