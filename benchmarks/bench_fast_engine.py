"""Throughput bake-off: vectorized leaf-batched engine vs scalar loop.

Runs the same large batch through ``engine="reference"`` (per-item
``model.recommend`` loop) and ``engine="fast"``
(:class:`repro.core.fast_inference.LeafBatchRunner`), verifies the two
outputs are element-wise identical, and reports items/s plus the
speedup.  The acceptance target for the engine is >= 3x on a >= 5k-item
batch; CI runs a tiny smoke profile of the same script.

``--executor`` picks the fast engine's shard substrate:
``serial``/``thread`` run in-process, while ``process``
(:class:`repro.core.execution.ProcessShardExecutor`) and ``cluster`` (a self-contained localhost fleet via
:meth:`repro.core.execution.ClusterExecutor.local`) each get an extra
comparison column against the thread baseline — measured, not
asserted.  Those columns include pool/fleet start-up and model
shipping, so they are honest end-to-end numbers; they need multiple
physical cores to win.

Usage::

    PYTHONPATH=src python benchmarks/bench_fast_engine.py            # full
    PYTHONPATH=src python benchmarks/bench_fast_engine.py \
        --executor process --workers 4                # + process column
    PYTHONPATH=src python benchmarks/bench_fast_engine.py --items 800 --repeat 1

Unlike the figure/table benches this is a standalone script (no
pytest-benchmark session needed) so the CI smoke run stays cheap.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))  # for _helpers
from _helpers import RESULTS_DIR, emit, emit_bench_json

from repro.core.batch import batch_recommend
from repro.core.curation import CuratedKeyphrases, CuratedLeaf, CurationConfig
from repro.core.model import GraphExModel
from repro.eval.reporting import render_table


def build_world(n_leaves: int, phrases_per_leaf: int, n_items: int,
                seed: int):
    """A synthetic meta category plus a batch of title requests.

    Titles are composed from each leaf's phrase tokens plus out-of-vocab
    noise, so enumeration sees realistic hit rates; a slice of requests
    targets unknown leaves to exercise the empty path.
    """
    rng = np.random.default_rng(seed)
    vocab = np.array([f"tok{i}" for i in range(60 * max(1, n_leaves))])
    leaves = {}
    leaf_tokens = {}
    for leaf_id in range(1, n_leaves + 1):
        pool = rng.choice(vocab, size=60, replace=False)
        leaf = CuratedLeaf(leaf_id=leaf_id)
        seen = set()
        for _ in range(phrases_per_leaf):
            n = int(rng.integers(1, 6))
            text = " ".join(rng.choice(pool, size=n, replace=False))
            if text in seen:
                continue
            seen.add(text)
            leaf.add(text, int(rng.integers(1, 1000)),
                     int(rng.integers(1, 1000)))
        leaves[leaf_id] = leaf
        leaf_tokens[leaf_id] = pool
    curated = CuratedKeyphrases(leaves=leaves, effective_threshold=1,
                                config=CurationConfig(min_search_count=1))
    model = GraphExModel.construct(curated, build_pooled=True)

    requests = []
    for item_id in range(n_items):
        leaf_id = int(rng.integers(1, n_leaves + 2))  # +1 unknown leaf
        pool = leaf_tokens.get(leaf_id, vocab)
        n = int(rng.integers(4, 13))
        words = list(rng.choice(pool, size=min(n, len(pool)),
                                replace=False))
        if rng.random() < 0.5:
            words.append("oov" + str(rng.integers(0, 50)))
        requests.append((item_id, " ".join(words), leaf_id))
    return model, requests


def time_engine(model, requests, engine: str, k: int, hard_limit,
                workers: int, repeat: int, executor="thread"):
    """Best-of-``repeat`` wall time and the (last) result dict."""
    best = float("inf")
    result = None
    for _ in range(repeat):
        start = time.perf_counter()
        result = batch_recommend(model, requests, k=k,
                                 hard_limit=hard_limit, workers=workers,
                                 engine=engine, executor=executor)
        best = min(best, time.perf_counter() - start)
    return best, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--items", type=int, default=6000)
    parser.add_argument("--leaves", type=int, default=12)
    parser.add_argument("--phrases-per-leaf", type=int, default=400)
    parser.add_argument("-k", type=int, default=20)
    parser.add_argument("--hard-limit", type=int, default=40)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--executor",
                        choices=["serial", "thread", "process",
                                 "cluster"],
                        default="thread",
                        help="shard substrate for the fast column; "
                             "'process' and 'cluster' additionally get "
                             "their own comparison column against the "
                             "thread baseline (identical output)")
    parser.add_argument("--process-workers", type=int, default=0,
                        help="workers for the process/cluster column "
                             "(default: max(2, --workers))")
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--min-speedup", type=float, default=0.0,
                        help="exit nonzero if fast/reference speedup "
                             "falls below this")
    args = parser.parse_args(argv)

    model, requests = build_world(args.leaves, args.phrases_per_leaf,
                                  args.items, args.seed)
    print(f"world: {model.n_leaves} leaves, {model.n_keyphrases} "
          f"keyphrases, {len(requests)} requests")

    executor = args.executor

    ref_time, ref_out = time_engine(model, requests, "reference", args.k,
                                    args.hard_limit, args.workers,
                                    args.repeat)
    baseline = executor if executor in ("serial", "thread") else "thread"
    fast_time, fast_out = time_engine(model, requests, "fast", args.k,
                                      args.hard_limit, args.workers,
                                      args.repeat, executor=baseline)

    if ref_out != fast_out:
        diff = [i for i in ref_out if ref_out[i] != fast_out[i]]
        print(f"ENGINE MISMATCH on {len(diff)} items, e.g. {diff[:3]}")
        return 1

    # Telemetry overhead column: same engine, same substrate, but the
    # executor records into a live MetricsRegistry instead of the
    # default NullRegistry.  Instrumentation must be cheap (the ISSUE
    # budget is 3%) and semantics-neutral — the output is verified
    # identical too.  Timing at this granularity flakes, so on an
    # apparent overspend both columns are re-measured (best-of) a few
    # times before the number is trusted.
    from repro.core.execution import resolve_executor
    from repro.obs import MetricsRegistry

    registry = MetricsRegistry()
    telemetry_executor = resolve_executor(baseline, workers=args.workers,
                                          metrics=registry)
    telem_time, telem_out = time_engine(model, requests, "fast", args.k,
                                        args.hard_limit, args.workers,
                                        args.repeat,
                                        executor=telemetry_executor)
    if telem_out != ref_out:
        diff = [i for i in ref_out if ref_out[i] != telem_out[i]]
        print(f"TELEMETRY MISMATCH on {len(diff)} items, "
              f"e.g. {diff[:3]}")
        return 1
    for _ in range(3):
        if telem_time <= fast_time * 1.03:
            break
        retry_off, _ = time_engine(model, requests, "fast", args.k,
                                   args.hard_limit, args.workers,
                                   args.repeat, executor=baseline)
        retry_on, _ = time_engine(model, requests, "fast", args.k,
                                  args.hard_limit, args.workers,
                                  args.repeat,
                                  executor=telemetry_executor)
        fast_time = min(fast_time, retry_off)
        telem_time = min(telem_time, retry_on)
    telemetry_overhead = telem_time / fast_time if fast_time \
        else float("inf")

    speedup = ref_time / fast_time if fast_time else float("inf")
    rows = [
        ["reference", ref_time * 1e3, len(requests) / ref_time, 1.0],
        [f"fast/{baseline}", fast_time * 1e3, len(requests) / fast_time,
         speedup],
        [f"fast/{baseline}+telemetry", telem_time * 1e3,
         len(requests) / telem_time,
         ref_time / telem_time if telem_time else float("inf")],
    ]
    if executor in ("process", "cluster"):
        process_workers = args.process_workers or max(2, args.workers)
        if executor == "cluster":
            from repro.core.execution import ClusterExecutor

            backend = ClusterExecutor.local(workers=process_workers)
        else:
            backend = executor
        try:
            proc_time, proc_out = time_engine(
                model, requests, "fast", args.k, args.hard_limit,
                process_workers, args.repeat, executor=backend)
        finally:
            if not isinstance(backend, str):
                backend.close()
        if proc_out != ref_out:
            diff = [i for i in ref_out if ref_out[i] != proc_out[i]]
            print(f"{executor.upper()}-SHARD MISMATCH on {len(diff)} "
                  f"items, e.g. {diff[:3]}")
            return 1
        rows.append([f"fast/{executor} x{process_workers}",
                     proc_time * 1e3, len(requests) / proc_time,
                     ref_time / proc_time if proc_time else float("inf")])
        print(f"{executor} speedup over thread path: "
              f"{fast_time / proc_time:.2f}x "
              f"({process_workers} workers; >1x needs multiple cores)")
    table = render_table(
        ["engine", "batch time (ms)", "items/s", "speedup"], rows,
        title=f"Fast engine bake-off — {len(requests)} items, "
              f"k={args.k}, workers={args.workers} "
              f"(outputs verified identical)")
    RESULTS_DIR.mkdir(exist_ok=True)
    emit(RESULTS_DIR, "fast_engine", table)
    print(f"telemetry overhead: {telemetry_overhead:.4f}x "
          f"(budget 1.03x; registry recorded "
          f"{registry.counter_value('executor.inference.requests', executor=baseline)}"
          f" requests)")
    # Machine-readable artifact so the perf trajectory is tracked
    # across PRs (CI asserts it parses, the outputs were verified, and
    # telemetry stayed inside its overhead budget).
    emit_bench_json(RESULTS_DIR, "fast_engine", {
        "verified_identical": True,
        "workers": args.workers,
        "executor": executor,
        "items": len(requests),
        "k": args.k,
        "throughput": {row[0]: row[2] for row in rows},
        "speedup": {row[0]: row[3] for row in rows},
        "telemetry_overhead": telemetry_overhead,
        "telemetry_within_budget": telemetry_overhead <= 1.03,
        "metrics": registry.snapshot(),
    })

    if speedup < args.min_speedup:
        print(f"speedup {speedup:.2f}x below required "
              f"{args.min_speedup:.2f}x")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
