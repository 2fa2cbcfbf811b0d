"""Construction bake-off: bulk builder vs scalar reference (Section IV-G).

The paper's operational claim is that GraphEx *constructs* in under a
minute while SGD training takes hours; ``bench_training_time.py``
reproduces the cross-model comparison.  This bench measures the
construct phase itself: the same keyphrase stats are curated and built
through the scalar reference pipeline (``curate(engine="reference")`` +
``construct(builder="reference")``) and the bulk pipeline
(``fast_curate`` + the array-native fast builder), the resulting models
are verified **bit-identical** (vocab id order, CSR arrays, label
arrays, pooled graph) and a sample batch is verified element-wise
identical through the inference engines, then keyphrases/s and the
speedup are reported.

Two dataset modes, like ``bench_fast_engine.py``'s synthetic world:

* ``--dataset synthetic`` (default) — a Section IV-G-*scale* workload:
  a meta category of ~100k keyphrases across overlapping per-leaf token
  pools (the paper's categories carry 10k-1M labels each, far beyond
  what the miniature session simulator yields).  The acceptance target
  for the fast builder is >= 4x here.
* ``--dataset simulated`` — the end-to-end pipeline input: aggregated
  stats from a simulated training window (same path as the CLI and the
  eval harness), sized by ``--profile``/``--events``.

``--executor`` picks the fast row's shard substrate.  ``--executor
process`` adds a row building whole-leaf shards in worker processes
(:class:`repro.core.execution.ProcessShardExecutor`, whose workers
hand their graphs back as zero-copy format-3 leaf bundles, per-shard
token caches merged afterwards); ``--executor cluster`` instead runs
them on a self-contained localhost fleet.  Either extra row is
verified bit-identical too, and its speedup over the thread path is
reported — measured, not asserted; the row includes pool/fleet
start-up and artifact staging and needs multiple physical cores to
win.

Every run also closes the **measurement loop** the execution plane
exists for: one build records per-leaf wall clock into a
:class:`repro.core.execution.CostModel`, the plan is recomputed on
those observed costs, and the JSON artifact carries the makespan ratio
as ``rebalance_gain`` (the fed-back build is verified bit-identical —
feedback moves work between shards, never changes its result).

A **model-open latency** section saves the built model as a format-3
artifact and times ``load_model(dir)`` (copied: every array and string
materialized) against ``load_model(dir, mmap=True)`` (read-only views
over the artifact file, strings decoded lazily).  The mapped model is
verified to serve byte-identical output first; the two open times land
in the table (``open/copied``, ``open/mmap``) and in the BENCH json as
``model_open_latency``.

Usage::

    PYTHONPATH=src python benchmarks/bench_model_build.py           # full
    PYTHONPATH=src python benchmarks/bench_model_build.py \
        --executor process --workers 4                # + process column
    PYTHONPATH=src python benchmarks/bench_model_build.py \
        --dataset simulated --profile tiny --events 6000 --repeat 1  # smoke

Like ``bench_fast_engine.py`` this is a standalone script (no
pytest-benchmark session) so the CI smoke run stays cheap.
"""

from __future__ import annotations

import argparse
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))  # for _helpers
from _helpers import RESULTS_DIR, emit, emit_bench_json

from repro.core.batch import batch_recommend
from repro.core.curation import CurationConfig, curate, fast_curate
from repro.core.model import GraphExModel
from repro.core.serialization import load_model, save_model
from repro.data.generator import DEFAULT_PROFILE, TINY_PROFILE, \
    generate_dataset
from repro.eval.reporting import render_table
from repro.search.logs import KeyphraseStat
from repro.search.sessions import SessionSimulator

_PROFILES = {"tiny": TINY_PROFILE, "default": DEFAULT_PROFILE}


def simulate_stats(profile_name: str, n_events: int, seed: int):
    """The end-to-end pipeline input: aggregated keyphrase stats from a
    simulated training window (same path as the CLI/harness)."""
    dataset = generate_dataset(_PROFILES[profile_name])
    simulator = SessionSimulator(dataset.catalog, dataset.queries,
                                 seed=seed)
    log = simulator.run_training_window(n_events=n_events)
    return log.keyphrase_stats()


def synthetic_stats(n_leaves: int, phrases_per_leaf: int, seed: int):
    """A Section IV-G-scale meta category.

    Each leaf draws its phrases from a leaf-local token pool sampled
    from a shared vocabulary, so vocabularies overlap across leaves the
    way marketplace categories do; search counts follow a head-heavy
    distribution so curation thresholds bite realistically.
    """
    rng = np.random.default_rng(seed)
    vocab = np.array([f"tok{i}" for i in range(80 * max(1, n_leaves))])
    stats = []
    for leaf_id in range(1, n_leaves + 1):
        pool = rng.choice(vocab, size=min(400, len(vocab)), replace=False)
        seen = set()
        for _ in range(phrases_per_leaf):
            n = int(rng.integers(1, 7))
            text = " ".join(rng.choice(pool, size=n, replace=False))
            if text in seen:
                continue
            seen.add(text)
            stats.append(KeyphraseStat(
                text=text, leaf_id=leaf_id,
                search_count=int(rng.zipf(1.3) % 10_000) + 1,
                recall_count=int(rng.integers(1, 1000))))
    return stats


def best_of(fn, repeat: int):
    """Best-of-``repeat`` wall time and the last result."""
    best = float("inf")
    result = None
    for _ in range(repeat):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def assert_identical_models(reference: GraphExModel,
                            fast: GraphExModel) -> None:
    assert fast.leaf_ids == reference.leaf_ids, "leaf ids differ"
    pairs = [(reference.leaf_graph(i), fast.leaf_graph(i))
             for i in reference.leaf_ids]
    if reference.pooled_graph is not None or fast.pooled_graph is not None:
        pairs.append((reference.pooled_graph, fast.pooled_graph))
    for ref_leaf, fast_leaf in pairs:
        assert fast_leaf.word_vocab.tokens == ref_leaf.word_vocab.tokens
        assert np.array_equal(fast_leaf.graph.indptr, ref_leaf.graph.indptr)
        assert np.array_equal(fast_leaf.graph.indices,
                              ref_leaf.graph.indices)
        assert fast_leaf.label_texts == ref_leaf.label_texts
        assert np.array_equal(fast_leaf.label_lengths,
                              ref_leaf.label_lengths)
        assert np.array_equal(fast_leaf.search_counts,
                              ref_leaf.search_counts)
        assert np.array_equal(fast_leaf.recall_counts,
                              ref_leaf.recall_counts)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dataset", choices=["synthetic", "simulated"],
                        default="synthetic")
    parser.add_argument("--leaves", type=int, default=8,
                        help="synthetic: leaf categories")
    parser.add_argument("--phrases-per-leaf", type=int, default=15_000,
                        help="synthetic: keyphrases drawn per leaf")
    parser.add_argument("--profile", choices=_PROFILES, default="default",
                        help="simulated: dataset profile")
    parser.add_argument("--events", type=int, default=400_000,
                        help="simulated: training-window events")
    parser.add_argument("--min-search-count", type=int, default=2)
    parser.add_argument("--min-keyphrases", type=int, default=300)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--executor",
                        choices=["serial", "thread", "process",
                                 "cluster"],
                        default="thread",
                        help="shard substrate for the fast row; "
                             "'process' and 'cluster' additionally get "
                             "their own comparison row against the "
                             "thread baseline (bit-identical model)")
    parser.add_argument("--process-workers", type=int, default=0,
                        help="workers for the process/cluster row "
                             "(default: max(2, --workers))")
    parser.add_argument("--pooled", action="store_true",
                        help="also build the pooled all-leaves graph")
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--seed", type=int, default=43)
    parser.add_argument("--min-speedup", type=float, default=0.0,
                        help="exit nonzero if the construct speedup "
                             "falls below this")
    args = parser.parse_args(argv)

    if args.dataset == "synthetic":
        stats = synthetic_stats(args.leaves, args.phrases_per_leaf,
                                args.seed)
        world = (f"synthetic, {args.leaves} leaves x "
                 f"{args.phrases_per_leaf} draws")
    else:
        stats = simulate_stats(args.profile, args.events, args.seed)
        world = f"{args.profile} profile, {args.events} events"
    config = CurationConfig(min_search_count=args.min_search_count,
                            min_keyphrases=args.min_keyphrases,
                            floor_search_count=2)
    print(f"world: {len(stats)} keyphrase stats ({world})")

    cur_ref_time, curated_ref = best_of(
        lambda: curate(stats, config, engine="reference"), args.repeat)
    cur_fast_time, curated_fast = best_of(
        lambda: fast_curate(stats, config), args.repeat)
    if (curated_ref.effective_threshold != curated_fast.effective_threshold
            or list(curated_ref.leaves) != list(curated_fast.leaves)
            or any(curated_ref.leaves[i].texts != curated_fast.leaves[i].texts
                   for i in curated_ref.leaves)):
        print("CURATION MISMATCH between engines")
        return 1

    n_keyphrases = curated_ref.n_keyphrases
    print(f"curated: {n_keyphrases} keyphrases across "
          f"{len(curated_ref.leaves)} leaves "
          f"(threshold {curated_ref.effective_threshold})")

    build_ref_time, model_ref = best_of(
        lambda: GraphExModel.construct(curated_ref, builder="reference",
                                       build_pooled=args.pooled),
        args.repeat)
    build_fast_time, model_fast = best_of(
        lambda: GraphExModel.construct(curated_fast, builder="fast",
                                       build_pooled=args.pooled,
                                       workers=args.workers),
        args.repeat)
    assert_identical_models(model_ref, model_fast)

    executor = args.executor
    build_proc_time = None
    process_workers = args.process_workers or max(2, args.workers)
    if executor in ("process", "cluster"):
        if executor == "cluster":
            from repro.core.execution import ClusterExecutor

            backend = ClusterExecutor.local(workers=process_workers)
        else:
            backend = executor
        try:
            build_proc_time, model_proc = best_of(
                lambda: GraphExModel.construct(
                    curated_fast, builder="fast",
                    build_pooled=args.pooled,
                    workers=process_workers, executor=backend),
                args.repeat)
        finally:
            if not isinstance(backend, str):
                backend.close()
        assert_identical_models(model_ref, model_proc)

    # The measurement loop the execution plane closes: build once on
    # the char-count proxy while *recording* per-leaf wall clock, then
    # plan again on the recorded CostModel.  rebalance_gain is the
    # makespan ratio of the two plans under observed costs (> 1 means
    # the fed-back plan shrank the critical-path shard), and the
    # fed-back build must stay bit-identical — feedback moves work
    # between shards, never changes its result.
    from repro.core.execution import (ThreadShardExecutor,
                                      plan_rebalance_gain)
    from repro.core.sharding import ShardPlan, construction_proxy

    from repro.obs import MetricsRegistry

    rebalance_workers = max(2, args.workers)
    recorder = ThreadShardExecutor(rebalance_workers,
                                   metrics=MetricsRegistry())
    GraphExModel.construct(curated_fast, builder="fast",
                           build_pooled=args.pooled, executor=recorder)
    rebalance_gain = plan_rebalance_gain(
        recorder.cost_model, construction_proxy(curated_fast),
        rebalance_workers)
    proxy_plan = ShardPlan.for_construction(curated_fast,
                                            rebalance_workers)
    fed_plan = ShardPlan.for_construction(
        curated_fast, rebalance_workers,
        cost_model=recorder.cost_model)
    model_fed = GraphExModel.construct(
        curated_fast, builder="fast", build_pooled=args.pooled,
        executor=ThreadShardExecutor(rebalance_workers,
                                     cost_model=recorder.cost_model))
    assert_identical_models(model_ref, model_fed)
    gain_text = "n/a (nothing to rebalance)" if rebalance_gain is None \
        else f"{rebalance_gain:.3f}x"
    print(f"rebalance gain (observed-cost plan vs char proxy, "
          f"{rebalance_workers} shards): {gain_text}; "
          f"partition moved: {fed_plan.shards != proxy_plan.shards}; "
          f"fed-back model verified bit-identical")

    # End-to-end spot check: the built models serve identical output.
    requests = [(i, stat.text, stat.leaf_id)
                for i, stat in enumerate(stats[:500])]
    expected = batch_recommend(model_ref, requests, k=10)
    if batch_recommend(model_fast, requests, k=10) != expected:
        print("MODEL MISMATCH: built models serve different output")
        return 1

    # Model-open latency: persist once as a format-3 artifact, then
    # time a full copied load against a zero-copy mmap open.  The mmap
    # open touches only metadata (arrays stay file-backed, strings
    # decode lazily), so it should win by orders of magnitude — and
    # its model must serve byte-identically before the number counts.
    artifact = Path(tempfile.mkdtemp(prefix="graphex-bench-model-"))
    try:
        save_model(model_fast, artifact / "model", format_version=3)
        open_copied_time, model_copied = best_of(
            lambda: load_model(artifact / "model"), args.repeat)
        open_mmap_time, model_mapped = best_of(
            lambda: load_model(artifact / "model", mmap=True),
            args.repeat)
        if batch_recommend(model_mapped, requests, k=10) != expected \
                or batch_recommend(model_copied, requests, k=10) \
                != expected:
            print("MODEL MISMATCH: reopened artifact serves "
                  "different output")
            return 1
    finally:
        shutil.rmtree(artifact, ignore_errors=True)
    open_speedup = open_copied_time / open_mmap_time if open_mmap_time \
        else float("inf")

    cur_speedup = cur_ref_time / cur_fast_time if cur_fast_time \
        else float("inf")
    build_speedup = build_ref_time / build_fast_time if build_fast_time \
        else float("inf")
    total_ref = cur_ref_time + build_ref_time
    total_fast = cur_fast_time + build_fast_time
    rows = [
        ["curate/reference", cur_ref_time * 1e3,
         len(stats) / cur_ref_time, 1.0],
        ["curate/fast", cur_fast_time * 1e3,
         len(stats) / cur_fast_time, cur_speedup],
        ["construct/reference", build_ref_time * 1e3,
         n_keyphrases / build_ref_time, 1.0],
        ["construct/fast", build_fast_time * 1e3,
         n_keyphrases / build_fast_time, build_speedup],
        ["pipeline/reference", total_ref * 1e3,
         n_keyphrases / total_ref, 1.0],
        ["pipeline/fast", total_fast * 1e3,
         n_keyphrases / total_fast, total_ref / total_fast],
        ["open/copied", open_copied_time * 1e3,
         n_keyphrases / open_copied_time, 1.0],
        ["open/mmap", open_mmap_time * 1e3,
         n_keyphrases / open_mmap_time, open_speedup],
    ]
    if build_proc_time is not None:
        rows.insert(4, [f"construct/{executor} x{process_workers}",
                        build_proc_time * 1e3,
                        n_keyphrases / build_proc_time,
                        build_ref_time / build_proc_time
                        if build_proc_time else float("inf")])
        print(f"{executor} speedup over thread path: "
              f"{build_fast_time / build_proc_time:.2f}x "
              f"({process_workers} workers; >1x needs multiple cores)")
    table = render_table(
        ["stage", "time (ms)", "keyphrases/s", "speedup"], rows,
        title=f"Model-build bake-off — {n_keyphrases} keyphrases, "
              f"{model_ref.n_leaves} leaves, workers={args.workers}, "
              f"pooled={args.pooled} (models verified bit-identical)")
    RESULTS_DIR.mkdir(exist_ok=True)
    emit(RESULTS_DIR, "model_build", table)
    # Machine-readable artifact so the perf trajectory is tracked
    # across PRs (CI asserts it parses and the models were verified).
    emit_bench_json(RESULTS_DIR, "model_build", {
        "verified_identical": True,   # bit-identical models + served spot check
        "workers": args.workers,
        "executor": executor,
        "rebalance_gain": rebalance_gain,
        "rebalance_shards": rebalance_workers,
        "n_keyphrases": n_keyphrases,
        "n_stats": len(stats),
        "throughput": {row[0]: row[2] for row in rows},
        "speedup": {row[0]: row[3] for row in rows},
        "model_open_latency": {
            "copied_ms": open_copied_time * 1e3,
            "mmap_ms": open_mmap_time * 1e3,
            "speedup": open_speedup,
        },
        # The recording build's registry snapshot: per-shard construct
        # timings and plan-shape gauges for the rebalance experiment.
        "metrics": recorder.metrics.snapshot(),
    })

    if build_speedup < args.min_speedup:
        print(f"construct speedup {build_speedup:.2f}x below required "
              f"{args.min_speedup:.2f}x")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
