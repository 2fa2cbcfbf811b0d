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

This is the builder-equivalence smoke; performance claims (including
model-open latency) are made against ``benchmarks/perf/``, not this
table.

Usage::

    PYTHONPATH=src python benchmarks/bench_model_build.py           # full
    PYTHONPATH=src python benchmarks/bench_model_build.py \
        --dataset simulated --profile tiny --events 6000 --repeat 1  # smoke

Like ``bench_fast_engine.py`` this is a standalone script (no
pytest-benchmark session) so the smoke run stays cheap.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))  # for _helpers
from _helpers import RESULTS_DIR, emit

from repro.core.batch import batch_recommend
from repro.core.curation import CurationConfig, curate, fast_curate
from repro.core.model import GraphExModel
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
        assert list(fast_leaf.word_vocab) == list(ref_leaf.word_vocab)
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
                                       build_pooled=args.pooled),
        args.repeat)
    assert_identical_models(model_ref, model_fast)

    # End-to-end spot check: the built models serve identical output.
    requests = [(i, stat.text, stat.leaf_id)
                for i, stat in enumerate(stats[:500])]
    expected = batch_recommend(model_ref, requests, k=10)
    if batch_recommend(model_fast, requests, k=10) != expected:
        print("MODEL MISMATCH: built models serve different output")
        return 1

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
    ]
    table = render_table(
        ["stage", "time (ms)", "keyphrases/s", "speedup"], rows,
        title=f"Model-build bake-off — {n_keyphrases} keyphrases, "
              f"{model_ref.n_leaves} leaves, "
              f"pooled={args.pooled} (models verified bit-identical)")
    RESULTS_DIR.mkdir(exist_ok=True)
    emit(RESULTS_DIR, "model_build", table)

    if build_speedup < args.min_speedup:
        print(f"construct speedup {build_speedup:.2f}x below required "
              f"{args.min_speedup:.2f}x")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
