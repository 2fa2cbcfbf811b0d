"""Throughput bake-off: vectorized leaf-batched engine vs scalar loop.

Runs the same large batch through ``engine="reference"`` (per-item
``model.recommend`` loop) and ``engine="fast"``
(:class:`repro.core.fast_inference.LeafBatchRunner`), verifies the two
outputs are element-wise identical, and reports items/s plus the
speedup.  This is the engine-equivalence smoke; performance claims are
made against ``benchmarks/perf/`` (see its README), not this table.

Usage::

    PYTHONPATH=src python benchmarks/bench_fast_engine.py            # full
    PYTHONPATH=src python benchmarks/bench_fast_engine.py --items 800 --repeat 1

Unlike the figure/table benches this is a standalone script (no
pytest-benchmark session needed) so the smoke run stays cheap.
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
                repeat: int):
    """Best-of-``repeat`` wall time and the (last) result dict."""
    best = float("inf")
    result = None
    for _ in range(repeat):
        start = time.perf_counter()
        result = batch_recommend(model, requests, k=k,
                                 hard_limit=hard_limit, engine=engine)
        best = min(best, time.perf_counter() - start)
    return best, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--items", type=int, default=6000)
    parser.add_argument("--leaves", type=int, default=12)
    parser.add_argument("--phrases-per-leaf", type=int, default=400)
    parser.add_argument("-k", type=int, default=20)
    parser.add_argument("--hard-limit", type=int, default=40)
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

    ref_time, ref_out = time_engine(model, requests, "reference", args.k,
                                    args.hard_limit, args.repeat)
    fast_time, fast_out = time_engine(model, requests, "fast", args.k,
                                      args.hard_limit, args.repeat)
    if ref_out != fast_out:
        diff = [i for i in ref_out if ref_out[i] != fast_out[i]]
        print(f"ENGINE MISMATCH on {len(diff)} items, e.g. {diff[:3]}")
        return 1

    speedup = ref_time / fast_time if fast_time else float("inf")
    table = render_table(
        ["engine", "batch time (ms)", "items/s", "speedup"],
        [["reference", ref_time * 1e3, len(requests) / ref_time, 1.0],
         ["fast", fast_time * 1e3, len(requests) / fast_time, speedup]],
        title=f"Fast engine bake-off — {len(requests)} items, "
              f"k={args.k} (outputs verified identical)")
    RESULTS_DIR.mkdir(exist_ok=True)
    emit(RESULTS_DIR, "fast_engine", table)

    if speedup < args.min_speedup:
        print(f"speedup {speedup:.2f}x below required "
              f"{args.min_speedup:.2f}x")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
