"""Seeded input generator of the benchmark (its own; shares nothing
with the older ``bench_*.py`` scripts, which later PRs may edit).

Everything the program receives is generated here from ``--seed``: the
curated keyphrases the serving model is built from, the catalog and
item universes the requests and events are drawn from, and the
search-log statistics the build workload curates.  Worlds are large
enough (tens of thousands of phrases) that two seeds give statistically
the same amount of work, so metrics compare across seeds.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.curation import (CuratedKeyphrases, CuratedLeaf,
                                 CurationConfig)
from repro.search.logs import KeyphraseStat

Request = Tuple[int, str, int]

#: Leaf ids start here; ``UNKNOWN_LEAF`` has no graph (pooled fallback).
FIRST_LEAF = 100
UNKNOWN_LEAF = 99

K = 20
HARD_LIMIT = 40
_POOL_TOKENS = 120
_VOCAB_PER_LEAF = 60


@dataclass(frozen=True)
class Profile:
    """Frozen sizes of one benchmark profile."""

    name: str
    serving_leaves: int
    serving_phrases: int
    catalog_items: int
    catalog_chunk: int
    build_leaves: int
    build_phrases: int
    build_requests: int
    nrt_universe: int
    nrt_segment_events: int      # per stream, per saturate segment
    nrt_rate: int                # events/s over both streams, paced
    nrt_paced_segment_s: float
    nrt_verify_items: int
    cluster_items: int
    cluster_chunk: int
    setup_reps: int
    cluster_setup_reps: int


#: Sizes frozen with BENCHMARK.json (nominal op time 0.2-0.6 s).
FULL = Profile(
    name="full", serving_leaves=24, serving_phrases=5000,
    catalog_items=9600, catalog_chunk=1200,
    build_leaves=12, build_phrases=4800, build_requests=256,
    nrt_universe=20_000, nrt_segment_events=256, nrt_rate=700,
    nrt_paced_segment_s=1.0, nrt_verify_items=3000,
    cluster_items=3200, cluster_chunk=400,
    setup_reps=5, cluster_setup_reps=3)

#: Tiny world that exercises every code path of the runner in seconds.
SMOKE = Profile(
    name="smoke", serving_leaves=4, serving_phrases=300,
    catalog_items=320, catalog_chunk=40,
    build_leaves=3, build_phrases=300, build_requests=32,
    nrt_universe=400, nrt_segment_events=64, nrt_rate=400,
    nrt_paced_segment_s=0.4, nrt_verify_items=200,
    cluster_items=160, cluster_chunk=20,
    setup_reps=2, cluster_setup_reps=1)

PROFILES = {profile.name: profile for profile in (FULL, SMOKE)}


class _Lexicon:
    """A token vocabulary with one overlapping token pool per leaf."""

    def __init__(self, rng: np.random.Generator, n_leaves: int) -> None:
        size = _VOCAB_PER_LEAF * max(2, n_leaves)
        self.vocab = np.array([f"tok{i}" for i in range(size)],
                              dtype=object)
        self.leaf_ids = list(range(FIRST_LEAF, FIRST_LEAF + n_leaves))
        self.pools = {leaf_id: rng.choice(size, size=_POOL_TOKENS,
                                          replace=False)
                      for leaf_id in self.leaf_ids}
        self.everything = np.arange(size)

    def draw(self, rng: np.random.Generator, pool: np.ndarray,
             lengths: np.ndarray) -> List[List[str]]:
        """``len(lengths)`` token lists without repeats from ``pool``."""
        width = int(lengths.max())
        # Row-wise sampling without replacement: the first ``width``
        # columns of a random permutation of the pool.
        picks = np.argpartition(rng.random((len(lengths), len(pool))),
                                width - 1, axis=1)[:, :width]
        rows = self.vocab[pool[picks]].tolist()
        return [row[:n] for row, n in zip(rows, lengths.tolist())]


def _phrases(rng: np.random.Generator, lexicon: _Lexicon, leaf_id: int,
             n_phrases: int) -> List[str]:
    lengths = rng.integers(1, 6, size=n_phrases)
    rows = lexicon.draw(rng, lexicon.pools[leaf_id], lengths)
    return list(dict.fromkeys(" ".join(row) for row in rows))


def _requests(rng: np.random.Generator, lexicon: _Lexicon, n_items: int,
              first_id: int = 0) -> List[Request]:
    """Item requests: titles of 4-12 leaf tokens, half with one
    out-of-vocabulary token, every 25th on a leaf that has no graph.

    Leaves are dealt round-robin, not drawn: how many items of a chunk
    fall back to the (much larger) pooled graph decides what the chunk
    costs, and a drawn share makes one chunk in eight a third dearer
    than its neighbours — on a different chunk for every seed.
    """
    known = np.asarray(lexicon.leaf_ids)[
        np.arange(n_items) % len(lexicon.leaf_ids)]
    leaves = np.where(np.arange(n_items) % 25 == 24, UNKNOWN_LEAF, known)
    lengths = rng.integers(4, 13, size=n_items)
    oov = np.where(rng.random(n_items) < 0.5,
                   rng.integers(0, 50, size=n_items), -1).tolist()
    titles: List[str] = [""] * n_items
    for leaf_id in np.unique(leaves).tolist():
        rows = np.flatnonzero(leaves == leaf_id)
        pool = lexicon.pools.get(leaf_id, lexicon.everything)
        for row, tokens in zip(rows.tolist(),
                               lexicon.draw(rng, pool, lengths[rows])):
            if oov[row] >= 0:
                tokens.append(f"oov{oov[row]}")
            titles[row] = " ".join(tokens)
    return [(first_id + i, titles[i], int(leaves[i]))
            for i in range(n_items)]


def _curated(leaves: Dict[int, CuratedLeaf]) -> CuratedKeyphrases:
    return CuratedKeyphrases(leaves=leaves, effective_threshold=1,
                             config=CurationConfig(min_search_count=1))


@dataclass
class ServingWorld:
    """Inputs of the three serving workloads.

    ``curated_b`` is the same phrase set with fresh search/recall
    counts: rankings differ, so serving under the wrong generation
    after a hot-swap is detectable.
    """

    curated_a: CuratedKeyphrases
    curated_b: CuratedKeyphrases
    catalog: List[Request]
    universes: Dict[str, List[Request]]


def serving_world(seed: int, profile: Profile,
                  streams: Sequence[str] = ()) -> ServingWorld:
    rng = np.random.default_rng([seed, 1])
    lexicon = _Lexicon(rng, profile.serving_leaves)
    leaves_a: Dict[int, CuratedLeaf] = {}
    leaves_b: Dict[int, CuratedLeaf] = {}
    for leaf_id in lexicon.leaf_ids:
        texts = _phrases(rng, lexicon, leaf_id, profile.serving_phrases)
        for leaves in (leaves_a, leaves_b):
            leaves[leaf_id] = CuratedLeaf(
                leaf_id, list(texts),
                rng.integers(1, 1000, len(texts)).tolist(),
                rng.integers(1, 1000, len(texts)).tolist())
    catalog = _requests(rng, lexicon, profile.catalog_items)
    universes = {
        name: _requests(rng, lexicon, profile.nrt_universe,
                        first_id=index * profile.nrt_universe)
        for index, name in enumerate(streams)}
    return ServingWorld(_curated(leaves_a), _curated(leaves_b), catalog,
                        universes)


@dataclass
class BuildWorld:
    """Inputs of the build workload: search-log stats to curate and the
    items the refreshed model is batch-loaded with."""

    stats: List[KeyphraseStat]
    config: CurationConfig
    requests: List[Request]


def build_world(seed: int, profile: Profile) -> BuildWorld:
    rng = np.random.default_rng([seed, 2])
    lexicon = _Lexicon(rng, profile.build_leaves)
    stats: List[KeyphraseStat] = []
    for leaf_id in lexicon.leaf_ids:
        texts = _phrases(rng, lexicon, leaf_id, profile.build_phrases)
        # Zipf search counts: about one phrase in ten was searched
        # once and falls under the curation threshold.
        search = np.minimum(rng.zipf(1.1, len(texts)), 10**6).tolist()
        recall = rng.integers(1, 1000, len(texts)).tolist()
        stats.extend(map(KeyphraseStat, texts, [leaf_id] * len(texts),
                         search, recall))
    return BuildWorld(stats, CurationConfig(min_search_count=2),
                      _requests(rng, lexicon, profile.build_requests))


def chunks(requests: Sequence[Request], size: int) -> List[List[Request]]:
    return [list(requests[i:i + size])
            for i in range(0, len(requests), size)]


def world_digest(seed: int, profile: Profile) -> str:
    """Stable hex digest of everything a seed generates under
    ``profile`` (``repr`` of plain data)."""
    serving = serving_world(seed, profile, ("s0", "s1"))
    build = build_world(seed, profile)
    parts = (
        [(leaf.leaf_id, leaf.texts, leaf.search_counts, leaf.recall_counts)
         for curated in (serving.curated_a, serving.curated_b)
         for leaf in curated.leaves.values()],
        serving.catalog, serving.universes, build.stats, build.requests)
    hasher = hashlib.blake2b(digest_size=16)
    for part in parts:
        hasher.update(repr(part).encode("utf-8"))
    return hasher.hexdigest()
