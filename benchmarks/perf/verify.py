"""Oracle checks, run outside every timed region.

The scalar reference engine and reference builder are the semantics
oracles of the repository; the benchmark holds each workload's outputs
to them, so a change that makes the program faster by making it wrong
fails here instead of posting a better number.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.core.batch import BatchResult, batch_recommend
from repro.core.curation import CuratedKeyphrases
from repro.core.model import GraphExModel, LeafGraph

from world import HARD_LIMIT, K, Request


def result_digest(result: Mapping[int, Sequence]) -> int:
    """Cheap digest of a batch result: every item, row and score.

    Python's tuple hash — exact enough to catch any changed field and
    cheap enough (C speed) to run after every timed op.  Only ever
    compared with digests taken earlier in the same process; across
    processes use :func:`portable_digest`.
    """
    return hash(tuple((item_id, tuple(recs))
                      for item_id, recs in result.items()))


def portable_digest(result: BatchResult) -> str:
    """Digest of a batch result that means the same in every process
    (scores as their IEEE-754 bytes), for expectations that the
    generate stage hands to the measure stage."""
    hasher = hashlib.blake2b(digest_size=16)
    for item_id, recs in result.items():
        hasher.update(b"%d|%d|" % (item_id, len(recs)))
        hasher.update("\x1f".join(rec.text for rec in recs)
                      .encode("utf-8"))
        hasher.update(np.asarray([rec[1:] for rec in recs],
                                 dtype=np.float64).tobytes())
    return hasher.hexdigest()


def matches_reference(model: GraphExModel, requests: Sequence[Request],
                      result: BatchResult) -> bool:
    """``result`` equals the scalar reference engine's, element-wise."""
    return result == batch_recommend(model, requests, k=K,
                                     hard_limit=HARD_LIMIT,
                                     engine="reference")


def _leaf_equal(a: Optional[LeafGraph], b: Optional[LeafGraph]) -> bool:
    if a is None or b is None:
        return a is b
    return (a.leaf_id == b.leaf_id
            and list(a.word_vocab) == list(b.word_vocab)
            and list(a.label_texts) == list(b.label_texts)
            and all(left.dtype == right.dtype
                    and np.array_equal(left, right)
                    for left, right in (
                        (a.graph.indptr, b.graph.indptr),
                        (a.graph.indices, b.graph.indices),
                        (a.label_lengths, b.label_lengths),
                        (a.search_counts, b.search_counts),
                        (a.recall_counts, b.recall_counts))))


def models_identical(a: GraphExModel, b: GraphExModel) -> bool:
    """Bit-identical models: same leaves, vocabularies, CSR arrays."""
    return (a.leaf_ids == b.leaf_ids
            and all(_leaf_equal(a.leaf_graph(leaf), b.leaf_graph(leaf))
                    for leaf in a.leaf_ids)
            and _leaf_equal(a.pooled_graph, b.pooled_graph))


def matches_reference_builder(curated: CuratedKeyphrases,
                              built: GraphExModel) -> bool:
    """``built`` equals the scalar reference builder's model."""
    return models_identical(built, GraphExModel.construct(
        curated, build_pooled=built.pooled_graph is not None,
        builder="reference", executor="serial"))


def served_texts(model: GraphExModel, requests: Sequence[Request]
                 ) -> Dict[int, List[str]]:
    """What a KV store must hold for ``requests`` under ``model``."""
    result = batch_recommend(model, requests, k=K, hard_limit=HARD_LIMIT)
    return {item_id: [rec.text for rec in recs]
            for item_id, recs in result.items()}
