"""Vectorized model-construction engine (the "fast" builder).

The scalar path (:func:`repro.core.model.build_leaf_graph`) constructs
one leaf at a time with per-token Python work: a ``Vocabulary.add`` dict
round-trip and an ``edges.append`` per (word, label) pair, then a
list-of-tuples → ``np.asarray`` conversion inside
:meth:`CSRGraph.from_edges`.  That is fine for one small leaf but
dominates model build time at Section IV-G scale.  This module is the
construct-side analogue of :mod:`repro.core.fast_inference`:

1. **Shared memoized tokenization** — every distinct keyphrase text is
   tokenized once into a tuple of shared-pool token ids
   (:class:`~repro.core.tokenize.TokenCache`); marketplace vocabulary
   overlaps heavily across leaves (and the pooled graph repeats every
   text), so repeated texts and repeated raw tokens skip the
   normalization regex and dict interning entirely.
2. **Bulk interning** — a leaf's labels are flattened into one pool-id
   stream and interned with a single array pass (an O(n + pool)
   reversed scatter, or an ``np.unique`` re-rank when the shared pool
   dwarfs the leaf).  Ids land in first-occurrence order, so the local
   vocabulary is *bit-identical* to the scalar ``Vocabulary.add`` loop
   — same token strings, same ids — regardless of pool id assignment
   order (which lets worker threads share one pool without affecting
   output).
3. **Array-native CSR assembly** — the (word, label) pairs are already
   duplicate-free (tokens are unique within a label), so one stable
   argsort by word id produces the exact (left, right)-sorted edge
   order of :meth:`CSRGraph.from_edges`, and ``indptr``/``indices`` are
   assembled directly via :meth:`CSRGraph.from_arrays` — no per-edge
   Python tuples, no redundant validation.

Whole leaves are the unit the execution plane
(:mod:`repro.core.execution`) shards across threads, processes or
hosts; this module builds one leaf at a time.

The built model is bit-identical to the scalar builder's — same vocab
id order, same CSR arrays, same label arrays — which
``tests/test_fast_construct.py`` pins property-based.  The scalar
builder remains the semantics reference.
"""

from __future__ import annotations

from itertools import chain
from typing import TYPE_CHECKING, Dict, Tuple

import numpy as np

from .csr import CSRGraph
from .curation import CuratedKeyphrases, CuratedLeaf
from .tokenize import TokenCache, Tokenizer
from .vocab import Vocabulary

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from .model import LeafGraph


def build_leaf_graph_fast(curated: CuratedLeaf,
                          cache: TokenCache) -> "LeafGraph":
    """Construct one leaf's bipartite graph with the bulk engine.

    Args:
        curated: The leaf's curated keyphrases.
        cache: Shared token pool; pass the same instance across leaves
            so duplicated texts and tokens are processed once.

    Returns:
        A :class:`~repro.core.model.LeafGraph` bit-identical to
        :func:`~repro.core.model.build_leaf_graph` on the same input.
    """
    from .model import LeafGraph

    n_labels = len(curated)
    if cache.token_wise:
        # Bulk path: one split per text, then one flat dict-resolve pass
        # over every raw occurrence of the whole leaf (-1 marks dropped
        # tokens).  Duplicates within a label survive to this point and
        # are folded by the np.unique dedup below.
        raw_lists = [text.split() for text in curated.texts]
        lengths = np.fromiter(map(len, raw_lists), dtype=np.int64,
                              count=n_labels)
        total = int(lengths.sum()) if n_labels else 0
        flat = np.fromiter(
            cache.resolve_raws(list(chain.from_iterable(raw_lists))),
            dtype=np.int64, count=total)
        label_owner = np.repeat(np.arange(n_labels, dtype=np.int64),
                                lengths)
        kept = flat >= 0
        if not kept.all():
            flat = flat[kept]
            label_owner = label_owner[kept]
    else:
        # Generic-tokenizer fallback: per-text memoized unique ids
        # (already deduplicated within each label).
        id_tuples = [cache.unique_ids(text) for text in curated.texts]
        lengths = np.fromiter(map(len, id_tuples), dtype=np.int64,
                              count=n_labels)
        total = int(lengths.sum()) if n_labels else 0
        flat = np.fromiter(chain.from_iterable(id_tuples), dtype=np.int64,
                           count=total)
        label_owner = np.repeat(np.arange(n_labels, dtype=np.int64),
                                lengths)

    if len(flat):
        # Intern locally into first-occurrence order — exactly the
        # scalar Vocabulary.add insertion order over the label-major
        # stream (within-label duplicates cannot move a first
        # occurrence).  When the shared pool is comparable to the leaf,
        # an O(n + pool) reversed scatter (last write wins = first
        # occurrence) avoids sorting; for a small leaf over a huge pool
        # the np.unique path keeps the cost O(n log n), independent of
        # pool size.
        pool_size = len(cache)
        if pool_size <= max(1024, 8 * len(flat)):
            first_pos = np.full(pool_size, -1, dtype=np.int64)
            first_pos[flat[::-1]] = np.arange(len(flat) - 1, -1, -1,
                                              dtype=np.int64)
            present = np.flatnonzero(first_pos >= 0)
            insertion = present[np.argsort(first_pos[present],
                                           kind="stable")]
            local_of_pool = np.empty(pool_size, dtype=np.int64)
            local_of_pool[insertion] = np.arange(len(insertion),
                                                 dtype=np.int64)
            word_ids = local_of_pool[flat]
        else:
            pool_ids, first_pos, inverse = np.unique(
                flat, return_index=True, return_inverse=True)
            order = np.argsort(first_pos, kind="stable")
            insertion = pool_ids[order]
            rank = np.empty(len(pool_ids), dtype=np.int64)
            rank[order] = np.arange(len(pool_ids), dtype=np.int64)
            word_ids = rank[inverse]
        vocab = Vocabulary.from_interned(
            cache.tokens_for(insertion.tolist()))
        # One sort + run-mask over (word, label) keys sorts and
        # de-duplicates the edges exactly as from_edges' lexsort +
        # dedup does (sort beats hash-based np.unique here).
        edge_keys = np.sort(word_ids * n_labels + label_owner)
        keep = np.empty(len(edge_keys), dtype=bool)
        keep[0] = True
        np.not_equal(edge_keys[1:], edge_keys[:-1], out=keep[1:])
        edge_keys = edge_keys[keep]
        edge_words = edge_keys // n_labels
        edge_labels = edge_keys - edge_words * n_labels
    else:
        vocab = Vocabulary()
        edge_words = np.empty(0, dtype=np.int64)
        edge_labels = np.empty(0, dtype=np.int64)

    graph = CSRGraph.from_sorted_pairs(
        edge_words, edge_labels.astype(np.int32),
        n_left=max(1, len(vocab)), n_right=max(1, n_labels))
    # |l| = unique surviving tokens per label (at least 1), from the
    # de-duplicated edge set.
    label_lengths = np.maximum(
        np.bincount(edge_labels, minlength=n_labels), 1).astype(np.int32)
    return LeafGraph(
        leaf_id=curated.leaf_id,
        word_vocab=vocab,
        graph=graph,
        label_texts=list(curated.texts),
        label_lengths=label_lengths,
        search_counts=np.asarray(curated.search_counts, dtype=np.int64),
        recall_counts=np.asarray(curated.recall_counts, dtype=np.int64),
    )


def fast_construct_leaf_graphs(curated: CuratedKeyphrases,
                               tokenizer: Tokenizer
                               ) -> Tuple[Dict[int, "LeafGraph"],
                                          TokenCache]:
    """Build every non-empty leaf graph with the bulk engine, in order.

    Returns:
        ``(leaf_graphs, cache)`` — the graphs keyed by leaf id in the
        curated insertion order, and the shared token pool (reused for
        the pooled-graph build).
    """
    cache = TokenCache(tokenizer)
    return ({leaf_id: build_leaf_graph_fast(leaf, cache)
             for leaf_id, leaf in curated.leaves.items()
             if len(leaf) > 0}, cache)
