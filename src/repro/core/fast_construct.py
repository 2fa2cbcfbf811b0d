"""Vectorized model-construction engine (the "fast" builder).

The scalar path (:func:`repro.core.model.build_leaf_graph`) constructs
one leaf at a time with per-token Python work: a ``Vocabulary.add`` dict
round-trip and an ``edges.append`` per (word, label) pair, then a
list-of-tuples → ``np.asarray`` conversion inside
:meth:`CSRGraph.from_edges`.  That is fine for one small leaf but
dominates model build time at Section IV-G scale.  This module is the
construct-side analogue of :mod:`repro.core.fast_inference`:

1. **Shared memoized tokenization** — raw tokens resolve through one
   shared pool (:class:`~repro.core.tokenize.TokenCache`); marketplace
   vocabulary overlaps heavily across leaves, so a raw token seen in
   any earlier leaf skips the normalization regex and dict interning
   entirely.  Each keyphrase text is split exactly once per build.
2. **Bulk interning** — a leaf's labels are flattened into one pool-id
   stream and interned with a single array pass (an O(n + pool)
   reversed scatter, or an ``np.unique`` re-rank when the shared pool
   dwarfs the leaf).  Ids land in first-occurrence order, so the local
   vocabulary is *bit-identical* to the scalar ``Vocabulary.add`` loop
   — same token strings, same ids — regardless of pool id assignment
   order (so a leaf builds the same graph whatever was cached first).
3. **Array-native CSR assembly** — the (word, label) pairs are already
   duplicate-free (tokens are unique within a label), so one stable
   argsort by word id produces the exact (left, right)-sorted edge
   order of :meth:`CSRGraph.from_edges`, and ``indptr``/``indices`` are
   assembled directly via :meth:`CSRGraph.from_arrays` — no per-edge
   Python tuples, no redundant validation.
4. **Pooled arrays, not pooled text** — :func:`pool_leaf_graphs`
   derives the all-leaves fallback graph from the built leaf graphs,
   so nothing is tokenised a second time.

This module builds one leaf at a time;
:meth:`repro.core.execution.SerialExecutor.run_construction` runs it
over every leaf, in process.

The built model is bit-identical to the scalar builder's — same vocab
id order, same CSR arrays, same label arrays — which
``tests/test_fast_construct.py`` pins property-based.  The scalar
builder remains the semantics reference.
"""

from __future__ import annotations

from itertools import chain
from typing import TYPE_CHECKING, Dict, Iterable, List

import numpy as np

from .csr import CSRGraph
from .curation import CuratedKeyphrases, CuratedLeaf
from .tokenize import TokenCache
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
    n_labels = len(curated)
    # One split per text, then one flat dict-resolve pass over every raw
    # occurrence of the whole leaf (-1 marks dropped tokens).
    # Duplicates within a label survive to this point and are folded by
    # the sort + dedup in _leaf_graph.
    per_label = [text.split() for text in curated.texts]
    stream = cache.resolve_raws(list(chain.from_iterable(per_label)))
    lengths = np.fromiter(map(len, per_label), dtype=np.int64,
                          count=n_labels)
    flat = np.fromiter(stream, dtype=np.int64, count=int(lengths.sum()))
    label_owner = np.repeat(np.arange(n_labels, dtype=np.int64), lengths)
    kept = flat >= 0
    if not kept.all():
        flat = flat[kept]
        label_owner = label_owner[kept]

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
        edge_keys = word_ids * n_labels + label_owner
    else:
        vocab = Vocabulary()
        edge_keys = np.empty(0, dtype=np.int64)

    return _leaf_graph(
        curated.leaf_id, vocab, edge_keys, list(curated.texts),
        np.asarray(curated.search_counts, dtype=np.int64),
        np.asarray(curated.recall_counts, dtype=np.int64))


def _leaf_graph(leaf_id: int, vocab: Vocabulary, edge_keys: np.ndarray,
                label_texts: List[str], search_counts: np.ndarray,
                recall_counts: np.ndarray) -> "LeafGraph":
    """Assemble a leaf from unsorted, possibly repeated
    ``word * n_labels + label`` edge keys.  One sort + run-mask sorts
    and de-duplicates the edges exactly as ``CSRGraph.from_edges``'
    lexsort + dedup does (sort beats hash-based ``np.unique`` here);
    ``|l|`` is a label's unique surviving tokens, at least 1."""
    from .model import LeafGraph

    n_labels = len(label_texts)
    if len(edge_keys):
        edge_keys = np.sort(edge_keys)
        keep = np.empty(len(edge_keys), dtype=bool)
        keep[0] = True
        np.not_equal(edge_keys[1:], edge_keys[:-1], out=keep[1:])
        edge_keys = edge_keys[keep]
    edge_words = edge_keys // max(1, n_labels)
    edge_labels = edge_keys - edge_words * n_labels
    return LeafGraph(
        leaf_id=leaf_id,
        word_vocab=vocab,
        graph=CSRGraph.from_sorted_pairs(
            edge_words, edge_labels.astype(np.int32),
            n_left=max(1, len(vocab)), n_right=max(1, n_labels)),
        label_texts=label_texts,
        label_lengths=np.maximum(
            np.bincount(edge_labels, minlength=n_labels),
            1).astype(np.int32),
        search_counts=search_counts,
        recall_counts=recall_counts,
    )


def _first_occurrence_ids(strings: Iterable[str]) -> Dict[str, int]:
    """Dense ids in first-occurrence order, interned in bulk: the ids
    a ``Vocabulary.add`` loop assigns, without a call per string."""
    index = dict.fromkeys(strings)
    return dict(zip(index, range(len(index))))


def pool_leaf_graphs(curated: CuratedKeyphrases,
                     leaf_graphs: Dict[int, "LeafGraph"]) -> "LeafGraph":
    """The pooled all-leaves graph, derived from the built leaf graphs.

    Bit-identical to the reference builder's
    ``build_leaf_graph(_pool_leaves(leaves), tokenizer)`` with nothing
    tokenised: the union of the leaves' edges under two first-occurrence
    re-numberings.  Labels are the distinct texts in ``curated.leaves``
    order (``_pool_leaves``' dict order), each with its maximum Search
    Count and minimum Recall Count.  Words are the leaves' vocabularies
    chained in leaf order: local word ids already follow first
    occurrence in a leaf's label-major token stream, and a label dropped
    as a duplicate repeats a text — hence every token — that already
    occurred, so dropping it reorders nothing.

    Texts are read from ``curated``, arrays and words from
    ``leaf_graphs``.  Everything returned is freshly allocated.
    """
    built = [(leaf, leaf_graphs[leaf_id])
             for leaf_id, leaf in curated.leaves.items() if len(leaf) > 0]
    texts = list(chain.from_iterable(leaf.texts for leaf, _graph in built))
    label_index = _first_occurrence_ids(texts)
    word_index = _first_occurrence_ids(chain.from_iterable(
        graph.word_vocab for _leaf, graph in built))
    n_pooled = len(label_index)
    pooled_of = np.fromiter(map(label_index.__getitem__, texts),
                            dtype=np.int64, count=len(texts))
    search_counts = np.full(n_pooled, np.iinfo(np.int64).min, np.int64)
    recall_counts = np.full(n_pooled, np.iinfo(np.int64).max, np.int64)
    edge_keys = [np.empty(0, dtype=np.int64)]  # concatenates with no leaf
    offset = 0
    for leaf, graph in built:
        pooled_label = pooled_of[offset:offset + len(leaf)]
        offset += len(leaf)
        np.maximum.at(search_counts, pooled_label, graph.search_counts)
        np.minimum.at(recall_counts, pooled_label, graph.recall_counts)
        pooled_word = np.fromiter(
            map(word_index.__getitem__, graph.word_vocab),
            dtype=np.int64, count=len(graph.word_vocab))
        # An empty vocabulary still has one (edgeless) CSR row.
        degrees = np.diff(graph.graph.indptr)[:len(pooled_word)]
        edge_keys.append(np.repeat(pooled_word, degrees) * n_pooled
                         + pooled_label[graph.graph.indices])
    return _leaf_graph(-1, Vocabulary.from_interned(word_index),
                       np.concatenate(edge_keys), list(label_index),
                       search_counts, recall_counts)
