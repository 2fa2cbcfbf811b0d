"""Vectorized model-construction engine (the "fast" builder).

The scalar path (:func:`repro.core.model.build_leaf_graph`) constructs
one leaf at a time with per-token Python work: a vocabulary
``setdefault`` and an ``edges.append`` per (word, label) pair, then a
list-of-tuples → ``np.asarray`` conversion inside
:meth:`CSRGraph.from_edges`.  That is fine for one small leaf but
dominates model build time at Section IV-G scale.  This module is the
construct-side analogue of :mod:`repro.core.fast_inference`:

1. **Shared memoized tokenization, one split** — raw tokens resolve
   through one shared pool (:class:`~repro.core.tokenize.TokenCache`)
   in one C-level pass; marketplace vocabulary overlaps heavily across
   leaves, so a raw token seen in any earlier leaf skips the
   normalization regex and dict interning entirely.  A leaf's texts
   are split once, as one joined string; which label owns each raw
   token comes from the curated leaf's ``token_counts``, the counts
   curation's length filter already made, so no label is split again
   and no list per label is made.
2. **Bulk interning** — a leaf's labels are flattened into one pool-id
   stream and interned with a single array pass (an O(n + pool)
   reversed scatter, or an ``np.unique`` re-rank when the shared pool
   dwarfs the leaf).  Ids land in first-occurrence order, so the local
   vocabulary is *bit-identical* to the scalar ``setdefault`` loop
   — same token strings, same ids — regardless of pool id assignment
   order (so a leaf builds the same graph whatever was cached first).
3. **Array-native CSR assembly** — the (word, label) pairs are already
   duplicate-free (tokens are unique within a label), so one stable
   argsort by word id produces the exact (left, right)-sorted edge
   order of :meth:`CSRGraph.from_edges`, and ``indptr``/``indices`` are
   assembled directly via :meth:`CSRGraph.from_sorted_pairs` — no
   per-edge Python tuples, no redundant validation.
4. **Pooled arrays, not pooled text** — :func:`pool_leaf_graphs`
   derives the all-leaves fallback graph from the built leaf graphs
   and the ids of the build's one string interning pass, so nothing is
   tokenised or hashed a second time.

This module builds one leaf at a time;
:meth:`repro.core.execution.SerialExecutor.run_construction` runs it
over every leaf, in process.

The built model is bit-identical to the scalar builder's — same vocab
id order, same CSR arrays, same label arrays — which
``tests/test_fast_construct.py`` pins property-based.  The scalar
builder remains the semantics reference.
"""

from __future__ import annotations

from itertools import count
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

import numpy as np

from .csr import CSRGraph
from .curation import CuratedLeaf
from .tokenize import TokenCache
from .vocab import first_occurrence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from .model import LeafGraph


def build_leaf_graph_fast(curated: CuratedLeaf,
                          cache: TokenCache) -> "LeafGraph":
    """Construct one leaf's bipartite graph with the bulk engine.

    Args:
        curated: The leaf's curated keyphrases.  Its ``token_counts``
            say which label owns each raw token of the leaf's one
            split.
        cache: Shared token pool; pass the same instance across leaves
            so duplicated texts and tokens are processed once.

    Returns:
        A :class:`~repro.core.model.LeafGraph` bit-identical to
        :func:`~repro.core.model.build_leaf_graph` on the same input.

    Raises:
        ValueError: naming the leaf, when its ``token_counts`` do not
            match its texts: not one count per text, a negative count,
            or a total other than the raw tokens of the joined split.
    """
    n_labels = len(curated)
    counts = curated.token_counts
    # One split of the whole leaf, then one flat dict-resolve pass over
    # every raw occurrence (-1 marks dropped tokens).  Joined with a
    # space, no raw token spans two texts, so the split is the texts'
    # splits end to end and the curated counts cut it into labels.
    # Duplicates within a label survive to this point and are folded by
    # the sort + dedup in _leaf_graph.
    raws = " ".join(curated.texts).split()
    total, low = sum(counts), min(counts, default=0)
    if len(counts) != n_labels or total != len(raws) or low < 0:
        raise ValueError(
            f"curated leaf {curated.leaf_id}: its token_counts do not "
            f"match its texts ({len(counts)} counts summing to {total}, "
            f"the least {low}, for {n_labels} texts of {len(raws)} "
            f"tokens)")
    flat = cache.resolve_raws(raws)
    label_owner = np.repeat(np.arange(n_labels, dtype=np.int64), counts)
    kept = flat >= 0
    if not kept.all():
        flat = flat[kept]
        label_owner = label_owner[kept]

    if len(flat):
        # Intern locally into first-occurrence order — exactly the
        # scalar setdefault insertion order over the label-major
        # stream (within-label duplicates cannot move a first
        # occurrence).  When the shared pool is comparable to the leaf,
        # an O(n + pool) reversed scatter (last write wins = first
        # occurrence) avoids sorting; for a small leaf over a huge pool
        # the np.unique path keeps the cost O(n log n), independent of
        # pool size.
        pool_size = len(cache)
        if pool_size <= max(1024, 8 * len(flat)):
            insertion, (word_ids,) = first_occurrence([flat], pool_size)
        else:
            pool_ids, first_pos, inverse = np.unique(
                flat, return_index=True, return_inverse=True)
            order = np.argsort(first_pos, kind="stable")
            insertion = pool_ids[order]
            rank = np.empty(len(pool_ids), dtype=np.int64)
            rank[order] = np.arange(len(pool_ids), dtype=np.int64)
            word_ids = rank[inverse]
        vocab = dict(zip(cache.tokens_for(insertion.tolist()), count()))
        edge_keys = word_ids * n_labels + label_owner
    else:
        vocab = {}
        edge_keys = np.empty(0, dtype=np.int64)

    return _leaf_graph(
        curated.leaf_id, vocab, edge_keys, list(curated.texts),
        np.asarray(curated.search_counts, dtype=np.int64),
        np.asarray(curated.recall_counts, dtype=np.int64))


def _leaf_graph(leaf_id: int, vocab: Dict[str, int], edge_keys: np.ndarray,
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


def pool_leaf_graphs(graphs: Sequence["LeafGraph"], strings: np.ndarray,
                     ids: Sequence[Tuple[np.ndarray, np.ndarray]]
                     ) -> Tuple["LeafGraph", Tuple[np.ndarray, np.ndarray]]:
    """The pooled all-leaves graph, and its words and labels as ids.

    ``graphs`` are the built leaf graphs in ``curated.leaves`` order,
    ``ids[g]`` graph ``g``'s words and labels as ids into ``strings``
    (:func:`~repro.core.model.intern_graphs`).  Bit-identical to the
    reference builder's ``build_leaf_graph(_pool_leaves(leaves),
    tokenizer)`` with nothing tokenised or hashed: the union of the
    leaves' edges under two integer first-occurrence re-numberings.
    Labels are the distinct texts in leaf order (``_pool_leaves``' dict
    order), each with its maximum Search Count and minimum Recall Count.
    Words are the leaves' vocabularies chained in leaf order: local word
    ids already follow first occurrence in a leaf's label-major token
    stream, and a label dropped as a duplicate repeats a text — hence
    every token — that already occurred, so dropping it reorders
    nothing.  Everything returned is freshly allocated.
    """
    (words, word_ids), (labels, label_ids) = (first_occurrence(
        [pair[side] for pair in ids], len(strings)) for side in (0, 1))
    n_pooled = len(labels)
    search_counts = np.full(n_pooled, np.iinfo(np.int64).min, np.int64)
    recall_counts = np.full(n_pooled, np.iinfo(np.int64).max, np.int64)
    edge_keys = [np.empty(0, dtype=np.int64)]  # concatenates with no leaf
    for graph, pooled_label, pooled_word in zip(graphs, label_ids, word_ids):
        np.maximum.at(search_counts, pooled_label, graph.search_counts)
        np.minimum.at(recall_counts, pooled_label, graph.recall_counts)
        # An empty vocabulary still has one (edgeless) CSR row.
        degrees = np.diff(graph.graph.indptr)[:len(pooled_word)]
        edge_keys.append(np.repeat(pooled_word, degrees) * n_pooled
                         + pooled_label[graph.graph.indices])
    return _leaf_graph(-1, dict(zip(strings[words].tolist(), count())),
                       np.concatenate(edge_keys), strings[labels].tolist(),
                       search_counts, recall_counts), (words, labels)
