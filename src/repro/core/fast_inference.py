"""Vectorized leaf-batched inference engine (the "fast" path).

The scalar path (:func:`repro.core.inference.recommend_from_graph`) runs
Algorithm 1 once per title: dict lookups, Python list building and a
per-item ``np.unique``.  That is fine for one request but wasteful for the
batch and NRT workloads of Figure 7, where thousands of titles hit the
same handful of leaf graphs.  This module batches the whole algorithm at
the leaf level:

1. **Group by graph** — requests are bucketed by the leaf graph that will
   serve them (including the pooled fallback for unknown leaves), so every
   downstream array op amortises over the group.
2. **Bulk intern** — all titles of a group are tokenized and mapped
   through the leaf's ``word_vocab`` with a group-local token cache;
   repeated tokens across titles pay the dict lookup once.
3. **Fused enumeration** — one CSR gather expands every (title, word)
   pair's adjacency list, then a single offset-shifted ``np.bincount``
   (candidate label ids shifted by ``item_index * n_labels``) counts the
   duplication ``c = |T ∩ l|`` for *every* item at once.  When the shifted
   key range would be too large to bincount densely, an ``np.unique``
   run-length fallback produces the identical (key-sorted) output.
4. **Vectorized group-pruning** — the paper's count-array pruning
   (Section III-F) runs for all items in one segmented pass: a single
   ``lexsort`` by (item, count desc) finds each item's k-th largest count,
   and whole threshold groups are kept per item exactly as the scalar
   path does.
5. **Segmented ranking** — one ``np.lexsort`` keyed by (item, score desc,
   Search Count desc, Recall Count asc, label id asc) ranks every item's
   survivors together.
6. **Deduplicated materialisation** — a ranked row's value is a pure
   function of (label, c, |T|), and :class:`Recommendation` is immutable,
   so each distinct row is constructed once and shared across the items
   that ranked it (popular labels hit many titles in a batch).

The engine is *provably identical* to the scalar path — same candidate
sets, same IEEE-754 scores (identical operand values through identical
vectorized alignment functions), same tie-break order — and
``tests/test_fast_inference.py`` pins that equivalence property-based.
The scalar path remains the semantics reference.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .alignment import ALIGNMENTS
from .batch import (InferenceRequest, last_request_wins,
                    validate_hard_limit)
from .inference import Recommendation

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from .model import GraphExModel, LeafGraph

#: Above this ``n_items * n_labels`` product the dense bincount would
#: allocate too much, so enumeration falls back to the np.unique path.
DEFAULT_DENSE_LIMIT = 1 << 23


def _alignment_is_vectorized(fn) -> bool:
    """Probe whether an alignment callable is element-wise vectorized.

    The scalar path hands ``fn`` candidate arrays with a *scalar*
    title_len; the fast path batches whole leaf groups, so title_len
    becomes an array too.  The built-in LTA/WMR/JAC broadcast
    identically either way; a scalar-only or cross-row-coupled custom
    callable would crash or silently score differently, so it is
    rejected up front.  The registry built-ins are trusted without
    probing, keeping per-batch runner construction free of redundant
    work; only custom callables pay the (tiny) probe.
    """
    if any(fn is known for known in ALIGNMENTS.values()):
        return True
    c = np.array([1, 2], dtype=np.int64)
    label_len = np.array([2, 4], dtype=np.int64)
    title_len = np.array([3, 5], dtype=np.int64)
    try:
        batched = np.asarray(fn(c, label_len, title_len),
                             dtype=np.float64)
        if batched.shape != (2,):
            return False
        for i in range(2):
            single = np.asarray(
                fn(c[i:i + 1], label_len[i:i + 1], int(title_len[i])),
                dtype=np.float64)
            if single.shape != (1,):
                return False
            if not (single[0] == batched[i]
                    or (np.isnan(single[0]) and np.isnan(batched[i]))):
                return False
    except Exception:
        return False
    return True


def _intern_group(graph: "LeafGraph", titles: Sequence[Sequence[str]]):
    """Bulk-intern tokenized titles against one graph's word vocabulary.

    Args:
        graph: The leaf graph whose ``word_vocab`` interns the tokens.
        titles: Pre-tokenized titles (one token list per item).

    Returns:
        ``(word_ids, word_owner, n_tokens)``: flat known-word ids across
        the whole group, the item index owning each id, and the per-item
        unique-token count (unknown tokens included — it is the ``|T|``
        the alignment functions see).
    """
    vocab_get = graph.word_vocab.get
    cache: Dict[str, int] = {}
    flat_ids: List[int] = []
    flat_owner: List[int] = []
    n_tokens = np.zeros(len(titles), dtype=np.int64)
    for item_index, tokens in enumerate(titles):
        unique_tokens = dict.fromkeys(tokens)
        n_tokens[item_index] = len(unique_tokens)
        for token in unique_tokens:
            word_id = cache.get(token)
            if word_id is None:
                resolved = vocab_get(token)
                word_id = -1 if resolved is None else resolved
                cache[token] = word_id
            if word_id >= 0:
                flat_ids.append(word_id)
                flat_owner.append(item_index)
    return (np.asarray(flat_ids, dtype=np.int64),
            np.asarray(flat_owner, dtype=np.int64),
            n_tokens)


def _enumerate_group(graph: "LeafGraph", word_ids: np.ndarray,
                     word_owner: np.ndarray, n_items: int,
                     dense_limit: int = DEFAULT_DENSE_LIMIT):
    """Fused Enumeration for a whole leaf group.

    One CSR gather expands every word's adjacency list, then candidate
    label ids are shifted by ``item_index * n_labels`` so a single
    ``np.bincount`` (or, beyond ``dense_limit``, one ``np.unique``)
    yields every item's candidate labels and duplication counts at once.

    Returns:
        ``(labels, counts, item_of)`` — flat arrays sorted by (item,
        label), exactly the per-item ordering ``np.unique`` produces in
        the scalar path.
    """
    empty = np.empty(0, dtype=np.int64)
    if len(word_ids) == 0:
        return empty, empty, empty
    indptr = graph.graph.indptr
    starts = indptr[word_ids]
    degrees = indptr[word_ids + 1] - starts
    total = int(degrees.sum())
    if total == 0:
        return empty, empty, empty
    # Gather: positions of every adjacency entry in one index vector.
    offsets = np.cumsum(degrees) - degrees
    positions = (np.repeat(starts - offsets, degrees)
                 + np.arange(total, dtype=np.int64))
    candidates = graph.graph.indices[positions].astype(np.int64)
    owner = np.repeat(word_owner, degrees)

    n_labels = graph.n_labels
    keys = owner * n_labels + candidates
    if n_items * n_labels <= dense_limit:
        key_counts = np.bincount(keys)
        unique_keys = np.flatnonzero(key_counts)
        counts = key_counts[unique_keys]
    else:
        unique_keys, counts = np.unique(keys, return_counts=True)
    item_of = unique_keys // n_labels
    labels = unique_keys - item_of * n_labels
    return labels, counts.astype(np.int64), item_of


def _segments(sorted_item: np.ndarray):
    """Start/end offsets of each run of equal values in a sorted array."""
    new_segment = np.empty(len(sorted_item), dtype=bool)
    new_segment[0] = True
    new_segment[1:] = sorted_item[1:] != sorted_item[:-1]
    starts = np.flatnonzero(new_segment)
    return starts, np.append(starts[1:], len(sorted_item))


def _prune_group(labels: np.ndarray, counts: np.ndarray,
                 item_of: np.ndarray, n_items: int, k: int):
    """Segmented count-group pruning for every item at once.

    Matches :func:`repro.core.inference.prune_by_count_groups` per item:
    the k-th largest count of each item becomes its cutoff and whole
    threshold groups survive; items with ``<= k`` candidates keep all.
    """
    if len(labels) == 0:
        return labels, counts, item_of
    order = np.lexsort((-counts, item_of))
    sorted_item = item_of[order]
    starts, ends = _segments(sorted_item)
    # Each item's k-th largest count is its cutoff; items without a k-th
    # candidate keep everything (cutoff 0 is below any count).
    kth = starts + (k - 1)
    valid = kth < ends
    cutoffs = np.zeros(n_items, dtype=np.int64)
    cutoffs[sorted_item[starts[valid]]] = counts[order[kth[valid]]]
    mask = counts >= cutoffs[item_of]
    return labels[mask], counts[mask], item_of[mask]


class LeafBatchRunner:
    """Vectorized batch inference over leaf-grouped requests.

    The model's alignment function must be element-wise vectorized over
    its ``(c, label_len, title_len)`` arguments, as the built-in
    LTA/WMR/JAC are and the :data:`~repro.core.alignment.AlignmentFunction`
    contract requires: the engine scores a whole leaf group in one call
    and deduplicates rows by ``(label, c, |T|)``, so a callable that is
    scalar-only or couples scores across rows is not supported here (use
    the reference engine for such experiments).

    Args:
        model: The serving :class:`~repro.core.model.GraphExModel`.
        k: Target predictions per item (whole count-groups kept; ``k <= 0``
            yields no predictions, matching the scalar path's contract).
        hard_limit: Optional strict per-item cap applied after ranking
            (must be ``None`` or ``>= 0``).
        dense_limit: Max ``n_items * n_labels`` for the dense bincount in
            enumeration; larger groups use the np.unique fallback.

    Raises:
        ValueError: If ``hard_limit`` is negative, or the model's
            alignment function fails the vectorization probe.
    """

    def __init__(self, model: "GraphExModel", k: int = 10,
                 hard_limit: Optional[int] = None,
                 dense_limit: int = DEFAULT_DENSE_LIMIT) -> None:
        validate_hard_limit(hard_limit)
        if not _alignment_is_vectorized(model.alignment_fn):
            raise ValueError(
                "the model's alignment function is not element-wise "
                "vectorized over (c, label_len, title_len); the fast "
                "engine cannot guarantee equivalence — use "
                "engine='reference' for this model")
        self._model = model
        self._k = k
        self._hard_limit = hard_limit
        self._dense_limit = dense_limit

    def run(self, requests: Sequence[InferenceRequest]
            ) -> Dict[int, List[Recommendation]]:
        """Infer a whole batch, leaf group by leaf group.

        Returns:
            Item id → ranked recommendations, with the same
            duplicate-item-id semantics as the scalar loop (the last
            request for an id wins).
        """
        return last_request_wins(requests, self.run_indexed(requests))

    def run_indexed(self, requests: Sequence[InferenceRequest]
                    ) -> List[List[Recommendation]]:
        """Infer a batch, returning per-request results in input order.

        Unlike :meth:`run`, duplicate item ids are *not* collapsed —
        the i-th output belongs to ``requests[i]``.  This is the unit a
        process-shard worker returns: the parent scatters shard outputs
        back by request index, which preserves the scalar loop's
        last-request-wins semantics even when duplicates of one item id
        land in different shards.
        """
        model = self._model
        results: List[Optional[List[Recommendation]]] = \
            [None] * len(requests)
        # Bucket request indices by the graph that will serve them.
        groups: Dict[int, Tuple["LeafGraph", List[int]]] = {}
        for index, (_item_id, _title, leaf_id) in enumerate(requests):
            graph = model.leaf_graph(leaf_id) or model.pooled_graph
            if graph is None:
                results[index] = []
                continue
            bucket = groups.get(id(graph))
            if bucket is None:
                groups[id(graph)] = (graph, [index])
            else:
                bucket[1].append(index)

        for graph, indices in groups.values():
            titles = [model.tokenizer(requests[i][1]) for i in indices]
            for local, recs in enumerate(self._run_group(graph, titles)):
                results[indices[local]] = recs
        return results

    def _run_group(self, graph: "LeafGraph",
                   titles: Sequence[Sequence[str]]
                   ) -> List[List[Recommendation]]:
        """Run fused enumerate → prune → rank → materialise for one group."""
        n_items = len(titles)
        empties: List[List[Recommendation]] = [[] for _ in range(n_items)]
        if self._k <= 0:
            return empties
        word_ids, word_owner, n_tokens = _intern_group(graph, titles)
        labels, counts, item_of = _enumerate_group(
            graph, word_ids, word_owner, n_items, self._dense_limit)
        labels, counts, item_of = _prune_group(
            labels, counts, item_of, n_items, self._k)
        if len(labels) == 0:
            return empties

        alignment_fn = self._model.alignment_fn
        scores = alignment_fn(counts, graph.label_lengths[labels],
                              n_tokens[item_of])
        search = graph.search_counts[labels]
        recall = graph.recall_counts[labels]
        # One segmented lexsort; within an item the keys are the scalar
        # path's (score desc, S desc, R asc, label id asc).  The label-id
        # key is implicit: rows enter in (item, label) order and lexsort
        # is stable, so full ties stay label-ascending.
        order = np.lexsort((recall, -search, -scores, item_of))

        sorted_item = item_of[order]
        starts, ends = _segments(sorted_item)
        segment_items = sorted_item[starts].tolist()
        if self._hard_limit is not None:
            # Cap each segment *before* materialising; rows past the
            # per-item limit never reach the output.
            ends = np.minimum(ends, starts + self._hard_limit)
            lengths = ends - starts
            out_ends = np.cumsum(lengths)
            out_starts = out_ends - lengths
            keep = (np.repeat(starts - out_starts, lengths)
                    + np.arange(int(out_ends[-1]) if len(out_ends) else 0,
                                dtype=np.int64))
            order = order[keep]
            starts, ends = out_starts, out_ends

        # A row's value is fully determined by (label, c, |T|): text, S and
        # R come from the label and the score from alignment_fn(c, |l|,
        # |T|).  Recommendation is immutable, so rows repeated across
        # items (the common case — popular labels hit many titles) are
        # deduplicated and constructed once, then fanned out by index.
        ordered_labels = labels[order]
        ordered_counts = counts[order]
        ordered_titles = n_tokens[item_of[order]]
        c_base = int(ordered_counts.max()) + 1 if len(order) else 1
        t_base = int(ordered_titles.max()) + 1 if len(order) else 1
        key = ((ordered_labels * c_base + ordered_counts) * t_base
               + ordered_titles)
        _, rep, inverse = np.unique(key, return_index=True,
                                    return_inverse=True)
        originals = order[rep]
        unique_rows = list(map(Recommendation._make, zip(
            map(graph.label_texts.__getitem__, labels[originals].tolist()),
            scores[originals].tolist(), search[originals].tolist(),
            recall[originals].tolist(), counts[originals].tolist())))
        rows = list(map(unique_rows.__getitem__, inverse.tolist()))
        for item_index, start, end in zip(segment_items, starts.tolist(),
                                          ends.tolist()):
            empties[item_index] = rows[start:end]
        return empties


def fast_batch_recommend(model: "GraphExModel",
                         requests: Sequence[InferenceRequest],
                         k: int = 10,
                         hard_limit: Optional[int] = None
                         ) -> Dict[int, List[Recommendation]]:
    """Convenience wrapper: one-shot :class:`LeafBatchRunner` run."""
    return LeafBatchRunner(model, k=k, hard_limit=hard_limit).run(requests)
