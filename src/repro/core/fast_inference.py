"""Vectorized chunk-batched inference engine (the "fast" path).

The scalar path (:func:`repro.core.inference.recommend_from_graph`) runs
Algorithm 1 once per title: dict lookups, Python list building and a
per-item ``np.unique``.  That is fine for one request but wasteful for the
batch and NRT workloads of Figure 7, where thousands of titles hit a
handful of leaf graphs — or, in a 32-event NRT window, a few titles hit
each of many.  This module runs the whole algorithm once per *chunk* of
items, whichever leaves they belong to:

1. **Group by graph, cut into chunks** — requests are bucketed by the
   graph that will serve them (including the pooled fallback for
   unknown leaves; :func:`graph_order`, which a fleet plan cuts too),
   and the graph-ordered item sequence is cut into chunks of
   :data:`CHUNK_ITEMS` items: a large graph's group splits, small ones
   share a chunk.  Each item knows its *owner*, the index of its graph
   in the model's stacked :class:`~repro.core.model.GraphPlane`;
   everything below reads the plane, whose per-graph bases turn a
   graph's local ids into stacked positions, so no step loops over a
   chunk's graphs.  Steps 3-5, whose arrays are sized by adjacency
   entries, run chunk by chunk, so a call's memory follows its chunk,
   not its batch.
2. **Intern, once per call** — each title of the batch is tokenized
   in one C-level pass and its words mapped through the owning graph's
   ``word_vocab`` dict, an unknown word to ``-1``, which reads as
   degree 0.  One gather of the plane's ``indptr`` at each word's row
   (its graph's word base plus its id) gives its adjacency start
   (shifted by the graph's entry base) and degree; these token arrays
   (:class:`_Interned`) are built once for the batch, and each chunk
   reads its slice.
3. **Fused enumeration** — one read of the plane's ``indices`` at the
   chunk's positions expands every (title, word) pair's adjacency list
   for the whole chunk (on an opened model these are the mapped
   sections; nothing is concatenated).  Candidate label ids, still
   local to their graph, are shifted into their item's key slot
   (``slot[item] + label``, each slot as wide as the item's own graph)
   and one sort of the keys counts the duplication ``c = |T ∩ l|`` for
   *every* item at once: a run of equal keys is one candidate label,
   its length is ``c``.  Slots are arithmetic only — nothing is
   allocated or scanned per slot — so an item costs the adjacency
   entries its title reaches, however many labels its graph holds.
4. **Count-array pruning** — the paper's count array (Section III-F)
   for all items at once, read off the sorted keys through one bool
   mask over the entries per run length (:func:`_count_and_prune`).  No
   array is sized by the candidates, most of which are singletons that
   an item with ``k`` multi-token candidates drops; whole threshold
   groups are kept exactly as the scalar path does.
5. **Segmented ranking** — each surviving row's label is shifted by its
   graph's label base to its stacked id, and ``|l|`` is one gather of
   the plane's ``label_lengths``.  Each row reads the dense integer
   rank of its ``(c, |l|, |T|)`` cell's score in one gather from the
   model's :class:`~repro.core.model.CellRanks`, which scores every
   cell the model can meet once per model (again only when a longer
   title arrives); equal scores rank equal, and dense ranks over a
   superset of a chunk's cells keep every order and tie among them.
   One stable ``np.lexsort`` keyed by (item, rank) ranks every item at
   once before ``hard_limit`` caps it.  Rows enter in label order, and
   the plane numbers each graph's labels by (S desc, R asc, builder id
   asc), so the label id breaks a score tie as the scalar path's S, R
   and label id do.
6. **Materialisation** (:func:`materialise`) — steps 3-5 run chunk by
   chunk into the batch's ranked columns (:class:`RankedColumns`), and
   step 6 runs once per batch: the label texts are one ``take`` of the
   plane's string table at their text ids (on mapped models the misses
   decoded in one pass on first read), Search / Recall Counts one gather
   each, and that is all it does eagerly: the batch keeps its columns
   (texts, scores, Search Counts, Recall Counts, ``c``) and each request
   gets a :class:`RowView` over its slice.  ``len`` and ``.texts()``
   (what a KV store keeps) build no row; the first read of a row builds
   the batch's rows once.  A batch that is only stored or counted never
   allocates, and the cyclic collector never walks, a ``Recommendation``
   per served keyphrase.

The kernel is cut between steps 5 and 6.  Everything up to the ranked
columns — stacked label id, ``c`` and score per surviving row — is a
function of the plane only; step 6 adds nothing that is not already in
the model artifact.  Every result takes one route:
:meth:`LeafBatchRunner.run_ranked`, then :func:`materialise` over a
plane.  In process the two run back to back
(:meth:`LeafBatchRunner.run_indexed`).  On the cluster they run on
different machines: a worker stops after ``run_ranked`` and ships the
columns, and the coordinator materialises them over its own mapping of
the same artifact, whose plane stacks the graphs in the same order, so
its results are the same views.  :func:`materialise` validates
nothing; columns that crossed a wire are checked by their codec first.

The engine is *provably identical* to the scalar path — same candidate
sets, same IEEE-754 scores (identical operand values through identical
vectorized alignment functions), same tie-break order — and
``tests/test_fast_inference.py`` pins that equivalence property-based.
The scalar path remains the semantics reference.
"""

from __future__ import annotations

from collections import abc
from functools import partial
from itertools import repeat
from typing import (TYPE_CHECKING, Dict, Iterator, List, NamedTuple,
                    Optional, Sequence, Tuple)

import numpy as np

from .batch import InferenceRequest, validate_limits
from .inference import Recommendation
from .model import _narrow

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from .model import CellRanks, GraphExModel, GraphPlane

#: Items one chunk is cut to.  Swept 16 .. 256 on the bench world
#: (CHANGES.md, PR 20): smaller chunks pay the fixed call chain more
#: often, larger ones only grow the temporaries.
CHUNK_ITEMS = 64

#: ``Recommendation._make`` without its Python-level call and length
#: check per row: :class:`_BatchRows`, the only caller, zips exactly
#: ``Recommendation._fields``, in order.
_row = partial(tuple.__new__, Recommendation)


class _BatchRows:
    """One batch's step-6 columns, shared by its requests' views: label
    texts and score, Search Count, Recall Count and ``c`` per row — no
    model, no graph.  ``rows`` is ``None`` until a view's first read
    builds them (idempotent: a racing build makes equal rows)."""

    __slots__ = ("texts", "columns", "rows")

    def __init__(self, strings: List[str], *columns: np.ndarray) -> None:
        self.texts, self.columns = strings, columns
        self.rows: Optional[List[Recommendation]] = None

    def built(self) -> List[Recommendation]:
        if self.rows is None:
            self.rows = list(map(_row, zip(
                self.texts, *(column.tolist() for column in self.columns))))
        return self.rows


class RowView(abc.Sequence):
    """One request's ranked recommendations: a read-only
    ``Sequence[Recommendation]`` over its slice of a batch's columns.

    ``len`` and :meth:`texts` build no row; any other read builds the
    batch's rows once and slices them.  A view equals the list (or
    tuple, or view) of its rows and pickles as that list, as
    a graph's :class:`~repro.core.model.LazyStringList` does.
    """

    __slots__ = ("_batch", "_lo", "_hi")

    def __init__(self, batch: _BatchRows, lo: int, hi: int) -> None:
        self._batch, self._lo, self._hi = batch, lo, hi

    def _rows(self) -> List[Recommendation]:
        return self._batch.built()[self._lo:self._hi]

    def texts(self) -> List[str]:
        """The ranked keyphrase texts, a new plain list."""
        return self._batch.texts[self._lo:self._hi]

    def __len__(self) -> int:
        return self._hi - self._lo

    def __getitem__(self, index):
        return self._rows()[index]

    def __iter__(self) -> Iterator[Recommendation]:
        return iter(self._rows())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (list, tuple, RowView)):
            return len(self) == len(other) and self._rows() == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"RowView({self._rows()!r})"

    def __reduce__(self):
        return (list, (self._rows(),))


#: What a request without rows answers; every such request shares it.
EMPTY_ROWS = RowView(_BatchRows([]), 0, 0)


def _count_and_prune(keys: np.ndarray, entry_bounds: np.ndarray, k: int,
                     longest: int
                     ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Step 4: the paper's count-array pruning (Section III-F) for every
    item of a chunk at once (``k >= 1``), straight from its sorted keys;
    item by item it equals :func:`repro.core.inference.prune_by_count_groups`.

    Item ``i``'s keys span ``entry_bounds[i]:entry_bounds[i + 1]`` (at
    least one key in all); each run of equal keys is one candidate and
    its length the count ``c``, at most ``longest``.  Level ``c`` is a
    mask over the entries, True where a run of length ``>= c`` starts:
    level 1 is the run starts, level ``c`` is level ``c - 1`` where the
    run's ``c``-th entry still equals its first.  One bool pass builds
    each level, up to the longest run (at most curation's
    ``max_tokens``).  A level's per-item sum is the count array's
    column ``c``, needed only while some item can reach ``k`` there; an
    item's cutoff is the deepest level where it holds ``k`` candidates
    (1, keeping everything, without a k-th one).  The levels summed per
    position are each run's ``c`` (``1 + Σ level_c``, 0 off a run
    start), so one ``flatnonzero`` of ``c >= cutoff`` finds every
    survivor.

    Returns:
        ``(kept, sizes, counts)``: ascending positions in ``keys`` of
        the surviving runs' starts, each item's survivor count, and each
        survivor's ``c``.
    """
    total = len(keys)
    entries = np.diff(entry_bounds)
    answered = entries > 0
    firsts = entry_bounds[:-1][answered]
    equal = keys[1:] == keys[:-1]
    level = np.empty(total, dtype=bool)
    level[0] = True
    np.logical_not(equal, out=level[1:])
    width = np.min_scalar_type(longest)
    depth = level.astype(width)
    cutoff = np.ones(len(firsts), dtype=width)
    tally = np.min_scalar_type(total)
    for c in range(2, min(longest, total) + 1):
        deeper = np.zeros(total, dtype=bool)
        np.logical_and(level[:total - c + 1], equal[c - 2:],
                       out=deeper[:total - c + 1])
        found = np.count_nonzero(deeper)
        if not found:
            break
        level = deeper
        depth += level
        if found >= k:
            cutoff += np.add.reduceat(level, firsts, dtype=tally) >= k
    kept = np.flatnonzero(depth >= np.repeat(cutoff, entries[answered]))
    return (kept, np.diff(np.searchsorted(kept, entry_bounds)),
            depth[kept].astype(np.int64))


def _label_texts(plane: "GraphPlane", labels: np.ndarray) -> List[str]:
    """Keyphrase strings of the plane's stacked ``labels``."""
    return plane.strings.take(plane.text_ids[labels])


class RankedColumns(NamedTuple):
    """A batch's ranked rows as columns: steps 1-5 done, step 6 not.

    A ranked row is a pure function of (stacked label id, c, score) —
    its text, Search Count and Recall Count are read from the plane —
    so these five arrays are all of a result that is not already in
    the model artifact.  They are what a cluster worker ships
    (:func:`repro.cluster.protocol.pack_ranked`); whoever holds the same
    artifact turns them into rows with :func:`materialise`.

    Attributes:
        requests: Index (into the batch) of each request that has rows,
            in the engine's graph-bucketed order.
        sizes: Its row count.
        labels: Per row, back to back in that order and ranked within a
            request: the label's stacked id in the model's plane, inside
            its owning graph's ``label_base[g]:label_base[g + 1]``.
        counts: Per row, ``c = |T ∩ l|``.
        scores: Per row, the alignment score as the engine computed it.
    """

    requests: np.ndarray
    sizes: np.ndarray
    labels: np.ndarray
    counts: np.ndarray
    scores: np.ndarray


def materialise(plane: "GraphPlane", ranked: RankedColumns,
                n_requests: int) -> List[RowView]:
    """Step 6, the only implementation: a batch's ranked columns → one
    :class:`RowView` per request (:data:`EMPTY_ROWS` for a request
    without rows), in batch order.

    The labels' texts are read in one take, their Search and Recall
    Counts in one gather each; no row is built until a view is read.
    Nothing is validated here — the engine hands over what it just
    computed, and columns that crossed a wire are checked by their
    codec before they get this far.
    """
    results = [EMPTY_ROWS] * n_requests
    labels = ranked.labels
    batch = _BatchRows(_label_texts(plane, labels), ranked.scores,
                       plane.search_counts[labels],
                       plane.recall_counts[labels], ranked.counts)
    cuts = np.append(0, np.cumsum(ranked.sizes)).tolist()
    for index, lo, hi in zip(ranked.requests.tolist(), cuts, cuts[1:]):
        if hi > lo:
            results[index] = RowView(batch, lo, hi)
    return results


class _Interned(NamedTuple):
    """A batch's titles interned once (steps 1-2), in
    :func:`graph_order`; a chunk is a slice of them.

    Attributes:
        indices: Per item, in that order, its request's batch index.
        owners: Its graph's plane index.
        n_tokens: Its ``|T|``, distinct title tokens, unknown included.
        token_bounds: Item ``i``'s tokens are
            ``token_bounds[i]:token_bounds[i + 1]``.
        entry_bounds: Its adjacency entries, numbered across the batch.
        shifts: Per token, its first entry's position in the plane's
            ``indices`` less that entry's batch number.
        degrees: Per token, its adjacency entry count.
        cells: The model's cell ranks, covering every title here.
    """

    indices: np.ndarray
    owners: np.ndarray
    n_tokens: np.ndarray
    token_bounds: np.ndarray
    entry_bounds: np.ndarray
    shifts: np.ndarray
    degrees: np.ndarray
    cells: "CellRanks"


def graph_order(model: "GraphExModel",
                requests: Sequence[InferenceRequest]
                ) -> Tuple[List[int], np.ndarray]:
    """The batch's request indices grouped by the graph that serves
    them (graphs by first request, batch order within one; a request
    with no graph is left out), and per index that graph's plane
    index.  The engine chunks this order and a fleet plan cuts it."""
    graph_index = model.graph_index
    groups: Dict[int, List[int]] = {}
    for index, (_item_id, _title, leaf_id) in enumerate(requests):
        owner = graph_index(leaf_id)
        if owner is not None:
            groups.setdefault(owner, []).append(index)
    order = [index for indices in groups.values() for index in indices]
    owners = np.repeat(list(groups), [len(indices) for indices
                                      in groups.values()])
    return order, owners


class LeafBatchRunner:
    """Vectorized batch inference: Algorithm 1 over cross-leaf chunks.

    The engine ranks a whole chunk — items of several leaves — through
    the model's cell ranks, scored by its alignment, one of the
    registry's element-wise LTA/WMR/JAC: a model takes nothing else
    (:class:`~repro.core.model.GraphExModel`), so there is nothing to
    probe here.

    Args:
        model: The serving :class:`~repro.core.model.GraphExModel`.
        k: Target predictions per item (whole count-groups kept; ``k <= 0``
            yields no predictions, matching the scalar path's contract).
        hard_limit: Optional strict per-item cap applied after ranking
            (must be ``None`` or ``>= 0``).

    Raises:
        TypeError: If ``k`` or ``hard_limit`` is not an integer.
        ValueError: If ``hard_limit`` is negative.
    """

    def __init__(self, model: "GraphExModel", k: int = 10,
                 hard_limit: Optional[int] = None) -> None:
        validate_limits(k, hard_limit)
        self._model = model
        self._k = k
        self._hard_limit = hard_limit
        #: Per plane graph, its vocabulary dict's C-level ``get``.
        self._word_ids = [graph.word_vocab.get
                          for graph in model.plane_graphs]

    def run_indexed(self, requests: Sequence[InferenceRequest]
                    ) -> List[RowView]:
        """Infer a batch, returning per-request results in input order:
        :meth:`run_ranked`, then :func:`materialise`.

        Duplicate item ids are *not* collapsed — the i-th output
        belongs to ``requests[i]``.  This is the unit a shard returns on
        every substrate: the caller scatters shard outputs back by
        request index, which preserves the scalar loop's
        last-request-wins semantics even when duplicates of one item id
        land in different shards.  Each output is a :class:`RowView`;
        no row is built until one is read.
        """
        return materialise(self._model.plane, self.run_ranked(requests),
                           len(requests))

    def run_ranked(self, requests: Sequence[InferenceRequest]
                   ) -> RankedColumns:
        """Infer a batch up to the ranked columns — steps 1-5, no row
        built, labels stacked: the batch interned once, then ranked
        chunk by chunk.  The cluster worker stops here and ships the
        columns."""
        pieces = []
        for indices, chunk in self._chunks(requests):
            ranked = self._rank_chunk(*chunk)
            if ranked is not None:
                sizes = ranked[0]
                answered = np.flatnonzero(sizes)
                pieces.append((indices[answered], sizes[answered],
                               *ranked[1:]))
        if not pieces:
            empty = np.empty(0, dtype=np.int64)
            return RankedColumns(empty, empty, empty, empty,
                                 np.empty(0, dtype=np.float64))
        if len(pieces) == 1:
            return RankedColumns(*pieces[0])
        return RankedColumns(*map(np.concatenate, zip(*pieces)))

    def _chunks(self, requests: Sequence[InferenceRequest]
                ) -> Iterator[Tuple[np.ndarray, Tuple[_Interned, int, int]]]:
        """The batch interned once (:meth:`_intern`), then its
        :func:`graph_order` cut every CHUNK_ITEMS items: a large group
        splits, small groups share a chunk.  Per chunk, its request
        indices and its extent ``(interned, lo, hi)`` in the interned
        batch."""
        if self._k <= 0 or self._hard_limit == 0:
            return
        interned = self._intern(requests)
        if interned is None:
            return
        n_items = len(interned.indices)
        for lo in range(0, n_items, CHUNK_ITEMS):
            hi = min(lo + CHUNK_ITEMS, n_items)
            yield interned.indices[lo:hi], (interned, lo, hi)

    def _intern(self, requests: Sequence[InferenceRequest]
                ) -> Optional[_Interned]:
        """Steps 1-2 for the whole batch: :func:`graph_order`, then
        each title's words' ids in its graph and their adjacency
        extents in the plane, once per call; ``None`` when no request
        has a graph.  An unknown word is -1, whose row pointers (the
        one before its graph's first, and that first, which is 0) clip
        to degree 0.  |T| counts unknown tokens too — it is the |T| the
        alignment functions see."""
        order, owners = graph_order(self._model, requests)
        if not order:
            return None
        plane = self._model.plane
        tokenizer = self._model.tokenizer
        word_ids = self._word_ids
        unknown = repeat(-1)
        n_tokens: List[int] = []
        flat: List[int] = []
        for index, owner in zip(order, owners.tolist()):
            tokens = dict.fromkeys(tokenizer(requests[index][1]))
            n_tokens.append(len(tokens))
            flat.extend(map(word_ids[owner], tokens, unknown))
        token_owners = np.repeat(owners, n_tokens)
        rows = (np.asarray(flat, dtype=np.int64)
                + plane.word_base[token_owners])
        pointers = plane.indptr[rows[:, None] + [0, 1]]   # both ends
        degrees = np.maximum(pointers[:, 1] - pointers[:, 0], 0)
        token_entries = np.append(0, np.cumsum(degrees))
        token_bounds = np.append(0, np.cumsum(n_tokens))
        return _Interned(
            np.asarray(order, dtype=np.int64), owners,
            np.asarray(n_tokens, dtype=np.int64), token_bounds,
            token_entries[token_bounds],
            (pointers[:, 0] + plane.entry_base[token_owners]
             - token_entries[:-1]), degrees,
            self._model.cell_ranks(max(n_tokens)))

    def _rank_chunk(self, interned: _Interned, lo: int, hi: int
                    ) -> Optional[Tuple[np.ndarray, ...]]:
        """Steps 3-5 for items ``lo:hi`` of the batch's ``interned``
        order, capped at ``hard_limit``: ``(sizes, labels, counts,
        scores)`` — each item's row count, then per row in ranked order
        its stacked label, ``c`` and score — or ``None`` when no title
        word of the chunk is in any of its graphs.  Every array step
        runs once for the chunk, over the model's plane."""
        plane = self._model.plane
        first, last = interned.entry_bounds[[lo, hi]].tolist()
        if first == last:
            return None

        # Gather: one index vector holds every adjacency entry's
        # position in the plane's ``indices``; one read copies them out.
        tokens = slice(*interned.token_bounds[[lo, hi]].tolist())
        positions = (np.repeat(interned.shifts[tokens],
                               interned.degrees[tokens])
                     + np.arange(first, last, dtype=np.int64))
        entry_bounds = interned.entry_bounds[lo:hi + 1] - first
        candidates = plane.indices[positions]

        # Count: item i owns the key slot [slots[i], slots[i + 1]), as
        # wide as its graph's label set, so in the sorted keys every run
        # is one (item, label) candidate and its length the duplication
        # count c = |T ∩ l| — ascending by (item, label), the order the
        # scalar path enumerates in.  The cost is the sort's, O(E log E)
        # in the chunk's adjacency entries whatever the graphs' widths.
        # Sorted, item i's entries still span entry_bounds[i]:
        # entry_bounds[i + 1], so its candidates are the runs there.
        # The prune passes once over the entries per run length, and
        # c <= |T| (the bound passed), c <= |l| <= max_tokens.
        owners = interned.owners[lo:hi]
        n_tokens = interned.n_tokens[lo:hi]
        slots = np.append(0, np.cumsum(plane.widths[owners]))
        keys = _narrow(
            candidates + np.repeat(slots[:-1], np.diff(entry_bounds)),
            slots[-1])
        keys.sort()
        kept, sizes, counts = _count_and_prune(keys, entry_bounds, self._k,
                                               int(n_tokens.max()))
        row_bounds = np.append(0, np.cumsum(sizes))
        item_of = np.repeat(np.arange(len(sizes)), sizes)
        # A row's stacked label: its key less its slot, plus its graph's
        # label base.
        labels = keys[kept].astype(np.int64) - np.repeat(
            slots[:-1] - plane.label_base[owners], sizes)

        # Rank: integer score ranks, then one segmented lexsort keyed by
        # (item, rank): the scalar path's (score desc, S desc, R asc,
        # label id asc), as rows enter label-ascending, lexsort is stable
        # and the plane numbers labels by (S desc, R asc, builder id).
        # A row's score is a function of its cell (c, |l|, |T|), and the
        # model holds every cell's dense rank (one gather here).
        cells, width = interned.cells, interned.cells.width
        ranks = cells.ranks[np.repeat(n_tokens * width ** 2, sizes)
                            + plane.label_lengths[labels] * width
                            + counts]
        order = np.lexsort((ranks, _narrow(item_of)))

        if self._hard_limit is not None:
            # Cap each item's segment *before* materialising; rows past
            # the per-item limit never reach the output.  A limit past
            # the chunk's rows caps nothing, and so fits int64.
            sizes = np.minimum(sizes, min(self._hard_limit, len(ranks)))
            capped_bounds = np.append(0, np.cumsum(sizes))
            order = order[
                np.repeat(row_bounds[:-1] - capped_bounds[:-1], sizes)
                + np.arange(capped_bounds[-1], dtype=np.int64)]

        return (sizes, labels[order], counts[order],
                -cells.negated[ranks[order]])
