"""GraphEx model: per-leaf-category bipartite graph construction.

Construction (paper Section III-D) is training-free: for each leaf
category, unique words of the curated keyphrases form the left vertex set
``X``, the keyphrases form the right set ``Y``, and an edge ``(x, y)``
exists whenever word ``x`` occurs in keyphrase ``y``.  Graphs are stored
in CSR with words and labels interned as integers; Search and Recall
counts live in parallel arrays indexed by label id (O(1) lookup).

One :class:`GraphExModel` covers a whole meta category — the leaf graphs
are handled internally via a dict, so no per-leaf model management is
needed (Section III-F).  Its graphs are stacked into one
:class:`GraphPlane`, and each :class:`LeafGraph`'s arrays are slice views
of it: the fast engine reads a chunk of items from many graphs with one
gather per array, and an artifact stores and maps the plane whole.

Two interchangeable builders construct the graphs, mirroring the
two-engine inference split:

* ``reference`` — :func:`build_leaf_graph`'s scalar loop (one
  vocabulary ``setdefault`` and edge tuple per token per label).  It is the
  semantics reference the equivalence suite checks against.
* ``fast`` (default) — the bulk engine in
  :mod:`repro.core.fast_construct`: shared memoized tokenization, one
  ``np.unique`` interning pass per leaf and array-native CSR assembly,
  on the calling thread.  The built model is bit-identical.
"""

from __future__ import annotations

import threading
from collections import abc
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import (Dict, Iterator, List, NamedTuple, Optional, Sequence,
                    Tuple)

import numpy as np

from .alignment import AlignmentFunction, get_alignment
from .csr import CSRGraph
from .curation import CuratedKeyphrases, CuratedLeaf
from .inference import Recommendation, recommend_from_graph
from .tokenize import DEFAULT_TOKENIZER, SpaceTokenizer, Tokenizer
from .vocab import first_occurrence, intern_strings

#: Interchangeable construction paths (scalar reference vs bulk engine).
BUILDERS = ("reference", "fast")


@dataclass
class LeafGraph:
    """The bipartite word→keyphrase graph of one leaf category.

    Attributes:
        leaf_id: Leaf category id this graph serves.
        word_vocab: The unique words (left vertices), word → dense id
            in insertion order, so ``list(word_vocab)`` is them by id.
        graph: CSR adjacency from word id to label id.
        label_texts: Keyphrase strings in label-id order.  Any
            integer-indexable sequence of str: a builder's list on a
            graph built alone, and in a model a
            :class:`LazyStringList` over the plane's
            :class:`StringPool`, however the model was made.
        label_lengths: Unique-token count ``|l|`` per label.
        search_counts: Search Count ``S(l)`` per label.  In a model
            this (like every array here) is a slice view of the model's
            :class:`GraphPlane`, and on an opened model a
            read-only view over the artifact file.
        recall_counts: Recall Count ``R(l)`` per label.
    """

    leaf_id: int
    word_vocab: Dict[str, int]
    graph: CSRGraph
    label_texts: Sequence[str]
    label_lengths: np.ndarray
    search_counts: np.ndarray
    recall_counts: np.ndarray

    @property
    def n_labels(self) -> int:
        """Number of keyphrases on the right side."""
        return len(self.label_texts)

    def numeric_memory_bytes(self) -> int:
        """Exact bytes of the leaf's numeric arrays (CSR + label arrays)."""
        return (self.graph.memory_bytes()
                + self.label_lengths.nbytes
                + self.search_counts.nbytes
                + self.recall_counts.nbytes)

    def memory_bytes(self) -> int:
        """Exact in-memory footprint of the numeric arrays plus the UTF-8
        payload of the label and vocabulary strings (Figure 6b sizing)."""
        strings = sum(len(t.encode("utf-8")) for t in self.label_texts)
        words = sum(len(w.encode("utf-8")) for w in self.word_vocab)
        return self.numeric_memory_bytes() + strings + words


class StringPool:
    """A model's strings by pool id, read in bulk: one fancy index and
    one ``tolist`` per :meth:`take`.

    A built model's pool holds every string decoded.  An opened model's
    (:meth:`over`) holds the payload's UTF-8 ``blob`` and its ``n + 1``
    ``byte_offsets``: a string is decoded on first read and kept, so an
    open pays for exactly the strings it touches (eagerly: vocabulary
    words, which the interning dict needs; lazily: label texts, which
    only materialised recommendations read).  Decoded strings live in
    one object array indexed by pool id (``None`` until read; 8 bytes
    per string), beside one bool per string saying whether it is
    decoded, so every read hands out the same ``str``, and counted:
    none on a built pool, all of them on a fresh open.

    A read that misses decodes its misses in one pass, by pool id:
    one C-level ``map`` slices and decodes each string on its own (so
    each is validated as UTF-8 alone), one fancy assignment stores
    them and the count drops once.  A string that is not UTF-8 raises
    ``UnicodeDecodeError`` before anything is stored, so the count
    stays exact and the other strings still read.
    """

    __slots__ = ("_table", "_blob", "_byte_offsets", "_decoded",
                 "_undecoded")
    _decode_lock = threading.Lock()

    def __init__(self, table: np.ndarray,
                 blob: Optional[np.ndarray] = None,
                 byte_offsets: Optional[np.ndarray] = None) -> None:
        self._table, self._blob, self._byte_offsets = \
            table, blob, byte_offsets
        self._decoded = None if blob is None else np.zeros(len(table),
                                                           dtype=bool)
        self._undecoded = 0 if blob is None else len(table)

    @classmethod
    def over(cls, blob: np.ndarray, byte_offsets: np.ndarray
             ) -> "StringPool":
        """The ``len(byte_offsets) - 1`` strings of a UTF-8 ``blob``,
        none decoded yet."""
        return cls(np.full(len(byte_offsets) - 1, None, dtype=object),
                   blob, byte_offsets)

    def __len__(self) -> int:
        return len(self._table)

    def __getitem__(self, pool_id: int) -> str:
        return self.take(np.array([pool_id]))[0]

    def take(self, pool_ids: np.ndarray) -> List[str]:
        """The strings of ``pool_ids``, in order: one fancy index once
        they are decoded (the steady state of a serving model, which
        takes no lock); while some string is undecoded, one mask read
        finds the misses and one pass decodes them."""
        if self._undecoded and not self._decoded[pool_ids].all():
            # One decoder at a time keeps the count exact.
            with self._decode_lock:
                wanted = np.zeros(len(self._table), dtype=bool)
                wanted[pool_ids[~self._decoded[pool_ids]]] = True
                misses = np.flatnonzero(wanted)
                blob = memoryview(self._blob)
                texts = list(map(str, map(blob.__getitem__, map(
                    slice, self._byte_offsets[misses].tolist(),
                    self._byte_offsets[misses + 1].tolist())),
                    repeat("utf-8")))
                self._table[misses] = texts
                self._decoded[misses] = True
                self._undecoded -= len(misses)
        return self._table[pool_ids].tolist()


class LazyStringList(abc.Sequence):
    """A graph's label texts: a list-equivalent view of its labels'
    strings in the model's :class:`StringPool`.

    Every graph's ``label_texts`` is one, on built and opened models
    alike (:meth:`GraphPlane.leaf`).  Indexing, iteration, ``len`` and
    equality behave exactly like a ``list`` of the texts; iteration and
    slices are one :meth:`StringPool.take`, so nothing is decoded until
    read and no Python call runs per string.  Pickled alone it
    materialises a plain list; a pickled model ships its pool once and
    cuts its views from it again.
    """

    __slots__ = ("_pool", "_ids")

    def __init__(self, pool: StringPool, ids: np.ndarray) -> None:
        self._pool, self._ids = pool, ids

    def __len__(self) -> int:
        return len(self._ids)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self._pool.take(self._ids[index])
        return self._pool[self._ids[index]]

    def __iter__(self) -> Iterator[str]:
        return iter(self._pool.take(self._ids))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (list, tuple, LazyStringList)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"LazyStringList({list(self)!r})"

    def __reduce__(self):
        return (list, (list(self),))


def intern_graphs(graphs: Sequence[LeafGraph]
                  ) -> Tuple[np.ndarray, List[Tuple[np.ndarray, np.ndarray]]]:
    """Every graph's words and builder-order labels interned by one
    :func:`~repro.core.vocab.intern_strings` pass: the distinct strings
    as an object array, and per graph its words' and labels' ids."""
    strings, ids = intern_strings([part for graph in graphs for part in
                                   (graph.word_vocab, graph.label_texts)])
    return (np.fromiter(strings, dtype=object, count=len(strings)),
            list(zip(ids[0::2], ids[1::2])))


def _narrow(values: np.ndarray, top: Optional[int] = None) -> np.ndarray:
    """Non-negative integers in the smallest unsigned dtype that holds
    ``top``, a bound on them (their maximum when not given).

    A sort key's order does not depend on its width, but its speed
    does: ``np.lexsort`` radix-sorts keys of 16 bits or fewer and
    merge-sorts wider ones (as it did the engine's old float64 score
    key), an order of magnitude apart per row, and ``np.sort`` moves
    half the bytes per 32-bit key that it does per 64-bit one.
    """
    return values.astype(np.min_scalar_type(
        int(values.max(initial=0) if top is None else top)))


class CellRanks(NamedTuple):
    """The dense score rank of every ``(c, |l|, |T|)`` cell a model's
    fast engine can meet: ``1 <= c <= min(|l|, |T|)``, ``|l|`` up to
    the plane's longest label and ``|T|`` below ``titles``.

    Cell ``(c, l, t)`` sits at ``(t * width + l) * width + c`` of
    ``ranks``, ``width`` being the longest label plus one, and its score
    is ``-negated[rank]``: ``negated`` holds the distinct negated
    scores ascending, so equal scores rank equal and a higher score
    ranks lower.  Every other cell holds 0 and is never read.  Each
    score is the alignment's, element-wise, on the cell's integers, so
    it is the float the scalar path computes for a row of that cell.
    """

    negated: np.ndarray
    ranks: np.ndarray
    width: int
    titles: int

    @classmethod
    def score(cls, alignment: AlignmentFunction, longest_label: int,
              titles: int) -> "CellRanks":
        """Score every cell of titles below ``titles`` tokens once."""
        width = longest_label + 1
        title, length, count = np.indices(
            (titles, width, width)).reshape(3, -1)
        cells = np.flatnonzero((count >= 1) & (count <= length)
                               & (count <= title))
        negated, ranks = np.unique(
            -alignment(count[cells], length[cells], title[cells]),
            return_inverse=True)
        table = np.zeros(len(title), dtype=np.min_scalar_type(len(negated)))
        table[cells] = ranks
        return cls(negated, table, width, titles)


class GraphPlane(NamedTuple):
    """Every graph of a model stacked into one set of arrays.

    Graph ``g``'s arrays are the slices between its bases:
    ``indptr[word_base[g]:word_base[g + 1]]`` holds its own CSR row
    pointers (its rows plus one, starting at 0, so its ids stay local),
    ``indices[entry_base[g]:entry_base[g + 1]]`` its adjacency entries
    (local label ids), the four label arrays' slices
    ``[label_base[g]:label_base[g + 1]]`` its labels, and
    ``word_ids[vocab_base[g]:vocab_base[g + 1]]`` its vocabulary words.
    A base array holds one entry per graph plus one, and labels are in
    :meth:`assemble`'s static order.  ``text_ids`` and ``word_ids`` are
    ids into ``strings``, the model's one pool, in its artifact's order
    however the model was made.  A model's :class:`LeafGraph` arrays and
    label texts are views of these (:meth:`leaf`), so the fast engine
    reads a chunk of items from many graphs with one gather per array,
    and an artifact stores the plane as it is.
    """

    indptr: np.ndarray
    indices: np.ndarray
    label_lengths: np.ndarray
    search_counts: np.ndarray
    recall_counts: np.ndarray
    text_ids: np.ndarray
    word_ids: np.ndarray
    strings: StringPool
    word_base: np.ndarray
    entry_base: np.ndarray
    label_base: np.ndarray
    vocab_base: np.ndarray
    #: Per graph, the key slot an item of it owns in an engine chunk:
    #: its label count, 1 for a label-less graph.
    widths: np.ndarray

    @classmethod
    def over(cls, indptr: np.ndarray, indices: np.ndarray,
             label_lengths: np.ndarray, search_counts: np.ndarray,
             recall_counts: np.ndarray, text_ids: np.ndarray,
             word_ids: np.ndarray, strings, rows: Sequence[int],
             words: Sequence[int], edges: Sequence[int],
             labels: Sequence[int]) -> "GraphPlane":
        """A plane over stacked arrays, each graph's extent given by
        its CSR row, vocabulary word, edge and label counts."""
        counts = np.zeros((4, len(rows) + 1), dtype=np.int64)
        counts[:, 1:] = (rows, edges, labels, words)
        counts[0, 1:] += 1
        return cls(indptr, indices, label_lengths, search_counts,
                   recall_counts, text_ids, word_ids, strings,
                   *np.cumsum(counts, axis=1), np.maximum(counts[2, 1:], 1))

    @classmethod
    def stack(cls, graphs: Sequence["LeafGraph"]) -> "GraphPlane":
        """:meth:`assemble` ``graphs``, their strings interned by one
        :func:`intern_graphs` pass."""
        return cls.assemble(graphs, *intern_graphs(graphs))

    @classmethod
    def assemble(cls, graphs: Sequence["LeafGraph"], strings: np.ndarray,
                 ids: Sequence[Tuple[np.ndarray, np.ndarray]]
                 ) -> "GraphPlane":
        """Copy ``graphs``' arrays, in order, into one plane, each
        graph's labels renumbered by (S desc, R asc, own id asc): the
        label id is then the whole tie-break after the score.  Rows keep
        their build order (both engines sort what they gather).

        ``ids[g]`` are graph ``g``'s words and builder-order labels as
        indices into ``strings`` (:func:`intern_graphs`).  The pool is
        ordered as an artifact holds it — graph by graph, words then
        static-order labels, first occurrence wins — on those ids."""
        def stacked(arrays: List[np.ndarray], dtype) -> np.ndarray:
            return np.concatenate(arrays) if arrays else np.empty(0, dtype)

        labels = [g.n_labels for g in graphs]
        words = [len(word_ids) for word_ids, _labels in ids]
        plane = cls.over(
            stacked([g.graph.indptr for g in graphs], np.int64),
            stacked([g.graph.indices for g in graphs], np.int32),
            stacked([g.label_lengths for g in graphs], np.int32),
            stacked([g.search_counts for g in graphs], np.int64),
            stacked([g.recall_counts for g in graphs], np.int64),
            stacked([label_ids for _words, label_ids in ids], np.int64),
            stacked([word_ids for word_ids, _labels in ids], np.int64),
            None, [g.graph.n_left for g in graphs], words,
            [g.graph.n_edges for g in graphs], labels)
        search, recall = plane.search_counts, plane.recall_counts
        by_search = _narrow(search.max(initial=0) - search)
        by_recall = _narrow(recall - recall.min(initial=0))
        static = np.empty(len(search), dtype=np.int64)
        for lo, hi, start, end in zip(
                plane.label_base[:-1].tolist(), plane.label_base[1:].tolist(),
                plane.entry_base[:-1].tolist(), plane.entry_base[1:].tolist()):
            order = np.lexsort((by_recall[lo:hi], by_search[lo:hi]))
            static[lo:hi] = order + lo
            new_ids = np.empty(hi - lo, dtype=np.int32)
            new_ids[order] = np.arange(hi - lo, dtype=np.int32)
            plane.indices[start:end] = new_ids[plane.indices[start:end]]
        for column in (plane.label_lengths, search, recall, plane.text_ids):
            column[:] = column[static]
        del by_search, by_recall, static   # freed: the pool order is the peak
        is_label = np.repeat(np.tile([False, True], len(graphs)), np.array(
            [words, labels], dtype=np.int64).T.ravel())
        sequence = np.empty(len(is_label), dtype=np.int64)
        sequence[~is_label], sequence[is_label] = \
            plane.word_ids, plane.text_ids
        distinct, (pool_ids,) = first_occurrence([sequence], len(strings))
        plane.word_ids[:], plane.text_ids[:] = \
            pool_ids[~is_label], pool_ids[is_label]
        return plane._replace(strings=StringPool(strings[distinct]))

    def leaf(self, g: int, leaf_id: int,
             word_vocab: Dict[str, int]) -> "LeafGraph":
        """Graph ``g`` as a :class:`LeafGraph` whose arrays and label
        texts are views of this plane, its CSR not checked again (it
        spans ``max(1, labels)`` right vertices, as every builder's)."""
        words = self.word_base[g:g + 2].tolist()
        entries = self.entry_base[g:g + 2].tolist()
        lo, hi = self.label_base[g:g + 2].tolist()
        return LeafGraph(
            leaf_id=leaf_id,
            word_vocab=word_vocab,
            graph=CSRGraph(self.indptr[slice(*words)],
                           self.indices[slice(*entries)], max(1, hi - lo),
                           validate=False),
            label_texts=LazyStringList(self.strings,
                                       self.text_ids[lo:hi]),
            label_lengths=self.label_lengths[lo:hi],
            search_counts=self.search_counts[lo:hi],
            recall_counts=self.recall_counts[lo:hi],
        )


def build_leaf_graph(curated: CuratedLeaf,
                     tokenizer: Tokenizer) -> LeafGraph:
    """Construct one leaf's bipartite graph from curated keyphrases."""
    vocab: Dict[str, int] = {}
    edges: List[Tuple[int, int]] = []
    label_lengths = np.empty(len(curated), dtype=np.int32)
    for label_id, text in enumerate(curated.texts):
        unique_tokens = list(dict.fromkeys(tokenizer(text)))
        label_lengths[label_id] = max(1, len(unique_tokens))
        for token in unique_tokens:
            edges.append((vocab.setdefault(token, len(vocab)), label_id))
    graph = CSRGraph.from_edges(edges, n_left=max(1, len(vocab)),
                                n_right=max(1, len(curated)))
    return LeafGraph(
        leaf_id=curated.leaf_id,
        word_vocab=vocab,
        graph=graph,
        label_texts=list(curated.texts),
        label_lengths=label_lengths,
        search_counts=np.asarray(curated.search_counts, dtype=np.int64),
        recall_counts=np.asarray(curated.recall_counts, dtype=np.int64),
    )


def _pool_leaves(leaves: Sequence[CuratedLeaf]) -> CuratedLeaf:
    """Merge all leaves into one pooled pseudo-leaf (ablation).

    Duplicate texts across leaves are merged keeping the maximum Search
    Count and minimum Recall Count.
    """
    best: Dict[str, Tuple[int, int]] = {}
    for leaf in leaves:
        for text, search, recall in zip(
                leaf.texts, leaf.search_counts, leaf.recall_counts):
            prev = best.get(text)
            if prev is None:
                best[text] = (search, recall)
            else:
                best[text] = (max(prev[0], search), min(prev[1], recall))
    pooled = CuratedLeaf(leaf_id=-1)
    for text, (search, recall) in best.items():
        pooled.add(text, search, recall)
    return pooled


def _check_spec(tokenizer: SpaceTokenizer,
                alignment: str) -> AlignmentFunction:
    """Refuse by name a spec an artifact header cannot write — a
    tokenizer not exactly a :class:`SpaceTokenizer` (a subclass may
    override what its ``spec()`` omits), an alignment not in the
    registry; returns the alignment function."""
    if type(tokenizer) is not SpaceTokenizer:
        raise TypeError(
            f"a GraphEx model tokenizes with a SpaceTokenizer, whose "
            f"spec() its artifact header records; got "
            f"{type(tokenizer).__name__}")
    return get_alignment(alignment)


def _plane_order(leaf_graphs: Dict[int, LeafGraph],
                 pooled_graph: Optional[LeafGraph]
                 ) -> Tuple[List[Optional[int]], List[LeafGraph]]:
    """A model's keys and graphs in plane order (leaves by id, then the
    pooled graph, keyed ``None``), refusing a leaf_id not its key's."""
    pooled = {} if pooled_graph is None else {"pooled": pooled_graph}
    for key, graph in [*leaf_graphs.items(), *pooled.items()]:
        if graph.leaf_id != (-1 if key == "pooled" else key) or key == -1:
            raise ValueError(
                f"the graph keyed {key!r} has leaf_id {graph.leaf_id!r}: "
                f"a leaf graph's leaf_id is its key, the pooled "
                f"graph's -1, and no leaf is keyed -1")
    keys = sorted(leaf_graphs)
    return ([*keys, *[None] * len(pooled)],
            [*(leaf_graphs[key] for key in keys), *pooled.values()])


class GraphExModel:
    """The GraphEx keyphrase recommender for one meta category.

    Use :meth:`construct` to build from curated keyphrases; construction
    involves no weight updates or hyper-parameter training and completes
    in seconds even for large categories (paper Section IV-G).

    A model is what its artifact header can name, checked here once: a
    :class:`SpaceTokenizer` (``TypeError`` otherwise) and a registry
    alignment name (``ValueError``).  A new tokenization scheme is a
    new ``SpaceTokenizer`` spec field, not a callable.  The artifact
    names each graph by its ``leaf_id``, so a leaf graph's must be its
    key and the pooled graph's -1 (``ValueError``).

    The constructor stacks the graphs once into the model's
    :class:`GraphPlane` — leaves by id, then the pooled graph — and
    serves views of it: :meth:`leaf_graph` returns the graph passed in,
    labels renumbered in static order (:meth:`GraphPlane.assemble`,
    which every built model passes through), whose arrays share the
    plane's memory and whose label texts read the plane's string pool;
    the graphs passed in are not kept.

    Args:
        leaf_graphs: Leaf-id → :class:`LeafGraph` mapping.
        tokenizer: The tokenizer shared by construction and inference.
        alignment: Registry name of the alignment ("lta"/"wmr"/"jac").
        pooled_graph: Optional single pooled graph covering every leaf
            (per-leaf vs pooled ablation; also the fallback for items whose
            leaf has no graph).
    """

    #: One writer at a time scores a model's cell ranks.
    _cell_ranks_lock = threading.Lock()

    def __init__(self, leaf_graphs: Dict[int, LeafGraph],
                 tokenizer: SpaceTokenizer = DEFAULT_TOKENIZER,
                 alignment: str = "lta",
                 pooled_graph: Optional[LeafGraph] = None) -> None:
        _check_spec(tokenizer, alignment)
        keys, graphs = _plane_order(leaf_graphs, pooled_graph)
        self._serve(tokenizer, alignment, GraphPlane.stack(graphs),
                    [graph.word_vocab for graph in graphs], keys)

    @classmethod
    def over_plane(cls, plane: GraphPlane,
                   vocabs: Sequence[Dict[str, int]],
                   keys: Sequence[Optional[int]],
                   tokenizer: SpaceTokenizer,
                   alignment: str) -> "GraphExModel":
        """A model serving views of ``plane`` (an open's, the fast
        builder's), nothing copied: graph ``g`` has leaf id ``keys[g]``
        (``None``: the pooled graph) and vocabulary ``vocabs[g]``."""
        model = cls.__new__(cls)
        model._serve(tokenizer, alignment, plane, vocabs, keys)
        return model

    def _serve(self, tokenizer: SpaceTokenizer, alignment: str,
               plane: GraphPlane, vocabs: Sequence[Dict[str, int]],
               keys: Sequence[Optional[int]]) -> None:
        self._alignment = _check_spec(tokenizer, alignment)
        self._tokenizer = tokenizer
        self._alignment_name = alignment
        self._plane = plane
        self._graphs = [plane.leaf(g, -1 if key is None else key, vocab)
                        for g, (key, vocab) in enumerate(zip(keys, vocabs))]
        #: Leaf id → plane index of its graph; the pooled graph's index.
        self._index = {key: g for g, key in enumerate(keys)
                       if key is not None}
        self._pooled_index = keys.index(None) if None in keys else None
        #: Which saved artifact this model was opened from, and the
        #: resolved directory it was opened at — set by ``load_model`` /
        #: ``open_model``, ``None`` for a model built in memory.  Two
        #: models share the identity exactly when they were opened from
        #: the same save, which lets a cluster ship label ids, not rows.
        self.artifact_identity: Optional[str] = None
        self.artifact_dir: Optional[Path] = None
        self._cell_ranks: Optional[CellRanks] = None

    def __getstate__(self) -> dict:
        """Pickle the plane once: each graph, a view of it, goes as its
        vocabulary and is cut from the clone's plane again.  The cell
        ranks stay behind; the clone scores them again on first use."""
        state = {**self.__dict__,
                 "_graphs": [graph.word_vocab for graph in self._graphs]}
        del state["_cell_ranks"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._cell_ranks = None
        leaf_ids = {g: leaf_id for leaf_id, g in self._index.items()}
        self._graphs = [self._plane.leaf(g, leaf_ids.get(g, -1), vocab)
                        for g, vocab in enumerate(state["_graphs"])]

    @classmethod
    def construct(cls, curated: CuratedKeyphrases,
                  tokenizer: SpaceTokenizer = DEFAULT_TOKENIZER,
                  alignment: str = "lta",
                  build_pooled: bool = False,
                  builder: str = "fast",
                  executor=None) -> "GraphExModel":
        """Build the model from curated keyphrases (the "training" phase).

        Args:
            curated: Output of :func:`repro.core.curation.curate`.
            tokenizer: Tokenization scheme (must stay fixed for the model's
                lifetime; paper footnote 3).
            alignment: Registry name of the ranking alignment; default LTA.
            build_pooled: Also build a single pooled graph over all leaves
                for the per-leaf-vs-pooled ablation and leaf fallback.
                The fast builder derives it from the built leaf graphs
                and the pool ids of their one interning pass
                (:func:`~repro.core.fast_construct.pool_leaf_graphs`),
                the reference builder from the pooled curated rows'
                text; same graph either way.
            builder: ``"fast"`` (default) uses the bulk construction
                engine (:mod:`repro.core.fast_construct`): shared
                memoized tokenization, one ``np.unique`` interning pass
                per leaf, array-native CSR assembly.  ``"reference"``
                keeps the scalar per-token loop; both yield bit-identical
                models (pinned by ``tests/test_fast_construct.py``).
            executor: ``None`` / ``"serial"`` (default) or a
                :class:`repro.core.execution.SerialExecutor`, whose
                metrics registry times the fast builder's leaves.
                Construction runs on the calling thread only.

        Raises:
            TypeError, ValueError: A spec the class refuses, before any
                leaf is built.
            ValueError: On an unknown builder or executor spelling, or
                any executor but a serial one (a fleet included), before
                any leaf is built.
        """
        _check_spec(tokenizer, alignment)
        if builder not in BUILDERS:
            raise ValueError(f"unknown builder {builder!r}; "
                             f"expected one of {BUILDERS}")
        # Imported lazily: the execution plane reaches this module
        # through the engines it wraps, so a top-level import would be
        # a cycle.
        from .execution import SerialExecutor, resolve_executor
        exec_ = resolve_executor(executor)
        if not isinstance(exec_, SerialExecutor):
            raise ValueError(
                f"construction runs in process: executor= takes None, "
                f"'serial' or a SerialExecutor, not {exec_!r}")
        if builder == "reference":
            leaf_graphs = {
                leaf_id: build_leaf_graph(leaf, tokenizer)
                for leaf_id, leaf in curated.leaves.items()
                if len(leaf) > 0
            }
            pooled = None
            if build_pooled and curated.leaves:
                pooled = build_leaf_graph(
                    _pool_leaves(list(curated.leaves.values())), tokenizer)
            return cls(leaf_graphs, tokenizer=tokenizer, alignment=alignment,
                       pooled_graph=pooled)
        from .fast_construct import pool_leaf_graphs

        leaf_graphs = exec_.run_construction(curated, tokenizer)
        built = list(leaf_graphs.values())
        strings, ids = intern_graphs(built)
        interned = dict(zip(leaf_graphs, ids))
        pooled = None
        if build_pooled and curated.leaves:
            pooled, interned[None] = pool_leaf_graphs(built, strings, ids)
        keys, graphs = _plane_order(leaf_graphs, pooled)
        plane = GraphPlane.assemble(graphs, strings,
                                    [interned[key] for key in keys])
        return cls.over_plane(plane, [graph.word_vocab for graph in graphs],
                              keys, tokenizer, alignment)

    @property
    def tokenizer(self) -> SpaceTokenizer:
        """The tokenizer shared by construction and inference."""
        return self._tokenizer

    @property
    def alignment_name(self) -> str:
        """Registry name of the alignment function in use."""
        return self._alignment_name

    @property
    def alignment_fn(self) -> AlignmentFunction:
        """The resolved alignment function (shared by both engines)."""
        return self._alignment

    def cell_ranks(self, longest_title: int) -> CellRanks:
        """The fast engine's :class:`CellRanks` for titles of up to
        ``longest_title`` tokens.  The cells depend only on the
        alignment and the plane, both fixed for a model, so they are
        scored once and kept: again only when a longer title arrives,
        at least doubling the ``|T|`` axis.  Engines sharing the model
        (an NRT lane and a batch pipeline) read it without a lock; a
        rebuild is made aside and published by one assignment."""
        cells = self._cell_ranks
        if cells is None or longest_title >= cells.titles:
            with self._cell_ranks_lock:
                cells = self._cell_ranks
                if cells is None or longest_title >= cells.titles:
                    titles = longest_title + 1
                    if cells is not None:
                        titles = max(titles, 2 * cells.titles)
                    cells = CellRanks.score(
                        self._alignment,
                        int(self._plane.label_lengths.max(initial=0)),
                        titles)
                    self._cell_ranks = cells
        return cells

    @property
    def leaf_ids(self) -> List[int]:
        """Leaf categories with a constructed graph."""
        return sorted(self._index)

    @property
    def n_leaves(self) -> int:
        """Number of leaf graphs."""
        return len(self._index)

    @property
    def n_keyphrases(self) -> int:
        """Total labels across all leaf graphs."""
        return sum(self._graphs[g].n_labels for g in self._index.values())

    @property
    def pooled_graph(self) -> Optional[LeafGraph]:
        """The pooled all-leaves graph, if built."""
        pooled = self._pooled_index
        return None if pooled is None else self._graphs[pooled]

    def leaf_graph(self, leaf_id: int) -> Optional[LeafGraph]:
        """The graph serving one leaf, or None."""
        index = self._index.get(leaf_id)
        return None if index is None else self._graphs[index]

    @property
    def plane(self) -> GraphPlane:
        """Every graph's arrays, stacked."""
        return self._plane

    @property
    def plane_graphs(self) -> List[LeafGraph]:
        """The graphs in plane order: ``plane_graphs[g]`` is graph
        ``g`` of :attr:`plane`."""
        return self._graphs

    def graph_index(self, leaf_id: int) -> Optional[int]:
        """Plane index of the graph serving an item of ``leaf_id`` —
        its leaf's, else the pooled one — or ``None`` when neither
        exists."""
        index = self._index.get(leaf_id)
        return self._pooled_index if index is None else index

    def recommend(self, title: str, leaf_id: int, k: int = 10,
                  hard_limit: Optional[int] = None,
                  use_pooled: bool = False) -> List[Recommendation]:
        """Recommend keyphrases for an item title (Algorithm 1).

        Args:
            title: Raw item title string.
            leaf_id: Leaf category of the item; selects the graph in O(1).
            k: Target number of predictions.  Whole count-groups are kept,
                so slightly more than ``k`` may be returned (paper III-F).
            hard_limit: If given, truncate the ranked list to this length
                (the experiments cap at 40).
            use_pooled: Rank against the pooled graph instead of the leaf
                graph (ablation).

        Returns:
            Ranked recommendations; empty when the leaf is unknown and no
            pooled fallback exists, or no title token matches.
        """
        if use_pooled:
            graph = self.pooled_graph
        else:
            graph = self.leaf_graph(leaf_id) or self.pooled_graph
        if graph is None:
            return []
        tokens = self._tokenizer(title)
        return recommend_from_graph(
            graph, tokens, k=k, alignment_fn=self._alignment,
            hard_limit=hard_limit)

    def memory_bytes(self) -> int:
        """Exact model footprint for Figure 6b.

        Numeric arrays are summed per graph; string payloads are counted
        once per *distinct* string across all graphs (UTF-8 bytes), since
        label texts and vocabulary words shared between leaves and the
        pooled graph are interned, not duplicated — the naive per-leaf
        sum double-counts them.
        """
        numeric = sum(g.numeric_memory_bytes() for g in self._graphs)
        pool = set()
        for g in self._graphs:
            pool.update(g.label_texts)
            pool.update(g.word_vocab)
        return numeric + sum(len(s.encode("utf-8")) for s in pool)
