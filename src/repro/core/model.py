"""GraphEx model: per-leaf-category bipartite graph construction.

Construction (paper Section III-D) is training-free: for each leaf
category, unique words of the curated keyphrases form the left vertex set
``X``, the keyphrases form the right set ``Y``, and an edge ``(x, y)``
exists whenever word ``x`` occurs in keyphrase ``y``.  Graphs are stored
in CSR with words and labels interned as integers; Search and Recall
counts live in parallel arrays indexed by label id (O(1) lookup).

One :class:`GraphExModel` covers a whole meta category — the leaf graphs
are handled internally via a dict, so no per-leaf model management is
needed (Section III-F).

Two interchangeable builders construct the graphs, mirroring the
two-engine inference split:

* ``reference`` — :func:`build_leaf_graph`'s scalar loop (one
  ``Vocabulary.add`` and edge tuple per token per label).  It is the
  semantics reference the equivalence suite checks against.
* ``fast`` (default) — the bulk engine in
  :mod:`repro.core.fast_construct`: shared memoized tokenization, one
  ``np.unique`` interning pass per leaf and array-native CSR assembly;
  ``executor=`` may hand whole-leaf shards to a fleet of worker
  processes.  The built model is bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .alignment import AlignmentFunction, get_alignment
from .csr import CSRGraph
from .curation import CuratedKeyphrases, CuratedLeaf
from .inference import Recommendation, recommend_from_graph
from .tokenize import DEFAULT_TOKENIZER, SpaceTokenizer, Tokenizer
from .vocab import Vocabulary

#: Interchangeable construction paths (scalar reference vs bulk engine).
BUILDERS = ("reference", "fast")


@dataclass
class LeafGraph:
    """The bipartite word→keyphrase graph of one leaf category.

    Attributes:
        leaf_id: Leaf category id this graph serves.
        word_vocab: Interning of the unique words (left vertices).
        graph: CSR adjacency from word id to label id.
        label_texts: Keyphrase strings in label-id order.  Any
            integer-indexable sequence of str: an ordinary list on
            built/copied models, a lazy decode-on-access view
            (:class:`repro.core.serialization.LazyStringList`) on
            mmap-opened ones — both compare equal element-wise.
        label_lengths: Unique-token count ``|l|`` per label.
        search_counts: Search Count ``S(l)`` per label.  On an
            mmap-opened model this (like every array here) is a
            read-only view over the artifact file.
        recall_counts: Recall Count ``R(l)`` per label.
    """

    leaf_id: int
    word_vocab: Vocabulary
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


def build_leaf_graph(curated: CuratedLeaf,
                     tokenizer: Tokenizer) -> LeafGraph:
    """Construct one leaf's bipartite graph from curated keyphrases."""
    vocab = Vocabulary()
    edges: List[Tuple[int, int]] = []
    label_lengths = np.empty(len(curated), dtype=np.int32)
    for label_id, text in enumerate(curated.texts):
        unique_tokens = list(dict.fromkeys(tokenizer(text)))
        label_lengths[label_id] = max(1, len(unique_tokens))
        for token in unique_tokens:
            edges.append((vocab.add(token), label_id))
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


class GraphExModel:
    """The GraphEx keyphrase recommender for one meta category.

    Use :meth:`construct` to build from curated keyphrases; construction
    involves no weight updates or hyper-parameter training and completes
    in seconds even for large categories (paper Section IV-G).

    A model is what its artifact header can name, checked here once: a
    :class:`SpaceTokenizer` (``TypeError`` otherwise) and a registry
    alignment name (``ValueError``).  A new tokenization scheme is a
    new ``SpaceTokenizer`` spec field, not a callable.

    Args:
        leaf_graphs: Leaf-id → :class:`LeafGraph` mapping.
        tokenizer: The tokenizer shared by construction and inference.
        alignment: Registry name of the alignment ("lta"/"wmr"/"jac").
        pooled_graph: Optional single pooled graph covering every leaf
            (per-leaf vs pooled ablation; also the fallback for items whose
            leaf has no graph).
    """

    def __init__(self, leaf_graphs: Dict[int, LeafGraph],
                 tokenizer: SpaceTokenizer = DEFAULT_TOKENIZER,
                 alignment: str = "lta",
                 pooled_graph: Optional[LeafGraph] = None) -> None:
        self._alignment = _check_spec(tokenizer, alignment)
        self._leaf_graphs = dict(leaf_graphs)
        self._tokenizer = tokenizer
        self._alignment_name = alignment
        self._pooled = pooled_graph
        #: Which saved artifact this model was opened from — set by
        #: :func:`repro.core.serialization.load_model` / ``open_model``,
        #: ``None`` for a model built in memory.  Two models share it
        #: exactly when they were opened from the same save, which is
        #: what lets a cluster ship label ids instead of rows.
        self.artifact_identity: Optional[str] = None

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
                (:func:`~repro.core.fast_construct.pool_leaf_graphs`),
                the reference builder from the pooled curated rows'
                text; same graph either way.
            builder: ``"fast"`` (default) uses the bulk construction
                engine (:mod:`repro.core.fast_construct`): shared
                memoized tokenization, one ``np.unique`` interning pass
                per leaf, array-native CSR assembly.  ``"reference"``
                keeps the scalar per-token loop; both yield bit-identical
                models (pinned by ``tests/test_fast_construct.py``).
            executor: Where the fast builder's whole-leaf shards run —
                ``None`` / ``"serial"`` (the calling thread, default)
                or an :class:`repro.core.execution.Executor` instance
                (a ``ClusterExecutor`` carries its own fleet).  The
                built model is bit-identical either way.

        Raises:
            TypeError, ValueError: A spec the class refuses, before any
                leaf is built.
            ValueError: On an unknown builder or executor spelling, or
                an out-of-process executor with the reference builder
                (the scalar path stays single-process as the semantics
                oracle).
        """
        _check_spec(tokenizer, alignment)
        if builder not in BUILDERS:
            raise ValueError(f"unknown builder {builder!r}; "
                             f"expected one of {BUILDERS}")
        # Imported lazily: the execution plane reaches this module
        # through the engines it wraps, so a top-level import would be
        # a cycle.
        from .execution import resolve_executor
        exec_ = resolve_executor(executor, engine=builder)
        if builder == "fast":
            from .fast_construct import pool_leaf_graphs

            leaf_graphs = exec_.run_construction(curated, tokenizer)
            pooled = None
            if build_pooled and curated.leaves:
                pooled = pool_leaf_graphs(curated, leaf_graphs)
        else:
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

    @property
    def leaf_ids(self) -> List[int]:
        """Leaf categories with a constructed graph."""
        return sorted(self._leaf_graphs)

    @property
    def n_leaves(self) -> int:
        """Number of leaf graphs."""
        return len(self._leaf_graphs)

    @property
    def n_keyphrases(self) -> int:
        """Total labels across all leaf graphs."""
        return sum(g.n_labels for g in self._leaf_graphs.values())

    @property
    def pooled_graph(self) -> Optional[LeafGraph]:
        """The pooled all-leaves graph, if built."""
        return self._pooled

    def leaf_graph(self, leaf_id: int) -> Optional[LeafGraph]:
        """The graph serving one leaf, or None."""
        return self._leaf_graphs.get(leaf_id)

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
            graph = self._pooled
        else:
            graph = self._leaf_graphs.get(leaf_id) or self._pooled
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
        graphs = list(self._leaf_graphs.values())
        if self._pooled is not None:
            graphs.append(self._pooled)
        numeric = sum(g.numeric_memory_bytes() for g in graphs)
        pool = set()
        for g in graphs:
            pool.update(g.label_texts)
            pool.update(g.word_vocab)
        return numeric + sum(len(s.encode("utf-8")) for s in pool)
