"""Unit and property tests for string interning, graph vocabularies
and CSRGraph."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batch import batch_recommend
from repro.core.csr import CSRGraph
from repro.core.curation import CurationConfig, CuratedKeyphrases, CuratedLeaf
from repro.core.fast_construct import build_leaf_graph_fast
from repro.core.model import BUILDERS, GraphExModel, build_leaf_graph
from repro.core.serialization import load_model, save_model
from repro.core.tokenize import DEFAULT_TOKENIZER, TokenCache
from repro.core.vocab import intern_strings
from tests.conftest import examples

#: Words, one-word labels equal to words, non-ASCII and non-BMP text,
#: and the empty string.
_WORDS = ["usb", "cable", "café", "音楽", "😀", "a😀b", ""]


@st.composite
def leaf_parts(draw):
    """The parts a save interns: leaf by leaf, the leaf's words (a
    vocabulary dict, word → id) then its label texts, with one text
    every leaf shares; empty leaves and empty vocabularies included."""
    phrase = st.lists(st.sampled_from(_WORDS), max_size=3).map(" ".join)
    shared = draw(phrase | st.text(max_size=3))
    parts = []
    for _ in range(draw(st.integers(0, 4))):
        labels = draw(st.lists(phrase | st.text(max_size=3),
                               max_size=5)) + [shared] * draw(st.booleans())
        words = dict.fromkeys(word for label in labels
                              for word in label.split())
        parts += [dict(zip(words, range(len(words)))), labels]
    return parts


class TestInternStrings:
    @given(parts=leaf_parts())
    def test_matches_a_vocabulary_add_loop(self, parts):
        """Same distinct order, and per part the same id per string, as
        one ``vocab.setdefault(string, len(vocab))`` per string over the
        parts in order."""
        vocab = {}
        expected = [[vocab.setdefault(text, len(vocab)) for text in part]
                    for part in parts]
        distinct, ids = intern_strings(parts)
        assert distinct == list(vocab)
        assert all(part.dtype == np.int64 for part in ids)
        assert [part.tolist() for part in ids] == expected

    def test_no_parts_and_empty_parts(self):
        assert intern_strings([]) == ([], [])
        distinct, ids = intern_strings([[], ["a", "b", "a"], []])
        assert distinct == ["a", "b"]
        assert [part.tolist() for part in ids] == [[], [0, 1, 0], []]


def _leaf(leaf_id, *texts):
    return CuratedLeaf(leaf_id, list(texts), [9] * len(texts),
                       [1] * len(texts))


def _models(tmp_path, *leaves):
    """Each builder's pooled model over ``leaves``, and its open."""
    curated = CuratedKeyphrases(
        leaves={leaf.leaf_id: leaf for leaf in leaves},
        effective_threshold=1, config=CurationConfig(min_search_count=1))
    for builder in BUILDERS:
        model = GraphExModel.construct(curated, build_pooled=True,
                                       builder=builder)
        yield model
        yield load_model(save_model(model, tmp_path / builder))


def _vocabularies(tmp_path, *texts):
    """The vocabulary of one leaf over ``texts`` from every producer:
    each builder on its own, each builder's model and its open."""
    leaf = _leaf(7, *texts)
    yield build_leaf_graph(leaf, DEFAULT_TOKENIZER).word_vocab
    yield build_leaf_graph_fast(leaf, TokenCache(DEFAULT_TOKENIZER)
                                ).word_vocab
    for model in _models(tmp_path, leaf):
        yield model.leaf_graph(7).word_vocab


class TestVocabulary:
    """A graph's vocabulary is a ``dict``, word → dense id in insertion
    order, on every producer: the reference builder's ``setdefault``,
    the fast builder's and the pooled graph's ``dict(zip(words,
    count()))``, and ``load_model``'s build from the decoded words."""

    def test_add_assigns_dense_ids(self, tmp_path):
        for vocab in _vocabularies(tmp_path, "usb cable", "hdmi"):
            assert vocab == {"usb": 0, "cable": 1, "hdmi": 2}

    def test_add_is_idempotent(self, tmp_path):
        """A word repeated within and across labels gets one id."""
        for vocab in _vocabularies(tmp_path, "usb usb cable", "cable usb"):
            assert vocab == {"usb": 0, "cable": 1}

    def test_get_unknown_returns_none(self, tmp_path):
        """``word_vocab.get`` — the engine's word lookup — gives None
        for a word no label holds, so such a title word adds nothing."""
        for vocab in _vocabularies(tmp_path, "usb cable"):
            assert vocab.get("missing") is None
        for model in _models(tmp_path, _leaf(7, "usb cable", "usb hub")):
            for engine in ("reference", "fast"):
                assert batch_recommend(
                    model, [(0, "usb missing", 7)], engine=engine) \
                    == batch_recommend(model, [(0, "usb", 7)],
                                       engine=engine)

    def test_token_roundtrip(self, tmp_path):
        for vocab in _vocabularies(tmp_path, "usb cable", "café 音楽"):
            words = list(vocab)
            assert all(words[vocab[word]] == word for word in vocab)

    def test_token_out_of_range_raises(self, tmp_path):
        """A graph spans ``max(1, len(vocab))`` word vertices, so the id
        ``len(vocab)`` names no word."""
        for model in _models(tmp_path, _leaf(7, "usb cable"),
                             _leaf(8, "!!!")):
            for graph in model.plane_graphs:
                assert graph.graph.n_left == max(1, len(graph.word_vocab))
                with pytest.raises(IndexError):
                    list(graph.word_vocab)[len(graph.word_vocab)]

    def test_contains(self, tmp_path):
        """A word the tokenizer drops is not a vertex."""
        for vocab in _vocabularies(tmp_path, "usb !!!"):
            assert "usb" in vocab
            assert "!!!" not in vocab and "cable" not in vocab

    def test_iteration_in_id_order(self, tmp_path):
        """First occurrence over the labels in order, not sorted."""
        for vocab in _vocabularies(tmp_path, "usb cable", "box usb"):
            assert list(vocab) == ["usb", "cable", "box"]

    def test_tokens_returns_copy(self, tmp_path):
        """Each graph holds its own dict: leaves built over one shared
        token cache, or opened from one artifact, share no vocabulary."""
        cache = TokenCache(DEFAULT_TOKENIZER)
        graphs = [build_leaf_graph_fast(_leaf(7, "usb cable"), cache),
                  build_leaf_graph_fast(_leaf(8, "usb cable"), cache)]
        models = list(_models(tmp_path, _leaf(7, "usb"), _leaf(8, "usb")))
        pairs = [graphs] + [model.plane_graphs[:2] for model in models]
        for first, second in pairs:
            assert first.word_vocab == second.word_vocab
            first.word_vocab["evil"] = len(first.word_vocab)
            assert "evil" not in second.word_vocab

    def test_init_dedupes(self, tmp_path):
        """The pooled graph holds a word the leaves share once."""
        for model in _models(tmp_path, _leaf(7, "usb cable"),
                             _leaf(8, "hdmi usb", "cable")):
            assert model.pooled_graph.word_vocab \
                == {"usb": 0, "cable": 1, "hdmi": 2}

    @given(st.lists(st.lists(st.sampled_from(_WORDS[:-1]), min_size=1,
                             max_size=4).map(" ".join), max_size=6))
    @settings(max_examples=examples(30), deadline=None)
    def test_bijection(self, texts):
        """Both builders map the leaf's distinct tokens one to one onto
        ``0 .. n-1``."""
        leaf = _leaf(7, *texts)
        tokens = {token for text in texts
                  for token in DEFAULT_TOKENIZER(text)}
        for graph in (build_leaf_graph(leaf, DEFAULT_TOKENIZER),
                      build_leaf_graph_fast(leaf,
                                            TokenCache(DEFAULT_TOKENIZER))):
            vocab = graph.word_vocab
            assert set(vocab) == tokens
            assert sorted(vocab.values()) == list(range(len(tokens)))
            words = list(vocab)
            assert all(words[vocab[token]] == token for token in tokens)


edges_strategy = st.lists(
    st.tuples(st.integers(0, 9), st.integers(0, 14)), max_size=60)


class TestCSRGraph:
    def test_from_edges_basic(self):
        graph = CSRGraph.from_edges([(0, 1), (0, 2), (1, 0)],
                                    n_left=2, n_right=3)
        assert graph.n_left == 2
        assert graph.n_right == 3
        assert graph.n_edges == 3
        assert list(graph.neighbors(0)) == [1, 2]
        assert list(graph.neighbors(1)) == [0]

    def test_edges_are_deduplicated(self):
        graph = CSRGraph.from_edges([(0, 1), (0, 1), (0, 1)],
                                    n_left=1, n_right=2)
        assert graph.n_edges == 1

    def test_adjacency_is_sorted(self):
        graph = CSRGraph.from_edges([(0, 5), (0, 1), (0, 3)],
                                    n_left=1, n_right=6)
        assert list(graph.neighbors(0)) == [1, 3, 5]

    def test_empty_graph(self):
        graph = CSRGraph.from_edges([], n_left=3, n_right=4)
        assert graph.n_edges == 0
        assert list(graph.neighbors(0)) == []
        assert graph.average_degree == 0.0

    def test_isolated_vertices(self):
        graph = CSRGraph.from_edges([(2, 0)], n_left=4, n_right=1)
        assert graph.degree(0) == 0
        assert graph.degree(2) == 1

    def test_out_of_range_left_raises(self):
        with pytest.raises(ValueError):
            CSRGraph.from_edges([(5, 0)], n_left=2, n_right=1)

    def test_out_of_range_right_raises(self):
        with pytest.raises(ValueError):
            CSRGraph.from_edges([(0, 9)], n_left=1, n_right=2)

    def test_negative_vertex_raises(self):
        with pytest.raises(ValueError):
            CSRGraph.from_edges([(-1, 0)], n_left=1, n_right=1)

    def test_neighbors_out_of_range_raises(self):
        graph = CSRGraph.from_edges([(0, 0)], n_left=1, n_right=1)
        with pytest.raises(IndexError):
            graph.neighbors(1)
        with pytest.raises(IndexError):
            graph.neighbors(-1)

    def test_average_degree(self):
        graph = CSRGraph.from_edges([(0, 0), (0, 1), (1, 0)],
                                    n_left=2, n_right=2)
        assert graph.average_degree == pytest.approx(1.5)

    def test_memory_bytes_positive(self):
        graph = CSRGraph.from_edges([(0, 0)], n_left=1, n_right=1)
        assert graph.memory_bytes() > 0

    def test_validate_rejects_bad_indptr(self):
        with pytest.raises(ValueError):
            CSRGraph(np.array([0, 2, 1]), np.array([0, 0]), n_right=1)

    def test_validate_rejects_inconsistent_endpoints(self):
        with pytest.raises(ValueError):
            CSRGraph(np.array([0, 1]), np.array([0, 0]), n_right=1)

    def test_repr_mentions_sizes(self):
        graph = CSRGraph.from_edges([(0, 0)], n_left=1, n_right=1)
        assert "n_edges=1" in repr(graph)

    @given(edges_strategy)
    def test_neighbor_sets_match_edge_list(self, edges):
        graph = CSRGraph.from_edges(edges, n_left=10, n_right=15)
        expected = {}
        for u, v in edges:
            expected.setdefault(u, set()).add(v)
        for u in range(10):
            assert set(graph.neighbors(u).tolist()) == expected.get(u, set())

    @given(edges_strategy)
    def test_edge_count_equals_unique_edges(self, edges):
        graph = CSRGraph.from_edges(edges, n_left=10, n_right=15)
        assert graph.n_edges == len(set(edges))

    @given(edges_strategy)
    def test_degrees_sum_to_edge_count(self, edges):
        graph = CSRGraph.from_edges(edges, n_left=10, n_right=15)
        assert sum(graph.degree(u) for u in range(10)) == graph.n_edges

    @given(edges_strategy)
    def test_indptr_monotone(self, edges):
        graph = CSRGraph.from_edges(edges, n_left=10, n_right=15)
        assert (np.diff(graph.indptr) >= 0).all()
