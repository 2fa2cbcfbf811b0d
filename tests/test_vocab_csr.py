"""Unit and property tests for Vocabulary and CSRGraph."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.csr import CSRGraph
from repro.core.vocab import Vocabulary, intern_strings

#: Words, one-word labels equal to words, non-ASCII and non-BMP text,
#: and the empty string.
_WORDS = ["usb", "cable", "café", "音楽", "😀", "a😀b", ""]


@st.composite
def leaf_parts(draw):
    """The parts a save interns: leaf by leaf, the leaf's words (a
    ``Vocabulary``) then its label texts, with one text every leaf
    shares; empty leaves and empty vocabularies included."""
    phrase = st.lists(st.sampled_from(_WORDS), max_size=3).map(" ".join)
    shared = draw(phrase | st.text(max_size=3))
    parts = []
    for _ in range(draw(st.integers(0, 4))):
        labels = draw(st.lists(phrase | st.text(max_size=3),
                               max_size=5)) + [shared] * draw(st.booleans())
        parts += [Vocabulary(word for label in labels
                             for word in label.split()), labels]
    return parts


class TestInternStrings:
    @given(parts=leaf_parts())
    def test_matches_a_vocabulary_add_loop(self, parts):
        """Same distinct order, and per part the same id per string, as
        one ``Vocabulary.add`` per string over the parts in order."""
        vocab = Vocabulary()
        expected = [[vocab.add(text) for text in part] for part in parts]
        distinct, ids = intern_strings(parts)
        assert distinct == vocab.tokens
        assert all(part.dtype == np.int64 for part in ids)
        assert [part.tolist() for part in ids] == expected

    def test_no_parts_and_empty_parts(self):
        assert intern_strings([]) == ([], [])
        distinct, ids = intern_strings([[], ["a", "b", "a"], []])
        assert distinct == ["a", "b"]
        assert [part.tolist() for part in ids] == [[], [0, 1, 0], []]


class TestVocabulary:
    def test_add_assigns_dense_ids(self):
        vocab = Vocabulary()
        assert vocab.add("a") == 0
        assert vocab.add("b") == 1
        assert vocab.add("c") == 2

    def test_add_is_idempotent(self):
        vocab = Vocabulary()
        assert vocab.add("a") == vocab.add("a") == 0
        assert len(vocab) == 1

    def test_get_unknown_returns_none(self):
        assert Vocabulary().get("missing") is None

    def test_token_roundtrip(self):
        vocab = Vocabulary(["x", "y"])
        assert vocab.token(vocab.get("y")) == "y"

    def test_token_out_of_range_raises(self):
        with pytest.raises(IndexError):
            Vocabulary(["x"]).token(5)

    def test_contains(self):
        vocab = Vocabulary(["x"])
        assert "x" in vocab
        assert "y" not in vocab

    def test_iteration_in_id_order(self):
        vocab = Vocabulary(["b", "a", "c"])
        assert list(vocab) == ["b", "a", "c"]

    def test_tokens_returns_copy(self):
        vocab = Vocabulary(["a"])
        vocab.tokens.append("evil")
        assert len(vocab) == 1

    def test_init_dedupes(self):
        vocab = Vocabulary(["a", "a", "b"])
        assert len(vocab) == 2

    @given(st.lists(st.text(min_size=1, max_size=6), max_size=30))
    def test_bijection(self, tokens):
        vocab = Vocabulary(tokens)
        for token in set(tokens):
            assert vocab.token(vocab.get(token)) == token
        assert len(vocab) == len(set(tokens))


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
