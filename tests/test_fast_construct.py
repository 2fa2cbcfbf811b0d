"""Equivalence suite: the bulk construction engine vs the scalar path.

The fast builder (:mod:`repro.core.fast_construct`) and the vectorized
curation (:func:`repro.core.curation.fast_curate`) are only trustworthy
if they are *bit-identical* to the scalar reference — same vocab id
order, same CSR arrays, same label arrays, same leaf insertion order —
on any input.  These tests pin that property with hypothesis-generated
random stats, curation configs and tokenizers, plus directed
regressions for the edge cases (empty-tokenizing texts, empty leaves,
the shared token cache), the
:meth:`CSRGraph.from_arrays` fast path, and a case table for the
pooled graph the fast builder derives from the built leaf graphs.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batch import batch_recommend
from repro.core.csr import CSRGraph
from repro.core.curation import (CurationConfig, CuratedKeyphrases,
                                 CuratedLeaf, curate, fast_curate)
from repro.core.execution import SerialExecutor
from repro.core.fast_construct import build_leaf_graph_fast, pool_leaf_graphs
from repro.core.model import GraphExModel, _pool_leaves, build_leaf_graph
from repro.core.tokenize import (DEFAULT_TOKENIZER, STEMMING_TOKENIZER,
                                 SpaceTokenizer, TokenCache)
from repro.search.logs import KeyphraseStat

#: Token universe: plain words plus normalization/stemming stressors.
TOKENS = ([f"w{i}" for i in range(14)]
          + ["Mixed-CASE!", "16gb", "..", "headphones", "wi-fi", "1:64"])

TOKENIZERS = [DEFAULT_TOKENIZER, STEMMING_TOKENIZER,
              SpaceTokenizer(drop_stopwords=("w0", "for"))]

phrase = st.lists(st.sampled_from(TOKENS), min_size=1, max_size=5) \
    .map(" ".join)
stats_strategy = st.lists(
    st.builds(KeyphraseStat,
              text=phrase,
              leaf_id=st.integers(1, 5),
              search_count=st.integers(1, 60),
              recall_count=st.integers(1, 60)),
    min_size=0, max_size=60)
config_strategy = st.builds(
    CurationConfig,
    min_search_count=st.integers(1, 50),
    min_keyphrases=st.integers(0, 40),
    floor_search_count=st.integers(1, 6),
    max_tokens=st.integers(2, 6),
    min_tokens=st.integers(1, 2))


def assert_curations_identical(reference, fast):
    """Leaf key order, per-leaf order, values and threshold all equal."""
    assert fast.effective_threshold == reference.effective_threshold
    assert list(fast.leaves) == list(reference.leaves)
    for leaf_id, ref_leaf in reference.leaves.items():
        fast_leaf = fast.leaves[leaf_id]
        assert fast_leaf.leaf_id == ref_leaf.leaf_id
        assert fast_leaf.texts == ref_leaf.texts
        assert fast_leaf.search_counts == ref_leaf.search_counts
        assert fast_leaf.recall_counts == ref_leaf.recall_counts


def assert_leaf_graphs_identical(reference, fast):
    """Bit-identity: vocab id order, CSR arrays, label arrays, dtypes."""
    assert fast.leaf_id == reference.leaf_id
    assert fast.word_vocab.tokens == reference.word_vocab.tokens
    assert np.array_equal(fast.graph.indptr, reference.graph.indptr)
    assert fast.graph.indptr.dtype == reference.graph.indptr.dtype
    assert np.array_equal(fast.graph.indices, reference.graph.indices)
    assert fast.graph.indices.dtype == reference.graph.indices.dtype
    assert fast.graph.n_right == reference.graph.n_right
    assert fast.label_texts == reference.label_texts
    assert np.array_equal(fast.label_lengths, reference.label_lengths)
    assert fast.label_lengths.dtype == reference.label_lengths.dtype
    assert np.array_equal(fast.search_counts, reference.search_counts)
    assert np.array_equal(fast.recall_counts, reference.recall_counts)


def assert_models_identical(reference, fast):
    assert fast.leaf_ids == reference.leaf_ids
    for leaf_id in reference.leaf_ids:
        assert_leaf_graphs_identical(reference.leaf_graph(leaf_id),
                                     fast.leaf_graph(leaf_id))
    assert (fast.pooled_graph is None) == (reference.pooled_graph is None)
    if reference.pooled_graph is not None:
        assert_leaf_graphs_identical(reference.pooled_graph,
                                     fast.pooled_graph)


class TestFastCuration:
    @given(stats=stats_strategy, config=config_strategy)
    @settings(max_examples=80, deadline=None)
    def test_fast_curate_matches_reference(self, stats, config):
        assert_curations_identical(
            curate(stats, config, engine="reference"),
            fast_curate(stats, config))

    @given(stats=stats_strategy, config=config_strategy)
    @settings(max_examples=20, deadline=None)
    def test_engine_dispatch(self, stats, config):
        assert_curations_identical(
            curate(stats, config, engine="reference"),
            curate(stats, config, engine="fast"))

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="engine"):
            curate([], CurationConfig(), engine="turbo")

    def test_empty_stats_still_relaxes_threshold(self):
        """The scalar loop halves the threshold even with zero stats;
        the fast path must record the same effective threshold."""
        config = CurationConfig(min_search_count=40, min_keyphrases=10,
                                floor_search_count=4)
        assert_curations_identical(curate([], config, engine="reference"),
                                   fast_curate([], config))
        assert fast_curate([], config).effective_threshold == 4

    def test_leaf_insertion_order_is_first_occurrence(self):
        """Leaf 7 appears before leaf 2 in the stream, so it must come
        first in the dict (the pooled merge iterates this order)."""
        stats = [KeyphraseStat("a b", 7, 9, 1),
                 KeyphraseStat("c d", 2, 9, 1),
                 KeyphraseStat("e f", 7, 9, 1)]
        fast = fast_curate(stats, CurationConfig(min_search_count=1))
        assert list(fast.leaves) == [7, 2]
        assert_curations_identical(
            curate(stats, CurationConfig(min_search_count=1),
                   engine="reference"), fast)


class TestFastBuilder:
    @given(stats=stats_strategy, config=config_strategy,
           tokenizer_index=st.integers(0, len(TOKENIZERS) - 1),
           build_pooled=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_models_bit_identical(self, stats, config, tokenizer_index,
                                  build_pooled):
        curated = curate(stats, config)
        tokenizer = TOKENIZERS[tokenizer_index]
        reference = GraphExModel.construct(
            curated, tokenizer=tokenizer, build_pooled=build_pooled,
            builder="reference")
        fast = GraphExModel.construct(
            curated, tokenizer=tokenizer, build_pooled=build_pooled,
            builder="fast")
        assert_models_identical(reference, fast)

    def test_reference_builder_rejects_process_parallel(self, fleet,
                                                        monkeypatch):
        """The scalar reference builder refuses a fleet by name, as the
        fast one does, before it builds any leaf."""
        from repro.core import model as model_module

        built = []
        monkeypatch.setattr(model_module, "build_leaf_graph",
                            lambda *args: built.append(args))
        curated = curate([KeyphraseStat("a b", 1, 9, 1)],
                         CurationConfig(min_search_count=1))
        with pytest.raises(ValueError, match="construction runs in process"):
            GraphExModel.construct(curated, builder="reference",
                                   executor=fleet)
        assert built == []

    def test_unknown_parallel_mode_rejected(self):
        curated = curate([], CurationConfig(min_search_count=1))
        with pytest.raises(ValueError, match="unknown executor"):
            GraphExModel.construct(curated, executor="fiber")

    @given(stats=stats_strategy, config=config_strategy,
           k=st.integers(1, 8))
    @settings(max_examples=25, deadline=None)
    def test_recommendations_element_wise_identical(self, stats, config,
                                                    k):
        """End to end: fast curation + fast builder serves the exact
        ranked output of the all-scalar pipeline."""
        reference = GraphExModel.construct(
            curate(stats, config, engine="reference"),
            build_pooled=True, builder="reference")
        fast = GraphExModel.construct(
            fast_curate(stats, config), build_pooled=True, builder="fast")
        requests = [(i, stat.text, stat.leaf_id)
                    for i, stat in enumerate(stats)]
        ref_out = batch_recommend(reference, requests, k=k,
                                  engine="reference")
        fast_out = batch_recommend(fast, requests, k=k, engine="fast")
        assert fast_out.keys() == ref_out.keys()
        for item_id in ref_out:
            assert fast_out[item_id] == ref_out[item_id]

    def test_empty_tokenizing_texts(self):
        """Keyphrases that tokenize to nothing: empty vocab, |l| = 1."""
        leaf = CuratedLeaf(leaf_id=1, texts=["!!!", "???"],
                           search_counts=[5, 4], recall_counts=[1, 2])
        reference = build_leaf_graph(leaf, DEFAULT_TOKENIZER)
        fast = build_leaf_graph_fast(leaf, TokenCache(DEFAULT_TOKENIZER))
        assert_leaf_graphs_identical(reference, fast)
        assert len(fast.word_vocab) == 0
        assert fast.label_lengths.tolist() == [1, 1]

    def test_small_leaf_over_huge_pool_uses_unique_fallback(self):
        """A pool far larger than the leaf routes interning through the
        np.unique fallback; output stays bit-identical."""
        cache = TokenCache(DEFAULT_TOKENIZER)
        cache.resolve_raws([f"filler{i}" for i in range(2000)])
        leaf = CuratedLeaf(leaf_id=1, texts=["w1 w0 w1", "w2 w0"],
                           search_counts=[5, 4], recall_counts=[1, 2])
        fast = build_leaf_graph_fast(leaf, cache)
        reference = build_leaf_graph(leaf, DEFAULT_TOKENIZER)
        assert_leaf_graphs_identical(reference, fast)

    def test_empty_leaves_skipped(self):
        curated = CuratedKeyphrases(
            leaves={1: CuratedLeaf(leaf_id=1)}, effective_threshold=1,
            config=CurationConfig(min_search_count=1))
        model = GraphExModel.construct(curated, builder="fast")
        assert model.n_leaves == 0

    def test_unknown_builder_rejected(self):
        curated = CuratedKeyphrases(
            leaves={}, effective_threshold=1,
            config=CurationConfig(min_search_count=1))
        with pytest.raises(ValueError, match="builder"):
            GraphExModel.construct(curated, builder="turbo")

    def test_duplicate_texts_across_leaves_share_cache(self):
        """The shared pool interns each distinct text's token ids once."""
        cache = TokenCache(DEFAULT_TOKENIZER)
        leaf_a = CuratedLeaf(leaf_id=1, texts=["gaming headset pro"],
                             search_counts=[3], recall_counts=[1])
        leaf_b = CuratedLeaf(leaf_id=2, texts=["gaming headset pro"],
                             search_counts=[9], recall_counts=[2])
        graph_a = build_leaf_graph_fast(leaf_a, cache)
        graph_b = build_leaf_graph_fast(leaf_b, cache)
        assert len(cache) == 3  # pool grew once, not twice
        assert graph_a.word_vocab.tokens == graph_b.word_vocab.tokens


def _leaf(leaf_id, *rows):
    leaf = CuratedLeaf(leaf_id=leaf_id)
    for text, search, recall in rows:
        leaf.add(text, search, recall)
    return leaf


#: name → (leaves, tokenizer): the pooling edge cases, each compared
#: with the reference ``build_leaf_graph(_pool_leaves(...))``.
POOLING_CASES = {
    # max S comes from leaf 2, min R from leaf 3, first row from leaf 1.
    "text_in_three_leaves": ([
        _leaf(1, ("usb cable", 5, 7), ("hdmi cable", 2, 2)),
        _leaf(2, ("wall plug", 1, 1), ("usb cable", 9, 8)),
        _leaf(3, ("usb cable", 4, 3))], DEFAULT_TOKENIZER),
    "text_twice_in_one_leaf": ([
        _leaf(1, ("usb cable", 5, 7), ("long usb cable", 1, 1),
              ("usb cable", 8, 2)),
        _leaf(2, ("cable tie", 3, 3))], DEFAULT_TOKENIZER),
    "label_with_every_token_dropped": ([
        _leaf(1, ("usb cable", 5, 7), ("!!! for", 4, 4)),
        _leaf(2, ("for", 2, 9), ("cable", 1, 1))],
        SpaceTokenizer(drop_stopwords=("for",))),
    "leaf_with_empty_vocabulary": ([
        _leaf(1, ("!!!", 5, 7), ("???", 4, 4)),
        _leaf(2, ("usb cable", 2, 9), ("!!!", 6, 1))], DEFAULT_TOKENIZER),
    "every_leaf_empty": ([_leaf(1), _leaf(2)], DEFAULT_TOKENIZER),
    # "cables" and "cable" are one token, first seen as "cables".
    "stemming_merges_raw_words": ([
        _leaf(1, ("usb cables", 5, 7), ("cable cables", 3, 3)),
        _leaf(2, ("cable box", 2, 9), ("box cables", 1, 1))],
        STEMMING_TOKENIZER),
}


class TestPoolLeafGraphs:
    """The fast builder's pooled graph is a pure function of the built
    leaf graphs (``pool_leaf_graphs``); the reference builder's pools
    the curated rows and builds a pseudo-leaf from text.  Same graph."""

    @staticmethod
    def curated_of(leaves):
        return CuratedKeyphrases(
            leaves={leaf.leaf_id: leaf for leaf in leaves},
            effective_threshold=1,
            config=CurationConfig(min_search_count=1))

    @staticmethod
    def assert_pooled_identical(reference, pooled):
        assert_leaf_graphs_identical(reference, pooled)
        assert pooled.leaf_id == -1
        assert type(pooled.label_texts) is list
        for name in ("search_counts", "recall_counts"):
            assert getattr(pooled, name).dtype \
                == getattr(reference, name).dtype == np.int64
        assert pooled.graph.n_left == reference.graph.n_left

    @pytest.mark.parametrize("case", sorted(POOLING_CASES))
    def test_case_table_matches_reference(self, case):
        leaves, tokenizer = POOLING_CASES[case]
        curated = self.curated_of(leaves)
        reference = build_leaf_graph(_pool_leaves(leaves), tokenizer)
        pooled = pool_leaf_graphs(
            curated, SerialExecutor().run_construction(curated, tokenizer))
        self.assert_pooled_identical(reference, pooled)
        # And through the public entry point, on both builders.
        assert_models_identical(
            GraphExModel.construct(curated, tokenizer=tokenizer,
                                   build_pooled=True, builder="reference"),
            GraphExModel.construct(curated, tokenizer=tokenizer,
                                   build_pooled=True, builder="fast"))

    def test_case_table_hits_the_cases_it_names(self):
        """Guards the table itself: each case must contain the shape
        it is named for, or it silently tests the easy path."""
        def pooled(case):
            leaves, tokenizer = POOLING_CASES[case]
            return build_leaf_graph(_pool_leaves(leaves), tokenizer)

        three = pooled("text_in_three_leaves")
        row = three.label_texts.index("usb cable")
        assert (row, three.search_counts[row], three.recall_counts[row]) \
            == (0, 9, 3)
        twice = pooled("text_twice_in_one_leaf")
        assert twice.label_texts.count("usb cable") == 1
        assert twice.search_counts[0] == 8 and twice.recall_counts[0] == 2
        dropped = pooled("label_with_every_token_dropped")
        row = dropped.label_texts.index("!!! for")
        assert dropped.label_lengths[row] == 1
        assert row not in dropped.graph.indices.tolist()
        leaves, tokenizer = POOLING_CASES["leaf_with_empty_vocabulary"]
        empty_vocab = build_leaf_graph(leaves[0], tokenizer)
        assert len(empty_vocab.word_vocab) == 0
        assert len(empty_vocab.graph.indptr) == 2
        nothing = pooled("every_leaf_empty")
        assert nothing.n_labels == 0
        assert nothing.graph.n_left == nothing.graph.n_right == 1
        stemmed = pooled("stemming_merges_raw_words")
        assert stemmed.word_vocab.tokens == ["usb", "cable", "box"]

    @pytest.mark.parametrize("builder", ["reference", "fast"])
    def test_no_leaves_means_no_pooled_graph(self, builder):
        model = GraphExModel.construct(self.curated_of([]),
                                       build_pooled=True, builder=builder)
        assert model.pooled_graph is None


class TestTokenCache:
    @given(text=st.lists(st.sampled_from(TOKENS + ["  ", "ZZZ..."]),
                         min_size=0, max_size=8).map(" ".join),
           tokenizer_index=st.integers(0, len(TOKENIZERS) - 1))
    @settings(max_examples=60, deadline=None)
    def test_resolve_raws_match_direct_tokenization(self, text,
                                                    tokenizer_index):
        """The memoized per-raw-token path reproduces the tokenizer,
        drops marked ``-1``; a second call resolves to the same ids."""
        tokenizer = TOKENIZERS[tokenizer_index]
        cache = TokenCache(tokenizer)
        for _ in range(2):
            ids = cache.resolve_raws(text.split())
            assert len(ids) == len(text.split())
            assert cache.tokens_for([i for i in ids if i >= 0]) \
                == tokenizer(text)


class TestFromArrays:
    def test_from_arrays_matches_from_edges(self):
        edges = [(0, 1), (0, 0), (2, 1), (0, 1)]
        via_edges = CSRGraph.from_edges(edges, n_left=3, n_right=2)
        via_arrays = CSRGraph.from_arrays(via_edges.indptr.copy(),
                                          via_edges.indices.copy(),
                                          n_right=2)
        assert np.array_equal(via_arrays.indptr, via_edges.indptr)
        assert np.array_equal(via_arrays.indices, via_edges.indices)

    def test_from_arrays_validates_by_default(self):
        with pytest.raises(ValueError, match="indptr"):
            CSRGraph.from_arrays(np.array([0, 5]),
                                 np.array([0], dtype=np.int32), n_right=2)

    def test_from_arrays_can_skip_validation(self):
        graph = CSRGraph.from_arrays(np.array([0, 5]),
                                     np.array([0], dtype=np.int32),
                                     n_right=2, validate=False)
        with pytest.raises(ValueError):
            graph.validate()

    def test_from_edges_still_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            CSRGraph.from_edges([(0, 5)], n_left=1, n_right=2)
        with pytest.raises(ValueError, match="negative"):
            CSRGraph.from_edges([(-1, 0)], n_left=1, n_right=2)
