"""Equivalence suite: the bulk construction engine vs the scalar path.

The fast builder (:mod:`repro.core.fast_construct`) and the vectorized
curation (:func:`repro.core.curation.fast_curate`) are only trustworthy
if they are *bit-identical* to the scalar reference — same vocab id
order, same CSR arrays, same label arrays, same leaf insertion order —
on any input.  These tests pin that property with hypothesis-generated
random stats, curation configs and tokenizers, plus directed
regressions for the edge cases (empty-tokenizing texts, empty leaves,
the shared token cache), the
:class:`CSRGraph` constructor, and a case table for the
pooled graph the fast builder derives from the built leaf graphs.
Keyphrases are drawn with every kind of whitespace ``str.split`` cuts
on, because the fast builder cuts a leaf's one split by the curated
``token_counts`` that each producer of a :class:`CuratedLeaf` makes.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import _load_curated, main
from repro.core.batch import batch_recommend
from repro.core.csr import CSRGraph
from repro.core.curation import (CurationConfig, CuratedKeyphrases,
                                 CuratedLeaf, curate, fast_curate)
from repro.core.execution import SerialExecutor
from repro.core.fast_construct import build_leaf_graph_fast, pool_leaf_graphs
from repro.core.model import (BUILDERS, GraphExModel, _pool_leaves,
                              build_leaf_graph, intern_graphs)
from repro.core.serialization import load_model, save_model
from repro.core.tokenize import (DEFAULT_TOKENIZER, STEMMING_TOKENIZER,
                                 SpaceTokenizer, TokenCache)
from repro.search.logs import KeyphraseStat
from tests.conftest import (assert_graphs_identical, assert_models_identical,
                            examples)

#: Token universe: plain words plus normalization/stemming stressors.
TOKENS = ([f"w{i}" for i in range(14)]
          + ["Mixed-CASE!", "16gb", "..", "headphones", "wi-fi", "1:64"])

TOKENIZERS = [DEFAULT_TOKENIZER, STEMMING_TOKENIZER,
              SpaceTokenizer(drop_stopwords=("w0", "for"))]

#: Whitespace ``str.split`` cuts on: doubled, tab, newline, no-break,
#: ideographic, and the file separator ``\x1c`` (``str.isspace`` but
#: not ASCII whitespace).
SEPARATORS = [" ", "  ", "\t", "\n", "\xa0", "\u3000", "\x1c"]


@st.composite
def _phrase(draw):
    """Tokens joined by drawn separators, with optional leading and
    trailing whitespace."""
    tokens = draw(st.lists(st.sampled_from(TOKENS), min_size=1, max_size=5))
    separators = draw(st.lists(st.sampled_from(SEPARATORS),
                               min_size=len(tokens) - 1,
                               max_size=len(tokens) - 1))
    edge = st.sampled_from(["", *SEPARATORS])
    return draw(edge) + "".join(
        sep + token for sep, token in zip(["", *separators], tokens)) \
        + draw(edge)


phrase = _phrase()
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
        assert fast_leaf.token_counts == ref_leaf.token_counts


class TestFastCuration:
    @given(stats=stats_strategy, config=config_strategy)
    @settings(max_examples=examples(80), deadline=None)
    def test_fast_curate_matches_reference(self, stats, config):
        assert_curations_identical(
            curate(stats, config, engine="reference"),
            fast_curate(stats, config))

    @given(stats=stats_strategy, config=config_strategy)
    @settings(max_examples=examples(20), deadline=None)
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
    @settings(max_examples=examples(60), deadline=None)
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

    @given(stats=stats_strategy, config=config_strategy,
           tokenizer_index=st.integers(0, len(TOKENIZERS) - 1))
    @settings(max_examples=examples(20), deadline=None)
    def test_every_vocabulary_numbers_its_words_densely(
            self, stats, config, tokenizer_index):
        """Every graph's ``word_vocab`` maps its words to 0, 1, 2, ...
        in insertion order, so ``list(vocab)`` is the words by id: on
        each builder, pooled and not, and on the open of each model."""
        curated = curate(stats, config)
        with tempfile.TemporaryDirectory() as directory:
            for builder in BUILDERS:
                for build_pooled in (False, True):
                    model = GraphExModel.construct(
                        curated, tokenizer=TOKENIZERS[tokenizer_index],
                        build_pooled=build_pooled, builder=builder)
                    opened = load_model(save_model(
                        model, Path(directory, f"{builder}-{build_pooled}")))
                    for graph in model.plane_graphs + opened.plane_graphs:
                        assert list(graph.word_vocab.values()) == list(
                            range(len(graph.word_vocab)))

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
    @settings(max_examples=examples(25), deadline=None)
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
        assert_graphs_identical(reference, fast)
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
        assert_graphs_identical(reference, fast)

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
        assert graph_a.word_vocab == graph_b.word_vocab


def cli_curate(stats, config, directory):
    """``stats`` written as a ``simulate --out`` log and curated by
    ``curate --out`` under ``config``'s three CLI knobs (the other
    fields at their defaults); returns the curated file's path."""
    log, out = Path(directory, "log.json"), Path(directory, "curated.json")
    log.write_text(json.dumps({"stats": [
        {"text": stat.text, "leaf_id": stat.leaf_id,
         "search_count": stat.search_count,
         "recall_count": stat.recall_count} for stat in stats]}), "utf-8")
    assert main(["curate", "--log", str(log), "--out", str(out),
                 "--min-search-count", str(config.min_search_count),
                 "--min-keyphrases", str(config.min_keyphrases),
                 "--floor", str(config.floor_search_count)]) == 0
    return out


def cli_config(config):
    """The :class:`CurationConfig` ``curate --out`` runs for ``config``."""
    return CurationConfig(min_search_count=config.min_search_count,
                          min_keyphrases=config.min_keyphrases,
                          floor_search_count=config.floor_search_count)


def split_counts(leaf):
    return [len(text.split()) for text in leaf.texts]


class TestTokenCounts:
    """Every producer of a :class:`CuratedLeaf` holds ``token_counts``
    equal to its texts' whitespace splits, the fast builder reads them
    instead of splitting a label again, and a leaf whose counts do not
    match its texts is refused by name."""

    @given(stats=stats_strategy, config=config_strategy)
    @settings(max_examples=examples(30), deadline=None)
    def test_every_producer_counts_each_texts_split(self, stats, config):
        fast = fast_curate(stats, config)
        reference = curate(stats, config, engine="reference")
        assert fast.leaves == reference.leaves
        leaves = [*fast.leaves.values(), *reference.leaves.values(),
                  _pool_leaves(list(fast.leaves.values()))]
        for leaf in fast.leaves.values():
            columns = (leaf.texts, leaf.search_counts, leaf.recall_counts)
            leaves.append(CuratedLeaf(leaf.leaf_id,
                                      *(list(column) for column in columns)))
            grown = CuratedLeaf(leaf.leaf_id,
                                *(column[:1] for column in columns))
            for row in zip(*(column[1:] for column in columns)):
                grown.add(*row)
            assert grown == leaf
            leaves.append(grown)
        with tempfile.TemporaryDirectory() as directory:
            loaded = _load_curated(str(cli_curate(stats, config, directory)))
        assert loaded.leaves == fast_curate(stats, cli_config(config)).leaves
        leaves.extend(loaded.leaves.values())
        for leaf in leaves:
            assert leaf.token_counts == split_counts(leaf)

    @given(stats=stats_strategy, config=config_strategy)
    @settings(max_examples=examples(15), deadline=None)
    def test_handed_over_and_derived_counts_save_the_same_payload(
            self, stats, config):
        """Route 1 hands ``fast_curate``'s counts to ``construct``;
        route 2 writes the same curation with ``curate --out`` and reads
        it back with ``construct --curated``, deriving them on load.
        Same payload bytes, same header but for the payload's name."""
        with tempfile.TemporaryDirectory() as directory:
            handed = Path(directory, "handed")
            save_model(GraphExModel.construct(
                fast_curate(stats, cli_config(config))), handed)
            derived = Path(directory, "derived")
            assert main(["construct", "--curated",
                         str(cli_curate(stats, config, directory)),
                         "--out", str(derived)]) == 0
            headers = []
            for route in (handed, derived):
                header = json.loads((route / "model.json").read_text())
                payload = route / header.pop("arrays_file")
                headers.append((header, payload.read_bytes()))
        assert headers[0] == headers[1]

    @pytest.mark.parametrize(
        "counts", [[1, 1], [2, 2], [3], [2, 1, 0], [2], [4, -1]],
        ids=["short_total", "long_total", "one_count_missing",
             "one_count_extra", "text_appended_behind_add",
             "negative_count"])
    def test_stale_counts_refused_by_name(self, counts):
        """Two texts of three raw tokens: a wrong total, the right total
        over the wrong number of counts or with a negative count, or the
        counts of a leaf whose second text was appended to ``texts``
        directly instead of through ``add``."""
        leaf = CuratedLeaf(7, ["usb cable", "hdmi"], [5, 4], [1, 2], counts)
        with pytest.raises(ValueError, match="curated leaf 7: its "
                                             "token_counts do not match"):
            build_leaf_graph_fast(leaf, TokenCache(DEFAULT_TOKENIZER))
        curated = CuratedKeyphrases(
            leaves={7: leaf}, effective_threshold=1,
            config=CurationConfig(min_search_count=1))
        with pytest.raises(ValueError, match="curated leaf 7"):
            GraphExModel.construct(curated)


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
        assert_graphs_identical(reference, pooled)
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
        built = list(SerialExecutor().run_construction(
            curated, tokenizer).values())
        pooled, (words, labels) = pool_leaf_graphs(
            built, *intern_graphs(built))
        self.assert_pooled_identical(reference, pooled)
        strings = intern_graphs(built)[0]
        assert strings[words].tolist() == list(pooled.word_vocab)
        assert strings[labels].tolist() == pooled.label_texts
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
        assert stemmed.word_vocab == {"usb": 0, "cable": 1, "box": 2}

    @pytest.mark.parametrize("builder", ["reference", "fast"])
    def test_no_leaves_means_no_pooled_graph(self, builder):
        model = GraphExModel.construct(self.curated_of([]),
                                       build_pooled=True, builder=builder)
        assert model.pooled_graph is None


class TestTokenCache:
    @given(text=st.lists(st.sampled_from(TOKENS + ["  ", "ZZZ..."]),
                         min_size=0, max_size=8).map(" ".join),
           tokenizer_index=st.integers(0, len(TOKENIZERS) - 1))
    @settings(max_examples=examples(60), deadline=None)
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

    def test_pool_ids_follow_stream_order(self):
        """A new token takes the next id where it first occurs in the
        stream, so the pool's order is the interpreter's hash order in
        no way; raws that make one token share its id."""
        cache = TokenCache(DEFAULT_TOKENIZER)
        ids = cache.resolve_raws(["Beta", "alpha", "beta", "!!!", "gamma"])
        assert ids.dtype == np.int64
        assert ids.tolist() == [0, 1, 0, -1, 2]
        assert cache.tokens_for([0, 1, 2]) == ["beta", "alpha", "gamma"]
        assert cache.resolve_raws([]).tolist() == []
        assert len(cache) == 3


class TestCSRConstructor:
    def test_constructor_matches_from_edges(self):
        edges = [(0, 1), (0, 0), (2, 1), (0, 1)]
        via_edges = CSRGraph.from_edges(edges, n_left=3, n_right=2)
        via_arrays = CSRGraph(via_edges.indptr.copy(),
                              via_edges.indices.copy(), n_right=2)
        assert np.array_equal(via_arrays.indptr, via_edges.indptr)
        assert np.array_equal(via_arrays.indices, via_edges.indices)

    def test_constructor_validates_by_default(self):
        with pytest.raises(ValueError, match="indptr"):
            CSRGraph(np.array([0, 5]), np.array([0], dtype=np.int32),
                     n_right=2)

    def test_constructor_can_skip_validation(self):
        graph = CSRGraph(np.array([0, 5]), np.array([0], dtype=np.int32),
                         n_right=2, validate=False)
        with pytest.raises(ValueError):
            graph.validate()

    def test_from_edges_still_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            CSRGraph.from_edges([(0, 5)], n_left=1, n_right=2)
        with pytest.raises(ValueError, match="negative"):
            CSRGraph.from_edges([(-1, 0)], n_left=1, n_right=2)
