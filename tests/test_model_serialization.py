"""Tests for GraphEx construction, persistence and batch inference."""

from __future__ import annotations

import json
import pickle
import tempfile
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batch import batch_recommend
from repro.core.curation import CuratedKeyphrases, CuratedLeaf, CurationConfig
from repro.core.model import GraphExModel, build_leaf_graph
from repro.core.serialization import (LazyStringList, load_model,
                                      model_size_bytes, open_model,
                                      save_model)
from repro.core.tokenize import (DEFAULT_TOKENIZER, STEMMING_TOKENIZER,
                                 SpaceTokenizer)


def curated_two_leaves() -> CuratedKeyphrases:
    leaf_a = CuratedLeaf(leaf_id=10)
    leaf_a.add("audeze maxwell", 500, 40)
    leaf_a.add("gaming headphones", 900, 100)
    leaf_b = CuratedLeaf(leaf_id=11)
    leaf_b.add("mesh router", 250, 60)
    return CuratedKeyphrases(
        leaves={10: leaf_a, 11: leaf_b}, effective_threshold=1,
        config=CurationConfig(min_search_count=1))


class TestConstruction:
    def test_label_lengths_are_unique_token_counts(self):
        leaf = CuratedLeaf(leaf_id=1)
        leaf.add("a b a", 1, 1)  # duplicate token inside the keyphrase
        graph = build_leaf_graph(leaf, DEFAULT_TOKENIZER)
        assert graph.label_lengths[0] == 2

    def test_stemming_tokenizer_merges_variants(self):
        leaf = CuratedLeaf(leaf_id=1)
        leaf.add("headphones", 1, 1)
        graph = build_leaf_graph(leaf, STEMMING_TOKENIZER)
        assert "headphone" in graph.word_vocab

    def test_construct_skips_empty_leaves(self):
        curated = CuratedKeyphrases(
            leaves={1: CuratedLeaf(leaf_id=1)}, effective_threshold=1,
            config=CurationConfig(min_search_count=1))
        model = GraphExModel.construct(curated)
        assert model.n_leaves == 0

    def test_pooled_graph_merges_duplicates(self):
        leaf_a = CuratedLeaf(leaf_id=1)
        leaf_a.add("shared phrase", 100, 9)
        leaf_b = CuratedLeaf(leaf_id=2)
        leaf_b.add("shared phrase", 300, 4)
        curated = CuratedKeyphrases(
            leaves={1: leaf_a, 2: leaf_b}, effective_threshold=1,
            config=CurationConfig(min_search_count=1))
        model = GraphExModel.construct(curated, build_pooled=True)
        pooled = model.pooled_graph
        assert pooled.n_labels == 1
        # Max search count and min recall count win the merge.
        assert pooled.search_counts[0] == 300
        assert pooled.recall_counts[0] == 4

    def test_construction_is_fast_even_for_thousands(self, tiny_curated):
        import time
        start = time.perf_counter()
        GraphExModel.construct(tiny_curated)
        assert time.perf_counter() - start < 5.0

    def test_custom_alignment_name(self):
        model = GraphExModel.construct(curated_two_leaves(), alignment="jac")
        assert model.alignment_name == "jac"


class TestSerialization:
    def test_roundtrip_preserves_recommendations(self, tmp_path):
        model = GraphExModel.construct(curated_two_leaves())
        save_model(model, tmp_path / "m")
        loaded = load_model(tmp_path / "m")
        title = "audeze maxwell gaming headphones"
        original = model.recommend(title, 10, k=5)
        restored = loaded.recommend(title, 10, k=5)
        assert [(r.text, r.score) for r in original] \
            == [(r.text, r.score) for r in restored]

    def test_roundtrip_preserves_structure(self, tmp_path):
        model = GraphExModel.construct(curated_two_leaves(),
                                       build_pooled=True)
        save_model(model, tmp_path / "m")
        loaded = load_model(tmp_path / "m")
        assert loaded.leaf_ids == model.leaf_ids
        assert loaded.n_keyphrases == model.n_keyphrases
        assert loaded.pooled_graph is not None

    def test_roundtrip_preserves_alignment(self, tmp_path):
        model = GraphExModel.construct(curated_two_leaves(), alignment="wmr")
        save_model(model, tmp_path / "m")
        assert load_model(tmp_path / "m").alignment_name == "wmr"

    def test_roundtrip_preserves_stemming_flag(self, tmp_path):
        model = GraphExModel.construct(
            curated_two_leaves(), tokenizer=STEMMING_TOKENIZER)
        save_model(model, tmp_path / "m")
        assert load_model(tmp_path / "m").tokenizer.stems

    @pytest.mark.parametrize("stem", [False, True])
    @pytest.mark.parametrize("alignment", ["lta", "wmr", "jac"])
    def test_roundtrip_preserves_stopwords(self, tmp_path, alignment, stem):
        """Footnote 3: the artifact tokenizes as the builder did.  A
        dropped stopword does not count towards |T|, so losing the list
        on the way through ``model.json`` changes served scores.  Every
        spec the constructor accepts saves and loads bit-identical."""
        leaf = CuratedLeaf(leaf_id=1)
        for rank, text in enumerate(["case for iphones", "iphone case",
                                     "charger for iphone", "case"]):
            leaf.add(text, 50 - rank, 1 + rank)
        tokenizer = SpaceTokenizer(stem=stem,
                                   drop_stopwords=("for", "with"))
        model = GraphExModel.construct(
            CuratedKeyphrases(leaves={1: leaf}, effective_threshold=1,
                              config=CurationConfig(min_search_count=1)),
            tokenizer=tokenizer, alignment=alignment)
        reqs = [(7, "leather case for iphone with strap", 1)]
        expected = batch_recommend(model, reqs, k=5, engine="reference")
        if alignment == "jac":
            assert {rec.text: rec.score for rec in expected[7]}[
                "iphone case"] == 0.5          # 2 / (4 + 2 - 2)
        path = save_model(model, tmp_path / "m")
        assert '"stopwords": ["for", "with"]' \
            in (path / "model.json").read_text(encoding="utf-8")
        for opened in (load_model(path), load_model(path, mmap=True),
                       open_model(path)):
            assert opened.tokenizer.spec() == tokenizer.spec()
            assert opened.alignment_name == alignment
            assert_models_identical(model, opened)
            for engine in ("reference", "fast"):
                assert batch_recommend(opened, reqs, k=5,
                                       engine=engine) == expected

    @pytest.mark.parametrize("tokenizer, stem", [
        (DEFAULT_TOKENIZER, "false"), (STEMMING_TOKENIZER, "true")])
    def test_stopword_less_header_bytes_are_unchanged(self, tmp_path,
                                                      tokenizer, stem):
        """``stopwords`` is written only when there are some: without,
        ``model.json`` opens with the bytes every earlier save wrote."""
        path = save_model(GraphExModel.construct(
            curated_two_leaves(), tokenizer=tokenizer), tmp_path / "m")
        assert (path / "model.json").read_text(encoding="utf-8").startswith(
            '{"format_version": 3, "alignment": "lta", "tokenizer": '
            '{"type": "space", "stem": %s}, ' % stem)
        assert load_model(path).tokenizer.stopwords == frozenset()

    def test_model_refuses_what_the_header_cannot_name(self):
        """``model.json`` names an alignment by registry name and holds
        a ``SpaceTokenizer``'s spec, so a model takes nothing else: a
        callable alignment (the registry's own function included) or
        an unknown name, a callable tokenizer, or a ``SpaceTokenizer``
        subclass (it may override what its spec does not record) is
        refused by name — by the constructor, and by ``construct``
        before any leaf is tokenized."""
        import functools

        from repro.core.alignment import jac

        def never_called(text):
            raise AssertionError("a leaf was tokenized")

        class OverridingTokenizer(SpaceTokenizer):
            __call__ = staticmethod(never_called)

        for alignment in (jac, functools.partial(jac), "cosine"):
            with pytest.raises(ValueError, match="unknown alignment .*"
                                                 "expected one of"):
                GraphExModel.construct(curated_two_leaves(),
                                       alignment=alignment)
            with pytest.raises(ValueError, match="unknown alignment"):
                GraphExModel({}, alignment=alignment)
        for tokenizer in (never_called, OverridingTokenizer()):
            with pytest.raises(TypeError, match="SpaceTokenizer.*got "
                               + type(tokenizer).__name__):
                GraphExModel.construct(curated_two_leaves(),
                                       tokenizer=tokenizer,
                                       builder="reference")
            with pytest.raises(TypeError, match="SpaceTokenizer"):
                GraphExModel({}, tokenizer=tokenizer)

    def test_model_size_bytes(self, tmp_path):
        model = GraphExModel.construct(curated_two_leaves())
        save_model(model, tmp_path / "m")
        assert model_size_bytes(tmp_path / "m") > 0

    def test_load_missing_directory_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_model(tmp_path / "absent")

    def test_unknown_format_version_raises(self, tmp_path):
        model = GraphExModel.construct(curated_two_leaves())
        path = save_model(model, tmp_path / "m")
        meta_file = path / "model.json"
        meta_file.write_text('{"format_version": 99}')
        with pytest.raises(ValueError):
            load_model(path)

    def test_bigger_model_serializes_bigger(self, tmp_path, tiny_curated):
        small = GraphExModel.construct(curated_two_leaves())
        big = GraphExModel.construct(tiny_curated)
        save_model(small, tmp_path / "small")
        save_model(big, tmp_path / "big")
        assert model_size_bytes(tmp_path / "big") \
            > model_size_bytes(tmp_path / "small")


class TestRoundtripFidelity:
    """A saved+loaded model must serve element-wise identical
    fast-engine batch output — text, score, counts and order — across
    the pooled-graph and stemming-tokenizer configurations."""

    def _requests(self):
        return [
            (1, "audeze maxwell gaming headphones", 10),
            (2, "mesh router gaming", 11),
            (3, "gaming headphones for routers", 999),  # pooled fallback
            (4, "", 10),
        ]

    @pytest.mark.parametrize("tokenizer", [DEFAULT_TOKENIZER,
                                           STEMMING_TOKENIZER])
    @pytest.mark.parametrize("build_pooled", [False, True])
    def test_fast_engine_output_identical_after_roundtrip(
            self, tmp_path, tokenizer, build_pooled):
        model = GraphExModel.construct(
            curated_two_leaves(), tokenizer=tokenizer,
            build_pooled=build_pooled, alignment="wmr")
        save_model(model, tmp_path / "m")
        loaded = load_model(tmp_path / "m")
        original = batch_recommend(model, self._requests(), k=5,
                                   engine="fast")
        restored = batch_recommend(loaded, self._requests(), k=5,
                                   engine="fast")
        assert restored.keys() == original.keys()
        for item_id in original:
            assert restored[item_id] == original[item_id]

    def test_roundtrip_preserves_arrays_and_vocab_order(self, tmp_path):
        model = GraphExModel.construct(curated_two_leaves(),
                                       build_pooled=True)
        save_model(model, tmp_path / "m")
        loaded = load_model(tmp_path / "m")
        for leaf_id in model.leaf_ids + [None]:
            a = model.pooled_graph if leaf_id is None \
                else model.leaf_graph(leaf_id)
            b = loaded.pooled_graph if leaf_id is None \
                else loaded.leaf_graph(leaf_id)
            assert b.word_vocab.tokens == a.word_vocab.tokens
            assert np.array_equal(b.graph.indptr, a.graph.indptr)
            assert np.array_equal(b.graph.indices, a.graph.indices)
            assert b.label_texts == a.label_texts
            assert np.array_equal(b.label_lengths, a.label_lengths)
            assert np.array_equal(b.search_counts, a.search_counts)
            assert np.array_equal(b.recall_counts, a.recall_counts)

    def test_string_pool_is_shared_and_deduplicated(self, tmp_path):
        """Every distinct string appears once in the written pool,
        even when the pooled graph duplicates every leaf's strings."""
        model = GraphExModel.construct(curated_two_leaves(),
                                       build_pooled=True)
        path = save_model(model, tmp_path / "m")
        meta = json.loads((path / "model.json").read_text())
        assert meta["format_version"] == 3
        expected = set()
        for graph in [model.leaf_graph(i) for i in model.leaf_ids] \
                + [model.pooled_graph]:
            expected.update(graph.label_texts)
            expected.update(graph.word_vocab.tokens)
        assert meta["pool_size"] == len(expected)


class TestBatch:
    def _requests(self):
        return [
            (1, "audeze maxwell gaming headphones", 10),
            (2, "mesh router", 11),
            (3, "unrelated thing entirely", 10),
        ]

    def test_batch_matches_single(self):
        model = GraphExModel.construct(curated_two_leaves())
        results = batch_recommend(model, self._requests(), k=5)
        for item_id, title, leaf_id in self._requests():
            solo = model.recommend(title, leaf_id, k=5)
            assert [r.text for r in results[item_id]] \
                == [r.text for r in solo]

    def test_batch_with_workers_matches_serial(self, fleet):
        model = GraphExModel.construct(curated_two_leaves())
        requests = self._requests() * 10
        serial = batch_recommend(model, requests, k=5)
        parallel = batch_recommend(model, requests, k=5, executor=fleet)
        assert {k: [r.text for r in v] for k, v in serial.items()} \
            == {k: [r.text for r in v] for k, v in parallel.items()}

    def test_hard_limit_respected(self):
        model = GraphExModel.construct(curated_two_leaves())
        results = batch_recommend(model, self._requests(), k=5, hard_limit=1)
        assert all(len(recs) <= 1 for recs in results.values())


# ---------------------------------------------------------------------------
# Mapped/copied equivalence + the zero-copy mapped plane (format 3)


_TOKENS = ["alpha", "beta", "gamma", "delta", "épée", "graph",
           "router", "音楽", "headphones", "mesh"]


@st.composite
def curated_worlds(draw):
    """Small random curated worlds: 1-3 leaves, each with a handful of
    keyphrases over a shared token alphabet (including non-ASCII, so
    the UTF-8 string pool is exercised for real)."""
    leaves = {}
    for leaf_id in range(1, draw(st.integers(1, 3)) + 1):
        leaf = CuratedLeaf(leaf_id=leaf_id)
        seen = set()
        for _ in range(draw(st.integers(1, 6))):
            words = draw(st.lists(st.sampled_from(_TOKENS),
                                  min_size=1, max_size=3))
            text = " ".join(words)
            if text in seen:
                continue
            seen.add(text)
            leaf.add(text, draw(st.integers(1, 500)),
                     draw(st.integers(1, 500)))
        leaves[leaf_id] = leaf
    return CuratedKeyphrases(
        leaves=leaves, effective_threshold=1,
        config=CurationConfig(min_search_count=1))


def assert_graphs_identical(a, b):
    assert b.leaf_id == a.leaf_id
    assert b.word_vocab.tokens == a.word_vocab.tokens
    assert np.array_equal(b.graph.indptr, a.graph.indptr)
    assert np.array_equal(b.graph.indices, a.graph.indices)
    assert list(b.label_texts) == list(a.label_texts)
    assert np.array_equal(b.label_lengths, a.label_lengths)
    assert np.array_equal(b.search_counts, a.search_counts)
    assert np.array_equal(b.recall_counts, a.recall_counts)


def assert_models_identical(a, b):
    assert b.leaf_ids == a.leaf_ids
    for leaf_id in a.leaf_ids:
        assert_graphs_identical(a.leaf_graph(leaf_id),
                                b.leaf_graph(leaf_id))
    assert (a.pooled_graph is None) == (b.pooled_graph is None)
    if a.pooled_graph is not None:
        assert_graphs_identical(a.pooled_graph, b.pooled_graph)


def _world_requests(model):
    requests = [(0, "alpha beta gamma épée", 999)]  # pooled/miss path
    for i, leaf_id in enumerate(model.leaf_ids, start=1):
        graph = model.leaf_graph(leaf_id)
        requests.append((i, graph.label_texts[0], leaf_id))
    return requests


def _serve_mapped_artifact(directory, requests):
    """Process-pool worker: open the shared v3 artifact zero-copy and
    serve a batch (module-level so it pickles)."""
    model = load_model(Path(directory), mmap=True)
    results = batch_recommend(model, requests, k=5)
    return {item_id: [(r.text, r.score, r.search_count, r.recall_count)
                      for r in recs]
            for item_id, recs in results.items()}


class TestCrossFormat:
    """The one format loads bit-identical mapped and copied, the
    mmap-opened plane is indistinguishable from a copied load through
    both inference engines, and every other format is refused."""

    @settings(max_examples=25, deadline=None)
    @given(curated=curated_worlds(), build_pooled=st.booleans())
    def test_v3_mmap_vs_copied_identical_output(self, curated,
                                                build_pooled):
        model = GraphExModel.construct(curated,
                                       build_pooled=build_pooled)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m"
            save_model(model, path)
            copied = load_model(path)
            mapped = load_model(path, mmap=True)
            assert_models_identical(model, copied)
            assert_models_identical(copied, mapped)
            requests = _world_requests(model)
            for engine in ("fast", "reference"):
                expected = batch_recommend(model, requests, k=5,
                                           engine=engine)
                assert batch_recommend(copied, requests, k=5,
                                       engine=engine) == expected
                assert batch_recommend(mapped, requests, k=5,
                                       engine=engine) == expected

    def test_future_format_version_named_in_error(self, tmp_path):
        model = GraphExModel.construct(curated_two_leaves())
        path = save_model(model, tmp_path / "m")
        (path / "model.json").write_text('{"format_version": 99}')
        with pytest.raises(ValueError) as excinfo:
            load_model(path)
        message = str(excinfo.value)
        assert "99" in message
        assert "format 3" in message

    @pytest.mark.parametrize("version", [1, 2, 99])
    def test_every_other_format_is_refused_by_one_message(self, tmp_path,
                                                          version):
        """Formats 1 and 2 have had no writer since PR 16 and have no
        reader now: a directory of either is refused exactly as one
        from a future build is, mapped, copied and through
        ``open_model`` — and is told the last commit that could read
        it."""
        path = tmp_path / "m"
        path.mkdir()
        (path / "model.json").write_text(json.dumps(
            {"format_version": version, "alignment": "lta",
             "tokenizer": {"type": "space", "stem": False}}))
        messages = set()
        for opener in (load_model, lambda p: load_model(p, mmap=True),
                       open_model):
            with pytest.raises(ValueError) as refused:
                opener(path)
            messages.add(str(refused.value))
        (message,) = messages
        assert message.startswith(
            f"unsupported model format_version {version} in "
            f"{path / 'model.json'}")
        assert "format 3" in message and "f0008ce" in message


class TestMappedPlane:
    """Safety properties of the zero-copy (mmap) model plane."""

    def _mapped(self, tmp_path, **construct_kwargs):
        model = GraphExModel.construct(curated_two_leaves(),
                                       **construct_kwargs)
        path = save_model(model, tmp_path / "m")
        return model, path, load_model(path, mmap=True)

    def test_mapped_arrays_are_read_only(self, tmp_path):
        _model, _path, mapped = self._mapped(tmp_path,
                                             build_pooled=True)
        for leaf_id in mapped.leaf_ids:
            graph = mapped.leaf_graph(leaf_id)
            assert graph.graph.is_readonly
            for array in (graph.graph.indptr, graph.graph.indices,
                          graph.label_lengths, graph.search_counts,
                          graph.recall_counts):
                assert not array.flags.writeable
                with pytest.raises((ValueError, RuntimeError)):
                    array[0] = 1
        assert mapped.pooled_graph.graph.is_readonly

    def test_built_graphs_are_not_readonly(self):
        model = GraphExModel.construct(curated_two_leaves())
        for leaf_id in model.leaf_ids:
            assert not model.leaf_graph(leaf_id).graph.is_readonly

    def test_mapped_model_survives_atomic_replace(self, tmp_path):
        """The rebuild-over-old-path scenario: a process still holding
        yesterday's mapped model keeps serving it bit-identically
        after today's save_model replaces the directory contents."""
        old_model, path, mapped = self._mapped(tmp_path)
        requests = _world_requests(old_model)
        before = batch_recommend(mapped, requests, k=5)

        leaf = CuratedLeaf(leaf_id=10)
        leaf.add("completely different phrase", 50, 5)
        new_model = GraphExModel.construct(CuratedKeyphrases(
            leaves={10: leaf}, effective_threshold=1,
            config=CurationConfig(min_search_count=1)))
        save_model(new_model, path)

        # The old mapping still reads the (unlinked) old payload.
        assert batch_recommend(mapped, requests, k=5) == before
        # A fresh open sees the replacement.
        fresh = load_model(path, mmap=True)
        assert_models_identical(new_model, fresh)

    def test_concurrent_workers_share_one_artifact(self, tmp_path):
        """Two process workers opening the same v3 artifact serve
        outputs identical to the in-memory model's."""
        model, path, _mapped = self._mapped(tmp_path)
        requests = _world_requests(model)
        expected = {
            item_id: [(r.text, r.score, r.search_count, r.recall_count)
                      for r in recs]
            for item_id, recs in
            batch_recommend(model, requests, k=5).items()}
        with ProcessPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(_serve_mapped_artifact, str(path),
                                   requests) for _ in range(2)]
            results = [future.result(timeout=60) for future in futures]
        assert results[0] == expected
        assert results[1] == expected

    def test_mapped_model_pickles_by_materializing(self, tmp_path):
        model, _path, mapped = self._mapped(tmp_path)
        clone = pickle.loads(pickle.dumps(mapped))
        assert_models_identical(model, clone)

    def test_open_model_passthrough_and_path(self, tmp_path):
        model, path, _mapped = self._mapped(tmp_path)
        assert open_model(model) is model
        opened = open_model(path)
        assert_models_identical(model, opened)
        # A path opens zero-copy, as a str as much as a Path.
        for opened in (opened, open_model(str(path))):
            assert opened.leaf_graph(opened.leaf_ids[0]).graph.is_readonly

    def test_lazy_string_list_behaves_like_a_list(self, tmp_path):
        model, _path, mapped = self._mapped(tmp_path)
        leaf_id = model.leaf_ids[0]
        lazy = mapped.leaf_graph(leaf_id).label_texts
        eager = model.leaf_graph(leaf_id).label_texts
        assert isinstance(lazy, LazyStringList)
        assert len(lazy) == len(eager)
        assert list(lazy) == list(eager)
        assert lazy == eager
        assert lazy[0] == eager[0] and lazy[-1] == eager[-1]
        assert lazy[1:] == list(eager[1:])
        assert eager[0] in lazy
        assert pickle.loads(pickle.dumps(lazy)) == list(eager)

    @staticmethod
    def _decoded(pool):
        """Pool ids whose string the pool holds decoded."""
        return {pool_id for pool_id, text in enumerate(pool._table)
                if text is not None}

    def test_lazy_pool_take_decodes_only_misses(self, tmp_path):
        """``take`` on a partly warmed pool answers exactly what
        per-index access does — duplicated, unordered and empty id
        arrays included — and keeps what it decoded, nothing else."""
        _model, path, mapped = self._mapped(tmp_path, build_pooled=True)
        texts = mapped.pooled_graph.label_texts
        pool = texts._pool
        ids = texts._ids.tolist()
        reference = load_model(path, mmap=True).pooled_graph \
            .label_texts._pool
        warm = self._decoded(pool)       # the vocabulary words
        assert warm and not set(ids) <= warm
        assert pool.take(np.array([], dtype=np.int64)) == []
        assert self._decoded(pool) == warm
        assert pool[ids[1]] == reference[ids[1]]   # warm one label
        assert self._decoded(pool) == warm | {ids[1]}
        first = [ids[2], ids[0], ids[2], ids[1], ids[0]]
        assert pool.take(np.array(first)) == [reference[i] for i in first]
        assert self._decoded(pool) == warm | set(first)
        for batch in (ids[::-1], ids + ids, [ids[0]]):
            assert pool.take(np.array(batch)) \
                == [reference[i] for i in batch]
        assert self._decoded(pool) == warm | set(ids)
        assert isinstance(pool._table, np.ndarray) \
            and len(pool._table) == len(pool)
        # The same through the list view the engine calls.
        assert texts.take(np.array([2, 0, 2])) \
            == [texts[2], texts[0], texts[2]]
        assert texts.take(np.array([], dtype=np.int64)) == []

    def test_lazy_pool_take_and_index_share_one_string(self, tmp_path):
        """One cache: ``pool[i]`` after ``take`` — and ``take`` after
        ``pool[i]`` — hands out the identical ``str`` object."""
        _model, _path, mapped = self._mapped(tmp_path, build_pooled=True)
        texts = mapped.pooled_graph.label_texts
        pool = texts._pool
        cold = [i for i in texts._ids.tolist()
                if i not in self._decoded(pool)]
        taken, indexed = cold[0], cold[1]
        assert pool.take(np.array([taken, taken]))[1] is pool[taken]
        text = pool[indexed]
        assert pool.take(np.array([taken, indexed]))[1] is text
        assert texts.take(np.array([0]))[0] is texts[0]

    def test_lazy_pool_take_out_of_range_raises(self, tmp_path):
        _model, _path, mapped = self._mapped(tmp_path)
        pool = mapped.leaf_graph(mapped.leaf_ids[0]).label_texts._pool
        before = self._decoded(pool)
        with pytest.raises(IndexError):
            pool.take(np.array([0, len(pool)]))
        with pytest.raises(IndexError):
            pool[len(pool)]
        assert self._decoded(pool) == before


class TestArtifactBytes:
    """What a save writes, and what a failed save leaves behind."""

    #: The pool order is part of the artifact: leaf by leaf, vocabulary
    #: words then label texts, first occurrence wins.  Pinned from the
    #: payload the one-``Vocabulary.add``-per-string writer produced.
    POOL = ["usb", "cable", "usb cable", "hdmi", "café", "hdmi cable",
            "café usb"]
    IDS = {
        "10/word_ids": [0, 1], "10/label_ids": [2, 1],
        "11/word_ids": [3, 1, 0, 4], "11/label_ids": [5, 2, 0, 6],
        "pooled/word_ids": [0, 1, 3, 4],
        "pooled/label_ids": [2, 1, 5, 0, 6],
        "pool/byte_offsets": [0, 3, 8, 17, 21, 26, 36, 45],
        "pool/char_offsets": [0, 3, 8, 17, 21, 25, 35, 43],
    }

    @staticmethod
    def pool_order_model() -> GraphExModel:
        """Leaves + pooled; "usb cable" is shared by both leaves,
        "cable" and "usb" are each a word and a one-word label, and
        "café" makes byte and codepoint offsets differ."""
        leaf_a = CuratedLeaf(leaf_id=10)
        leaf_a.add("usb cable", 5, 7)
        leaf_a.add("cable", 4, 4)
        leaf_b = CuratedLeaf(leaf_id=11)
        leaf_b.add("hdmi cable", 3, 3)
        leaf_b.add("usb cable", 9, 2)
        leaf_b.add("usb", 1, 1)
        leaf_b.add("café usb", 2, 2)
        return GraphExModel.construct(CuratedKeyphrases(
            leaves={10: leaf_a, 11: leaf_b}, effective_threshold=1,
            config=CurationConfig(min_search_count=1)), build_pooled=True)

    def test_pool_sections_are_byte_identical_to_the_pinned_ones(
            self, tmp_path):
        path = save_model(self.pool_order_model(), tmp_path / "m")
        meta = json.loads((path / "model.json").read_text())
        payload = (path / meta["arrays_file"]).read_bytes()

        def section(key) -> bytes:
            entry = meta["arrays"][key]
            size = np.dtype(entry["dtype"]).itemsize \
                * int(np.prod(entry["shape"]))
            return payload[entry["offset"]:entry["offset"] + size]

        assert meta["pool_size"] == len(self.POOL)
        assert section("pool/blob") == "".join(self.POOL).encode("utf-8")
        id_sections = {key for key in meta["arrays"]
                       if key.endswith("_ids") or key.endswith("_offsets")}
        assert id_sections == set(self.IDS)
        for key, expected in self.IDS.items():
            assert meta["arrays"][key]["dtype"] == "<i8"
            assert section(key) == np.asarray(expected,
                                              dtype="<i8").tobytes()

    @pytest.mark.parametrize("failing_fsync", [1, 2],
                             ids=["payload", "manifest"])
    def test_failed_write_leaves_no_temp_file(self, tmp_path,
                                              monkeypatch,
                                              failing_fsync):
        """A save that dies in either writer (the payload's fsync is
        the first of a save, ``model.json``'s the second) propagates
        the error, unlinks its temp file, and leaves the model already
        in that directory loadable and serving."""
        import os

        old = GraphExModel.construct(curated_two_leaves(),
                                     build_pooled=True)
        path = save_model(old, tmp_path / "m")
        requests = _world_requests(old)
        expected = batch_recommend(old, requests, k=5)
        real_fsync = os.fsync
        calls = []

        def flaky_fsync(fd):
            calls.append(fd)
            if len(calls) == failing_fsync:
                raise OSError(28, "No space left on device")
            return real_fsync(fd)

        monkeypatch.setattr(os, "fsync", flaky_fsync)
        with pytest.raises(OSError, match="No space left"):
            save_model(self.pool_order_model(), path)
        monkeypatch.undo()

        assert len(calls) == failing_fsync
        assert [p.name for p in path.iterdir() if ".tmp" in p.name] == []
        for mmap in (True, False):
            survivor = load_model(path, mmap=mmap)
            assert_models_identical(old, survivor)
            assert batch_recommend(survivor, requests, k=5) == expected
        # The next good save converges the directory to one payload.
        save_model(self.pool_order_model(), path)
        assert sorted(p.name.split("-")[0] for p in path.iterdir()) \
            == ["arrays", "model.json"]


class TestTruncatedPayload:
    """A payload shorter than its manifest is refused by name, before
    anything is viewed: a mapped open never touches the last sections
    and used to serve from a cut file until a read reached the cut."""

    @staticmethod
    def section_end(entry) -> int:
        return entry["offset"] + (np.dtype(entry["dtype"]).itemsize
                                  * int(np.prod(entry["shape"])))

    @classmethod
    def cut(cls, path: Path, where: str) -> Tuple[Path, str, int, int]:
        """Truncate the artifact's payload; returns the payload path,
        the first manifest section that no longer fits, the bytes it
        needs and the bytes left."""
        meta = json.loads((path / "model.json").read_text("utf-8"))
        payload = path / meta["arrays_file"]
        size = payload.stat().st_size
        blob = meta["arrays"]["pool/blob"]
        keep = {"last_byte": size - 1, "half": size // 2,
                "inside_pool_blob": blob["offset"] + blob["shape"][0] // 2
                }[where]
        with open(payload, "r+b") as handle:
            handle.truncate(keep)
        for key, entry in meta["arrays"].items():
            if cls.section_end(entry) > keep:
                return payload, key, cls.section_end(entry), keep
        raise AssertionError("the cut removed nothing the manifest names")

    @pytest.mark.parametrize("mmap", [True, False], ids=["mmap", "copied"])
    @pytest.mark.parametrize("where, section", [
        ("last_byte", "pool/char_offsets"), ("half", None),
        ("inside_pool_blob", "pool/blob")])
    def test_cut_model_is_refused_by_name(self, tmp_path, where, section,
                                          mmap):
        model = TestArtifactBytes.pool_order_model()
        path = save_model(model, tmp_path / "m")
        intact = load_model(path, mmap=mmap)
        payload, first, needs, present = self.cut(path, where)
        assert section in (None, first)
        with pytest.raises(ValueError) as refused:
            load_model(path, mmap=mmap)
        assert str(refused.value) == (
            f"truncated payload {payload}: section {first!r} needs "
            f"{needs} bytes, the file holds {present}")
        with pytest.raises(ValueError, match="truncated payload"):
            open_model(path)
        # Re-saving repairs the directory; the model opened before the
        # cut was never the file's hostage when copied.
        save_model(model, path)
        assert_models_identical(model, load_model(path, mmap=mmap))
        if not mmap:
            assert_models_identical(model, intact)

    def test_a_section_may_end_with_the_file(self, tmp_path):
        """The check is ``>``, not ``>=``: a section may end exactly at
        the end of the file — every intact payload's last one does."""
        model = TestArtifactBytes.pool_order_model()
        path = save_model(model, tmp_path / "m")
        meta = json.loads((path / "model.json").read_text("utf-8"))
        assert max(map(self.section_end, meta["arrays"].values())) \
            == (path / meta["arrays_file"]).stat().st_size
        for mmap in (True, False):
            assert_models_identical(model, load_model(path, mmap=mmap))


def _damage_section(key: str, **entry):
    """A DAMAGE step: overwrite fields of one ``arrays`` manifest entry."""
    def damage(meta):
        meta["arrays"][key].update(entry)
        return meta
    return damage


def _alias_section(key: str, onto: str):
    """A DAMAGE step: point one manifest entry at another's bytes."""
    def damage(meta):
        meta["arrays"][key]["offset"] = meta["arrays"][onto]["offset"]
        return meta
    return damage


class TestMalformedMeta:
    """``model.json`` is outside input: whatever is wrong with it is
    one named ``ValueError`` — the path, what is wrong — before the
    payload is looked for, never an ``AttributeError`` / ``KeyError``
    from the middle of the loader or a read outside the directory."""

    #: case → (what is done to the parsed manifest, what the error says);
    #: the ``model:`` cases damage the header's spec, the ``section:``
    #: cases one entry of the ``arrays`` manifest.
    DAMAGE = {
        "not-json": (lambda meta: "{nope", "not JSON"),
        "not-an-object": (lambda meta: [1, 2],
                          "expected a JSON object, got a list"),
        "no-arrays-file": (lambda meta: meta.pop("arrays_file") and meta,
                           "required key 'arrays_file' is missing"),
        "no-leaves": (lambda meta: meta.pop("leaves") and meta,
                      "required key 'leaves' is missing"),
        "arrays-not-an-object": (
            lambda meta: {**meta, "arrays": [1]},
            "required key 'arrays' is [1], not a JSON dict"),
        "payload-outside-the-directory": (
            lambda meta: {**meta, "arrays_file": "../../etc/hostname"},
            "arrays_file '../../etc/hostname' is not a bare file name"),
        "payload-is-the-parent": (
            lambda meta: {**meta, "arrays_file": ".."},
            "arrays_file '..' is not a bare file name"),

        "model:no-tokenizer": (lambda meta: meta.pop("tokenizer") and meta,
                               "required key 'tokenizer' is missing"),
        "model:alignment-not-a-name": (
            lambda meta: {**meta, "alignment": ["lta"]},
            "required key 'alignment' is ['lta'], not a JSON str"),
        "model:alignment-unknown": (
            lambda meta: {**meta, "alignment": "named"},
            "unknown alignment 'named'"),
        # The tokenizer half: what spec() writes, nothing looser ("no"
        # would stem, "for" would drop f, o and r).
        **{f"model:tokenizer-{name}": (
            lambda meta, spec=spec: {**meta, "tokenizer": spec},
            f"tokenizer {spec!r} is not a SpaceTokenizer spec")
           for name, spec in [
               ("stem-not-a-bool", {"type": "space", "stem": "no"}),
               ("stopwords-not-a-list",
                {"type": "space", "stem": False, "stopwords": "for"}),
               ("not-space", {"type": "bpe", "stem": False}),
               ("unknown-key", {"type": "space", "stem": False,
                                "lowercase": True})]},

        # Each of these loaded silently, or escaped as an IndexError /
        # TypeError / KeyError, before entries were checked: a negative
        # offset served Search Counts read out of the string pool, and
        # an aliased section served another array's counts.
        "section:offset-negative": (
            _damage_section("10/search_counts", offset=-32),
            "section '10/search_counts': offset -32 is not a "
            "non-negative integer"),
        "section:offset-a-string": (
            _damage_section("10/search_counts", offset="0"),
            "section '10/search_counts': offset '0' is not a "
            "non-negative integer"),
        "section:aliases-another": (
            _alias_section("10/recall_counts", onto="10/search_counts"),
            "sections '10/recall_counts' and '10/search_counts' overlap"),
        "section:shape-negative": (
            _damage_section("10/indptr", shape=[-1]),
            "section '10/indptr': shape [-1] is not a list of "
            "non-negative integers"),
        "section:dtype-object": (
            _damage_section("10/label_ids", dtype="|O"),
            "section '10/label_ids': dtype '|O' is not a fixed-size "
            "integer or float dtype"),
        "section:missing": (
            lambda meta: meta["arrays"].pop("11/word_ids") and meta,
            "section '11/word_ids' is missing"),
        # The rest of what an entry must be: a JSON object, an integer
        # offset (JSON ``true`` is not one), a dtype numpy can parse and
        # a list for a shape.
        "section:not-an-object": (
            lambda meta: meta["arrays"].update(
                {"10/indices": [0, "<i8", [3]]}) or meta,
            "section '10/indices': entry [0, '<i8', [3]] is not a JSON "
            "object"),
        "section:offset-a-bool": (
            _damage_section("10/search_counts", offset=True),
            "section '10/search_counts': offset True is not a "
            "non-negative integer"),
        "section:dtype-unparseable": (
            _damage_section("10/label_ids", dtype="not-a-dtype"),
            "section '10/label_ids': dtype 'not-a-dtype' is not a "
            "fixed-size integer or float dtype"),
        "section:shape-not-a-list": (
            _damage_section("10/indptr", shape=3),
            "section '10/indptr': shape 3 is not a list of non-negative "
            "integers"),
    }

    @pytest.mark.parametrize("mmap", [True, False], ids=["mmap", "copied"])
    @pytest.mark.parametrize("case", sorted(DAMAGE))
    def test_refused_by_name(self, tmp_path, case, mmap):
        how, what = self.DAMAGE[case]
        model = TestArtifactBytes.pool_order_model()
        path = save_model(model, tmp_path / "m")
        meta_file = path / "model.json"
        damaged = how(json.loads(meta_file.read_text("utf-8")))
        meta_file.write_text(damaged if isinstance(damaged, str)
                             else json.dumps(damaged), "utf-8")
        for opener in (lambda p: load_model(p, mmap=mmap), open_model):
            with pytest.raises(ValueError) as refused:
                opener(path)
            assert str(refused.value).startswith(
                f"malformed {meta_file}: {what}")
        save_model(model, path)         # a re-save repairs the directory
        assert_models_identical(model, load_model(path, mmap=mmap))
