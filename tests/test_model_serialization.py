"""Tests for GraphEx construction, persistence and batch inference."""

from __future__ import annotations

import asyncio
import json
import pickle
import tempfile
import threading
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from pathlib import Path
from typing import Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batch import batch_recommend
from repro.core.curation import CuratedKeyphrases, CuratedLeaf, CurationConfig
from repro.core.model import (GraphExModel, GraphPlane, LazyStringList,
                              build_leaf_graph)
from repro.core.serialization import (load_model, model_size_bytes,
                                      open_model, save_model)
from repro.core.tokenize import (DEFAULT_TOKENIZER, STEMMING_TOKENIZER,
                                 SpaceTokenizer)
from repro.serving import AsyncNRTFront
from repro.serving.nrt import ModelSlot
from tests.conftest import assert_models_identical, open_saved


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
        for opened in (load_model(path), open_model(path)):
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
            '{"format_version": 6, "alignment": "lta", "tokenizer": '
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

    def test_a_graph_is_keyed_by_its_leaf_id(self):
        """The artifact names each graph by its ``leaf_id`` and stores
        the graphs in leaf-id order, so a model whose keys say
        otherwise is refused before it can save a mis-cut artifact."""
        built = GraphExModel.construct(curated_two_leaves(),
                                       build_pooled=True)
        leaf_10, pooled = built.leaf_graph(10), built.pooled_graph
        for graphs, pooled_graph, key, leaf_id in [
                ({11: leaf_10}, None, "11", "10"),
                ({-1: pooled}, None, "-1", "-1"),
                ({}, leaf_10, "'pooled'", "10")]:
            with pytest.raises(ValueError, match=f"the graph keyed {key} "
                               f"has leaf_id {leaf_id}: "):
                GraphExModel(graphs, pooled_graph=pooled_graph)

    @pytest.mark.parametrize("build_pooled", [False, True])
    @pytest.mark.parametrize("builder", ["fast", "reference"])
    def test_a_curated_leaf_is_keyed_by_its_leaf_id(self, builder,
                                                    build_pooled):
        """Both builders refuse a curated leaf keyed 5 whose leaf_id is
        6 with the constructor's error: the fast builder assembles its
        plane without the constructor, not without its check."""
        leaf = CuratedLeaf(leaf_id=6)
        leaf.add("usb cable", 3, 1)
        curated = CuratedKeyphrases(
            leaves={5: leaf}, effective_threshold=1,
            config=CurationConfig(min_search_count=1))
        with pytest.raises(ValueError, match="the graph keyed 5 has "
                           "leaf_id 6: "):
            GraphExModel.construct(curated, build_pooled=build_pooled,
                                   builder=builder)

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
            assert list(b.word_vocab.items()) == list(a.word_vocab.items())
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
        assert meta["format_version"] == 6
        expected = set()
        for graph in [model.leaf_graph(i) for i in model.leaf_ids] \
                + [model.pooled_graph]:
            expected.update(graph.label_texts)
            expected.update(graph.word_vocab)
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

    def test_batch_with_workers_matches_serial(self, fleet, tmp_path):
        model = open_saved(GraphExModel.construct(curated_two_leaves()),
                           tmp_path)
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
# Open fidelity + the zero-copy mapped plane


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


#: Pool stressors: non-ASCII, non-BMP, a token that drops to nothing
#: ("!!!"), and words that are also drawn as one-word labels.
_POOL_TOKENS = ["usb", "cable", "café", "音楽", "😀", "a😀b", "!!!"]


@st.composite
def pool_worlds(draw):
    """Curated worlds for the string pool: 1-4 leaves of 1-6 texts of
    0-3 tokens (so empty texts and repeats within and across leaves
    are drawn), plus one text every leaf shares."""
    phrase = st.lists(st.sampled_from(_POOL_TOKENS), max_size=3) \
        .map(" ".join)
    shared = draw(phrase)
    leaves = {}
    for leaf_id in range(1, draw(st.integers(1, 4)) + 1):
        leaf = CuratedLeaf(leaf_id=leaf_id)
        for text in draw(st.lists(phrase, min_size=1, max_size=6)) \
                + [shared]:
            leaf.add(text, draw(st.integers(1, 9)), draw(st.integers(1, 9)))
        leaves[leaf_id] = leaf
    return CuratedKeyphrases(
        leaves=leaves, effective_threshold=1,
        config=CurationConfig(min_search_count=1))


def _payload_sections(path: Path):
    """Every manifest section of a saved model, as raw bytes."""
    meta = json.loads((path / "model.json").read_text("utf-8"))
    payload = (path / meta["arrays_file"]).read_bytes()
    return {key: payload[entry["offset"]:entry["offset"]
                         + np.dtype(entry["dtype"]).itemsize
                         * int(np.prod(entry["shape"]))]
            for key, entry in meta["arrays"].items()}


def _world_requests(model):
    requests = [(0, "alpha beta gamma épée", 999)]  # pooled/miss path
    for i, leaf_id in enumerate(model.leaf_ids, start=1):
        graph = model.leaf_graph(leaf_id)
        requests.append((i, graph.label_texts[0], leaf_id))
    return requests


def _serve_mapped_artifact(directory, requests):
    """Process-pool worker: open the shared artifact zero-copy and
    serve a batch (module-level so it pickles)."""
    model = load_model(Path(directory))
    results = batch_recommend(model, requests, k=5)
    return {item_id: [(r.text, r.score, r.search_count, r.recall_count)
                      for r in recs]
            for item_id, recs in results.items()}


class TestCrossFormat:
    """The one format opens bit-identical to the model saved, the
    mapped plane is indistinguishable from the built one through both
    inference engines, and every other format is refused."""

    @settings(max_examples=25, deadline=None)
    @given(curated=curated_worlds(), build_pooled=st.booleans())
    def test_opened_model_serves_identical_output(self, curated,
                                                  build_pooled):
        model = GraphExModel.construct(curated,
                                       build_pooled=build_pooled)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m"
            save_model(model, path)
            mapped = load_model(path)
            assert_models_identical(model, mapped)
            requests = _world_requests(model)
            for engine in ("fast", "reference"):
                assert batch_recommend(mapped, requests, k=5,
                                       engine=engine) \
                    == batch_recommend(model, requests, k=5, engine=engine)

    @pytest.mark.parametrize("rewrite", ["sorted", "reversed"])
    def test_leaves_open_in_leaf_id_order_whatever_their_key_order(
            self, tmp_path, rewrite):
        """The sections hold the graphs in leaf-id order, the pooled
        graph last; the key order of ``model.json``'s ``leaves`` does
        not matter.  Rewritten with sorted keys, leaf 10 ("10") comes
        before leaf 2, and the open still cuts each graph its own
        rows."""
        leaf_2 = CuratedLeaf(leaf_id=2)
        leaf_2.add("usb cable", 5, 7)
        leaf_2.add("cable", 4, 4)
        leaf_10 = CuratedLeaf(leaf_id=10)
        leaf_10.add("hdmi cable", 3, 3)
        leaf_10.add("red hdmi", 9, 2)
        leaf_10.add("hdmi", 1, 1)
        model = GraphExModel.construct(CuratedKeyphrases(
            leaves={2: leaf_2, 10: leaf_10}, effective_threshold=1,
            config=CurationConfig(min_search_count=1)), build_pooled=True)
        path = save_model(model, tmp_path / "m")
        meta_file = path / "model.json"
        meta = json.loads(meta_file.read_text("utf-8"))
        if rewrite == "sorted":
            meta_file.write_text(json.dumps(meta, sort_keys=True), "utf-8")
            order = ["10", "2", "pooled"]
        else:
            meta["leaves"] = dict(reversed(meta["leaves"].items()))
            meta_file.write_text(json.dumps(meta), "utf-8")
            order = ["pooled", "10", "2"]
        assert list(json.loads(meta_file.read_text("utf-8"))["leaves"]) \
            == order
        opened = load_model(path)
        assert_models_identical(model, opened)
        requests = _world_requests(model)
        for engine in ("fast", "reference"):
            assert batch_recommend(opened, requests, k=5, engine=engine) \
                == batch_recommend(model, requests, k=5, engine=engine)

    def test_future_format_version_named_in_error(self, tmp_path):
        model = GraphExModel.construct(curated_two_leaves())
        path = save_model(model, tmp_path / "m")
        (path / "model.json").write_text('{"format_version": 99}')
        with pytest.raises(ValueError) as excinfo:
            load_model(path)
        message = str(excinfo.value)
        assert "99" in message
        assert "format 6" in message

    @pytest.mark.parametrize("version", [1, 2, 99])
    def test_every_other_format_is_refused_by_one_message(self, tmp_path,
                                                          version):
        """Formats 1 and 2 have had no writer since PR 16 and have no
        reader now: a directory of either is refused exactly as one
        from a future build is, by ``load_model`` and ``open_model`` —
        and is told the last commit that could read it."""
        path = tmp_path / "m"
        path.mkdir()
        (path / "model.json").write_text(json.dumps(
            {"format_version": version, "alignment": "lta",
             "tokenizer": {"type": "space", "stem": False}}))
        messages = set()
        for opener in (load_model, open_model):
            with pytest.raises(ValueError) as refused:
                opener(path)
            messages.add(str(refused.value))
        (message,) = messages
        assert message.startswith(
            f"unsupported model format_version {version} in "
            f"{path / 'model.json'}")
        assert "format 6" in message and "f0008ce" in message

    def test_format_3_is_refused_naming_its_last_reader(self, tmp_path):
        """Format 3 — seven payload sections per leaf — has no reader
        now: an intact format-3 header is refused by name on every
        opener, naming the last commit that read it and how to get a
        format-6 artifact."""
        path = save_model(TestArtifactBytes.pool_order_model(),
                          tmp_path / "m")
        meta = json.loads((path / "model.json").read_text("utf-8"))
        meta["format_version"] = 3
        meta["leaves"] = {key: {"leaf_id": entry["leaf_id"]}
                          for key, entry in meta["leaves"].items()}
        (path / "model.json").write_text(json.dumps(meta), "utf-8")
        for opener in (load_model, open_model):
            with pytest.raises(ValueError) as refused:
                opener(path)
            message = str(refused.value)
            assert message.startswith(
                f"unsupported model format_version 3 in "
                f"{path / 'model.json'}; this build reads only what it "
                f"writes, format 6")
            assert "format 3, one section per leaf array, was last read " \
                "at commit a58fa6e — rebuild it with construct" in message

    def test_format_4_is_refused_naming_its_last_reader(self, tmp_path):
        """Format 4 — format 5 plus the pool's codepoint offsets, which
        only the old copied open's eager decode read — has no reader now:
        a format-4 header is refused by name on every opener, naming
        the last commit that read it."""
        path = save_model(TestArtifactBytes.pool_order_model(),
                          tmp_path / "m")
        meta = json.loads((path / "model.json").read_text("utf-8"))
        assert "pool/char_offsets" not in meta["arrays"]
        meta["format_version"] = 4
        (path / "model.json").write_text(json.dumps(meta), "utf-8")
        for opener in (load_model, open_model):
            with pytest.raises(ValueError) as refused:
                opener(path)
            message = str(refused.value)
            assert message.startswith(
                f"unsupported model format_version 4 in "
                f"{path / 'model.json'}; this build reads only what it "
                f"writes, format 6")
            assert "format 4, which also stored the pool's codepoint " \
                "offsets, was last read at commit c4a5b79" in message

    def test_format_5_is_refused_naming_its_last_reader(self, tmp_path):
        """Format 5 — format 6's sections, each graph's labels in
        builder order — has no reader now: the fast engine breaks a
        score tie by label id, so a format-5 plane would serve ties in
        another order.  A format-5 header is refused by name on every
        opener, naming the last commit that read it."""
        path = save_model(TestArtifactBytes.pool_order_model(),
                          tmp_path / "m")
        meta = json.loads((path / "model.json").read_text("utf-8"))
        meta["format_version"] = 5
        (path / "model.json").write_text(json.dumps(meta), "utf-8")
        for opener in (load_model, open_model):
            with pytest.raises(ValueError) as refused:
                opener(path)
            message = str(refused.value)
            assert message.startswith(
                f"unsupported model format_version 5 in "
                f"{path / 'model.json'}; this build reads only what it "
                f"writes, format 6")
            assert "format 5, labels in builder order, was last read at " \
                "commit bd207cf — rebuild it with construct" in message


class TestMappedPlane:
    """Safety properties of the zero-copy (mapped) model plane."""

    def _mapped(self, tmp_path, **construct_kwargs):
        model = GraphExModel.construct(curated_two_leaves(),
                                       **construct_kwargs)
        path = save_model(model, tmp_path / "m")
        return model, path, load_model(path)

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
        fresh = load_model(path)
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
        """A clone holds its texts one way: every graph's are a
        ``LazyStringList`` over the clone's own pool, and its arrays
        are views of the clone's plane, not copies beside it."""
        model, _path, mapped = self._mapped(tmp_path, build_pooled=True)
        clone = pickle.loads(pickle.dumps(mapped))
        plane = clone.plane
        assert plane.strings is not mapped.plane.strings
        for graph in clone.plane_graphs:
            assert type(graph.label_texts) is LazyStringList
            assert graph.label_texts._pool is plane.strings
            for array, stacked in (
                    (graph.graph.indptr, plane.indptr),
                    (graph.graph.indices, plane.indices),
                    (graph.label_lengths, plane.label_lengths),
                    (graph.search_counts, plane.search_counts),
                    (graph.recall_counts, plane.recall_counts),
                    (graph.label_texts._ids, plane.text_ids)):
                assert np.shares_memory(array, stacked)
        assert (clone.artifact_identity, clone.artifact_dir) \
            == (mapped.artifact_identity, mapped.artifact_dir)
        assert_models_identical(model, clone)

    def test_open_model_passthrough_and_path(self, tmp_path):
        model, path, _mapped = self._mapped(tmp_path)
        assert open_model(model) is model
        opened = open_model(path)
        assert_models_identical(model, opened)
        # A path opens zero-copy, as a str as much as a Path.
        for opened in (opened, open_model(str(path))):
            assert opened.leaf_graph(opened.leaf_ids[0]).graph.is_readonly

    def test_an_opened_model_knows_its_directory(self, tmp_path,
                                                 monkeypatch):
        """``artifact_dir`` is the resolved directory of an open, even
        of a relative path, rides the ``open_model`` passthrough, and is
        ``None`` on a model built in memory."""
        model = GraphExModel.construct(curated_two_leaves())
        assert model.artifact_dir is None
        save_model(model, tmp_path / "m")
        monkeypatch.chdir(tmp_path)
        for opened in (load_model("m"), open_model("m")):
            assert opened.artifact_dir.is_absolute()
            assert opened.artifact_dir == (tmp_path / "m").resolve()
            assert open_model(opened).artifact_dir == opened.artifact_dir

    @pytest.mark.parametrize("builder", ["fast", "reference"])
    def test_every_model_reads_its_texts_through_one_view(self, tmp_path,
                                                          builder):
        """Built and opened models alike: every graph's
        ``label_texts`` is a ``LazyStringList`` over the plane's pool,
        equal to the builder's list in the plane's static order (Search
        Count desc) and behaving like it, and pickling to that plain
        list."""
        curated = curated_two_leaves()
        model = GraphExModel.construct(curated, build_pooled=True,
                                       builder=builder)
        path = save_model(model, tmp_path / "m")
        lists = {10: ["gaming headphones", "audeze maxwell"],
                 11: ["mesh router"],
                 -1: ["gaming headphones", "audeze maxwell", "mesh router"]}
        for leaf_id, leaf in curated.leaves.items():
            assert sorted(lists[leaf_id]) == sorted(build_leaf_graph(
                leaf, DEFAULT_TOKENIZER).label_texts)
        for opened in (model, load_model(path)):
            graphs = opened.plane_graphs
            assert {type(graph.label_texts) for graph in graphs} \
                == {LazyStringList}
            assert all(graph.label_texts._pool is opened.plane.strings
                       for graph in graphs)
            for graph in graphs:
                view, eager = graph.label_texts, lists[graph.leaf_id]
                assert type(eager) is list
                assert len(view) == len(eager)
                assert list(view) == eager and view == eager
                assert view == tuple(eager) and not view != eager
                assert view[0] == eager[0] and view[-1] == eager[-1]
                assert view[1:] == eager[1:] and view[::-1] == eager[::-1]
                assert eager[0] in view
                clone = pickle.loads(pickle.dumps(view))
                assert type(clone) is list and clone == eager

    def test_an_opened_pool_counts_what_it_has_left_to_decode(
            self, tmp_path):
        """A built pool has nothing to decode.  An opened one keeps an
        exact count of its undecoded strings: a partial read decodes
        only what it reads, a full read brings the count to 0, and
        every read equals the built model's."""
        model = GraphExModel.construct(curated_two_leaves(),
                                       build_pooled=True)
        opened = load_model(save_model(model, tmp_path / "m"))
        built, pool = model.plane.strings, opened.plane.strings

        def undecoded():
            assert pool._undecoded \
                == sum(text is None for text in pool._table)
            return pool._undecoded

        assert built._undecoded == 0
        left = undecoded()
        assert left > 0     # the words are decoded, no label text yet
        first = opened.plane_graphs[0]
        assert first.label_texts[0] \
            == model.plane_graphs[0].label_texts[0]
        assert undecoded() == left - 1
        assert pool.take(opened.plane.text_ids) \
            == built.take(model.plane.text_ids)
        assert undecoded() == 0
        for view, eager in zip(opened.plane_graphs, model.plane_graphs):
            assert list(view.label_texts) == list(eager.label_texts)
        assert undecoded() == 0

    def test_concurrent_first_reads_hand_out_one_string_each(
            self, tmp_path):
        """Threads that read a fresh open's texts at once decode each
        string once: every thread gets the same ``str`` object per pool
        id, equal to the built model's, and the count ends at 0."""
        model = GraphExModel.construct(curated_two_leaves(),
                                       build_pooled=True)
        opened = load_model(save_model(model, tmp_path / "m"))
        pool, ids = opened.plane.strings, opened.plane.text_ids
        assert pool._undecoded > 0
        start = threading.Barrier(4)

        def read(_):
            start.wait(timeout=10.0)
            return pool.take(ids)

        with ThreadPoolExecutor(max_workers=4) as threads:
            reads = list(threads.map(read, range(4)))
        expected = model.plane.strings.take(model.plane.text_ids)
        for texts in reads:
            assert texts == expected
            assert all(text is first
                       for text, first in zip(texts, reads[0]))
        assert pool._undecoded == 0

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
        reference = load_model(path).pooled_graph \
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
        # The same through the plane the engine reads.
        plane = mapped.plane
        assert plane.strings is pool
        base = plane.label_base[mapped.graph_index(-1)]
        assert pool.take(plane.text_ids[base + np.array([2, 0, 2])]) \
            == [texts[2], texts[0], texts[2]]

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
        assert pool.take(texts._ids[:1])[0] is texts[0]

    def test_opened_models_resave_the_same_payload(self, tmp_path):
        """The plane is written as it is — read-only mapped sections
        too — so an open re-saves byte-identically."""
        _model, path, mapped = self._mapped(tmp_path, build_pooled=True)
        assert _payload_sections(save_model(mapped, tmp_path / "n")) \
            == _payload_sections(path)

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
    #: payload the one-``setdefault``-per-string writer produced
    #: (leaf 10's ids, then leaf 11's, then the pooled graph's), labels
    #: in the plane's static order: leaf 11's "usb cable" (Search Count
    #: 9) first, its "usb" (1) last, and so in the pooled graph.
    POOL = ["usb", "cable", "usb cable", "hdmi", "café", "hdmi cable",
            "café usb"]
    IDS = {
        "word_ids": [0, 1] + [3, 1, 0, 4] + [0, 1, 3, 4],
        "label_ids": [2, 1] + [2, 5, 6, 0] + [2, 1, 5, 6, 0],
        "pool/byte_offsets": [0, 3, 8, 17, 21, 26, 36, 45],
    }
    #: The same pool's codepoint offsets: what the byte offsets are once
    #: "café" is spelled "cafe".
    ASCII_OFFSETS = [0, 3, 8, 17, 21, 25, 35, 43]

    @staticmethod
    def pool_order_model(cafe: str = "café") -> GraphExModel:
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
        leaf_b.add(f"{cafe} usb", 2, 2)
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

    def test_all_ascii_pool_has_byte_offsets_equal_to_char_offsets(
            self, tmp_path):
        """The same model with "cafe" for "café": every string is
        ASCII, so no string is encoded on its own and the byte offsets
        are the codepoint offsets; the ids do not move."""
        sections = _payload_sections(
            save_model(self.pool_order_model("cafe"), tmp_path / "m"))
        pool = [text.replace("é", "e") for text in self.POOL]
        assert sections["pool/blob"] == "".join(pool).encode("ascii")
        assert sections["pool/byte_offsets"] \
            == np.asarray(self.ASCII_OFFSETS, "<i8").tobytes()
        for key, expected in self.IDS.items():
            if not key.startswith("pool/"):
                assert sections[key] == np.asarray(expected,
                                                   "<i8").tobytes()

    @settings(max_examples=40, deadline=None)
    @given(curated=pool_worlds(), build_pooled=st.booleans())
    def test_pool_sections_equal_a_vocabulary_add_reference(
            self, curated, build_pooled):
        """Over drawn worlds (non-ASCII and non-BMP tokens, empty
        texts, repeats, one-word labels equal to words, texts shared by
        leaves): every id section and the two pool sections equal the
        reference — one ``pool.setdefault(string, len(pool))`` per
        string, leaf by leaf, words then labels, and one ``encode`` per
        pool string."""
        model = GraphExModel.construct(curated, build_pooled=build_pooled)
        pool = {}
        expected = {"word_ids": [], "label_ids": []}
        leaves = [model.leaf_graph(leaf_id) for leaf_id in model.leaf_ids]
        for leaf in leaves + [model.pooled_graph] * build_pooled:
            expected["word_ids"] += [pool.setdefault(word, len(pool))
                                     for word in leaf.word_vocab]
            expected["label_ids"] += [pool.setdefault(text, len(pool))
                                      for text in leaf.label_texts]
        encoded = [text.encode("utf-8") for text in pool]
        expected["pool/byte_offsets"] = np.cumsum([0] + list(map(
            len, encoded)))
        with tempfile.TemporaryDirectory() as tmp:
            sections = _payload_sections(save_model(model, Path(tmp) / "m"))
        assert sections.pop("pool/blob") == b"".join(encoded)
        assert {key: value for key, value in sections.items()
                if key.endswith(("_ids", "_offsets"))} == {
            key: np.asarray(ids, "<i8").tobytes()
            for key, ids in expected.items()}

    @settings(max_examples=40, deadline=None)
    @given(curated=pool_worlds(), build_pooled=st.booleans(),
           builder=st.sampled_from(["fast", "reference"]))
    def test_the_built_plane_holds_the_saved_pool(self, curated,
                                                  build_pooled, builder):
        """A built plane holds, from construction on, exactly the pool
        and ids its artifact holds — and so does a second stack of its
        graphs: save writes the plane as it is."""
        model = GraphExModel.construct(curated, build_pooled=build_pooled,
                                       builder=builder)
        plane = model.plane
        again = GraphPlane.stack(model.plane_graphs)
        with tempfile.TemporaryDirectory() as tmp:
            sections = _payload_sections(save_model(model, Path(tmp) / "m"))
        pool = plane.strings.take(np.arange(len(plane.strings)))
        assert sections["pool/blob"] == "".join(pool).encode("utf-8")
        assert len(sections["pool/byte_offsets"]) == 8 * (len(pool) + 1)
        for name, section in (("text_ids", "label_ids"),
                              ("word_ids", "word_ids")):
            ids = getattr(plane, name)
            assert ids.dtype == np.int64
            assert sections[section] == ids.astype("<i8").tobytes()
            assert np.array_equal(getattr(again, name), ids)
        assert again.strings.take(np.arange(len(again.strings))) == pool
        assert len(set(pool)) == len(pool)

    def test_save_interns_nothing_and_a_fast_build_interns_once(
            self, tmp_path, monkeypatch):
        """The one ``intern_strings`` pass of a fast build is its
        construct's — the pooled graph and the plane's pool are derived
        on its ids — and save hashes no string."""
        import repro.core.model as model_module
        import repro.core.serialization as serialization
        import repro.core.vocab as vocab

        calls = []
        intern = vocab.intern_strings

        def spy(parts):
            calls.append(len(parts))
            return intern(parts)

        for module in (vocab, model_module):
            monkeypatch.setattr(module, "intern_strings", spy)
        assert not hasattr(serialization, "intern_strings")
        curated = curated_two_leaves()
        model = GraphExModel.construct(curated, build_pooled=True,
                                       builder="fast")
        assert calls == [2 * len(curated.leaves)]
        save_model(model, tmp_path / "m")
        save_model(load_model(tmp_path / "m"), tmp_path / "n")
        assert calls == [2 * len(curated.leaves)]

    @staticmethod
    def assert_failed_save_kept_the_old_model(path, old):
        """What every failed save must leave behind: no temp file, the
        old model opening and serving as before, and a directory the
        next good save converges to one payload."""
        requests = _world_requests(old)
        expected = batch_recommend(old, requests, k=5)
        assert [p.name for p in path.iterdir() if ".tmp" in p.name] == []
        survivor = load_model(path)
        assert_models_identical(old, survivor)
        assert batch_recommend(survivor, requests, k=5) == expected
        save_model(TestArtifactBytes.pool_order_model(), path)
        assert sorted(p.name.split("-")[0] for p in path.iterdir()) \
            == ["arrays", "model.json"]

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
        self.assert_failed_save_kept_the_old_model(path, old)

    @pytest.mark.parametrize("writer", ["arrays-", "model.json"],
                             ids=["payload", "manifest"])
    @pytest.mark.parametrize("fault", ["short_write", "replace"])
    def test_enospc_and_failed_replace_leave_no_temp_file(
            self, tmp_path, monkeypatch, writer, fault):
        """Two more faults in each writer: a write that lands half its
        bytes and then raises ``OSError(28)`` partway through the file,
        and an ``os.replace`` of the finished temp file that raises.
        Either propagates and leaves the old model serving."""
        import builtins
        import os

        from repro.core import serialization

        old = GraphExModel.construct(curated_two_leaves(),
                                     build_pooled=True)
        path = save_model(old, tmp_path / "m")
        fired = []

        class ShortWriter:
            """The second write lands half its data, then fails."""

            def __init__(self, handle):
                self.handle, self.writes = handle, 0

            def write(self, data):
                self.writes += 1
                if self.writes == 2:
                    self.handle.write(data[:len(data) // 2])
                    fired.append(self.handle.name)
                    raise OSError(28, "No space left on device")
                return self.handle.write(data)

            def __getattr__(self, name):
                return getattr(self.handle, name)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return self.handle.__exit__(*exc_info)

        def short_open(file, *args, **kwargs):
            handle = builtins.open(file, *args, **kwargs)
            return (ShortWriter(handle) if Path(file).name.startswith(writer)
                    else handle)

        real_replace = os.replace

        def failing_replace(src, dst):
            if Path(dst).name.startswith(writer):
                fired.append(str(src))
                raise OSError(5, "Input/output error")
            return real_replace(src, dst)

        if fault == "short_write":
            monkeypatch.setattr(serialization, "open", short_open,
                                raising=False)
        else:
            monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="No space left|Input/output"):
            save_model(self.pool_order_model(), path)
        monkeypatch.undo()

        assert len(fired) == 1 and ".tmp" in Path(fired[0]).name
        self.assert_failed_save_kept_the_old_model(path, old)


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

    @pytest.mark.parametrize("where, section", [
        ("last_byte", "pool/byte_offsets"), ("half", None),
        ("inside_pool_blob", "pool/blob")])
    def test_cut_model_is_refused_by_name(self, tmp_path, where, section):
        model = TestArtifactBytes.pool_order_model()
        path = save_model(model, tmp_path / "m")
        payload, first, needs, present = self.cut(path, where)
        assert section in (None, first)
        with pytest.raises(ValueError) as refused:
            load_model(path)
        assert str(refused.value) == (
            f"truncated payload {payload}: section {first!r} needs "
            f"{needs} bytes, the file holds {present}")
        with pytest.raises(ValueError, match="truncated payload"):
            open_model(path)
        save_model(model, path)         # a re-save repairs the directory
        assert_models_identical(model, load_model(path))

    def test_a_section_may_end_with_the_file(self, tmp_path):
        """The check is ``>``, not ``>=``: a section may end exactly at
        the end of the file — every intact payload's last one does."""
        model = TestArtifactBytes.pool_order_model()
        path = save_model(model, tmp_path / "m")
        meta = json.loads((path / "model.json").read_text("utf-8"))
        assert max(map(self.section_end, meta["arrays"].values())) \
            == (path / meta["arrays_file"]).stat().st_size
        assert_models_identical(model, load_model(path))


def _damage_section(key: str, **entry):
    """A DAMAGE step: overwrite fields of one ``arrays`` manifest entry."""
    def damage(meta):
        meta["arrays"][key].update(entry)
        return meta
    return damage


def _damage_leaf(key: str, **entry):
    """A DAMAGE step: overwrite fields of one ``leaves`` entry."""
    def damage(meta):
        meta["leaves"][key].update(entry)
        return meta
    return damage


def _shorten_section(key: str):
    """A DAMAGE step: one row off a plane section's shape."""
    def damage(meta):
        meta["arrays"][key]["shape"][0] -= 1
        return meta
    return damage


def _move_counts(source: str, target: str, *names: str):
    """A DAMAGE step: one of each count ``names`` moved from leaf
    ``source`` to leaf ``target``; every section's sum stays right."""
    def damage(meta):
        for name in names:
            meta["leaves"][source][name] -= 1
            meta["leaves"][target][name] += 1
        return meta
    return damage


def _alias_section(key: str, onto: str):
    """A DAMAGE step: point one manifest entry at another's bytes."""
    def damage(meta):
        meta["arrays"][key]["offset"] = meta["arrays"][onto]["offset"]
        return meta
    return damage


def _swap_into_a_slot(path: Path) -> None:
    """An opener that hot-swaps ``path`` into a serving slot: a refusal
    leaves the slot's model and generation as they were."""
    slot = ModelSlot(TestArtifactBytes.pool_order_model())
    served = slot.served
    try:
        slot.swap(path)
    except ValueError:
        assert slot.served is served
        raise


class TestMalformedMeta:
    """``model.json`` is outside input: whatever is wrong with it is
    one named ``ValueError`` — the path, what is wrong — before the
    payload is looked for, never an ``AttributeError`` / ``KeyError``
    from the middle of the loader or a read outside the directory.
    Each case is refused by every way a path is opened: ``load_model``,
    the ``open_model`` hand-off, and a serving slot's hot-swap."""

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
            _damage_section("search_counts", offset=-32),
            "section 'search_counts': offset -32 is not a "
            "non-negative integer"),
        "section:offset-a-string": (
            _damage_section("search_counts", offset="0"),
            "section 'search_counts': offset '0' is not a "
            "non-negative integer"),
        "section:aliases-another": (
            _alias_section("recall_counts", onto="search_counts"),
            "sections 'recall_counts' and 'search_counts' overlap"),
        "section:shape-negative": (
            _damage_section("indptr", shape=[-1]),
            "section 'indptr': shape [-1] is not a list of "
            "non-negative integers"),
        "section:dtype-object": (
            _damage_section("label_ids", dtype="|O"),
            "section 'label_ids': dtype '|O' is not a fixed-size "
            "integer or float dtype"),
        "section:missing": (
            lambda meta: meta["arrays"].pop("word_ids") and meta,
            "section 'word_ids' is missing"),
        # The rest of what an entry must be: a JSON object, an integer
        # offset (JSON ``true`` is not one), a dtype numpy can parse and
        # a list for a shape.
        "section:not-an-object": (
            lambda meta: meta["arrays"].update(
                {"indices": [0, "<i8", [3]]}) or meta,
            "section 'indices': entry [0, '<i8', [3]] is not a JSON "
            "object"),
        "section:offset-a-bool": (
            _damage_section("search_counts", offset=True),
            "section 'search_counts': offset True is not a "
            "non-negative integer"),
        "section:dtype-unparseable": (
            _damage_section("label_ids", dtype="not-a-dtype"),
            "section 'label_ids': dtype 'not-a-dtype' is not a "
            "fixed-size integer or float dtype"),
        "section:shape-not-a-list": (
            _damage_section("indptr", shape=3),
            "section 'indptr': shape 3 is not a list of non-negative "
            "integers"),

        # ``leaves`` entries cut the plane sections into graphs.  Each
        # of these used to escape as a KeyError, TypeError or unnamed
        # ValueError, or open and then serve an IndexError — or, for a
        # leaf_id that was not its key, open with leaf 10 gone and its
        # items served from the pooled graph.
        "leaves:not-an-object": (
            lambda meta: meta["leaves"].update({"10": [10]}) or meta,
            "leaf '10': entry [10] is not a JSON object"),
        "leaves:no-leaf-id": (
            lambda meta: meta["leaves"]["10"].pop("leaf_id") and meta,
            "leaf '10': leaf_id is missing"),
        "leaves:leaf-id-a-string": (
            _damage_leaf("10", leaf_id="abc"),
            "leaf '10': leaf_id 'abc' is not its key's leaf id"),
        "leaves:leaf-id-a-bool": (
            _damage_leaf("10", leaf_id=True),
            "leaf '10': leaf_id True is not its key's leaf id"),
        "leaves:leaf-id-not-its-key": (
            _damage_leaf("10", leaf_id=11),
            "leaf '10': leaf_id 11 is not its key's leaf id"),
        "leaves:pooled-not-minus-one": (
            _damage_leaf("pooled", leaf_id=0),
            "leaf 'pooled': leaf_id 0 is not its key's leaf id"),
        "leaves:unknown-key": (
            _damage_leaf("11", texts=["usb"]),
            "leaf '11': unknown key 'texts'"),
        "leaves:count-missing": (
            lambda meta: meta["leaves"]["11"].pop("edges") and meta,
            "leaf '11': edges is missing"),
        "leaves:count-negative": (
            _damage_leaf("11", labels=-1),
            "leaf '11': labels -1 is not a non-negative integer"),
        "leaves:count-a-string": (
            _damage_leaf("11", rows="4"),
            "leaf '11': rows '4' is not a non-negative integer"),
        "leaves:more-words-than-rows": (
            _damage_leaf("11", words=5),
            "leaf '11': words 5 exceed its 4 CSR rows"),
        "leaves:a-leaf-one-label-short": (
            _damage_leaf("10", labels=1),
            "section 'label_lengths' has shape [11], its leaves' labels "
            "make [10]"),
        "leaves:search-counts-one-row-short": (
            _shorten_section("search_counts"),
            "section 'search_counts' has shape [10], its leaves' labels "
            "make [11]"),
        "leaves:label-lengths-one-row-short": (
            _shorten_section("label_lengths"),
            "section 'label_lengths' has shape [10], its leaves' labels "
            "make [11]"),
        "leaves:label-ids-one-row-short": (
            _shorten_section("label_ids"),
            "section 'label_ids' has shape [10], its leaves' labels "
            "make [11]"),
        "leaves:indptr-one-row-short": (
            _shorten_section("indptr"),
            "section 'indptr' has shape [12], its leaves' rows make "
            "[13]"),
        # Counts moved between two leaves keep every sum right: each
        # graph's CSR ends, or the labels its CSR names, give them away.
        "leaves:edges-moved-between-leaves": (
            _move_counts("11", "10", "edges"),
            "leaf '10': its CSR rows run from 0 to 3, not from 0 to its "
            "4 edges"),
        "leaves:rows-moved-between-leaves": (
            _move_counts("10", "11", "rows", "words"),
            "leaf '10': its CSR rows run from 0 to 1, not from 0 to its "
            "3 edges"),
        "leaves:labels-moved-between-leaves:10-to-11": (
            _move_counts("10", "11", "labels"),
            "leaf '10': its CSR names label 1, outside its 1 labels"),
        "leaves:labels-moved-between-leaves:11-to-10": (
            _move_counts("11", "10", "labels"),
            "leaf '11': its CSR names label 3, outside its 3 labels"),
    }

    @pytest.mark.parametrize(
        "opener", [load_model, open_model, _swap_into_a_slot],
        ids=["load_model", "open_model", "slot-swap"])
    @pytest.mark.parametrize("case", sorted(DAMAGE))
    def test_refused_by_name(self, tmp_path, case, opener):
        how, what = self.DAMAGE[case]
        model = TestArtifactBytes.pool_order_model()
        path = save_model(model, tmp_path / "m")
        meta_file = path / "model.json"
        damaged = how(json.loads(meta_file.read_text("utf-8")))
        meta_file.write_text(damaged if isinstance(damaged, str)
                             else json.dumps(damaged), "utf-8")
        with pytest.raises(ValueError) as refused:
            opener(path)
        assert str(refused.value).startswith(
            f"malformed {meta_file}: {what}")
        save_model(model, path)         # a re-save repairs the directory
        assert_models_identical(model, load_model(path))


class TestCorruptPlane:
    """Payload bytes that pass every manifest and ``leaves`` check but
    are not a CSR of the model's graphs, or give a graph one word
    twice, are refused by name on the one open, and a hot-swap handed
    such an artifact keeps what it served."""

    @staticmethod
    def poke(path: Path, section: str, index: int, value: int) -> None:
        """Overwrite element ``index`` of a payload section."""
        meta = json.loads((path / "model.json").read_text("utf-8"))
        entry = meta["arrays"][section]
        dtype = np.dtype(entry["dtype"])
        with open(path / meta["arrays_file"], "r+b") as handle:
            handle.seek(entry["offset"] + index * dtype.itemsize)
            handle.write(np.asarray([value], dtype).tobytes())

    @classmethod
    def corrupt(cls, model: GraphExModel, path: Path, how: str) -> str:
        """Save ``model`` to ``path`` and damage its leaf 10 ``how``;
        returns what the refusal says after the leaf's name."""
        save_model(model, path)
        leaf = model.plane_graphs[0]
        assert leaf.leaf_id == 10 and leaf.graph.n_left >= 2
        labels, edges = leaf.n_labels, leaf.graph.n_edges
        if how == "index-past-its-labels":
            cls.poke(path, "indices", 0, labels)
            return f"its CSR names label {labels}, outside its {labels} " \
                   f"labels"
        if how == "negative-index":
            cls.poke(path, "indices", edges - 1, -1)
            return f"its CSR names label -1, outside its {labels} labels"
        if how == "row-falls":
            cls.poke(path, "indptr", 1, edges + 1)
            return f"its CSR row 2 falls from {edges + 1} to {edges}"
        if how == "repeated-word":
            # In range, so only the vocabulary dict sees the repeat.
            cls.poke(path, "word_ids", 1, model.plane.word_ids[0])
            words = len(leaf.word_vocab)
            return f"its {words} words hold {words - 1} distinct strings"
        # Columns no builder writes: a pool id outside the pool, a label
        # of no token, a negative count.
        section, value, what = cls.COLUMNS[how]
        cls.poke(path, section, 1, value)
        return what.format(len(model.plane.strings))

    COLUMNS = {
        "word-id-past-the-pool": (
            "word_ids", 99, "its word 1 names pool id 99, outside the "
                            "pool's {} strings"),
        "label-id-past-the-pool": (
            "label_ids", 99, "its label 1 names pool id 99, outside the "
                             "pool's {} strings"),
        "negative-label-id": (
            "label_ids", -1, "its label 1 names pool id -1, below 0"),
        "label-of-no-token": (
            "label_lengths", 0, "its label 1 has length 0, below 1"),
        "negative-search-count": (
            "search_counts", -5, "its label 1 has Search Count -5, below 0"),
        "negative-recall-count": (
            "recall_counts", -5, "its label 1 has Recall Count -5, below 0"),
    }
    HOW = ["index-past-its-labels", "negative-index", "row-falls",
           "repeated-word", *COLUMNS]

    @pytest.mark.parametrize("how", HOW)
    def test_refused_by_name(self, tmp_path, how):
        model = TestArtifactBytes.pool_order_model()
        what = self.corrupt(model, tmp_path / "m", how)
        for opener in (load_model, open_model):
            with pytest.raises(ValueError) as refused:
                opener(tmp_path / "m")
            assert str(refused.value) == (
                f"malformed {tmp_path / 'm' / 'model.json'}: leaf '10': "
                f"{what}")
        save_model(model, tmp_path / "m")   # a re-save repairs the directory
        assert_models_identical(model, load_model(tmp_path / "m"))

    @pytest.mark.parametrize("how", HOW)
    def test_a_swap_to_a_corrupt_plane_keeps_the_served_model(self, tmp_path,
                                                              how):
        model = TestArtifactBytes.pool_order_model()
        self.corrupt(model, tmp_path / "m", how)
        slot = ModelSlot(model)
        served = slot.served
        with pytest.raises(ValueError, match="malformed .*leaf '10'"):
            slot.swap(tmp_path / "m")
        assert slot.served is served
        assert slot.served.model is model and slot.served.generation == 0

        async def refresh(front):
            with pytest.raises(ValueError, match="malformed .*leaf '10'"):
                await front.refresh_model(tmp_path / "m")

        front = AsyncNRTFront(model)
        front.add_stream("s")
        asyncio.run(refresh(front))
        assert front.model_generation == 0
        assert front._streams["s"].service.model is model
