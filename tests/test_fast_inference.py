"""Equivalence suite: the vectorized engine vs the scalar reference.

The fast path (:mod:`repro.core.fast_inference`) is only trustworthy if
it is *element-wise identical* to :func:`recommend_from_graph` — same
texts, same IEEE-754 scores, same tie-break order — on any model and any
batch.  These tests pin that property with hypothesis-generated random
catalogs, titles, leaves and ``k`` across all three alignments, plus
directed regressions for the documented tie-break order and the edge
cases (empty vocabulary, unknown leaf, pooled fallback, duplicates).
"""

from __future__ import annotations

import pickle
import re
import sys
import tempfile
import threading
import tracemalloc
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import fast_inference
from repro.core.alignment import get_alignment
from repro.core.batch import batch_recommend, last_request_wins
from repro.core.curation import CuratedKeyphrases, CuratedLeaf, CurationConfig
from repro.core.fast_inference import (EMPTY_ROWS, LeafBatchRunner,
                                       RowView, _count_and_prune,
                                       _label_texts, materialise)
from repro.core.inference import (Recommendation, prune_by_count_groups,
                                  recommend_from_graph)
from repro.core.model import (CellRanks, GraphExModel, GraphPlane,
                              LazyStringList)
from repro.core.serialization import load_model, save_model
from tests.conftest import examples, open_saved

ALIGNMENTS = ["lta", "wmr", "jac"]


#: Token universe: vocabulary words plus never-interned strangers.
TOKENS = [f"w{i}" for i in range(18)]
STRANGERS = ["zzz", "qqq", "unseen"]


def curated_world(leaf_phrases):
    """Curated keyphrases from {leaf_id: [(text, search, recall), ...]}."""
    leaves = {}
    for leaf_id, phrases in leaf_phrases.items():
        leaf = CuratedLeaf(leaf_id=leaf_id)
        for text, search, recall in phrases:
            leaf.add(text, search, recall)
        leaves[leaf_id] = leaf
    return CuratedKeyphrases(leaves=leaves, effective_threshold=1,
                             config=CurationConfig(min_search_count=1))


def make_model(leaf_phrases, alignment="lta", build_pooled=False,
               builder="fast"):
    """Construct a model from {leaf_id: [(text, search, recall), ...]}."""
    return GraphExModel.construct(curated_world(leaf_phrases),
                                  alignment=alignment,
                                  build_pooled=build_pooled, builder=builder)


def reference_outputs(model, requests, k, hard_limit=None):
    """The scalar semantics reference, item by item."""
    out = {}
    for item_id, title, leaf_id in requests:
        graph = model.leaf_graph(leaf_id) or model.pooled_graph
        if graph is None:
            out[item_id] = []
            continue
        out[item_id] = recommend_from_graph(
            graph, model.tokenizer(title), k=k,
            alignment_fn=model.alignment_fn, hard_limit=hard_limit)
    return out


def assert_identical(fast, reference):
    """Element-wise identity: text, score, counts and order all equal."""
    assert fast.keys() == reference.keys()
    for item_id in reference:
        a, b = fast[item_id], reference[item_id]
        assert len(a) == len(b), f"item {item_id}: {a} != {b}"
        for got, want in zip(a, b):
            assert got == want, f"item {item_id}: {got} != {want}"


phrase = st.lists(st.sampled_from(TOKENS), min_size=1, max_size=4) \
    .map(" ".join)
phrases = st.lists(
    st.tuples(phrase, st.integers(1, 60), st.integers(1, 60)),
    min_size=0, max_size=16)
leaf_worlds = st.dictionaries(st.integers(1, 4), phrases,
                              min_size=1, max_size=4)
title = st.lists(st.sampled_from(TOKENS + STRANGERS),
                 min_size=0, max_size=9).map(" ".join)
requests_strategy = st.lists(
    st.tuples(st.integers(0, 30), title, st.integers(1, 6)),
    min_size=0, max_size=25)


class TestPropertyEquivalence:
    @given(world=leaf_worlds, reqs=requests_strategy,
           k=st.integers(0, 12), alignment=st.sampled_from(ALIGNMENTS),
           build_pooled=st.booleans(),
           hard_limit=st.one_of(st.none(), st.integers(1, 8)))
    @settings(max_examples=examples(60), deadline=None)
    def test_fast_matches_reference(self, world, reqs, k, alignment,
                                    build_pooled, hard_limit):
        """Any random catalog/batch: identical ranked output.

        Leaf ids 5-6 in the requests never have a graph, so the pooled
        fallback (when built) and the unknown-leaf empty case are both
        exercised by the same sweep.
        """
        model = make_model(world, alignment=alignment,
                           build_pooled=build_pooled)
        fast = batch_recommend(model, reqs, k=k, hard_limit=hard_limit)
        assert_identical(fast, reference_outputs(model, reqs, k,
                                                 hard_limit))

    @given(world=leaf_worlds, reqs=requests_strategy,
           k=st.integers(1, 8))
    @settings(max_examples=examples(25), deadline=None)
    def test_engines_agree_through_batch_recommend(self, world, reqs, k):
        model = make_model(world, build_pooled=True)
        assert_identical(
            batch_recommend(model, reqs, k=k, engine="fast"),
            batch_recommend(model, reqs, k=k, engine="reference"))

    @given(world=leaf_worlds, reqs=requests_strategy,
           n_shards=st.integers(2, 4))
    @settings(max_examples=examples(15), deadline=None)
    def test_fleet_job_cuts_agree(self, world, reqs, n_shards):
        """Any cut of a batch into graph-order shards, merged in any
        order, is the scalar loop's output (what the fleet's
        scatter/merge rests on)."""
        from repro.cluster.coordinator import FleetJob

        model = make_model(world, build_pooled=True)
        job = FleetJob(model, reqs, n_shards, k=6)
        for shard in reversed(job.plan.shards):
            job.run_local(shard)
        assert_identical(job.output(), reference_outputs(model, reqs, 6))

    @given(world=leaf_worlds, reqs=requests_strategy,
           hard_limit=st.one_of(st.none(), st.integers(1, 8)))
    @settings(max_examples=examples(15), deadline=None)
    def test_process_sharding_agrees(self, fleet, world, reqs,
                                     hard_limit):
        """Leaf-group shards on a fleet of worker processes:
        element-wise identical to the scalar reference."""
        with tempfile.TemporaryDirectory() as tmp:
            model = open_saved(make_model(world, build_pooled=True), tmp)
            sharded = batch_recommend(model, reqs, k=6,
                                      hard_limit=hard_limit,
                                      engine="fast", executor=fleet)
            assert_identical(sharded,
                             reference_outputs(model, reqs, 6, hard_limit))


#: Leaves of deliberately different label-set widths (the key slot an
#: item owns in a chunk is as wide as its own graph).
def phrases_between(min_size, max_size):
    return st.lists(
        st.tuples(phrase, st.integers(1, 60), st.integers(1, 60)),
        min_size=min_size, max_size=max_size)


mixed_worlds = st.fixed_dictionaries({1: phrases_between(1, 3),
                                      2: phrases_between(4, 9),
                                      3: phrases_between(10, 24)})
#: Empty, all-OOV and ordinary titles.
mixed_title = st.one_of(
    st.just(""),
    st.lists(st.sampled_from(STRANGERS), min_size=1, max_size=3)
    .map(" ".join),
    title)
#: Leaves 1-3 have graphs; 7 never does (pooled fallback, or — without
#: a pooled graph — unservable).  Few item ids, so duplicates are common.
mixed_requests = st.lists(
    st.tuples(st.integers(0, 9), mixed_title, st.sampled_from([1, 2, 3, 7])),
    min_size=0, max_size=30)


@contextmanager
def chunk_items(n):
    """``CHUNK_ITEMS = n`` for the length of a ``with`` block."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fast_inference, "CHUNK_ITEMS", n)
        yield


def spy_chunks(runner):
    """Record the ``(n_labels, n_items)`` parts — runs of one graph's
    items — of every chunk run, and hold each to the chunk size in
    force when it ran."""
    chunks = []
    rank_chunk = runner._rank_chunk
    graphs = runner._model.plane_graphs

    def spy(interned, lo, hi):
        parts = []
        for owner in interned.owners[lo:hi].tolist():
            if parts and parts[-1][0] == owner:
                parts[-1][1] += 1
            else:
                parts.append([owner, 1])
        chunks.append([(graphs[owner].n_labels, n) for owner, n in parts])
        assert len(interned.indices) == len(interned.owners)
        assert 0 < hi - lo <= fast_inference.CHUNK_ITEMS
        assert hi == len(interned.indices) \
            or hi - lo == fast_inference.CHUNK_ITEMS
        return rank_chunk(interned, lo, hi)

    runner._rank_chunk = spy
    return chunks


class TestCrossLeafChunks:
    """What the chunk kernel newly does: one pass over items of several
    graphs, and one leaf group cut across several passes."""

    @given(world=mixed_worlds, reqs=mixed_requests, k=st.integers(1, 8),
           alignment=st.sampled_from(ALIGNMENTS),
           build_pooled=st.booleans(),
           hard_limit=st.one_of(st.none(), st.integers(1, 8)),
           items=st.integers(1, 6))
    @settings(max_examples=examples(80), deadline=None)
    def test_tiny_chunks_match_reference(self, world, reqs, k, alignment,
                                         build_pooled, hard_limit, items):
        """A tiny ``CHUNK_ITEMS``: leaf groups split across chunks and
        chunks span leaves of different widths, down to one item per
        chunk — all element-wise equal to the oracle."""
        model = make_model(world, alignment=alignment,
                           build_pooled=build_pooled)
        runner = LeafBatchRunner(model, k=k, hard_limit=hard_limit)
        chunks = spy_chunks(runner)
        with chunk_items(items):
            assert_identical(
                last_request_wins(reqs, runner.run_indexed(reqs)),
                reference_outputs(model, reqs, k, hard_limit))
        served = sum(model.leaf_graph(leaf_id) is not None or build_pooled
                     for _item_id, _title, leaf_id in reqs)
        full, rest = divmod(served, items)
        assert [sum(n for _w, n in parts) for parts in chunks] \
            == [items] * full + [rest] * bool(rest)

    @given(world=mixed_worlds, reqs=mixed_requests, k=st.integers(-1, 8),
           alignment=st.sampled_from(ALIGNMENTS),
           build_pooled=st.booleans(),
           hard_limit=st.one_of(st.none(), st.integers(0, 8)),
           items=st.integers(1, 6))
    @settings(max_examples=examples(80), deadline=None)
    def test_ranked_columns_materialise_to_the_same_rows(
            self, world, reqs, k, alignment, build_pooled, hard_limit,
            items):
        """The split before step 6: ``run_ranked`` then ``materialise``
        — the cluster's worker and coordinator halves — equals
        ``run_indexed``, chunk cuts and all; the columns name only
        requests that have rows, each once, and every label is a
        stacked id of the plane, inside its owning graph's range."""
        model = make_model(world, alignment=alignment,
                           build_pooled=build_pooled)
        runner = LeafBatchRunner(model, k=k, hard_limit=hard_limit)
        with chunk_items(items):
            ranked = runner.run_ranked(reqs)
            expected = runner.run_indexed(reqs)
        answered = ranked.requests.tolist()
        assert len(set(answered)) == len(answered)
        assert (ranked.sizes > 0).all()
        assert ranked.sizes.sum() == len(ranked.labels) \
            == len(ranked.counts) == len(ranked.scores)
        owners = np.repeat(np.array([model.graph_index(reqs[index][2])
                                     for index in answered], dtype=int),
                           ranked.sizes)
        label_base = model.plane.label_base
        assert ((label_base[owners] <= ranked.labels)
                & (ranked.labels < label_base[owners + 1])).all()
        rows = materialise(model.plane, ranked, len(reqs))
        assert rows == expected
        assert [i for i, recs in enumerate(rows) if recs] \
            == sorted(answered)
        assert [recs.texts() for recs in rows] \
            == [[row.text for row in recs] for recs in expected]

    @given(world=mixed_worlds, reqs=mixed_requests, k=st.integers(-1, 8),
           alignment=st.sampled_from(ALIGNMENTS),
           build_pooled=st.booleans(),
           hard_limit=st.one_of(st.none(), st.integers(0, 8)),
           items=st.sampled_from([1, 2, 3, 5, fast_inference.CHUNK_ITEMS]),
           picks=st.lists(st.tuples(st.integers(0, 2 ** 16),
                                    st.integers(-6, 6), st.integers(-6, 6)),
                          min_size=30, max_size=30))
    # Eight served requests under CHUNK_ITEMS = 2: a batch of 4 chunks.
    @example(world={1: [("w0 w1", 5, 1)],
                    2: [("w1 w2", 7, 2), ("w2 w3", 6, 3), ("w0 w2", 4, 1),
                        ("w3", 3, 3)],
                    3: [(f"w{i} w{i + 1}", 9 - i % 5, 1 + i % 4)
                        for i in range(10)]},
             reqs=[(0, "w0 w1", 1), (1, "w1 w2", 2), (2, "w2 w3", 3),
                   (3, "w0 w3", 2), (4, "w4 w5", 3), (5, "w1", 1),
                   (6, "w2 zzz", 7), (0, "w3 w2", 3)],
             k=3, alignment="lta", build_pooled=True, hard_limit=None,
             items=2, picks=[(0, 0, 0)] * 30)
    @settings(max_examples=examples(80), deadline=None)
    def test_a_view_reads_as_the_oracles_list(self, world, reqs, k,
                                              alignment, build_pooled,
                                              hard_limit, items, picks):
        """Every request's :class:`RowView` against the scalar oracle's
        list, chunk by chunk (duplicate ids, requests no graph serves
        and ``k <= 0`` included): ``len`` and ``.texts()`` build no
        row; ``==`` both ways, iteration, ``tuple``, indexing (negative
        too), slicing and a pickle round trip read the oracle's rows.
        Rows are built per batch, however many chunks it ran in: the
        first read of a view builds every view's rows, once, and every
        other view then reads without building."""
        model = make_model(world, alignment=alignment,
                           build_pooled=build_pooled)
        oracle = batch_recommend(model, reqs, k=k, hard_limit=hard_limit,
                                 engine="reference")
        with chunk_items(items):
            views = LeafBatchRunner(model, k=k,
                                    hard_limit=hard_limit).run_indexed(reqs)
        expected = [model.recommend(title, leaf_id, k=k,
                                    hard_limit=hard_limit)
                    for _item_id, title, leaf_id in reqs]
        for view, rows in zip(views, expected):
            assert isinstance(view, RowView)
            assert len(view) == len(rows)
            assert view.texts() == [row.text for row in rows]
        assert all(view._batch.rows is None for view in views if view)
        assert len({id(view._batch) for view in views if view}) <= 1
        n_rows, read, built = sum(map(len, views)), 0, []
        make_row = fast_inference._row

        def counted_row(fields):
            built.append(fields)
            return make_row(fields)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fast_inference, "_row", counted_row)
            for view, rows, (pick, lo, hi) in zip(views, expected, picks):
                assert view == rows and rows == view
                assert list(view) == rows and tuple(view) == tuple(rows)
                if rows:
                    index = pick % (2 * len(rows)) - len(rows)
                    assert view[index] == rows[index]
                    assert view[lo:hi] == rows[lo:hi]
                    assert view != rows[:-1] and view != rows + rows[:1]
                    assert (view == rows[::-1]) == (rows == rows[::-1])
                assert pickle.loads(pickle.dumps(view)) == rows
                read += len(rows)
                assert len(built) == (n_rows if read else 0)
        result = batch_recommend(model, reqs, k=k, hard_limit=hard_limit)
        assert result == oracle and oracle == result
        assert list(result) == list(oracle)
        assert pickle.loads(pickle.dumps(result)) == oracle

    def test_unanswered_requests_share_one_empty_view(self):
        """A request without rows — unknown leaf, no title word in its
        graph, ``k <= 0`` — answers the one shared empty view."""
        model = make_model({1: [("w0 w1", 5, 1)]})
        reqs = [(1, "w0", 1), (2, "zzz", 1), (3, "w0", 7)]
        for k, answered in ((5, [True, False, False]),
                            (0, [False, False, False])):
            views = LeafBatchRunner(model, k=k).run_indexed(reqs)
            assert [len(view) > 0 for view in views] == answered
            for view, has_rows in zip(views, answered):
                if not has_rows:
                    assert view is EMPTY_ROWS
                    assert view.texts() == [] and view == [] == view
                    assert list(view) == [] and not view

    def test_threads_racing_on_a_first_read_see_the_oracles_rows(self):
        """A chunk's rows are built on first read, without a lock:
        threads racing on it — more than there are cores, with a
        shortened switch interval — all read the oracle's rows."""
        model = make_model({1: [(f"w{i} w{i + 1}", 60 - i, i)
                                for i in range(16)]})
        reqs = [(i, f"w{i % 17} w{(i + 3) % 17}", 1) for i in range(40)]
        oracle = batch_recommend(model, reqs, k=8, engine="reference")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _round in range(20):
                views = batch_recommend(model, reqs, k=8)
                barrier = threading.Barrier(8)
                seen = []

                def read():
                    barrier.wait(timeout=10)
                    seen.append(all(views[i] == oracle[i] for i in oracle))

                threads = [threading.Thread(target=read) for _ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10)
                assert not any(thread.is_alive() for thread in threads)
                assert seen == [True] * 8
        finally:
            sys.setswitchinterval(interval)

    def test_a_fleet_serves_the_same_views(self, fleet, tmp_path):
        """On a fleet the coordinator decodes the shipped columns into
        the same views: same rows, same texts, no row built first."""
        model = open_saved(make_model(
            {1: [("w0 w1", 5, 1), ("w0 w2", 4, 2)],
             2: [("w1 w3", 9, 9), ("w3", 8, 8)]}, build_pooled=True),
            tmp_path)
        reqs = [(5, "w0 w1", 1), (6, "w3 w1", 2), (5, "w1", 2),
                (7, "zzz", 1), (8, "w0 w3", 9)]
        views = batch_recommend(model, reqs, k=5, executor=fleet)
        assert {item_id: view.texts() for item_id, view in views.items()} \
            == {item_id: [row.text for row in recs] for item_id, recs
                in batch_recommend(model, reqs, k=5,
                                   engine="reference").items()}
        assert all(view._batch.rows is None for view in views.values()
                   if view)
        assert views == batch_recommend(model, reqs, k=5)
        assert views[5].texts() == ["w1 w3"] and views[7] == []

    def test_a_group_splits_and_a_chunk_spans_leaves(self):
        """Directed, in items: under ``CHUNK_ITEMS = 2`` the 5-item leaf
        group splits 2 / 2 / 1 and its last item shares a chunk with
        the next leaf."""
        model = make_model({
            1: [(f"w0 w{i}", 5, i) for i in range(1, 4)],      # 3 labels
            2: [(f"w1 w{i}", 7, i) for i in range(2, 7)],      # 5 labels
            3: [(f"w2 w{i}", 9, i) for i in range(3, 19)],     # 16 labels
        })
        reqs = [(1, "w2 w3 zzz", 3), (2, "w1 w2", 2), (3, "w2", 3),
                (4, "", 3), (5, "w0 w3", 1), (6, "w2 w5", 3),
                (7, "w2 w18 w4", 3), (8, "w1 w6", 2)]
        runner = LeafBatchRunner(model, k=3)
        chunks = spy_chunks(runner)
        with chunk_items(2):
            assert_identical(last_request_wins(reqs, runner.run_indexed(reqs)),
                             reference_outputs(model, reqs, 3))
        assert chunks == [[(16, 2)], [(16, 2)], [(16, 1), (5, 1)],
                          [(5, 1), (3, 1)]]
        # Three to a chunk: the group splits 3 / 2 and leaf 2 rides
        # with its tail; one to a chunk is the scalar path, chunked.
        chunks.clear()
        with chunk_items(3):
            assert_identical(last_request_wins(reqs, runner.run_indexed(reqs)),
                             reference_outputs(model, reqs, 3))
        assert chunks == [[(16, 3)], [(16, 2), (5, 1)], [(5, 1), (3, 1)]]
        chunks.clear()
        with chunk_items(1):
            assert_identical(last_request_wins(reqs, runner.run_indexed(reqs)),
                             reference_outputs(model, reqs, 3))
        assert chunks == [[(16, 1)]] * 5 + [[(5, 1)]] * 2 + [[(3, 1)]]

    def test_default_budget_runs_a_mixed_window_as_one_chunk(self):
        model = make_model({leaf: [(f"w{leaf} w{i}", 5, i)
                                   for i in range(leaf + 2)]
                            for leaf in range(1, 5)}, build_pooled=True)
        reqs = [(i, f"w{1 + i % 4} w2", 1 + i % 6) for i in range(18)]
        runner = LeafBatchRunner(model, k=4)
        chunks = spy_chunks(runner)
        assert_identical(last_request_wins(reqs, runner.run_indexed(reqs)),
                         reference_outputs(model, reqs, 4))
        assert len(chunks) == 1 and len(chunks[0]) == 5   # 4 leaves + pooled


class TestCostFollowsWhatAnItemTouches:
    """The count is a sort of the adjacency entries a chunk's titles
    reach: nothing is allocated or scanned per label the graph holds,
    and keys narrow to the chunk's slot range without wrapping."""

    WIDE = 50_000

    @pytest.fixture(scope="class")
    def model(self):
        """Leaf 1: 3 labels.  Leaf 2: ``WIDE`` labels, token ``a<i>`` in
        one of them and ``b<j>`` in five.  Pooled: all of both."""
        return make_model({
            1: [(f"w0 w{i}", 5, i) for i in range(1, 4)],
            2: [(f"a{i} b{i // 5}", 1 + i % 9, 1 + i % 7)
                for i in range(self.WIDE)]}, build_pooled=True)

    def test_peak_memory_does_not_follow_the_label_space(self, model):
        reqs = [(1, "a7 b1 b9999 zzz", 2)]
        graph = model.leaf_graph(2)
        assert graph.n_labels == self.WIDE
        reached = {label for token in ("a7", "b1", "b9999")
                   for label in graph.graph.neighbors(
                       graph.word_vocab.get(token)).tolist()}
        assert len(reached) == 10
        runner = LeafBatchRunner(model, k=20)
        expected = batch_recommend(model, reqs, k=20, engine="reference")
        assert len(expected[1]) == 10
        runner.run_indexed(reqs)               # warm caches and imports
        tracemalloc.start()
        try:
            rows = runner.run_indexed(reqs)
            _size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rows == [expected[1]]
        # One int64 per label alone would be 400 kB.
        assert peak < 64 * 1024

    def test_a_chunk_mixing_narrow_wide_and_pooled_graphs(self, model):
        reqs = [(1, "w0 w2", 1), (2, "a7 b1 zzz", 2), (3, "w0 a11 b2", 9),
                (4, "b9999 a49999", 2), (5, "a0 w3 w1", 9), (6, "w3", 1),
                (7, "", 9), (8, "zzz", 2)]
        runner = LeafBatchRunner(model, k=4, hard_limit=6)
        chunks = spy_chunks(runner)
        assert_identical(last_request_wins(reqs, runner.run_indexed(reqs)),
                         reference_outputs(model, reqs, 4, hard_limit=6))
        assert chunks == [[(3, 2), (self.WIDE, 3), (self.WIDE + 3, 3)]]

    @pytest.mark.parametrize("key_range, dtype", [
        (255, np.uint8), (256, np.uint16),
        (65_535, np.uint16), (65_536, np.uint32)])
    def test_keys_narrow_at_the_dtype_edges(self, monkeypatch, key_range,
                                            dtype):
        """The chunk's last item owns the top 8 keys of the range and
        reaches its graph's last label, so the largest key is
        ``key_range - 1``; a key that wrapped would rank another item's
        labels."""
        model = make_model({
            1: [(f"w0 w{i}", 5, i) for i in range(1, 4)],      # 3 labels
            2: [(f"w1 w{i}", 7, i) for i in range(2, 10)],     # 8 labels
        })
        # Leaf 1's items own slots key_range - 16 wide.
        monkeypatch.setattr(model, "_plane", model.plane._replace(
            widths=np.array([key_range - 16, 8])))
        narrowed = []
        narrow = fast_inference._narrow

        def spy(values, top=None):
            out = narrow(values, top)
            if top is not None:
                narrowed.append((int(top), out.dtype, int(values.max())))
            return out

        monkeypatch.setattr(fast_inference, "_narrow", spy)
        reqs = [(1, "w0 w3", 1), (2, "w1 w2", 2), (3, "w1 w9 zzz", 2)]
        assert_identical(batch_recommend(model, reqs, k=3),
                         reference_outputs(model, reqs, 3))
        assert narrowed == [(key_range, np.dtype(dtype), key_range - 1)]


def keys_of_runs(segments):
    """Sorted chunk keys whose runs have the given lengths, one segment
    of run lengths per item, and the items' entry bounds: each item owns
    a key slot, each run is a distinct label of it, labels ascending
    with gaps between them (a label no title word reaches)."""
    keys, bounds, slot = [], [0], 0
    for runs in segments:
        for label, length in enumerate(runs):
            keys += [slot + 2 * label] * length
        slot += 2 * len(runs) + 1
        bounds.append(len(keys))
    keys = np.asarray(keys, dtype=np.int64)
    return (keys.astype(np.min_scalar_type(int(keys.max()))),
            np.asarray(bounds, dtype=np.int64))


class TestCountAndPrune:
    """Step 4 counts and prunes straight from the sorted keys, level mask
    by level mask; item by item it keeps what the scalar
    :func:`prune_by_count_groups` keeps, with the same counts."""

    CASES = {
        "items_without_entries": [[], [2, 1], [], [1, 1, 3], []],
        "all_singletons": [[1, 1, 1], [1], [1, 1]],
        "run_deeper_than_max_tokens": [[12, 1, 2], [3], [1, 12]],
        "ties_straddle_kth": [[4, 2, 2, 2, 1, 2, 1], [2, 2, 1, 1]],
        "kth_is_the_max": [[5, 5, 5, 5, 1], [1, 5]],
        "strictly_decreasing": [[7, 6, 5, 4, 3, 2, 1]],
    }

    @staticmethod
    def assert_equals_scalar(segments, k, spare=0):
        keys, entry_bounds = keys_of_runs(segments)
        expected_kept, expected_counts, sizes, offset = [], [], [], 0
        for runs in segments:
            lengths = np.asarray(runs, dtype=np.int64)
            kept, counts = prune_by_count_groups(
                np.arange(len(runs)), lengths, k)
            starts = offset + np.cumsum(np.append(0, lengths))[:-1]
            expected_kept += starts[kept].tolist()
            expected_counts += counts.tolist()
            sizes.append(len(kept))
            offset += int(lengths.sum())
        longest = max(max(runs, default=1) for runs in segments) + spare
        kept, got_sizes, counts = _count_and_prune(keys, entry_bounds, k,
                                                   longest)
        assert kept.tolist() == expected_kept
        assert got_sizes.tolist() == sizes
        assert counts.tolist() == expected_counts
        assert counts.dtype == np.int64

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 50])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_edge_cases(self, case, k):
        """``k = 50`` exceeds every item's candidates (all kept);
        ``k = 1`` keeps each item's deepest runs only."""
        self.assert_equals_scalar(self.CASES[case], k)

    @given(segments=st.lists(st.lists(st.integers(1, 13), max_size=12),
                             min_size=1, max_size=8)
           .filter(lambda segments: any(segments)),
           k=st.integers(1, 14), spare=st.integers(0, 3))
    def test_property(self, segments, k, spare):
        """Runs of drawn lengths, items without entries among them, and a
        bound on the run length that may exceed the longest run."""
        self.assert_equals_scalar(segments, k, spare)


class TestRankCut:
    """Step 5 ranks scores as integers, sorts each item's rows by
    (rank, label id) and, with ``hard_limit`` set, caps them: a score
    tie that straddles an item's ``hard_limit``-th row is broken by
    Search Count, so the static label order must serve the searched
    row, not the one the builder numbered first."""

    #: Title ``w0 w1 w2`` (|T| = 3) against each alignment's leaf: two
    #: tied pairs, each from two different (c, |l|) cells, the later
    #: label of a pair searched more, so it ranks first; then one row
    #: below.  LTA(1,1) = LTA(2,3), LTA(1,2) = LTA(2,5); WMR(1,1) =
    #: WMR(2,2), WMR(1,2) = WMR(2,4); JAC(2,3,3) = JAC(3,6,3),
    #: JAC(1,1,3) = JAC(2,5,3).
    TIE_WORLDS = {
        "lta": ["w0", "w1 w2 w10", "w0 w11", "w1 w2 w12 w13 w14"],
        "wmr": ["w0", "w1 w2", "w0 w11", "w1 w2 w12 w13"],
        "jac": ["w1 w2 w10", "w0 w1 w2 w10 w11 w12", "w0",
                "w1 w2 w12 w13 w14"],
    }
    SEARCH = [10, 80, 20, 70]
    REQUESTS = [(1, "w0 w1 w2", 1), (2, "zzz", 1), (3, "w2 w1 w0 w17", 1),
                (4, "w2 w0 w1", 1), (5, "w0", 1)]
    #: 1 and 3 straddle a tie; 2 ends on one; 5 is the survivor count.
    LIMITS = [0, 1, 2, 3, 5, 9, None]

    @classmethod
    def tie_model(cls, alignment):
        texts = cls.TIE_WORLDS[alignment] + ["w2 w13 w14 w15 w16"]
        return make_model({1: [(text, search, 5) for text, search
                               in zip(texts, cls.SEARCH + [50])]},
                          alignment=alignment)

    @pytest.mark.parametrize("alignment", ALIGNMENTS)
    def test_the_worlds_tie_across_cells(self, alignment):
        """Each tied pair holds two values of ``c``, the later label
        first: a label order that ignored Search Count would serve the
        other."""
        rows = recommend_from_graph(
            self.tie_model(alignment).leaf_graph(1), ["w0", "w1", "w2"],
            k=20, alignment_fn=get_alignment(alignment))
        texts = self.TIE_WORLDS[alignment]
        assert [row.text for row in rows[:4]] \
            == [texts[1], texts[0], texts[3], texts[2]]
        for pair in (rows[0:2], rows[2:4]):
            assert pair[0].score == pair[1].score
            assert pair[0].common != pair[1].common
        assert rows[1].score > rows[2].score > rows[4].score

    @pytest.mark.parametrize("hard_limit", LIMITS)
    @pytest.mark.parametrize("alignment", ALIGNMENTS)
    def test_every_path_serves_the_reference(self, alignment, hard_limit):
        model = self.tie_model(alignment)
        reqs = self.REQUESTS
        expected = reference_outputs(model, reqs, 20, hard_limit)
        runner = LeafBatchRunner(model, k=20, hard_limit=hard_limit)
        indexed = runner.run_indexed(reqs)
        assert [list(rows) for rows in indexed] \
            == [expected[item_id] for item_id, _title, _leaf in reqs]
        assert_identical(batch_recommend(model, reqs, k=20,
                                         hard_limit=hard_limit),
                         expected)
        served = sum(len(rows) for rows in expected.values())
        assert (served == 0) == (hard_limit == 0)

    @pytest.mark.parametrize("hard_limit", [2**62, 2**63, 2**70])
    def test_a_limit_past_int64_serves_every_row(self, hard_limit):
        """A ``hard_limit`` at or past 2**63 used to overflow the fast
        engine's cap; a limit no item reaches cuts nothing on any path,
        however wide, as on the reference engine."""
        model = self.tie_model("jac")
        reqs = self.REQUESTS
        expected = batch_recommend(model, reqs, k=20, engine="reference",
                                   hard_limit=hard_limit)
        assert_identical(expected, reference_outputs(model, reqs, 20))
        assert_identical(batch_recommend(model, reqs, k=20,
                                         hard_limit=hard_limit), expected)
        runner = LeafBatchRunner(model, k=20, hard_limit=hard_limit)
        indexed = runner.run_indexed(reqs)
        assert [list(rows) for rows in indexed] \
            == [expected[item_id] for item_id, _title, _leaf in reqs]

    @pytest.mark.parametrize("alignment", ALIGNMENTS)
    def test_no_numpy_warning_escapes(self, alignment):
        """Only candidate rows are scored (``c >= 1``), so no score
        divides by zero: a batch raises no warning even when warnings
        are errors."""
        worlds = {leaf: [(" ".join(TOKENS[i:i + size]), 1 + i, 2 + size)
                         for i in range(0, 12, 3)]
                  for leaf, size in ((1, 1), (2, 3), (3, 6))}
        worlds[4] = [(text, search, 5) for text, search
                     in zip(self.TIE_WORLDS[alignment], self.SEARCH)]
        model = make_model(worlds, alignment=alignment, build_pooled=True)
        reqs = [(i, " ".join(TOKENS[i % 7:i % 7 + i % 9] + STRANGERS[:i % 2]),
                 1 + i % 6) for i in range(40)]
        for hard_limit in (None, 0, 2):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                served = batch_recommend(model, reqs, k=3,
                                         hard_limit=hard_limit)
            assert_identical(served, reference_outputs(model, reqs, 3,
                                                       hard_limit))


    @pytest.mark.parametrize("hard_limit", [1, 3, 7, None])
    def test_jac_ranks_long_varied_titles(self, hard_limit, monkeypatch):
        """JAC's score depends on ``|T|``, so long titles of many lengths
        multiply the distinct scores in a chunk; its ranks still stay
        within 55 per title length at 10-token keyphrases, and the
        engine serves the reference."""
        rng = np.random.default_rng(7)
        words = [f"v{i}" for i in range(40)]
        phrases = {" ".join(rng.choice(words, size, replace=False))
                   for size in rng.integers(1, 11, 300)}
        model = make_model({1: [(text, 1 + i % 13, 1 + i % 5) for i, text
                                in enumerate(sorted(phrases))]},
                           alignment="jac")
        reqs = [(i, " ".join(rng.choice(words + STRANGERS, 1 + (i * 7) % 120)),
                 1) for i in range(150)]
        n_ranks = []
        jac = model.alignment_fn

        def spy(counts, lengths, n_tokens):
            scores = jac(counts, lengths, n_tokens)
            n_ranks.append(len(np.unique(scores)))
            return scores

        monkeypatch.setattr(model, "_alignment", spy)
        served = batch_recommend(model, reqs, k=20, hard_limit=hard_limit)
        monkeypatch.setattr(model, "_alignment", jac)
        assert_identical(served, reference_outputs(model, reqs, 20,
                                                   hard_limit))
        assert max(n_ranks) <= 55 * fast_inference.CHUNK_ITEMS
        assert max(n_ranks) > 55   # more ranks than LTA could have

    @pytest.mark.parametrize("hard_limit", [1, 3, None])
    @pytest.mark.parametrize("alignment", ALIGNMENTS)
    def test_the_cell_table_follows_the_longest_keyphrase(
            self, alignment, hard_limit, monkeypatch):
        """Rows rank through their ``(c, |l|, |T|)`` cell, read from the
        model's cell ranks: with keyphrases of up to 40 tokens and titles
        of up to 120 the cells are scored once for the call, the table
        holds ``titles x (max |l| + 1) x (max |l| + 1)`` ranks with
        ``titles`` at most twice the longest title plus one, and a table
        that dropped ``|T|`` would rank JAC rows of different title
        lengths alike."""
        rng = np.random.default_rng(11)
        words = [f"v{i}" for i in range(60)]
        phrases = {" ".join(rng.choice(words, size, replace=False))
                   for size in rng.integers(1, 41, 400)}
        model = make_model({1: [(text, 1 + i % 13, 1 + i % 5) for i, text
                                in enumerate(sorted(phrases))]},
                           alignment=alignment)
        longest = int(model.leaf_graph(1).label_lengths.max())
        assert longest == 40
        reqs = [(i, " ".join(rng.choice(words + STRANGERS,
                                        1 + (i * 13) % 120)), 1)
                for i in range(200)]
        longest_title = max(len(set(model.tokenizer(title)))
                            for _item_id, title, _leaf_id in reqs)
        scored = []
        align = model.alignment_fn

        def spy(counts, lengths, n_tokens):
            scored.append(len(counts))
            return align(counts, lengths, n_tokens)

        monkeypatch.setattr(model, "_alignment", spy)
        served = batch_recommend(model, reqs, k=20, hard_limit=hard_limit)
        monkeypatch.setattr(model, "_alignment", align)
        assert_identical(served, reference_outputs(model, reqs, 20,
                                                   hard_limit))
        assert len(scored) == 1
        cells = model._cell_ranks
        assert cells.width == longest + 1
        assert longest_title < cells.titles <= 2 * (longest_title + 1)
        assert len(cells.ranks) == cells.titles * (longest + 1) ** 2
        assert scored[0] <= len(cells.ranks)


class TestCellRanks:
    """A model scores its ``(c, |l|, |T|)`` cells once, not once per
    chunk: the table grows when a longer title arrives, and rows before
    and after the growth are the oracle's.  It is never pickled."""

    WORLD = {1: [(" ".join(TOKENS[i:i + 1 + i % 5]), 1 + i, 2 + i % 3)
                 for i in range(14)],
             2: [(" ".join(TOKENS[i::4]), 9, 1 + i) for i in range(4)]}

    @staticmethod
    def count_scores(monkeypatch):
        """Record the ``titles`` of every table scored from now on."""
        scored = []
        score = CellRanks.score

        def spy(cls, alignment, longest_label, titles):
            scored.append(titles)
            return score(alignment, longest_label, titles)

        monkeypatch.setattr(CellRanks, "score", classmethod(spy))
        return scored

    @pytest.mark.parametrize("alignment", ALIGNMENTS)
    def test_scored_once_and_grown_by_a_longer_title(self, alignment,
                                                     monkeypatch):
        model = make_model(self.WORLD, alignment=alignment,
                           build_pooled=True)
        scored = self.count_scores(monkeypatch)
        short = [(i, " ".join(TOKENS[i % 6:i % 6 + 3]), 1 + i % 3)
                 for i in range(20)]
        long = [(i, " ".join(TOKENS[i % 3:] + STRANGERS), 1 + i % 3)
                for i in range(20)]
        assert model._cell_ranks is None
        for _round in range(3):
            with chunk_items(7):
                assert_identical(batch_recommend(model, short, k=6),
                                 reference_outputs(model, short, 6))
        assert scored == [4]           # |T| <= 3, scored once
        first = model._cell_ranks
        assert first.width == 1 + int(model.plane.label_lengths.max())
        assert_identical(batch_recommend(model, long, k=6, hard_limit=4),
                         reference_outputs(model, long, 6, 4))
        assert scored == [4, 22]       # |T| = 21 > 2 x 4
        grown = model._cell_ranks
        assert grown.width == first.width
        assert len(grown.ranks) == 22 * grown.width ** 2
        for reqs in (short, long, short[:1]):
            assert_identical(batch_recommend(model, reqs, k=6),
                             reference_outputs(model, reqs, 6))
        assert scored == [4, 22] and model._cell_ranks is grown

    @given(world=leaf_worlds, batches=st.lists(requests_strategy,
                                               min_size=1, max_size=5),
           k=st.integers(1, 8), alignment=st.sampled_from(ALIGNMENTS),
           hard_limit=st.one_of(st.none(), st.integers(1, 8)))
    @settings(max_examples=examples(40), deadline=None)
    def test_calls_in_sequence_grow_one_table(self, world, batches, k,
                                              alignment, hard_limit):
        """Batches served one after another through one model, their
        titles longer or shorter than any before, each serve the
        oracle's rows; the table covers the longest title served so
        far and stays within twice its length plus one."""
        model = make_model(world, alignment=alignment, build_pooled=True)
        longest = -1
        for reqs in batches:
            assert_identical(
                batch_recommend(model, reqs, k=k, hard_limit=hard_limit),
                reference_outputs(model, reqs, k, hard_limit))
            served = [len(set(model.tokenizer(title)))
                      for _item_id, title, leaf_id in reqs
                      if model.graph_index(leaf_id) is not None]
            longest = max([longest, *served])
            cells = model._cell_ranks
            if longest < 0:
                assert cells is None
            else:
                assert longest < cells.titles <= 2 * (longest + 1)

    def test_the_table_at_least_doubles(self, monkeypatch):
        model = make_model(self.WORLD, alignment="jac")
        scored = self.count_scores(monkeypatch)
        for n in (2, 3, 4, 5, 9, 10):
            reqs = [(0, " ".join(TOKENS[:n]), 1)]
            assert_identical(batch_recommend(model, reqs, k=4),
                             reference_outputs(model, reqs, 4))
        assert scored == [3, 6, 12]

    def test_threads_growing_one_table_serve_the_oracle(self):
        """Threads — more than there are cores, with a shortened switch
        interval — serving titles of growing lengths through one model
        race on its table: each reads a table that covers its titles,
        and no published table is replaced by a smaller one."""
        batches = [[(i, " ".join((TOKENS + STRANGERS)[i % 4:i % 4 + n]),
                     1 + i % 3) for i in range(12)] for n in range(1, 22)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _round in range(5):
                model = make_model(self.WORLD, alignment="jac",
                                   build_pooled=True)
                expected = [reference_outputs(model, reqs, 5)
                            for reqs in batches]
                barrier = threading.Barrier(4)
                failures, seen = [], []

                def serve(offset):
                    barrier.wait(timeout=10)
                    for index in range(offset, len(batches), 4):
                        if batch_recommend(model, batches[index], k=5) \
                                != expected[index]:
                            failures.append(index)
                        seen.append(model._cell_ranks.titles)

                threads = [threading.Thread(target=serve, args=(offset,))
                           for offset in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10)
                assert not any(thread.is_alive() for thread in threads)
                assert failures == []
                assert len(seen) == len(batches)
                assert 21 < model._cell_ranks.titles == max(seen) <= 44
        finally:
            sys.setswitchinterval(interval)

    def test_a_pickled_model_scores_again(self):
        model = make_model(self.WORLD, alignment="jac", build_pooled=True)
        reqs = [(i, " ".join(TOKENS[i:i + 4]), 1 + i % 3)
                for i in range(12)]
        served = batch_recommend(model, reqs, k=5)
        assert model._cell_ranks is not None
        assert "_cell_ranks" not in model.__getstate__()
        clone = pickle.loads(pickle.dumps(model))
        assert clone._cell_ranks is None
        assert batch_recommend(clone, reqs, k=5) == served
        assert clone._cell_ranks.titles == model._cell_ranks.titles
        assert clone._cell_ranks is not model._cell_ranks

    def test_peak_memory_does_not_follow_the_chunk_count(self):
        """Only the titles are interned per call; gather, keys, sort,
        prune and rank run per chunk, so a 16-chunk call's traced peak
        stays within 1.5x of a 1-chunk call's on the same item mix."""
        rng = np.random.default_rng(5)
        words = [f"v{i}" for i in range(30)]
        model = make_model({1: [
            (" ".join(rng.choice(words, 3 + i % 3, replace=False)),
             1 + i % 50, 1 + i % 7) for i in range(3000)]})
        chunk = [(i, " ".join(rng.choice(words, 8, replace=False)), 1)
                 for i in range(fast_inference.CHUNK_ITEMS)]
        batch = [(i, title, leaf_id) for i, (_item, title, leaf_id)
                 in enumerate(chunk * 16)]
        runner = LeafBatchRunner(model, k=3, hard_limit=3)

        def peak(reqs):
            runner.run_ranked(reqs)             # warm caches and imports
            tracemalloc.start()
            try:
                runner.run_ranked(reqs)
                _size, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return peak

        one, many = peak(chunk), peak(batch)
        assert one > 1_000_000     # the chunk's entries dominate
        assert many <= 1.5 * one


class TestBulkLabelTexts:
    """The plane's one text ``take`` — from a built model's pool, or
    decoded lazily from an opened one's — equals one-by-one list
    indexing."""

    INDEX_SETS = [[], [0], [2, 0, 2, 1], [3, 3, 3]]

    @pytest.fixture
    def artifact(self, tmp_path):
        model = make_model({
            1: [("w0 w1", 5, 1), ("w0 w2", 4, 2), ("naïve café w3", 3, 3),
                ("w4", 2, 4)],
            2: [("w0 w1", 9, 9), ("w5 w6", 8, 8), ("w7", 7, 7),
                ("w8 w9", 6, 6)]}, build_pooled=True)
        return model, save_model(model, tmp_path / "model")

    @staticmethod
    def stacked(model, leaf_id, indices):
        """``indices`` of one leaf as the plane's stacked label ids."""
        base = model.plane.label_base[model.graph_index(leaf_id)]
        return base + np.asarray(indices, dtype=np.int64)

    @pytest.mark.parametrize("indices", INDEX_SETS)
    def test_take_on_a_cold_mapped_model(self, artifact, indices):
        built, path = artifact
        for leaf_id in (1, 2):
            # A fresh open each time: the pool cache starts cold.
            mapped = load_model(path)
            lazy = mapped.leaf_graph(leaf_id).label_texts
            eager = built.leaf_graph(leaf_id).label_texts
            assert isinstance(lazy, LazyStringList)
            expected = [eager[i] for i in indices]
            labels = self.stacked(mapped, leaf_id, indices)
            assert _label_texts(mapped.plane, labels) == expected  # cold
            assert _label_texts(mapped.plane, labels) == expected  # cached
            assert [lazy[i] for i in indices] == expected

    def test_take_warm_partially_cached(self, artifact):
        built, path = artifact
        mapped = load_model(path)
        lazy = mapped.leaf_graph(1).label_texts
        eager = built.leaf_graph(1).label_texts
        assert lazy[2] == eager[2]                 # warm one string only
        assert _label_texts(mapped.plane, self.stacked(
            mapped, 1, [0, 2, 3])) == [eager[0], eager[2], eager[3]]

    @pytest.mark.parametrize("indices", INDEX_SETS)
    def test_engine_reads_built_and_opened_models_alike(self, artifact,
                                                        indices):
        """Built and opened: the engine's ``take``, the leaf's one view
        type and its per-index reads agree."""
        built, path = artifact
        texts = ["w0 w1", "w0 w2", "naïve café w3", "w4"]
        expected = [texts[i] for i in indices]
        for model in (built, load_model(path)):
            view = model.leaf_graph(1).label_texts
            assert type(view) is LazyStringList and view == texts
            assert _label_texts(model.plane, self.stacked(
                model, 1, indices)) == expected
            assert [view[i] for i in indices] == expected


    def test_every_row_is_exactly_a_recommendation(self, artifact):
        """``materialise`` builds rows with ``tuple.__new__`` over a
        five-column zip — no length check — so the columns it zips must
        be ``Recommendation``'s fields, all of them, in order."""
        assert Recommendation._fields == (
            "text", "score", "search_count", "recall_count", "common")
        assert len(Recommendation._fields) == 5
        built, path = artifact
        reqs = [(1, "w0 w1 w2", 1), (2, "w5 w0 zzz", 2), (3, "w7 w1", 9),
                (4, "", 1), (5, "naïve w3", 1)]
        expected = batch_recommend(built, reqs, k=5, engine="reference")
        for model in (built, load_model(path)):
            results = LeafBatchRunner(model, k=5).run_indexed(reqs)
            assert [len(rows) for rows in results] == [2, 2, 2, 0, 1]
            for (item_id, _title, _leaf), rows in zip(reqs, results):
                assert rows == expected[item_id]
                for row in rows:
                    assert type(row) is Recommendation
                    assert row == Recommendation(*row)
                    assert list(map(type, row)) \
                        == [str, float, int, int, int]


class TestEdgeCases:
    def test_empty_vocabulary_leaf(self):
        """Keyphrases that tokenize to nothing leave the vocab empty."""
        model = make_model({1: [("!!!", 5, 1), ("???", 4, 2)]})
        fast = batch_recommend(model, [(1, "w0 w1", 1)], k=5)
        assert fast == {1: []}

    def test_unknown_leaf_without_pooled_is_empty(self):
        model = make_model({1: [("w0 w1", 5, 1)]})
        fast = batch_recommend(model, [(7, "w0 w1", 999)], k=5)
        assert fast == {7: []}

    def test_unknown_leaf_falls_back_to_pooled(self):
        model = make_model({1: [("w0 w1", 5, 1)]}, build_pooled=True)
        fast = batch_recommend(model, [(7, "w0 w1", 999)], k=5)
        assert [r.text for r in fast[7]] == ["w0 w1"]
        assert_identical(fast, reference_outputs(
            model, [(7, "w0 w1", 999)], 5))

    def test_empty_batch(self):
        model = make_model({1: [("w0", 1, 1)]})
        assert batch_recommend(model, [], k=5) == {}

    def test_duplicate_item_ids_last_request_wins(self):
        """Parity with the scalar dict loop: later request overwrites."""
        model = make_model({1: [("w0", 9, 1)], 2: [("w1", 9, 1)]})
        reqs = [(5, "w0", 1), (5, "w1", 2)]
        fast = batch_recommend(model, reqs, k=5)
        ref = batch_recommend(model, reqs, k=5, engine="reference")
        assert [r.text for r in fast[5]] == ["w1"]
        assert_identical(fast, ref)

    def test_k_zero_yields_no_predictions(self):
        model = make_model({1: [("w0 w1", 5, 1)]})
        fast = batch_recommend(model, [(1, "w0 w1", 1)], k=0)
        assert fast == {1: []}

    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_negative_hard_limit_rejected(self, engine):
        """Both engines refuse a negative cap (Python slice semantics
        would otherwise silently diverge between them)."""
        model = make_model({1: [("w0 w1", 5, 1)]})
        with pytest.raises(ValueError, match="hard_limit"):
            batch_recommend(model, [(1, "w0", 1)], k=5, hard_limit=-1,
                            engine=engine)
        with pytest.raises(ValueError, match="hard_limit"):
            LeafBatchRunner(model, k=5, hard_limit=-1)

    @pytest.mark.parametrize("engine", ["reference", "fast"])
    @pytest.mark.parametrize("limits", [
        {"k": 2.0}, {"k": True}, {"k": "2"}, {"k": None},
        {"hard_limit": 1.0}, {"hard_limit": False},
        {"hard_limit": np.float64(1)}])
    def test_a_non_integer_limit_is_a_named_type_error(self, engine,
                                                       limits):
        """``k=2.0`` used to serve rows on the fast engine and raise a
        raw ``IndexError`` on the reference one (a title with more than
        ``k`` candidates); ``hard_limit=1.0`` raised two different raw
        ``TypeError`` s.  Both engines now refuse any non-integer (a
        ``bool`` too) by name, before any inference."""
        model = make_model({1: [("red shoe", 5, 1), ("red", 4, 2),
                                ("shoe", 3, 3), ("red shoe box", 2, 4)]})
        name, value = next(iter(limits.items()))
        options = {"k": 5, **limits}
        with pytest.raises(TypeError, match=re.escape(
                f"{name} must be an int, got {value!r}")):
            batch_recommend(model, [(1, "red shoe", 1)], engine=engine,
                            **options)
        with pytest.raises(TypeError, match=f"{name} must be an int"):
            LeafBatchRunner(model, **options)

    def test_numpy_integer_limits_are_served(self):
        model = make_model({1: [("red shoe", 5, 1), ("red", 4, 2)]})
        reqs = [(1, "red shoe", 1)]
        assert batch_recommend(model, reqs, k=np.int64(1),
                               hard_limit=np.int32(1)) \
            == batch_recommend(model, reqs, k=1, hard_limit=1,
                               engine="reference")

    def test_duplicate_item_ids_across_process_shards_last_wins(
            self, fleet, tmp_path):
        """The two requests for item 5 live in different leaf groups, so
        on a two-worker fleet they land in different process shards; the
        scatter-by-request-index merge must still let the later request
        win, exactly like the scalar dict loop."""
        model = open_saved(
            make_model({1: [("w0", 9, 1)], 2: [("w1", 9, 1)]}), tmp_path)
        reqs = [(5, "w0", 1), (5, "w1", 2)]
        out = batch_recommend(model, reqs, k=5, executor=fleet)
        assert [r.text for r in out[5]] == ["w1"]
        assert_identical(out,
                         batch_recommend(model, reqs, k=5,
                                         engine="reference"))

    def test_reference_engine_rejects_process_parallel(self, fleet):
        """The scalar path stays single-process as the semantics oracle."""
        model = make_model({1: [("w0 w1", 5, 1)]})
        with pytest.raises(ValueError, match="single-process"):
            batch_recommend(model, [(1, "w0", 1)], k=5,
                            engine="reference", executor=fleet)

    def test_unknown_parallel_mode_rejected(self):
        model = make_model({1: [("w0 w1", 5, 1)]})
        with pytest.raises(ValueError, match="unknown executor"):
            batch_recommend(model, [(1, "w0", 1)], k=5, executor="fiber")

    def test_run_indexed_keeps_duplicates(self):
        """run_indexed is positional: duplicates are not collapsed."""
        model = make_model({1: [("w0", 9, 1)], 2: [("w1", 9, 1)]})
        reqs = [(5, "w0", 1), (5, "w1", 2)]
        rows = LeafBatchRunner(model, k=5).run_indexed(reqs)
        assert [[r.text for r in row] for row in rows] == [["w0"], ["w1"]]


class TestTieBreakDeterminism:
    """Satellite regression: the documented score → search → recall →
    label-id order holds, for both engines, when upstream keys tie."""

    def _tied_model(self):
        # Title "w0" gives every label c=1 and |l|=2 → identical scores
        # under all alignments; search counts also tie.
        return make_model({1: [
            ("w0 w1", 10, 7),   # label 0: recall 7
            ("w0 w2", 10, 3),   # label 1: recall 3
            ("w0 w3", 10, 3),   # label 2: recall 3, same recall → id
        ]})

    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_equal_score_equal_search_orders_by_recall_then_id(
            self, engine):
        model = self._tied_model()
        recs = batch_recommend(model, [(1, "w0", 1)], k=10,
                               engine=engine)[1]
        assert [r.text for r in recs] == ["w0 w2", "w0 w3", "w0 w1"]
        scores = {r.score for r in recs}
        searches = {r.search_count for r in recs}
        assert len(scores) == 1 and len(searches) == 1

    @pytest.mark.parametrize("alignment", ALIGNMENTS)
    def test_order_identical_across_engines_under_full_ties(
            self, alignment):
        model = make_model(
            {1: [(f"w0 w{i}", 5, 5) for i in range(1, 7)]},
            alignment=alignment)
        reqs = [(1, "w0", 1)]
        assert_identical(
            batch_recommend(model, reqs, k=10, engine="fast"),
            batch_recommend(model, reqs, k=10, engine="reference"))
        # All keys tie → pure label-id (insertion) order.
        recs = batch_recommend(model, reqs, k=10, engine="fast")[1]
        assert [r.text for r in recs] == [f"w0 w{i}" for i in range(1, 7)]


#: Worlds of several leaves, each with labels; every model of them has
#: a pooled graph too.
plane_worlds = st.dictionaries(st.integers(1, 8), phrases_between(1, 6),
                               min_size=2, max_size=6)


def both_kinds(model, directory):
    """The model as built, and saved then opened."""
    return {"built": model,
            "opened": load_model(save_model(model, directory / "model"))}


class TestStackedPlane:
    """Every model's graphs live in one stacked plane: a chunk of items
    from many graphs reads each plane array once, and every leaf's
    arrays are views of the plane."""

    @given(world=plane_worlds, k=st.integers(1, 8),
           alignment=st.sampled_from(ALIGNMENTS),
           hard_limit=st.one_of(st.none(), st.integers(1, 8)),
           data=st.data())
    @settings(max_examples=examples(40), deadline=None)
    def test_a_window_across_every_graph_matches_the_oracle(
            self, world, k, alignment, hard_limit, data):
        """The NRT window's shape: one chunk holding one or two items of
        every leaf and of the pooled fallback, in any order — through
        ``run_indexed`` on the built model and on its open, each request
        equal to the scalar oracle's rows, and through the built model's
        ``run_ranked`` materialised over the open's plane: the stacked
        label ids a worker ships name the same labels in the artifact's
        open."""
        model = make_model(world, alignment=alignment, build_pooled=True)
        reqs = []
        for leaf_id in sorted(world) + [99]:
            for _ in range(data.draw(st.integers(1, 2))):
                reqs.append((len(reqs), data.draw(mixed_title), leaf_id))
        reqs = data.draw(st.permutations(reqs))
        expected = reference_outputs(model, reqs, k, hard_limit)
        ranked = LeafBatchRunner(model, k=k,
                                 hard_limit=hard_limit).run_ranked(reqs)
        with tempfile.TemporaryDirectory() as tmp:
            for kind, served in both_kinds(model, Path(tmp)).items():
                runner = LeafBatchRunner(served, k=k, hard_limit=hard_limit)
                chunks = spy_chunks(runner)
                indexed = runner.run_indexed(reqs)
                assert len(chunks) == 1, kind
                assert len(chunks[0]) <= len(world) + 1
                assert [list(rows) for rows in indexed] \
                    == [expected[item_id] for item_id, _t, _l in reqs], kind
                assert materialise(served.plane, ranked, len(reqs)) \
                    == indexed, kind

    def test_an_empty_model_has_an_empty_plane(self, tmp_path):
        model = GraphExModel({})
        reqs = [(1, "w0 w1", 1), (2, "", 7)]
        for kind, served in both_kinds(model, tmp_path).items():
            plane = served.plane
            assert served.plane_graphs == [], kind
            assert [len(array) for array in (
                plane.indptr, plane.indices, plane.label_lengths,
                plane.search_counts, plane.recall_counts,
                plane.text_ids)] == [0] * 6, kind
            assert plane.label_base.tolist() == [0], kind
            runner = LeafBatchRunner(served, k=5)
            assert runner.run_indexed(reqs) == [EMPTY_ROWS] * 2
            ranked = runner.run_ranked(reqs)
            assert len(ranked.requests) == len(ranked.labels) == 0

    def test_a_label_less_leaf_owns_a_one_wide_slot(self, tmp_path):
        """A leaf with no labels (an empty vocabulary, one empty CSR
        row) stacks as one indptr row pair and no labels: its items own
        a slot of width 1 and reach nothing, and the graphs stacked
        after it keep their own labels."""
        from repro.core.model import build_leaf_graph

        built = make_model({1: [("w0 w1", 5, 1), ("w1", 4, 2)],
                            3: [("w1 w2", 3, 3), ("w2", 2, 4)]},
                           build_pooled=True)
        empty = build_leaf_graph(CuratedLeaf(leaf_id=2), built.tokenizer)
        assert empty.n_labels == 0 and empty.graph.n_left == 1
        model = GraphExModel(
            {1: built.leaf_graph(1), 2: empty, 3: built.leaf_graph(3)},
            pooled_graph=built.pooled_graph)
        assert model.plane.widths.tolist() == [2, 1, 2, 4]
        assert np.diff(model.plane.label_base).tolist() == [2, 0, 2, 4]
        reqs = [(0, "w1 w2", 2), (1, "w0 w1", 1), (2, "w2 zzz", 3),
                (3, "w1", 2), (4, "w2 w0", 9)]
        expected = reference_outputs(model, reqs, 3)
        assert expected[0] == expected[3] == []
        for kind, served in both_kinds(model, tmp_path).items():
            runner = LeafBatchRunner(served, k=3)
            assert [list(rows) for rows in runner.run_indexed(reqs)] \
                == [expected[i] for i in range(len(reqs))], kind
            assert served.leaf_graph(2).n_labels == 0

    def test_pooled_only_requests(self, tmp_path):
        model = make_model({1: [("w0 w1", 5, 1), ("w2", 4, 2)],
                            2: [("w1 w2", 3, 3), ("w0", 2, 4)]},
                           build_pooled=True)
        reqs = [(i, title, 50 + i) for i, title in
                enumerate(["w0 w1", "w2", "", "zzz w1", "w1 w2 w0"])]
        expected = reference_outputs(model, reqs, 2)
        for kind, served in both_kinds(model, tmp_path).items():
            runner = LeafBatchRunner(served, k=2)
            chunks = spy_chunks(runner)
            assert [list(rows) for rows in runner.run_indexed(reqs)] \
                == [expected[i] for i in range(len(reqs))], kind
            assert chunks == [[(served.pooled_graph.n_labels, len(reqs))]]

    def test_every_leaf_array_is_a_view_of_the_plane(self, tmp_path):
        """On built and opened models alike each graph's arrays share
        memory with the plane — at the plane's offsets — and an opened
        model's are read-only, as is its plane."""
        model = make_model({1: [("w0 w1", 5, 1), ("w2", 4, 2)],
                            2: [("w1 w2", 3, 3), ("w0", 2, 4)]},
                           build_pooled=True)
        for kind, served in both_kinds(model, tmp_path).items():
            plane = served.plane
            graphs = served.plane_graphs
            assert graphs == [served.leaf_graph(1), served.leaf_graph(2),
                              served.pooled_graph], kind
            for g, graph in enumerate(graphs):
                lo, hi = plane.label_base[g:g + 2]
                pairs = [(graph.graph.indptr, plane.indptr),
                         (graph.graph.indices, plane.indices),
                         (graph.label_lengths, plane.label_lengths),
                         (graph.search_counts, plane.search_counts),
                         (graph.recall_counts, plane.recall_counts)]
                for array, stacked in pairs:
                    assert np.shares_memory(array, stacked), kind
                    assert array.flags.writeable == (kind != "opened")
                assert np.array_equal(graph.search_counts,
                                      plane.search_counts[lo:hi])
                assert plane.strings.take(plane.text_ids[lo:hi]) \
                    == list(graph.label_texts), kind
                assert graph.graph.indptr[0] == 0
            if kind == "opened":
                assert not any(array.flags.writeable for array in (
                    plane.indptr, plane.indices, plane.label_lengths,
                    plane.search_counts, plane.recall_counts,
                    plane.text_ids))
                assert np.shares_memory(
                    served.pooled_graph.label_texts._ids, plane.text_ids)


#: Few Search / Recall Counts, so full (score, S, R) ties are common.
tied_worlds = st.dictionaries(
    st.integers(1, 4),
    st.lists(st.tuples(phrase, st.integers(1, 3), st.integers(1, 3)),
             max_size=16),
    min_size=1, max_size=4)

PLANE_ARRAYS = ("indptr", "indices", "label_lengths", "search_counts",
                "recall_counts", "word_base", "entry_base", "label_base",
                "widths")


class TestStaticLabelOrder:
    """The plane numbers each graph's labels once, by (S desc, R asc,
    builder id asc), so the label id is the whole tie-break after the
    score; the renumbering changes no served row."""

    #: (Search Count, Recall Count) per label, in builder order; every
    #: label is ``w0 w<i>``, so title ``w0`` ties them all on score.
    CASES = {
        "one_label": [(1, 1)],
        "full_ties": [(2, 2)] * 6,
        "search_ascending": [(1, 7), (2, 6), (3, 5), (4, 4), (5, 3),
                             (6, 2), (7, 1)],
        "recall_breaks_search_ties": [(5, 3), (5, 1), (5, 2), (5, 1)],
        "ties_straddle_the_cap": [(4, 1), (2, 3), (2, 1), (2, 2), (1, 1),
                                  (2, 1), (1, 2)],
        "kth_is_the_max": [(5, 5), (5, 5), (5, 5), (5, 5), (1, 1)],
        "interleaved": [(1, 1), (3, 2), (1, 1), (3, 1), (2, 9), (3, 2)],
        "int64_ends": [(0, 2**63 - 1), (2**63 - 1, 0), (0, 0),
                       (2**63 - 1, 2**63 - 1), (2**62, 1)],
    }

    @pytest.mark.parametrize("hard_limit", [1, 2, 3, 4, 6, 7, None])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_a_score_tie_is_served_in_static_order(self, case,
                                                   hard_limit):
        """Both builders, all three alignments: each engine serves the
        tied labels by (S desc, R asc, builder id asc) and caps them at
        ``hard_limit`` — the order and the boundary rows the scalar
        oracle serves over the builder's own graph."""
        counts = self.CASES[case]
        texts = [f"w0 w{i + 1}" for i in range(len(counts))]
        ranked = sorted(range(len(counts)),
                        key=lambda i: (-counts[i][0], counts[i][1], i))
        expected = [texts[i] for i in ranked][:hard_limit]
        reqs = [(1, "w0", 1)]
        world = {1: [(text, search, recall) for text, (search, recall)
                     in zip(texts, counts)]}
        for builder in ("reference", "fast"):
            for alignment in ALIGNMENTS:
                model = make_model(world, alignment=alignment,
                                   builder=builder)
                for engine in ("fast", "reference"):
                    rows = batch_recommend(model, reqs, k=20,
                                           hard_limit=hard_limit,
                                           engine=engine)[1]
                    assert [row.text for row in rows] == expected
                    assert [(row.search_count, row.recall_count)
                            for row in rows] \
                        == [counts[i] for i in ranked][:hard_limit]

    @given(world=tied_worlds, reqs=requests_strategy, k=st.integers(0, 12),
           alignment=st.sampled_from(ALIGNMENTS),
           build_pooled=st.booleans(),
           builder=st.sampled_from(["reference", "fast"]),
           hard_limit=st.one_of(st.none(), st.integers(1, 8),
                                st.integers(2**63, 2**70)))
    @settings(max_examples=examples(40), deadline=None)
    def test_every_engine_serves_what_the_builders_graphs_serve(
            self, world, reqs, k, alignment, build_pooled, builder,
            hard_limit):
        """Both engines on the built and the opened model serve
        exactly what the scalar oracle serves over the builder's own
        graphs, before :meth:`GraphPlane.assemble` — which every built
        model passes through — renumbered them; the plane is in the
        static order, and stacking its graphs a second time changes
        nothing."""
        built, assemble = [], GraphPlane.assemble.__func__

        def spy(cls, graphs, strings, ids):
            built.append(list(graphs))
            return assemble(cls, graphs, strings, ids)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(GraphPlane, "assemble", classmethod(spy))
            model = make_model(world, alignment=alignment,
                               build_pooled=build_pooled, builder=builder)
        (graphs,) = built
        expected = {}
        for item_id, title, leaf_id in reqs:
            g = model.graph_index(leaf_id)
            expected[item_id] = [] if g is None else recommend_from_graph(
                graphs[g], model.tokenizer(title), k=k,
                alignment_fn=model.alignment_fn, hard_limit=hard_limit)
        plane = model.plane
        # ``text_ids`` are pool ids, so each graph's builder ids come
        # from its builder's graph: the plane holds its labels sorted by
        # (S desc, R asc, builder id asc).
        for graph, lo, hi in zip(graphs, plane.label_base[:-1],
                                 plane.label_base[1:]):
            keys = sorted(zip(-graph.search_counts, graph.recall_counts,
                              range(graph.n_labels)))
            order = [builder_id for _s, _r, builder_id in keys]
            for name in ("search_counts", "recall_counts",
                         "label_lengths"):
                assert getattr(plane, name)[lo:hi].tolist() \
                    == getattr(graph, name)[order].tolist()
            assert plane.strings.take(plane.text_ids[lo:hi]) \
                == [graph.label_texts[i] for i in order]
        with tempfile.TemporaryDirectory() as tmp:
            for kind, served in both_kinds(model, Path(tmp)).items():
                for engine in ("fast", "reference"):
                    assert_identical(batch_recommend(
                        served, reqs, k=k, hard_limit=hard_limit,
                        engine=engine), expected)
                again = GraphPlane.stack(served.plane_graphs)
                for name in PLANE_ARRAYS:
                    ours, theirs = getattr(again, name), getattr(plane, name)
                    assert ours.dtype == theirs.dtype, (kind, name)
                    assert np.array_equal(ours, theirs), (kind, name)
                assert again.strings.take(again.text_ids) \
                    == plane.strings.take(plane.text_ids), kind
