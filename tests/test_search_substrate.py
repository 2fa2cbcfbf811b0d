"""Tests for the search substrate: engine, clicks, sessions, logs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.catalog import Item
from repro.search import (
    ClickModel,
    ClickModelConfig,
    SearchEngine,
    SearchLog,
    SessionSimulator,
    click_sparsity,
)
from repro.search.logs import ClickEvent


def make_items():
    return [
        Item(item_id=1, product_id=1, leaf_id=100,
             title="audeze maxwell gaming headphones"),
        Item(item_id=2, product_id=2, leaf_id=100,
             title="klaro wireless headphones blue"),
        Item(item_id=3, product_id=3, leaf_id=101,
             title="nimbus gaming laptop 16gb ram"),
    ]


class TestSearchEngine:
    def test_full_match_ranks_first(self):
        engine = SearchEngine(make_items(), seed=1, popularity_weight=0.0)
        results = engine.search(["audeze", "maxwell"])
        assert results[0].item_id == 1

    def test_partial_match_included(self):
        engine = SearchEngine(make_items(), seed=1)
        ids = {r.item_id for r in engine.search(["headphones"])}
        assert ids == {1, 2}

    def test_no_match_returns_empty(self):
        engine = SearchEngine(make_items(), seed=1)
        assert engine.search(["zzz"]) == []

    def test_positions_are_sequential(self):
        engine = SearchEngine(make_items(), seed=1)
        results = engine.search(["headphones", "gaming"])
        assert [r.position for r in results] == list(range(len(results)))

    def test_top_k_respected(self):
        engine = SearchEngine(make_items(), seed=1)
        assert len(engine.search(["headphones"], top_k=1)) == 1

    def test_recall_count_is_strict_and(self):
        engine = SearchEngine(make_items(), seed=1)
        assert engine.recall_count(["gaming", "headphones"]) == 1
        assert engine.recall_count(["headphones"]) == 2
        assert engine.recall_count(["zzz"]) == 0

    def test_stopwords_ignored(self):
        engine = SearchEngine(make_items(), seed=1)
        assert engine.recall_count(["gaming", "for", "headphones"]) == 1

    def test_assign_leaf_is_top_items_leaf(self):
        engine = SearchEngine(make_items(), seed=1)
        assert engine.assign_leaf(["gaming", "laptop"]) == 101
        assert engine.assign_leaf(["zzz"]) is None

    def test_popularity_feedback_changes_ranking(self):
        engine = SearchEngine(make_items(), seed=1, popularity_weight=1.0)
        baseline = engine.search(["headphones"])
        loser = baseline[-1].item_id
        for _ in range(200):
            engine.record_click(loser)
        boosted = engine.search(["headphones"])
        assert boosted[0].item_id == loser

    def test_reset_popularity(self):
        engine = SearchEngine(make_items(), seed=1)
        engine.record_click(1, 5.0)
        assert engine.popularity_of(1) == 5.0
        engine.reset_popularity()
        assert engine.popularity_of(1) == 0.0

    def test_click_on_unknown_item_is_noop(self):
        engine = SearchEngine(make_items(), seed=1)
        engine.record_click(999)
        assert engine.popularity_of(999) == 0.0

    def test_deterministic_given_seed(self):
        a = SearchEngine(make_items(), seed=9).search(["headphones"])
        b = SearchEngine(make_items(), seed=9).search(["headphones"])
        assert [r.item_id for r in a] == [r.item_id for r in b]


class TestClickModel:
    def _model(self, dataset, **kwargs):
        return ClickModel(dataset.catalog,
                          ClickModelConfig(**kwargs), seed=3)

    def test_position_bias_decreasing(self, tiny_dataset):
        model = self._model(tiny_dataset)
        biases = [model.position_bias(p) for p in range(10)]
        assert biases == sorted(biases, reverse=True)

    def test_relevant_clicks_more_likely(self, tiny_dataset):
        catalog = tiny_dataset.catalog
        model = self._model(tiny_dataset)
        item = catalog.items[0]
        product = catalog.product_of_item(item.item_id)
        relevant_q = [product.brand, product.ptype[-1]]
        irrelevant_q = ["completely", "unrelated"]
        p_rel = model.click_probability(item.item_id, relevant_q, 0)
        p_irr = model.click_probability(item.item_id, irrelevant_q, 0)
        assert p_rel > p_irr > 0

    def test_probability_bounded(self, tiny_dataset):
        model = self._model(tiny_dataset, base_click_rate=50.0)
        item = tiny_dataset.catalog.items[0]
        assert model.click_probability(item.item_id, ["x"], 0) <= 1.0

    def test_sample_clicks_zero_impressions(self, tiny_dataset):
        model = self._model(tiny_dataset)
        assert model.sample_clicks(1, ["x"], 0, 0) == 0

    def test_sample_clicks_bounded_by_impressions(self, tiny_dataset):
        model = self._model(tiny_dataset)
        item = tiny_dataset.catalog.items[0]
        product = tiny_dataset.catalog.product_of_item(item.item_id)
        clicks = model.sample_clicks(
            item.item_id, [product.ptype[-1]], 0, 50)
        assert 0 <= clicks <= 50


class TestSessionSimulator:
    def test_run_produces_searches_and_clicks(self, tiny_log):
        assert tiny_log.total_searches == 20_000
        assert len(tiny_log.clicks) > 0

    def test_click_days_inside_window(self, tiny_log):
        for click in tiny_log.clicks[:500]:
            assert 1 <= click.day <= 180

    def test_training_and_test_windows_are_section_iv_b(
            self, tiny_dataset, monkeypatch):
        """Days 1-180 over four feedback rounds, then days 181-195 in
        one round: the two windows the harness simulates."""
        calls = []
        monkeypatch.setattr(
            SessionSimulator, "run",
            lambda self, n_events, day_start, day_end, rounds=4:
                calls.append((n_events, day_start, day_end, rounds)))
        sim = SessionSimulator(tiny_dataset.catalog, tiny_dataset.queries)
        sim.run_training_window(1000)
        sim.run_test_window(200)
        assert calls == [(1000, 1, 180, 4), (200, 181, 195, 1)]

    def test_test_window_clicks_fall_in_days_181_to_195(self,
                                                        tiny_dataset):
        log = SessionSimulator(tiny_dataset.catalog, tiny_dataset.queries,
                               seed=5).run_test_window(2000)
        assert log.total_searches == 2000
        assert log.clicks
        assert all(181 <= click.day <= 195 for click in log.clicks)

    def test_invalid_window_raises(self, tiny_dataset):
        sim = SessionSimulator(tiny_dataset.catalog, tiny_dataset.queries)
        with pytest.raises(ValueError):
            sim.run(10, day_start=5, day_end=4)

    def test_invalid_rounds_raises(self, tiny_dataset):
        sim = SessionSimulator(tiny_dataset.catalog, tiny_dataset.queries)
        with pytest.raises(ValueError):
            sim.run(10, day_start=1, day_end=2, rounds=0)

    def test_deterministic_given_seed(self, tiny_dataset):
        log_a = SessionSimulator(
            tiny_dataset.catalog, tiny_dataset.queries, seed=99).run(
            2000, 1, 30)
        log_b = SessionSimulator(
            tiny_dataset.catalog, tiny_dataset.queries, seed=99).run(
            2000, 1, 30)
        assert log_a.search_counts == log_b.search_counts
        assert len(log_a.clicks) == len(log_b.clicks)

    def test_recall_counts_recorded_for_searched_queries(self, tiny_log):
        assert set(tiny_log.recall_counts) >= set(tiny_log.search_counts)

    def test_clicked_queries_have_searches(self, tiny_log):
        searched = {text for (_leaf, text) in tiny_log.search_counts}
        clicked = {c.query_text for c in tiny_log.clicks}
        assert clicked <= searched


class TestSearchLog:
    def _log(self):
        log = SearchLog(day_start=1, day_end=60)
        log.search_counts = {(1, "a b"): 50, (1, "c"): 5, (2, "a b"): 8}
        log.recall_counts = {(1, "a b"): 10, (1, "c"): 3, (2, "a b"): 2}
        log.clicks = [
            ClickEvent(day=10, query_text="a b", leaf_id=1, item_id=7,
                       position=0),
            ClickEvent(day=55, query_text="a b", leaf_id=1, item_id=7,
                       position=1),
            ClickEvent(day=58, query_text="c", leaf_id=1, item_id=8,
                       position=0),
        ]
        return log

    def test_keyphrase_stats(self):
        stats = {(s.leaf_id, s.text): s for s in self._log().keyphrase_stats()}
        assert stats[(1, "a b")].search_count == 50
        assert stats[(1, "a b")].recall_count == 10
        assert len(stats) == 3

    def test_item_query_pairs(self):
        pairs = self._log().item_query_pairs()
        assert pairs[7] == {"a b": 2}
        assert pairs[8] == {"c": 1}

    def test_item_query_pairs_day_window(self):
        pairs = self._log().item_query_pairs(min_day=50)
        assert pairs[7] == {"a b": 1}

    def test_item_query_pairs_min_clicks(self):
        pairs = self._log().item_query_pairs(min_clicks=2)
        assert 8 not in pairs
        assert pairs[7] == {"a b": 2}

    def test_queries_per_item_histogram(self):
        hist = self._log().queries_per_item_histogram()
        assert hist == {1: 2}

    def test_clicked_item_ids(self):
        assert self._log().clicked_item_ids() == [7, 8]

    def test_search_count_lookup(self):
        log = self._log()
        assert log.search_count(1, "a b") == 50
        assert log.search_count(9, "nope") == 0

    def test_merged_with(self):
        log = self._log()
        other = SearchLog(day_start=61, day_end=75)
        other.search_counts = {(1, "a b"): 7}
        other.clicks = [ClickEvent(day=62, query_text="a b", leaf_id=1,
                                   item_id=9, position=0)]
        merged = log.merged_with(other)
        assert merged.day_start == 1 and merged.day_end == 75
        assert merged.search_counts[(1, "a b")] == 57
        assert len(merged.clicks) == 4

    def test_n_days(self):
        assert self._log().n_days == 60

    def test_click_sparsity_summary(self):
        summary = click_sparsity(self._log(), n_items_total=100)
        assert summary["frac_items_without_clicks"] == pytest.approx(0.98)
        assert summary["frac_clicked_items_single_query"] == 1.0

    def test_click_sparsity_empty(self):
        log = SearchLog(day_start=1, day_end=2)
        summary = click_sparsity(log, n_items_total=0)
        assert summary["frac_clicked_items_single_query"] == 0.0
