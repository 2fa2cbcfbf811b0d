"""Tests for the Experiment harness plumbing (repro.eval.harness)."""

from __future__ import annotations

import pytest

from repro.core import CurationConfig
from repro.core.model import GraphExModel
from repro.data import TINY_PROFILE
from repro.eval import Experiment, ExperimentConfig, GraphExRecommender


@pytest.fixture(scope="module")
def experiment():
    config = ExperimentConfig(
        profile=TINY_PROFILE,
        n_train_events=15_000,
        n_test_events=3_000,
        curation=CurationConfig(min_search_count=3, min_keyphrases=60,
                                floor_search_count=2),
        test_items_per_meta={"CAT_1": 25, "CAT_2": 15, "CAT_3": 10},
        seed=9,
    )
    return Experiment(config).prepare()


class TestGraphExRecommender:
    def test_output_capped_at_twice_k(self, experiment):
        recommender = experiment.build_graphex("CAT_1")
        for item in experiment.test_items("CAT_1"):
            preds = recommender.recommend(item.item_id, item.title,
                                          item.leaf_id, k=40)
            assert len(preds) <= 2 * 10  # default k=10 -> cap 20

    def test_k_smaller_than_cap_wins(self, experiment):
        recommender = experiment.build_graphex("CAT_1")
        item = experiment.test_items("CAT_1")[0]
        preds = recommender.recommend(item.item_id, item.title,
                                      item.leaf_id, k=3)
        assert len(preds) <= 3

    def test_model_property(self, experiment):
        recommender = experiment.build_graphex("CAT_1")
        assert isinstance(recommender.model, GraphExModel)

    def test_full_coverage(self, experiment):
        recommender = experiment.build_graphex("CAT_1")
        assert recommender.coverage([1, 2, 3]) == 1.0


class TestExperimentPlumbing:
    def test_prepare_is_idempotent(self, experiment):
        dataset_before = experiment.dataset
        experiment.prepare()
        assert experiment.dataset is dataset_before

    def test_prepare_simulates_each_window_once(self, monkeypatch):
        """The training log comes from the simulator's training window
        and the test log from its test window, each sized by the
        config."""
        from repro.search import SessionSimulator

        calls = []
        for method in ("run_training_window", "run_test_window"):
            monkeypatch.setattr(
                SessionSimulator, method,
                lambda self, n_events, _m=method: calls.append(
                    (_m, n_events)) or _m)
        config = ExperimentConfig(profile=TINY_PROFILE,
                                  n_train_events=1200, n_test_events=300)
        experiment = Experiment(config).prepare().prepare()
        assert calls == [("run_training_window", 1200),
                         ("run_test_window", 300)]
        assert experiment.train_log == "run_training_window"
        assert experiment.test_log == "run_test_window"

    def test_training_data_restricted_to_meta(self, experiment):
        data = experiment.training_data("CAT_3")
        leaf_ids = {leaf.leaf_id for leaf in
                    experiment.dataset.catalog.tree.leaves_of("CAT_3")}
        assert all(leaf in leaf_ids for _i, _t, leaf in data.items)
        item_ids = {item_id for item_id, _t, _l in data.items}
        assert set(data.click_pairs) <= item_ids

    def test_keyphrase_stats_restricted_to_meta(self, experiment):
        leaf_ids = {leaf.leaf_id for leaf in
                    experiment.dataset.catalog.tree.leaves_of("CAT_2")}
        stats = experiment.keyphrase_stats("CAT_2")
        assert stats
        assert all(s.leaf_id in leaf_ids for s in stats)

    def test_test_items_deterministic(self, experiment):
        assert [it.item_id for it in experiment.test_items("CAT_1")] \
            == [it.item_id for it in experiment.test_items("CAT_1")]

    def test_test_items_count(self, experiment):
        assert len(experiment.test_items("CAT_1")) == 25

    def test_head_classifier_cached(self, experiment):
        assert experiment.head_classifier("CAT_1") \
            is experiment.head_classifier("CAT_1")

    def test_build_graphex_alignment_override(self, experiment):
        recommender = experiment.build_graphex("CAT_1", alignment="wmr")
        assert recommender.model.alignment_name == "wmr"

    def test_build_graphex_curation_override(self, experiment):
        tight = experiment.build_graphex(
            "CAT_1", curation=CurationConfig(min_search_count=10**6))
        assert tight.model.n_keyphrases == 0

    def test_metas(self, experiment):
        assert experiment.metas == ["CAT_1", "CAT_2", "CAT_3"]

    def test_predictions_cover_all_test_items(self, experiment):
        predictions = experiment.predictions("CAT_3")
        item_ids = {it.item_id for it in experiment.test_items("CAT_3")}
        for per_item in predictions.values():
            assert set(per_item) == item_ids

    def test_judged_models_match_predictions(self, experiment):
        assert set(experiment.judged("CAT_3")) \
            == set(experiment.predictions("CAT_3"))
