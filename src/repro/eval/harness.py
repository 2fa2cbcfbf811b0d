"""End-to-end experiment harness (paper Section IV).

Reproduces the paper's pipeline on the synthetic substrate:

1. Generate the catalog and query universe (CAT 1/2/3 profiles).
2. Simulate a six-month training window and a disjoint 15-day test window
   of buyer activity ("This removes any bias that models have based on
   their training data", Section IV-B).
3. Curate keyphrases and construct GraphEx; train the five baselines on
   the click data.
4. Sample test items, collect ≤40 predictions per model per item.
5. Judge relevance, split head/tail at the category's P90 search count,
   compute every metric in Tables III-V and Figure 4.

Everything is cached on the :class:`Experiment` so all benches can share
one simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from ..baselines import (
    FastTextLike,
    Graphite,
    KeyphraseRecommender,
    Prediction,
    RulesEngine,
    SLEmb,
    SLQuery,
    TrainingData,
)
from ..core.curation import CurationConfig, curate
from ..core.model import GraphExModel
from ..core.tokenize import DEFAULT_TOKENIZER, Tokenizer
from ..data.catalog import Item
from ..data.generator import DEFAULT_PROFILE, Dataset, DatasetProfile, generate_dataset
from ..search.logs import SearchLog
from ..search.sessions import SessionSimulator
from .judge import OracleJudge, RelevanceJudge
from .metrics import (
    HeadClassifier,
    JudgedPredictions,
    judge_model_predictions,
)


class GraphExRecommender(KeyphraseRecommender):
    """Adapter exposing :class:`GraphExModel` through the shared interface.

    Production GraphEx generates "a predetermined number of keyphrases
    (10-20)" per item (Section III-F): candidate groups are pruned at
    ``k`` and the ranked output is capped at ``2 * k``, so the threshold
    group may spill past ``k`` but never floods the budget.
    """

    name = "GraphEx"

    def __init__(self, model: GraphExModel, k: int = 10) -> None:
        self._model = model
        self._k = k

    @property
    def model(self) -> GraphExModel:
        """The wrapped GraphEx model."""
        return self._model

    def recommend(self, item_id: int, title: str, leaf_id: int,
                  k: int = 20) -> List[Prediction]:
        recs = self._model.recommend(
            title, leaf_id, k=self._k, hard_limit=min(k, 2 * self._k))
        return [Prediction(text=r.text, score=r.score) for r in recs]


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs of one experiment run.

    The search-count curation thresholds are scaled to simulation volume:
    the paper's "once per day over six months" (180) maps to a much
    smaller absolute count here, preserving the head/tail semantics.
    """

    profile: DatasetProfile = DEFAULT_PROFILE
    n_train_events: int = 400_000
    n_test_events: int = 40_000
    curation: CurationConfig = field(default_factory=lambda: CurationConfig(
        min_search_count=12, min_keyphrases=300, floor_search_count=2))
    test_items_per_meta: Mapping[str, int] = field(
        default_factory=lambda: {"CAT_1": 300, "CAT_2": 150, "CAT_3": 80})
    prediction_limit: int = 40
    graphex_k: int = 10
    seed: int = 43


class Experiment:
    """One fully-simulated reproduction run over all meta categories."""

    def __init__(self, config: Optional[ExperimentConfig] = None) -> None:
        self.config = config or ExperimentConfig()
        self._prepared = False
        self.dataset: Optional[Dataset] = None
        self.train_log: Optional[SearchLog] = None
        self.test_log: Optional[SearchLog] = None
        self._judge: Optional[RelevanceJudge] = None
        self._training_data: Dict[str, TrainingData] = {}
        self._head: Dict[str, HeadClassifier] = {}
        self._test_items: Dict[str, List[Item]] = {}
        self._models: Dict[str, Dict[str, KeyphraseRecommender]] = {}
        self._predictions: Dict[str, Dict[str, Dict[int, List[str]]]] = {}
        self._judged: Dict[str, Dict[str, JudgedPredictions]] = {}

    # ------------------------------------------------------------------
    # Stage 1: simulation
    # ------------------------------------------------------------------
    def prepare(self) -> "Experiment":
        """Generate data and simulate the train/test windows (idempotent)."""
        if self._prepared:
            return self
        cfg = self.config
        self.dataset = generate_dataset(cfg.profile)
        simulator = SessionSimulator(
            self.dataset.catalog, self.dataset.queries, seed=cfg.seed)
        self.train_log = simulator.run_training_window(cfg.n_train_events)
        self.test_log = simulator.run_test_window(cfg.n_test_events)
        self._judge = OracleJudge(self.dataset.catalog)
        self._prepared = True
        return self

    @property
    def judge(self) -> RelevanceJudge:
        """The oracle relevance judge for this run."""
        self.prepare()
        return self._judge

    def _leaf_ids_of(self, meta: str) -> List[int]:
        return [leaf.leaf_id
                for leaf in self.dataset.catalog.tree.leaves_of(meta)]

    # ------------------------------------------------------------------
    # Stage 2: per-meta training inputs
    # ------------------------------------------------------------------
    def training_data(self, meta: str) -> TrainingData:
        """Click-based training data for one meta category (cached)."""
        self.prepare()
        cached = self._training_data.get(meta)
        if cached is not None:
            return cached
        leaf_ids = set(self._leaf_ids_of(meta))
        items = [(it.item_id, it.title, it.leaf_id)
                 for it in self.dataset.catalog.items_in_meta(meta)]
        item_ids = {item_id for item_id, _t, _l in items}
        click_pairs = {
            item_id: queries
            for item_id, queries in self.train_log.item_query_pairs().items()
            if item_id in item_ids
        }
        query_leaf = {
            text: leaf_id
            for (leaf_id, text) in self.train_log.search_counts
            if leaf_id in leaf_ids
        }
        data = TrainingData(items=items, click_pairs=click_pairs,
                            query_leaf=query_leaf)
        self._training_data[meta] = data
        return data

    def keyphrase_stats(self, meta: str):
        """Training-window keyphrase stats restricted to one meta."""
        self.prepare()
        leaf_ids = set(self._leaf_ids_of(meta))
        return [stat for stat in self.train_log.keyphrase_stats()
                if stat.leaf_id in leaf_ids]

    def head_classifier(self, meta: str) -> HeadClassifier:
        """P90 head/tail classifier from *test-window* search counts."""
        self.prepare()
        cached = self._head.get(meta)
        if cached is not None:
            return cached
        leaf_ids = set(self._leaf_ids_of(meta))
        counts: Dict[str, int] = {}
        for (leaf_id, text), count in self.test_log.search_counts.items():
            if leaf_id in leaf_ids:
                counts[text] = counts.get(text, 0) + count
        classifier = HeadClassifier(counts)
        self._head[meta] = classifier
        return classifier

    def test_items(self, meta: str) -> List[Item]:
        """Deterministic test-item sample for one meta category.

        Sampling is weighted by product search demand: the paper samples
        from *actively listed* items, and active listings skew toward
        products buyers actually search for.
        """
        self.prepare()
        cached = self._test_items.get(meta)
        if cached is not None:
            return cached
        catalog = self.dataset.catalog
        items = catalog.items_in_meta(meta)
        n = min(self.config.test_items_per_meta.get(meta, 100), len(items))
        demand: Dict[int, float] = {}
        for query in self.dataset.queries:
            demand[query.origin_product_id] = (
                demand.get(query.origin_product_id, 0.0) + query.weight)
        weights = np.array(
            [demand.get(catalog.item(it.item_id).product_id, 0.0) + 1e-9
             for it in items])
        rng = np.random.default_rng(self.config.seed + 1000)
        picked = rng.choice(len(items), size=n, replace=False,
                            p=weights / weights.sum())
        sample = [items[i] for i in sorted(picked)]
        self._test_items[meta] = sample
        return sample

    # ------------------------------------------------------------------
    # Stage 3: models
    # ------------------------------------------------------------------
    def build_graphex(self, meta: str, alignment: str = "lta",
                      curation: Optional[CurationConfig] = None,
                      tokenizer: Tokenizer = DEFAULT_TOKENIZER
                      ) -> GraphExRecommender:
        """Curate and construct a GraphEx model for one meta category."""
        self.prepare()
        curated = curate(self.keyphrase_stats(meta),
                         curation or self.config.curation)
        model = GraphExModel.construct(
            curated, tokenizer=tokenizer, alignment=alignment)
        return GraphExRecommender(model, k=self.config.graphex_k)

    def models(self, meta: str) -> Dict[str, KeyphraseRecommender]:
        """All six recommenders for one meta category (cached)."""
        self.prepare()
        cached = self._models.get(meta)
        if cached is not None:
            return cached
        data = self.training_data(meta)
        built: Dict[str, KeyphraseRecommender] = {
            "GraphEx": self.build_graphex(meta),
            "RE": RulesEngine(self.train_log),
            "SL-query": SLQuery(data),
            "SL-emb": SLEmb(data),
            "fastText": FastTextLike(data),
            "Graphite": Graphite(data),
        }
        self._models[meta] = built
        return built

    # ------------------------------------------------------------------
    # Stage 4: predictions + judging
    # ------------------------------------------------------------------
    def predictions(self, meta: str) -> Dict[str, Dict[int, List[str]]]:
        """model name → item_id → ≤limit predicted texts (cached)."""
        cached = self._predictions.get(meta)
        if cached is not None:
            return cached
        models = self.models(meta)
        items = self.test_items(meta)
        limit = self.config.prediction_limit
        out: Dict[str, Dict[int, List[str]]] = {}
        for name, model in models.items():
            per_item: Dict[int, List[str]] = {}
            for item in items:
                preds = model.recommend(
                    item.item_id, item.title, item.leaf_id, k=limit)
                per_item[item.item_id] = [p.text for p in preds]
            out[name] = per_item
        self._predictions[meta] = out
        return out

    def judged(self, meta: str) -> Dict[str, JudgedPredictions]:
        """model name → judged predictions (cached)."""
        cached = self._judged.get(meta)
        if cached is not None:
            return cached
        titles = {item.item_id: item.title for item in self.test_items(meta)}
        head = self.head_classifier(meta)
        out = {
            name: judge_model_predictions(
                name, preds, titles, self.judge, head)
            for name, preds in self.predictions(meta).items()
        }
        self._judged[meta] = out
        return out

    def rules_engine(self, meta: str) -> RulesEngine:
        """The RE model (Table V ground-truth source)."""
        return self.models(meta)["RE"]

    @property
    def metas(self) -> List[str]:
        """Meta categories in this experiment."""
        self.prepare()
        return self.dataset.metas
