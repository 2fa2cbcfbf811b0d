"""Graphite: the predecessor graph-based XMC tagger (paper [6]).

Graphite "uses bipartite graphs to map words/tokens to the data points and
then map them to the labels associated with the data points".  It is an
XMC *tagging* model: unlike GraphEx it routes through click-labelled
training items, so it can only surface keyphrases that some similar item
was already clicked for — inheriting the click biases GraphEx avoids.
Candidates are ranked with the Word Match Ratio (``WMR = c / |l|``), the
alignment function the GraphEx ablation compares LTA against (Table VI).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

from ..core.csr import CSRGraph
from ..core.tokenize import DEFAULT_TOKENIZER, Tokenizer
from .base import KeyphraseRecommender, Prediction, TrainingData


class Graphite(KeyphraseRecommender):
    """Word→item→label bipartite mapping with WMR ranking.

    Args:
        data: Click-based training data (items with labels are indexed).
        max_items_matched: Cap on matched training items per inference
            (Graphite prunes item candidates the same group-wise way
            GraphEx prunes labels).
        min_wmr: Minimum Word Match Ratio for a label to be emitted
            (production Graphite keeps only well-aligned labels, which is
            why its per-item prediction count in Figure 4 is small).
        budget: The model's own configured prediction budget per item.
        tokenizer: Tokenizer for titles and labels.
    """

    name = "Graphite"

    def __init__(self, data: TrainingData, max_items_matched: int = 50,
                 min_wmr: float = 0.25, budget: int = 10,
                 tokenizer: Tokenizer = DEFAULT_TOKENIZER) -> None:
        self._tokenizer = tokenizer
        self._max_items = max_items_matched
        self._min_wmr = min_wmr
        self._budget = budget

        self._word_vocab: Dict[str, int] = {}
        self._labels: List[str] = []
        label_ids: Dict[str, int] = {}
        self._label_token_sets: List[Set[str]] = []

        word_item_edges: List[Tuple[int, int]] = []
        item_label_edges: List[Tuple[int, int]] = []
        indexed = 0
        for item_id, title, _leaf in data.items:
            labels = data.click_pairs.get(item_id)
            if not labels:
                continue
            row = indexed
            indexed += 1
            for token in set(tokenizer(title)):
                word_item_edges.append((self._word_vocab.setdefault(
                    token, len(self._word_vocab)), row))
            for query in labels:
                label_id = label_ids.get(query)
                if label_id is None:
                    label_id = len(self._labels)
                    label_ids[query] = label_id
                    self._labels.append(query)
                    self._label_token_sets.append(set(tokenizer(query)))
                item_label_edges.append((row, label_id))

        self._n_items = indexed
        self._word_item = CSRGraph.from_edges(
            word_item_edges, n_left=max(1, len(self._word_vocab)),
            n_right=max(1, indexed))
        self._item_label = CSRGraph.from_edges(
            item_label_edges, n_left=max(1, indexed),
            n_right=max(1, len(self._labels)))
        self._label_lengths = np.array(
            [max(1, len(s)) for s in self._label_token_sets] or [1],
            dtype=np.int64)

    @property
    def n_labels(self) -> int:
        """Size of the label space."""
        return len(self._labels)

    def memory_bytes(self) -> int:
        """CSR arrays plus label strings (Figure 6b sizing)."""
        strings = sum(len(label) for label in self._labels)
        words = sum(len(w) for w in self._word_vocab)
        return (self._word_item.memory_bytes()
                + self._item_label.memory_bytes() + strings + words)

    def recommend(self, item_id: int, title: str, leaf_id: int,
                  k: int = 20) -> List[Prediction]:
        """Title tokens → matching training items → their labels → WMR rank."""
        if self._n_items == 0 or not self._labels:
            return []
        tokens = list(dict.fromkeys(self._tokenizer(title)))
        matched_lists = []
        for token in tokens:
            word_id = self._word_vocab.get(token)
            if word_id is None:
                continue
            adjacency = self._word_item.neighbors(word_id)
            if len(adjacency):
                matched_lists.append(adjacency)
        if not matched_lists:
            return []
        candidates = np.concatenate(matched_lists)
        items, match_counts = np.unique(candidates, return_counts=True)
        if len(items) > self._max_items:
            order = np.argsort(-match_counts, kind="stable")
            cutoff = match_counts[order[self._max_items - 1]]
            mask = match_counts >= cutoff
            items = items[mask]

        label_lists = [self._item_label.neighbors(int(row)) for row in items]
        label_lists = [adj for adj in label_lists if len(adj)]
        if not label_lists:
            return []
        label_ids = np.unique(np.concatenate(label_lists))

        title_set = set(tokens)
        common = np.array(
            [len(self._label_token_sets[i] & title_set) for i in label_ids],
            dtype=np.float64)
        wmr = common / self._label_lengths[label_ids]
        keep = wmr >= self._min_wmr
        label_ids, wmr = label_ids[keep], wmr[keep]
        order = np.lexsort((label_ids, -wmr))
        return [Prediction(text=self._labels[int(label_ids[i])],
                           score=float(wmr[i]))
                for i in order[:min(k, self._budget)]]
