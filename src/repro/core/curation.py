"""Keyphrase curation from search logs (paper Section III-B).

Curation aggregates unique keyphrases per meta category, grouped by leaf
category, each with a Search Count and Recall Count.  Crucially it never
looks at item-keyphrase click associations — that decoupling is what rids
GraphEx of the click biases (Challenge I-A2) — and it keeps only heavily
searched (head) keyphrases via the Search-Count threshold (Challenge
I-A1 / Table VII).

The paper eases the threshold for small categories "due to a lack of
enough keyphrases" (footnote 5); :class:`CurationConfig.min_keyphrases`
reproduces that relaxation.

Two interchangeable curation engines are provided, mirroring the
two-engine inference split:

* ``reference`` — :func:`curate`'s original scalar loop, which re-scans
  every stat per CAT-3 threshold halving.  It is the semantics
  reference.
* ``fast`` — :func:`fast_curate`, which ingests the stats once into
  structure-of-arrays form and applies the Search-Count threshold,
  token-length filter and CAT-3 relaxation as boolean-mask passes, then
  splits per leaf with one stable argsort.  Output is bit-identical
  (same leaf insertion order, same per-leaf keyphrase order, same
  effective threshold), pinned by ``tests/test_fast_construct.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..search.logs import KeyphraseStat

#: Interchangeable curation paths (scalar reference vs vectorized bulk).
CURATION_ENGINES = ("reference", "fast")


@dataclass(frozen=True)
class CurationConfig:
    """Knobs of the curation process.

    Attributes:
        min_search_count: Keep keyphrases searched at least this many times
            in the window.  The paper's ideal is once per day (180 over six
            months); at simulation scale the benches pass scaled values.
        min_keyphrases: If a curation yields fewer unique keyphrases than
            this, the threshold is repeatedly halved (down to
            ``floor_search_count``) until satisfied — the CAT 3 relaxation.
        floor_search_count: Lower bound the relaxation will not cross.
        max_tokens: Drop keyphrases longer than this many tokens.  The
            fast engine's per-chunk score-cell table grows with its
            square (``docs/INVARIANTS.md``, "Integer score ranks").
        min_tokens: Drop keyphrases shorter than this many tokens.
    """

    min_search_count: int = 180
    min_keyphrases: int = 0
    floor_search_count: int = 2
    max_tokens: int = 10
    min_tokens: int = 1


@dataclass
class CuratedLeaf:
    """Curated keyphrases of one leaf category, parallel-array style.

    ``token_counts[i]`` is ``len(texts[i].split())``, the whitespace
    token count the length filter reads.  :func:`fast_curate` hands
    over the counts it filtered on; a producer that passes none (the
    reference :func:`curate`, ``_pool_leaves``, a hand-built leaf, a
    curated file read back) has them derived here, once, and
    :meth:`add` keeps them in step.  The fast builder reads each
    label's token span from this column instead of splitting the label
    again, and refuses a leaf whose counts do not match its texts
    (:func:`~repro.core.fast_construct.build_leaf_graph_fast`).  A
    curated file does not hold the column.
    """

    leaf_id: int
    texts: List[str] = field(default_factory=list)
    search_counts: List[int] = field(default_factory=list)
    recall_counts: List[int] = field(default_factory=list)
    token_counts: Optional[List[int]] = None

    def __post_init__(self) -> None:
        if self.token_counts is None:
            self.token_counts = list(map(len, map(str.split, self.texts)))

    def __len__(self) -> int:
        return len(self.texts)

    def add(self, text: str, search_count: int, recall_count: int) -> None:
        """Append one keyphrase."""
        self.texts.append(text)
        self.search_counts.append(search_count)
        self.recall_counts.append(recall_count)
        self.token_counts.append(len(text.split()))


@dataclass
class CuratedKeyphrases:
    """Curation output: keyphrases grouped per leaf category.

    Attributes:
        leaves: Mapping from leaf id to :class:`CuratedLeaf`.
        effective_threshold: The Search-Count threshold actually applied
            (may be lower than requested after relaxation).
        config: The configuration used.
    """

    leaves: Dict[int, CuratedLeaf]
    effective_threshold: int
    config: CurationConfig

    @property
    def n_keyphrases(self) -> int:
        """Total curated keyphrases across all leaves (duplicates across
        leaves count separately, as in the paper)."""
        return sum(len(leaf) for leaf in self.leaves.values())

    @property
    def n_unique_texts(self) -> int:
        """Unique keyphrase strings across the whole meta category."""
        texts = set()
        for leaf in self.leaves.values():
            texts.update(leaf.texts)
        return len(texts)

    def leaf(self, leaf_id: int) -> Optional[CuratedLeaf]:
        """Curated keyphrases for one leaf, or None."""
        return self.leaves.get(leaf_id)


def _apply_threshold(stats: Sequence[KeyphraseStat], threshold: int,
                     config: CurationConfig) -> Dict[int, CuratedLeaf]:
    leaves: Dict[int, CuratedLeaf] = {}
    for stat in stats:
        if stat.search_count < threshold:
            continue
        n_tokens = len(stat.text.split())
        if not config.min_tokens <= n_tokens <= config.max_tokens:
            continue
        leaf = leaves.setdefault(stat.leaf_id, CuratedLeaf(stat.leaf_id))
        leaf.add(stat.text, stat.search_count, stat.recall_count)
    return leaves


def curate(stats: Iterable[KeyphraseStat],
           config: Optional[CurationConfig] = None,
           engine: str = "fast") -> CuratedKeyphrases:
    """Curate keyphrases from aggregated search-log statistics.

    Args:
        stats: Per-(keyphrase, leaf) stats, e.g. from
            :meth:`repro.search.logs.SearchLog.keyphrase_stats`.
        config: Curation knobs; defaults to :class:`CurationConfig`.
        engine: ``"fast"`` (default, matching the construct builder)
            dispatches to the vectorized :func:`fast_curate`;
            ``"reference"`` runs the scalar loop below, which is the
            semantics reference the equivalence suite checks against.
            Both are bit-identical.

    Returns:
        :class:`CuratedKeyphrases` with the effective threshold recorded.
    """
    if engine == "fast":
        return fast_curate(stats, config)
    if engine != "reference":
        raise ValueError(f"unknown curation engine {engine!r}; "
                         f"expected one of {CURATION_ENGINES}")
    config = config or CurationConfig()
    stat_list = list(stats)
    threshold = config.min_search_count
    leaves = _apply_threshold(stat_list, threshold, config)

    def total(ls: Dict[int, CuratedLeaf]) -> int:
        return sum(len(leaf) for leaf in ls.values())

    # CAT 3-style relaxation: halve the threshold until enough keyphrases.
    while (config.min_keyphrases
           and total(leaves) < config.min_keyphrases
           and threshold > config.floor_search_count):
        threshold = max(config.floor_search_count, threshold // 2)
        leaves = _apply_threshold(stat_list, threshold, config)

    return CuratedKeyphrases(
        leaves=leaves, effective_threshold=threshold, config=config)


def fast_curate(stats: Iterable[KeyphraseStat],
                config: Optional[CurationConfig] = None
                ) -> CuratedKeyphrases:
    """Vectorized curation, bit-identical to :func:`curate`.

    The stats are ingested once into structure-of-arrays form (texts,
    leaf ids, search/recall counts, and token counts from one C-level
    ``map(len, map(str.split, texts))``).  The token-length
    filter is threshold-independent, so it is computed once, and the
    survivors' counts become each leaf's ``token_counts``, by which the
    fast builder cuts its one split of the leaf.  Each CAT-3
    halving then costs one boolean-mask pass over the count array
    instead of a full Python re-scan of every stat.  The surviving rows
    are split per leaf after a single stable argsort, preserving both the
    scalar path's leaf insertion order (first surviving occurrence) and
    its per-leaf keyphrase order (stat order).
    """
    config = config or CurationConfig()
    stat_list = list(stats)
    n = len(stat_list)
    texts = [stat.text for stat in stat_list]
    leaf_ids = np.fromiter((stat.leaf_id for stat in stat_list),
                           dtype=np.int64, count=n)
    search = np.fromiter((stat.search_count for stat in stat_list),
                         dtype=np.int64, count=n)
    recall = np.fromiter((stat.recall_count for stat in stat_list),
                         dtype=np.int64, count=n)
    n_tokens = np.fromiter(map(len, map(str.split, texts)),
                           dtype=np.int64, count=n)
    len_ok = ((n_tokens >= config.min_tokens)
              & (n_tokens <= config.max_tokens))

    threshold = config.min_search_count
    mask = len_ok & (search >= threshold)
    while (config.min_keyphrases
           and int(mask.sum()) < config.min_keyphrases
           and threshold > config.floor_search_count):
        threshold = max(config.floor_search_count, threshold // 2)
        mask = len_ok & (search >= threshold)

    leaves: Dict[int, CuratedLeaf] = {}
    survivors = np.flatnonzero(mask)
    survivor_leaves = leaf_ids[survivors]
    unique_leaves, first_seen, sizes = np.unique(
        survivor_leaves, return_index=True, return_counts=True)
    groups = np.split(survivors[np.argsort(survivor_leaves, kind="stable")],
                      np.cumsum(sizes)[:-1])
    # Leaf dict keys in first-surviving-occurrence order, matching the
    # scalar setdefault loop (the pooled-graph merge iterates this
    # dict, so key order affects downstream bit-identity).
    for i in np.argsort(first_seen, kind="stable").tolist():
        rows, leaf_id = groups[i], int(unique_leaves[i])
        leaves[leaf_id] = CuratedLeaf(
            leaf_id, list(map(texts.__getitem__, rows.tolist())),
            search[rows].tolist(), recall[rows].tolist(),
            n_tokens[rows].tolist())
    return CuratedKeyphrases(
        leaves=leaves, effective_threshold=threshold, config=config)


def head_threshold(stats: Iterable[KeyphraseStat],
                   percentile: float = 90.0) -> float:
    """Search-count value at the given percentile of unique keyphrases.

    The evaluation framework (Section IV-C) labels a relevant keyphrase
    *head* when its search count exceeds the 90th percentile for the
    category, "ensuring 10% exceed this limit".  Computed with
    ``np.percentile`` (introselect, O(n)) under the same
    linear-interpolation semantics as the original sorted-rank formula.
    """
    counts = [stat.search_count for stat in stats]
    if not counts:
        return 0.0
    return float(np.percentile(counts, percentile))
