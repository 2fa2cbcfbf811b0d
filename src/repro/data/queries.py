"""Buyer query universe with Zipf-skewed search popularity.

Queries ("keyphrases" in the paper) are generated from product populations
per leaf category using templates that range from generic head queries
("gaming headphones") to specific tail queries ("audeze mx450").  Popularity
weights are Zipf-distributed within each template band so a small number of
head queries dominates search volume — the property GraphEx's curation
process (Section III-B) exploits.

A small fraction of *bogus* queries (misspelled / junk) is included with
weight ~1, motivating the Search-Count threshold ablation of Table VII.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from .catalog import Catalog, Product
from .lexicon import MetaLexicon

#: Tokens that carry no product meaning and are dropped from query templates.
QUERY_STOPWORDS = frozenset({"for", "with", "the", "a", "of", "in", "and"})


@dataclass(frozen=True)
class Query:
    """One buyer search query.

    Attributes:
        text: The query string (space-delimited tokens).
        leaf_id: Leaf category Cassini attributes this query to (the paper:
            leaf of the top-ranked item; here: the leaf it was generated
            from, which the search substrate reproduces).
        weight: Relative search popularity; buyer sessions sample queries
            proportionally to weight, producing the observed Search Count.
        origin_product_id: Product the query was templated from (0 for
            generic/bogus queries).  Diagnostic only — never exposed to
            models.
    """

    text: str
    leaf_id: int
    weight: float
    origin_product_id: int = 0

    @property
    def tokens(self) -> List[str]:
        """Space-delimited tokens of the query."""
        return self.text.split()


def _clean(tokens: Sequence[str]) -> Tuple[str, ...]:
    """Drop stopwords and collapse duplicates while preserving order."""
    seen = set()
    out: List[str] = []
    for token in tokens:
        if token in QUERY_STOPWORDS or token in seen:
            continue
        seen.add(token)
        out.append(token)
    return tuple(out)


def _templates_for(product: Product) -> List[Tuple[Tuple[str, ...], float]]:
    """Query templates for one product with head/tail base weights.

    Returns ``(tokens, base_weight)`` pairs; larger base weight means the
    template sits closer to the head of the search distribution.
    """
    ptype = product.ptype
    head_noun = (ptype[-1],)
    attr_values = list(product.attrs.values())
    templates: List[Tuple[Tuple[str, ...], float]] = [
        (head_noun, 100.0),
        (ptype, 60.0),
        ((product.brand,) + head_noun, 25.0),
        ((product.brand,) + ptype, 18.0),
    ]
    for value in attr_values:
        templates.append((value + ptype, 10.0))
        templates.append((value + head_noun, 8.0))
        templates.append(((product.brand,) + value + head_noun, 4.0))
        templates.append(((product.brand,) + value + ptype, 2.0))
    if product.compatibles:
        compat = product.compatibles[0]
        templates.append((ptype + (compat,), 12.0))
        templates.append((head_noun + (compat,), 9.0))
        templates.append(((product.brand,) + ptype + (compat,), 3.0))
        if attr_values:
            templates.append((attr_values[0] + ptype + (compat,), 2.0))
    for first, second in zip(attr_values, attr_values[1:]):
        templates.append((first + second + head_noun, 2.5))
        templates.append((first + second + ptype, 1.5))
        templates.append(((product.brand,) + first + second + head_noun, 1.0))
    if len(attr_values) >= 3:
        templates.append(
            (attr_values[0] + attr_values[1] + attr_values[2] + head_noun,
             1.0))
    # Model-number queries: specific but searched daily for active
    # products (buyers paste model codes into search).
    templates.append(((product.brand, product.model), 6.0))
    templates.append(((product.brand, product.model) + head_noun, 4.0))
    templates.append(((product.model,) + head_noun, 2.0))
    return [(_clean(tokens), base) for tokens, base in templates]


def _bogus_queries(rng: np.random.Generator, leaf_id: int,
                   sample_tokens: Sequence[str], count: int) -> List[Query]:
    """Junk queries: typo'd or scrambled token mixes with weight ~1."""
    out: List[Query] = []
    vocab = list(dict.fromkeys(sample_tokens))
    if not vocab:
        return out
    for _ in range(count):
        k = int(rng.integers(1, 3))
        picked = [str(rng.choice(vocab)) for _ in range(k)]
        token = picked[0]
        if len(token) > 3 and rng.random() < 0.6:
            # Introduce a deletion typo so the query matches nothing.
            cut = int(rng.integers(1, len(token) - 1))
            picked[0] = token[:cut] + token[cut + 1:]
        text = " ".join(dict.fromkeys(picked))
        out.append(Query(text=text, leaf_id=leaf_id, weight=1.0))
    return out


class QueryUniverse:
    """All queries buyers may search, grouped by leaf and meta category."""

    def __init__(self, queries: Sequence[Query],
                 meta_of_leaf: Dict[int, str]) -> None:
        self._queries = list(queries)
        self._meta_of_leaf = dict(meta_of_leaf)
        self._by_leaf: Dict[int, List[Query]] = {}
        for query in self._queries:
            self._by_leaf.setdefault(query.leaf_id, []).append(query)

    def __len__(self) -> int:
        return len(self._queries)

    def __iter__(self) -> Iterator[Query]:
        return iter(self._queries)

    def in_leaf(self, leaf_id: int) -> List[Query]:
        """Queries attributed to one leaf category."""
        return list(self._by_leaf.get(leaf_id, []))

    def in_meta(self, meta: str) -> List[Query]:
        """Queries attributed to any leaf of one meta category."""
        return [q for q in self._queries
                if self._meta_of_leaf.get(q.leaf_id) == meta]

    def meta_of_leaf(self, leaf_id: int) -> str:
        """Meta category that owns the given leaf."""
        return self._meta_of_leaf[leaf_id]


def build_query_universe(catalog: Catalog,
                         metas: Sequence[MetaLexicon],
                         seed: int = 11,
                         bogus_fraction: float = 0.12,
                         zipf_exponent: float = 1.1) -> QueryUniverse:
    """Generate the buyer query universe for a catalog.

    Args:
        catalog: The synthetic catalog to derive queries from.
        metas: Meta lexicons (used only for leaf enumeration).
        seed: RNG seed.
        bogus_fraction: Fraction of extra junk queries per leaf.
        zipf_exponent: Skew of the within-template popularity multiplier;
            larger values concentrate more volume in the head.

    Returns:
        A :class:`QueryUniverse` with de-duplicated queries whose weights
        sum popularity contributions from every product that generated them.
    """
    rng = np.random.default_rng(seed)
    meta_of_leaf = {leaf.leaf_id: leaf.meta for leaf in catalog.tree}
    merged: Dict[Tuple[int, str], Dict[str, float]] = {}

    products_by_leaf: Dict[int, List[Product]] = {}
    for product in catalog.products:
        products_by_leaf.setdefault(product.leaf_id, []).append(product)

    # Heavy-tailed per-product demand: a few hot products dominate search
    # volume, so their specific queries clear curation thresholds while
    # accidental cross-product combinations do not.
    product_demand = {
        product.product_id: float(rng.pareto(zipf_exponent) + 0.25)
        for product in catalog.products
    }

    for leaf in catalog.tree:
        for product in products_by_leaf.get(leaf.leaf_id, []):
            demand = product_demand[product.product_id]
            for tokens, base in _templates_for(product):
                if not tokens:
                    continue
                text = " ".join(tokens)
                key = (leaf.leaf_id, text)
                # Zipf-style multiplier: heavy-tailed per-query popularity.
                multiplier = float(rng.pareto(zipf_exponent) + 1.0)
                entry = merged.setdefault(
                    key, {"weight": 0.0, "origin": product.product_id})
                entry["weight"] += base * multiplier * demand

    queries: List[Query] = []
    for (leaf_id, text), entry in merged.items():
        queries.append(Query(
            text=text,
            leaf_id=leaf_id,
            weight=entry["weight"],
            origin_product_id=int(entry["origin"]),
        ))

    # Bogus long-tail noise per leaf.
    for leaf in catalog.tree:
        leaf_queries = [q for q in queries if q.leaf_id == leaf.leaf_id]
        n_bogus = int(len(leaf_queries) * bogus_fraction)
        tokens: List[str] = []
        for query in leaf_queries[:50]:
            tokens.extend(query.tokens)
        queries.extend(
            _bogus_queries(rng, leaf.leaf_id, tokens, n_bogus))

    return QueryUniverse(queries, meta_of_leaf)
