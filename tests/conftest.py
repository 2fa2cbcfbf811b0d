"""Shared fixtures: the paper's Figure 3 example and a tiny simulated world.

Session-scoped fixtures keep the suite fast: the tiny dataset and its
search log are simulated once and shared read-only across test modules.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from repro.core.curation import CuratedKeyphrases, CuratedLeaf, CurationConfig
from repro.core.model import GraphExModel
from repro.data import TINY_PROFILE, generate_dataset
from repro.search import SessionSimulator
from repro.serving import KeyValueStore

settings.register_profile(
    "fast", max_examples=25,
    suppress_health_check=[HealthCheck.too_slow], deadline=None)
#: ``--hypothesis-profile deep``: CI's second pass over the fast engine's
#: and the fast builder's equivalence properties, each drawn at least
#: this often (see :func:`examples`).
settings.register_profile(
    "deep", parent=settings.get_profile("fast"), max_examples=250)
# Only over hypothesis's own default: a test module imports this one
# again by name (``from tests.conftest import ...``), and reloading
# "fast" then undid ``--hypothesis-profile deep``.
if settings.default is settings.get_profile("default"):
    settings.load_profile("fast")


def examples(n):
    """``n`` examples under tier-1's ``fast`` hypothesis profile; under
    a deeper one (``--hypothesis-profile deep``) its budget, if larger,
    so that every equivalence property that asks is drawn deeper."""
    budget = settings.default.max_examples
    if budget <= settings.get_profile("fast").max_examples:
        return n
    return max(n, budget)


#: Figure 3 of the paper: (keyphrase, search count, recall count).
#: Search counts are chosen so the illustrated search-volume ranking holds.
FIG3_KEYPHRASES = [
    ("audeze maxwell", 500, 40),
    ("audeze headphones", 400, 120),
    ("gaming headphones xbox", 900, 300),
    ("wireless headphones xbox", 700, 260),
    ("bluetooth wireless headphones", 800, 350),
]

#: The worked inference example of Section III-E1.
FIG3_TITLE = "audeze maxwell gaming headphones for xbox"
FIG3_LEAF_ID = 100


class FlakyStore(KeyValueStore):
    """A KV store whose method named by ``fail_on`` raises ``error``
    once, at the moment a writer reaches for it through the instance."""

    fail_on = None
    error = OSError

    def __getattribute__(self, name):
        if name == object.__getattribute__(self, "fail_on"):
            self.fail_on = None
            raise object.__getattribute__(self, "error")(
                f"kv outage in {name}")
        return object.__getattribute__(self, name)


def malformed_artifact(model: GraphExModel, directory):
    """``model`` saved to ``directory``, then its header's tokenizer
    spec damaged (``"stem": "no"``): an artifact every opener refuses
    by name."""
    from repro.core.serialization import save_model

    meta = save_model(model, directory) / "model.json"
    meta.write_text(meta.read_text("utf-8").replace(
        '"stem": false', '"stem": "no"'), "utf-8")
    return meta.parent


def open_saved(model: GraphExModel, directory) -> GraphExModel:
    """``model`` saved to ``directory`` and opened mapped: the kind of
    model a fleet takes (it ships the artifact's directory)."""
    from repro.core.serialization import open_model, save_model

    return open_model(save_model(model, directory))


def assert_graphs_identical(a, b):
    """Bit-identity of two leaf graphs: vocabulary dicts (words, ids
    and insertion order), CSR arrays and label columns, dtypes
    included."""
    assert b.leaf_id == a.leaf_id
    assert list(b.word_vocab.items()) == list(a.word_vocab.items())
    assert b.graph.n_right == a.graph.n_right
    assert list(b.label_texts) == list(a.label_texts)
    for x, y in ((a.graph.indptr, b.graph.indptr),
                 (a.graph.indices, b.graph.indices),
                 (a.label_lengths, b.label_lengths),
                 (a.search_counts, b.search_counts),
                 (a.recall_counts, b.recall_counts)):
        assert np.array_equal(x, y) and x.dtype == y.dtype


def assert_models_identical(a, b):
    """Same leaves, same pooled graph or none, each graph bit-identical."""
    assert b.leaf_ids == a.leaf_ids
    for leaf_id in a.leaf_ids:
        assert_graphs_identical(a.leaf_graph(leaf_id),
                                b.leaf_graph(leaf_id))
    assert (a.pooled_graph is None) == (b.pooled_graph is None)
    if a.pooled_graph is not None:
        assert_graphs_identical(a.pooled_graph, b.pooled_graph)


def build_fig3_curated() -> CuratedKeyphrases:
    """The Figure 3 keyphrase set as a curation output."""
    leaf = CuratedLeaf(leaf_id=FIG3_LEAF_ID)
    for text, search, recall in FIG3_KEYPHRASES:
        leaf.add(text, search, recall)
    return CuratedKeyphrases(
        leaves={FIG3_LEAF_ID: leaf},
        effective_threshold=1,
        config=CurationConfig(min_search_count=1),
    )


@pytest.fixture(scope="session")
def fig3_curated() -> CuratedKeyphrases:
    """Curated keyphrases of the Figure 3 illustration."""
    return build_fig3_curated()


@pytest.fixture(scope="session")
def fig3_model(fig3_curated) -> GraphExModel:
    """GraphEx model constructed from the Figure 3 keyphrases."""
    return GraphExModel.construct(fig3_curated)


def build_fig3_variant_curated() -> CuratedKeyphrases:
    """A "day 2" variant of the Figure 3 world: one keyphrase gained
    traction overnight.  Its model serves *different* output for the
    Figure 3 title than the base model, so hot-swap tests can tell
    which model produced a given result."""
    leaf = CuratedLeaf(leaf_id=FIG3_LEAF_ID)
    for text, search, recall in FIG3_KEYPHRASES:
        leaf.add(text, search, recall)
    leaf.add("gaming headphones", 950, 320)
    return CuratedKeyphrases(
        leaves={FIG3_LEAF_ID: leaf},
        effective_threshold=1,
        config=CurationConfig(min_search_count=1),
    )


@pytest.fixture(scope="session")
def fig3_variant_model() -> GraphExModel:
    """The refreshed "day 2" model of :func:`build_fig3_variant_curated`."""
    return GraphExModel.construct(build_fig3_variant_curated())


@pytest.fixture(scope="session")
def tiny_dataset():
    """A small deterministic synthetic dataset (catalog + queries)."""
    return generate_dataset(TINY_PROFILE)


@pytest.fixture(scope="session")
def tiny_log(tiny_dataset):
    """A simulated training-window search log over the tiny dataset."""
    simulator = SessionSimulator(
        tiny_dataset.catalog, tiny_dataset.queries, seed=71)
    return simulator.run(20_000, day_start=1, day_end=180, rounds=3)


@pytest.fixture(scope="session")
def tiny_test_log(tiny_dataset, tiny_log):
    """A disjoint 15-day test-window log (shares nothing with tiny_log)."""
    simulator = SessionSimulator(
        tiny_dataset.catalog, tiny_dataset.queries, seed=72)
    return simulator.run(4_000, day_start=181, day_end=195, rounds=1)


@pytest.fixture(scope="session")
def tiny_curated(tiny_log):
    """Curated keyphrases from the tiny log."""
    from repro.core.curation import curate
    return curate(tiny_log.keyphrase_stats(),
                  CurationConfig(min_search_count=3, min_keyphrases=50,
                                 floor_search_count=2))


@pytest.fixture(scope="session")
def tiny_model(tiny_curated) -> GraphExModel:
    """GraphEx model over the tiny world."""
    return GraphExModel.construct(tiny_curated)


@pytest.fixture(scope="session")
def fleet():
    """One localhost fleet of two worker processes for the whole
    session — the out-of-process substrate (``--workers N`` on the
    CLI), booted once rather than once per test.
    Tests that want their own metrics registry wrap its coordinator:
    ``ClusterExecutor(fleet.coordinator, metrics=...)``."""
    from repro.core.execution import ClusterExecutor

    with ClusterExecutor.local(2) as executor:
        yield executor
