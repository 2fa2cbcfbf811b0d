"""GraphEx reproduction: graph-based advertiser keyphrase recommendation.

Reproduces *GraphEx: A Graph-Based Extraction Method for Advertiser
Keyphrase Recommendation* (ICDE 2025) end to end: the GraphEx model
(``repro.core``), a synthetic e-commerce substrate standing in for eBay's
proprietary data (``repro.data``, ``repro.search``), the five production
baselines it is compared against (``repro.baselines``), the bias-aware
evaluation framework (``repro.eval``) and the batch/NRT serving
architecture (``repro.serving``).

Quickstart::

    from repro import generate_dataset, SessionSimulator
    from repro import curate, CurationConfig, GraphExModel

    dataset = generate_dataset()
    sim = SessionSimulator(dataset.catalog, dataset.queries)
    log = sim.run_training_window(n_events=50_000)
    curated = curate(log.keyphrase_stats(), CurationConfig(min_search_count=20))
    model = GraphExModel.construct(curated)
    item = dataset.catalog.items[0]
    for rec in model.recommend(item.title, item.leaf_id, k=10):
        print(rec.text, rec.score)
"""

from .core import (
    ALIGNMENTS,
    CSRGraph,
    ClusterExecutor,
    CuratedKeyphrases,
    CurationConfig,
    Executor,
    GraphExModel,
    Recommendation,
    ShardPlan,
    SpaceTokenizer,
    resolve_executor,
    batch_recommend,
    curate,
    fast_curate,
    head_threshold,
    jac,
    load_model,
    lta,
    model_size_bytes,
    save_model,
    wmr,
)
from .data import (
    DEFAULT_PROFILE,
    TINY_PROFILE,
    Catalog,
    Dataset,
    DatasetProfile,
    Item,
    Query,
    QueryUniverse,
    generate_dataset,
)
from .search import (
    ClickModel,
    SearchEngine,
    SearchLog,
    SessionSimulator,
    click_sparsity,
)

__version__ = "1.0.0"

__all__ = [
    "ALIGNMENTS",
    "CSRGraph",
    "ClusterExecutor",
    "CuratedKeyphrases",
    "CurationConfig",
    "Executor",
    "GraphExModel",
    "resolve_executor",
    "Recommendation",
    "ShardPlan",
    "SpaceTokenizer",
    "batch_recommend",
    "curate",
    "fast_curate",
    "head_threshold",
    "jac",
    "load_model",
    "lta",
    "model_size_bytes",
    "save_model",
    "wmr",
    "Catalog",
    "Dataset",
    "DatasetProfile",
    "DEFAULT_PROFILE",
    "TINY_PROFILE",
    "Item",
    "Query",
    "QueryUniverse",
    "generate_dataset",
    "ClickModel",
    "SearchEngine",
    "SearchLog",
    "SessionSimulator",
    "click_sparsity",
    "__version__",
]
