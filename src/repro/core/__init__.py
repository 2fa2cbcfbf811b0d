"""GraphEx core: curation, construction, inference, persistence."""

from .alignment import ALIGNMENTS, get_alignment, jac, lta, wmr
from .batch import ENGINES, batch_recommend
from .csr import CSRGraph
from .fast_construct import build_leaf_graph_fast
from .fast_inference import LeafBatchRunner
from .curation import (
    CURATION_ENGINES,
    CuratedKeyphrases,
    CuratedLeaf,
    CurationConfig,
    curate,
    fast_curate,
    head_threshold,
)
from .inference import (
    Recommendation,
    enumerate_candidates,
    prune_by_count_groups,
    rank_candidates,
    recommend_from_graph,
)
from .model import BUILDERS, GraphExModel, LeafGraph, build_leaf_graph
from .serialization import load_model, model_size_bytes, save_model
from .sharding import ShardPlan
from .execution import (
    ClusterExecutor,
    Executor,
    SerialExecutor,
    resolve_executor,
)
from .tokenize import (
    DEFAULT_TOKENIZER,
    STEMMING_TOKENIZER,
    SpaceTokenizer,
    TokenCache,
    light_stem,
    normalize_token,
)

__all__ = [
    "ALIGNMENTS",
    "get_alignment",
    "lta",
    "wmr",
    "jac",
    "ENGINES",
    "batch_recommend",
    "CSRGraph",
    "LeafBatchRunner",
    "BUILDERS",
    "build_leaf_graph_fast",
    "CURATION_ENGINES",
    "CurationConfig",
    "CuratedKeyphrases",
    "CuratedLeaf",
    "curate",
    "fast_curate",
    "head_threshold",
    "Recommendation",
    "enumerate_candidates",
    "prune_by_count_groups",
    "rank_candidates",
    "recommend_from_graph",
    "GraphExModel",
    "LeafGraph",
    "build_leaf_graph",
    "ShardPlan",
    "ClusterExecutor",
    "Executor",
    "SerialExecutor",
    "resolve_executor",
    "save_model",
    "load_model",
    "model_size_bytes",
    "SpaceTokenizer",
    "TokenCache",
    "DEFAULT_TOKENIZER",
    "STEMMING_TOKENIZER",
    "light_stem",
    "normalize_token",
]
