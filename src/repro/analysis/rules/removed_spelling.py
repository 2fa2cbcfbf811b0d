"""removed-spelling: what a PR deleted stays deleted, from one table.

Each collapse PR removed names — an option, a frame type, a format, a
class — and pinned their absence with ``inspect.signature`` asserts in
the tests and a ``grep`` in CI.  This rule is those pins as data: a
spelling in :data:`REMOVED` may not come back as an identifier, a
keyword argument, a parameter or a string constant anywhere under
``repro`` but where its row says (comments and prose are not matched).
"""

from __future__ import annotations

import ast
import re
from typing import Iterable, Iterator, Tuple

from ..report import Violation
from .base import FileContext, Rule

__all__ = ["RemovedSpellingRule", "REMOVED"]

#: (spellings, where they may still appear, removed by).  A bare
#: ``name`` is any identifier or a whole string constant, ``name=`` only
#: a keyword argument or parameter, ``"text"`` only a string constant;
#: *where* is a regex for the start of ``module:Class.function.``.
NOWHERE = "(?!)"
REMOVED = [
    ("_get_with_depth get_event_loop", NOWHERE,
     "the 3.11 floor (the consumer's timed get runs in its own task)"),
    ("event_retained _submit_batch", NOWHERE,
     "one consumer loop (a drained batch is one _hand_off)"),
    ("Vocabulary from_interned", NOWHERE,
     "a plain vocabulary dict (word -> dense id, in id order)"),
    ('mmap= "--mmap"', NOWHERE, "one open mode"),
    ("next_generation _model_loaded_at", NOWHERE,
     "one served-model slot (ModelSlot.swap numbers and stamps a swap)"),
    ("InferenceJob ShardExecutionError run_inference_async", NOWHERE,
     "one fleet job (the coordinator's FleetJob cuts, ships and merges)"),
    ("replan", r"(?!repro\.core\.sharding:)",
     "one fleet job (orphaned keys are cut as ShardPlan(keys, n_live))"),
    ("POOLED_GROUP shard_costs", NOWHERE,
     "one request-to-graph grouping (a fleet plan cuts graph_order)"),
    ("balance", r"(?!repro\.core\.sharding:ShardPlan\.)",
     "one request-to-graph grouping (no LPT planner, no cost table)"),
    ("_prune_by_count_array", NOWHERE,
     "one static label order (the label id is the whole tie-break)"),
    ("parse_waivers Waiver META_RULE_IDS CALLER_LOCKED_RULE merge_rule_ids "
     'from_arrays "waiver-syntax" "waiver-unused" "n_waived"', NOWHERE,
     "a lint gate with no mute button (every finding gates)"),
    ('_check_fleet _runners n_remote_deployed cluster= '
     '"refresh.deploy_remote"', NOWHERE,
     "one deploy path (every refresh persists, maps and swaps an "
     "artifact; a worker keeps one open)"),
    ('StringTable _LazyStringPool _POOL_CHAR_OFFSETS "pool/char_offsets"',
     NOWHERE, "one string pool (format 5 has no codepoint offsets)"),
    ("_spooled _model_spool", NOWHERE, "a fleet takes models by artifact"),
    ("_run_chunk materialise_ranked ranked_owners", NOWHERE,
     "one result route (run_ranked, then one materialise)"),
    ("TextResult validate_hard_limit texts=", NOWHERE,
     "rows built on read (a RowView's .texts() is the text exit)"),
    ("EXECUTOR_NAMES supports_reference fast_batch_recommend", NOWHERE,
     "one fleet value (in process a batch is one engine call)"),
    ("_cli_executor _close_executor _add_executor_options oracle_option",
     NOWHERE, "one fleet value (a fleet is a with block over local(N))"),
    ('"--executor" "--spawn-workers"', NOWHERE,
     "one fleet value (the CLI says --workers N)"),
    ("_first_occurrence_ids _pack_leaf", NOWHERE,
     "one interning pass (vocab.intern_strings) per string stream"),
    ("ConstructionJob build_shard_bundle merge_bundle save_leaf_graphs "
     "load_leaf_graphs pack_curated_leaves unpack_curated_leaves "
     "run_construction_async for_construction construction_proxy "
     '_run_construction_shard "leaf-bundle" "--spool"', NOWHERE,
     "the inference-only fleet (no fleet construction, no leaf bundle)"),
    ("run_construction", r"repro\.core\.execution:SerialExecutor\."
                         r"|repro\.core\.model:GraphExModel\.construct\.",
     "the inference-only fleet (models build in process only)"),
    ("call_async _WorkerDied _Assignment _run_unit _execute_units "
     "_monitor_heartbeats _state_changed", NOWHERE,
     "the sans-I/O scheduler (one timer, no per-unit task or future)"),
    ("_alignment_is_vectorized token_wise unique_ids pack_tokenizer "
     "unpack_tokenizer fast_construct_leaf_graphs", NOWHERE,
     "the typed model spec: an alignment name and a SpaceTokenizer"),
    ("_locked", r"(?!repro\.serving\.async_front:)",
     "the one flush lane (the store lock is transaction()'s alone)"),
    ("transaction_lock _store_locks flush_executor "
     'validate_model_for_engine differential_update "--parallel"',
     NOWHERE, "PR 24"),
    ("engine= builder=", r"(?!repro\.serving\.)",
     "PR 24 (serving runs the fast engine and builder only)"),
    ("distribute push= _push_artifact model_artifact artifact_begin "
     "artifact_file artifact_chunk artifact_file_end artifact_end "
     '"ping" unpack_metrics_snapshot arrays.npz SUPPORTED_FORMATS '
     "model_format_version", NOWHERE, "PR 22"),
    ("to_json from_json", r"repro\.analysis\.", "PR 22 (ShardPlan's)"),
    ('"thread" start_method ThreadShardExecutor ProcessShardExecutor '
     "_unwrap_shard_future ShardWorkerError", NOWHERE, "PR 21"),
    ("workers=", r"repro\.cli:|repro\.core\.execution:ClusterExecutor"
                 r"\.local\.", "PR 21"),
    ("_run_inference_shard", r"repro\.cluster\.worker:ClusterWorker\.",
     "PR 21 (the pool's entry point of that name)"),
    ("ThreadPoolExecutor ProcessPoolExecutor multiprocessing",
     r"(?!repro\.core\.)", "PR 21 (no pool under repro.core)"),
    ("dense_limit", NOWHERE, "PR 20"),
    ("token_state", NOWHERE, "PR 19"),
    ("cost_model CostModel plan_rebalance_gain observe_spread "
     "n_cost_observations rebalance_gain format_version=", NOWHERE, "PR 16"),
    ("parallel validate_parallel", NOWHERE, "PR 14"),
]
_ROWS = {form: row[1:] for row in REMOVED for form in row[0].split()}


def _spelled(node: ast.AST, scope: str) -> Iterator[Tuple[str, ast.AST, str]]:
    """``(form, node, scope)`` of everything under ``node`` a row matches."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            inner = f"{scope}{child.name}."
        # Whichever identifier fields the node has (dotted imports in parts).
        forms = [part for field in ("id", "attr", "name", "asname", "module")
                 for part in (getattr(child, field, None) or "").split(".")]
        if isinstance(child, (ast.keyword, ast.arg)) and child.arg:
            forms = [child.arg, child.arg + "="]
        elif isinstance(child, ast.Constant) and isinstance(child.value, str):
            forms = [child.value, f'"{child.value}"']
        for form in forms:
            yield form, child, inner
        yield from _spelled(child, inner)


class RemovedSpellingRule(Rule):
    id = "removed-spelling"
    description = ("a name, keyword or string a collapse PR deleted "
                   "(the REMOVED table) is back")

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.module != __name__      # the table spells them all

    def check(self, ctx: FileContext) -> Iterable[Violation]:
        for form, node, scope in _spelled(ctx.tree, ctx.module + ":"):
            where, pr = _ROWS.get(form, (None, None))
            if pr and not re.match(where, scope):
                yield self.violation(
                    ctx, node, f"removed spelling {form} is back "
                               f"(deleted by {pr}; see REMOVED)")
