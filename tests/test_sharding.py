"""Unit tests for shard planning and for what ``--executor process``
means: a fleet of worker processes (the session ``fleet`` fixture).

The element-wise/bit-identity of the fleet against the scalar
references is pinned property-based in the engine equivalence suites
(``test_fast_inference.py``, ``test_fast_construct.py``); this module
covers the planning/merging machinery itself.
"""

from __future__ import annotations

import pytest

from repro.core.curation import CuratedKeyphrases, CuratedLeaf, CurationConfig
from repro.core.execution import SerialExecutor
from repro.core.fast_inference import LeafBatchRunner
from repro.core.model import GraphExModel
from repro.core.sharding import POOLED_GROUP, ShardPlan
from repro.core.tokenize import DEFAULT_TOKENIZER


def make_model(leaf_phrases, build_pooled=False):
    leaves = {}
    for leaf_id, phrases in leaf_phrases.items():
        leaf = CuratedLeaf(leaf_id=leaf_id)
        for text, search, recall in phrases:
            leaf.add(text, search, recall)
        leaves[leaf_id] = leaf
    curated = CuratedKeyphrases(
        leaves=leaves, effective_threshold=1,
        config=CurationConfig(min_search_count=1))
    return GraphExModel.construct(curated, build_pooled=build_pooled)


class TestShardPlan:
    def test_lpt_balance(self):
        """Largest cost first, each onto the lightest shard."""
        plan = ShardPlan.balance([("a", 5), ("b", 4), ("c", 3), ("d", 3)],
                                 2)
        assert plan.shards == (("a", "d"), ("b", "c"))
        assert plan.shard_costs == [8, 7]

    def test_deterministic_ties_by_input_order(self):
        costs = [(1, 2), (2, 2), (3, 2), (4, 2)]
        assert ShardPlan.balance(costs, 2) == ShardPlan.balance(costs, 2)
        assert ShardPlan.balance(costs, 2).shards == ((1, 3), (2, 4))

    def test_clamps_shards_to_keys(self):
        plan = ShardPlan.balance([(1, 1), (2, 1)], 8)
        assert plan.n_shards == 2
        assert all(len(shard) == 1 for shard in plan.shards)

    def test_empty_costs_empty_plan(self):
        plan = ShardPlan.balance([], 4)
        assert plan.n_shards == 0
        assert plan.shard_costs == []

    def test_every_key_planned_exactly_once(self):
        costs = [(key, key % 3 + 1) for key in range(17)]
        plan = ShardPlan.balance(costs, 4)
        planned = [key for shard in plan.shards for key in shard]
        assert sorted(planned) == list(range(17))

    def test_duplicate_keys_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ShardPlan.balance([(1, 2), (1, 3)], 2)
        with pytest.raises(ValueError, match="planned twice"):
            ShardPlan([(1,), (1,)], {1: 2})

    def test_key_without_cost_rejected(self):
        with pytest.raises(ValueError, match="no cost"):
            ShardPlan([(1, 2)], {1: 3})

    def test_costs_for_unplanned_keys_rejected(self):
        """``replan`` reads "has a cost" as "is part of this plan": an
        extra cost entry would let it schedule a key nobody planned."""
        with pytest.raises(ValueError, match="unplanned"):
            ShardPlan([(1,)], {1: 2, 99: 5})


class TestInferencePlanning:
    def test_groups_mirror_leaf_graph_resolution(self):
        """Known leaves group by leaf id, unknown leaves pool together,
        graph-less requests are excluded from the plan."""
        model = make_model({1: [("w0 w1", 5, 1)], 2: [("w2", 4, 1)]},
                           build_pooled=True)
        requests = [(0, "w0", 1), (1, "w0", 99), (2, "w2", 2),
                    (3, "w0", 1), (4, "w1", 123)]
        plan, groups = ShardPlan.for_inference(model, requests, 2)
        assert groups == {1: [0, 3], POOLED_GROUP: [1, 4], 2: [2]}
        # A group costs its request count.
        assert plan == ShardPlan.balance(
            [(1, 2), (POOLED_GROUP, 2), (2, 1)], 2)

    def test_no_pooled_fallback_excludes_unknown_leaves(self, fleet):
        model = make_model({1: [("w0 w1", 5, 1)]})
        plan, groups = ShardPlan.for_inference(
            model, [(0, "w0", 1), (1, "w0", 99)], 2)
        assert groups == {1: [0]}
        out = fleet.run_inference(
            model, [(0, "w0", 1), (1, "w0", 99)], k=5)
        assert out[1] == []


class TestProcessShardExecutor:
    def _world(self):
        return make_model(
            {leaf_id: [(f"w{j} w{(j + leaf_id) % 6}", 9 - j, j + 1)
                       for j in range(5)]
             for leaf_id in (1, 2, 3)},
            build_pooled=True)

    def _requests(self):
        return [(i, f"w{i % 6} w{(i + 1) % 6}", (i % 4) + 1)
                for i in range(30)]

    def test_single_worker_runs_in_process(self):
        """One worker is this process: the serial executor."""
        model = self._world()
        requests = self._requests()
        out = SerialExecutor().run_inference(model, requests, k=5)
        assert out == LeafBatchRunner(model, k=5).run(requests)

    def test_multi_worker_identical_to_thread_path(self, fleet):
        model = self._world()
        requests = self._requests()
        out = fleet.run_inference(model, requests, k=5)
        assert out == LeafBatchRunner(model, k=5).run(requests)

    def test_construction_single_worker_in_process(self):
        curated = CuratedKeyphrases(
            leaves={1: CuratedLeaf(leaf_id=1, texts=["w0 w1"],
                                   search_counts=[3], recall_counts=[1])},
            effective_threshold=1,
            config=CurationConfig(min_search_count=1))
        graphs = SerialExecutor().run_construction(
            curated, DEFAULT_TOKENIZER)
        assert list(graphs) == [1]
        # Built in-parent: a plain graph, not a mapped bundle.
        assert not graphs[1].graph.is_readonly

    def test_empty_curation(self):
        curated = CuratedKeyphrases(
            leaves={}, effective_threshold=1,
            config=CurationConfig(min_search_count=1))
        graphs = SerialExecutor().run_construction(
            curated, DEFAULT_TOKENIZER)
        assert graphs == {}


class TestLazyImportCycleContract:
    """``batch_recommend`` (repro.core.batch) imports ``execution``
    *inside* the call: a top-level import would close the cycle
    batch -> execution -> fast_inference -> batch.  Pinned in fresh
    interpreters so a refactor that hoists the import fails here, not
    as a bootstrap-order-dependent ImportError in production.

    The *static* half of this contract (no module-level cycle imports,
    declared lazy edges stay function-scoped) moved to the repo-wide
    ``lazy-import-contract`` rule in :mod:`repro.analysis` — only the
    runtime fresh-interpreter probe remains here."""

    def _fresh_python(self, code: str) -> None:
        import os
        import subprocess
        import sys
        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              cwd=os.path.dirname(os.path.dirname(
                                  os.path.abspath(__file__))),
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_import_order_is_irrelevant(self):
        # Whichever module bootstraps first, the call still resolves.
        for first in ("repro.core.sharding", "repro.core.batch",
                      "repro.core.fast_inference", "repro.serving"):
            self._fresh_python(
                f"import {first}\n"
                "from repro.core.batch import batch_recommend\n"
                "from tests.conftest import build_fig3_curated, "
                "FIG3_LEAF_ID\n"
                "from repro.core.model import GraphExModel\n"
                "model = GraphExModel.construct(build_fig3_curated())\n"
                "assert batch_recommend(model, [(1, 'gaming headphones', "
                "FIG3_LEAF_ID)], executor='serial')[1]\n")


class TestReplan:
    """The dead-host primitive: orphaned keys re-balance over survivors."""

    def test_rebalances_subset_with_original_costs(self):
        plan = ShardPlan.balance([(1, 5), (2, 4), (3, 3), (4, 2)], 2)
        orphaned = plan.shards[0]
        survivors = plan.replan(orphaned, 2)
        assert sorted(key for shard in survivors.shards
                      for key in shard) == sorted(orphaned)
        assert survivors == ShardPlan.balance(
            [(key, cost) for key, cost in [(1, 5), (2, 4), (3, 3), (4, 2)]
             if key in orphaned], 2)

    def test_single_survivor_gets_everything(self):
        plan = ShardPlan.balance([(i, i + 1) for i in range(6)], 3)
        merged = plan.replan(range(6), 1)
        assert merged.n_shards == 1
        assert sorted(merged.shards[0]) == list(range(6))

    def test_unknown_keys_rejected(self):
        plan = ShardPlan.balance([(1, 1)], 1)
        with pytest.raises(ValueError, match="not part of this plan"):
            plan.replan([1, 99], 1)


class TestWorkerFailureSurfacing:
    """A failing shard surfaces the worker's original traceback."""

    @staticmethod
    def _failure_on_a_one_host_fleet(job):
        """Run ``await job(coordinator)`` against one in-process worker
        host and return the ``ClusterExecutionError`` it must raise —
        with the host still registered: a failing shard is not a dead
        host."""
        import asyncio

        from repro.cluster import (ClusterCoordinator,
                                   ClusterExecutionError, ClusterWorker)

        async def drive():
            async with ClusterCoordinator() as coordinator:
                host = ClusterWorker(coordinator.host, coordinator.port,
                                     name="w")
                task = asyncio.ensure_future(host.run())
                await coordinator.wait_for_workers(1, timeout=10.0)
                with pytest.raises(ClusterExecutionError) as excinfo:
                    await job(coordinator)
                assert coordinator.n_live() == 1
                await coordinator.stop()
                await task
                return excinfo.value

        return asyncio.run(drive())

    def test_inference_shard_wraps_worker_failures(self, monkeypatch,
                                                   tmp_path):
        """An engine failure inside a worker's inference shard comes
        back as a ``shard_error`` frame: the job fails with
        ``ClusterExecutionError`` naming the shard's keys, and the
        traceback proves ``_run_inference_shard`` went through the very
        runner that blew up."""
        from repro.cluster import worker
        from repro.core.serialization import save_model

        class ExplodingRunner:
            def __init__(self, model, k, hard_limit):
                pass

            def run_ranked(self, requests):
                raise LookupError(f"boom-runner saw {list(requests)!r}")

        monkeypatch.setattr(worker, "LeafBatchRunner", ExplodingRunner)
        artifact = save_model(make_model({1: [("title", 3, 1)]}),
                              tmp_path / "model")
        error = self._failure_on_a_one_host_fleet(
            lambda coordinator: coordinator.run_inference(
                str(artifact), [(0, "title", 1)], k=5))
        assert "inference shard [1] raised on worker w" in str(error)
        assert "LookupError" in error.worker_traceback
        assert "_run_inference_shard" in error.worker_traceback
        assert "boom-runner saw [(0, 'title', 1)]" \
            in error.worker_traceback
