"""Unit tests for shard planning and for what ``--workers N`` means: a
fleet of worker processes (the session ``fleet`` fixture).

The element-wise/bit-identity of the fleet against the scalar
references is pinned property-based in the engine equivalence suites
(``test_fast_inference.py``, ``test_fast_construct.py``); this module
covers the planning/merging machinery itself.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batch import batch_recommend
from repro.core.curation import CuratedKeyphrases, CuratedLeaf, CurationConfig
from repro.core.execution import SerialExecutor
from repro.core.fast_inference import LeafBatchRunner
from repro.core.model import GraphExModel
from repro.core.sharding import ShardPlan
from repro.core.tokenize import DEFAULT_TOKENIZER
from tests.conftest import open_saved


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
    def test_equal_contiguous_cut(self):
        """Runs keep the key order; the first ones take the remainder."""
        assert ShardPlan(range(7), 3).shards == ((0, 1, 2), (3, 4), (5, 6))

    def test_clamps_shards_to_keys(self):
        assert ShardPlan([1, 2], 8).shards == ((1,), (2,))
        assert ShardPlan([], 4).shards == ()


#: Two worlds: one with a pooled graph for unknown leaves, one without.
WORLDS = [make_model({1: [("w0 w1", 5, 1)], 2: [("w2", 4, 1)],
                      3: [("w1 w2", 3, 2)]}, build_pooled=pooled)
          for pooled in (True, False)]


class TestInferencePlanning:
    def test_plan_cuts_the_graph_order(self):
        """Known leaves group by graph in order of first request, unknown
        leaves pool together, and the sequence is cut in two."""
        model = make_model({1: [("w0 w1", 5, 1)], 2: [("w2", 4, 1)]},
                           build_pooled=True)
        requests = [(0, "w0", 1), (1, "w0", 99), (2, "w2", 2),
                    (3, "w0", 1), (4, "w1", 123)]
        plan, order = ShardPlan.for_inference(model, requests, 2)
        assert order == [0, 3, 1, 4, 2]
        assert plan.shards == ((0, 3, 1), (4, 2))

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_any_batch_any_fleet_size(self, data):
        """Property: the shards, concatenated, are the engine's graph
        order of the served requests (graphs by first request, batch
        order within one); their sizes differ by at most one; a request
        with no graph is in no shard; and re-cutting any shard as the
        scheduler re-plans an orphan, ``ShardPlan(shard, hosts)`` over
        any number of hosts (0: the fleet emptied), keeps its keys in
        order."""
        model = data.draw(st.sampled_from(WORLDS))
        requests = [(i, "w0", leaf_id) for i, leaf_id in enumerate(
            data.draw(st.lists(st.sampled_from([1, 2, 3, 99, 123]),
                               max_size=30)))]
        n_shards = data.draw(st.integers(min_value=1, max_value=9))
        plan, order = ShardPlan.for_inference(model, requests, n_shards)

        graphs = [model.graph_index(leaf_id) for _i, _t, leaf_id in requests]
        served = [i for i, graph in enumerate(graphs) if graph is not None]
        first = {}
        for i in served:
            first.setdefault(graphs[i], i)
        expected = sorted(served, key=lambda i: first[graphs[i]])
        engine = [index for indices, _owners
                  in LeafBatchRunner(model, k=5)._chunks(requests)
                  for index in indices]
        assert [i for shard in plan.shards for i in shard] \
            == order == engine == expected
        sizes = [len(shard) for shard in plan.shards]
        assert plan.n_shards == min(n_shards, len(served))
        assert max(sizes, default=0) - min(sizes, default=0) <= 1

        for shard in plan.shards:
            hosts = data.draw(st.integers(min_value=0, max_value=5))
            replanned = ShardPlan(shard, hosts)
            assert [i for part in replanned.shards for i in part] \
                == list(shard)
            sizes = [len(part) for part in replanned.shards]
            assert max(sizes) - min(sizes) <= 1

    def test_no_pooled_fallback_excludes_unknown_leaves(self, fleet,
                                                        tmp_path):
        model = open_saved(make_model({1: [("w0 w1", 5, 1)]}), tmp_path)
        plan, order = ShardPlan.for_inference(
            model, [(0, "w0", 1), (1, "w0", 99)], 2)
        assert order == [0] and plan.shards == ((0,),)
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
        assert out == batch_recommend(model, requests, k=5,
                                      engine="reference")

    def test_multi_worker_identical_to_thread_path(self, fleet,
                                                   tmp_path):
        model = open_saved(self._world(), tmp_path)
        requests = self._requests()
        out = fleet.run_inference(model, requests, k=5)
        assert out == batch_recommend(model, requests, k=5)

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
        assert "inference shard [0] raised on worker w" in str(error)
        assert "LookupError" in error.worker_traceback
        assert "_run_inference_shard" in error.worker_traceback
        assert "boom-runner saw [(0, 'title', 1)]" \
            in error.worker_traceback
