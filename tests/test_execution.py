"""Tests for the unified execution plane (ISSUE 8).

Covers the :mod:`repro.core.execution` subsystem bottom-up: the
resolver behind every ``executor=`` keyword, the scatter/merge jobs
every substrate calls, orphan re-planning cost preservation, and the
headline cross-executor equivalence contract: any workload on
any substrate — serial oracle, thread fan-out, worker processes, or a
localhost cluster with injected faults — serves element-wise identical
results and builds bit-identical models.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (ClusterCoordinator, ClusterWorker, RetryPolicy)
from repro.core.batch import batch_recommend
from repro.core.curation import (CuratedKeyphrases, CuratedLeaf,
                                 CurationConfig)
from repro.core.execution import (ClusterExecutor, InferenceJob,
                                  ProcessShardExecutor, SerialExecutor,
                                  ThreadShardExecutor, resolve_executor)
from repro.core.fast_inference import LeafBatchRunner
from repro.core.model import GraphExModel
from repro.core.sharding import ShardExecutionError, ShardPlan
from repro.obs import MetricsRegistry, NullRegistry


# ---------------------------------------------------------------------------
# World fixtures: a skewed multi-leaf catalog with a pooled fallback


def build_curated(sizes=(14, 3, 3, 2, 2)) -> CuratedKeyphrases:
    """Leaves of deliberately skewed sizes (leaf 1 dominates)."""
    leaves = {}
    for leaf_index, n_phrases in enumerate(sizes, start=1):
        leaf = CuratedLeaf(leaf_id=leaf_index)
        for j in range(n_phrases):
            leaf.add(f"leaf{leaf_index} word{j} thing extra", 6 + j,
                     2 + (j % 3))
        leaves[leaf_index] = leaf
    return CuratedKeyphrases(leaves=leaves, effective_threshold=1,
                             config=CurationConfig(min_search_count=1))


@pytest.fixture(scope="module")
def curated():
    return build_curated()


@pytest.fixture(scope="module")
def model(curated):
    return GraphExModel.construct(curated, build_pooled=True)


@pytest.fixture(scope="module")
def requests(model):
    """Known leaves, the pooled fallback, and a duplicate item id."""
    out = []
    for i in range(24):
        leaf_id = 1 + (i % model.n_leaves)
        out.append((i, f"word{i % 5} leaf{leaf_id} thing", leaf_id))
    out.append((100, "leaf1 word0 thing", 999))   # pooled fallback
    out.append((3, "leaf2 word1 thing", 2))       # duplicate id: last wins
    return out


@pytest.fixture(scope="module")
def expected(model, requests):
    return SerialExecutor().run_inference(model, requests, k=5)


def assert_leaf_graphs_identical(reference, fast):
    assert fast.leaf_id == reference.leaf_id
    assert fast.word_vocab.tokens == reference.word_vocab.tokens
    assert np.array_equal(fast.graph.indptr, reference.graph.indptr)
    assert np.array_equal(fast.graph.indices, reference.graph.indices)
    assert fast.graph.n_right == reference.graph.n_right
    assert fast.label_texts == reference.label_texts
    assert np.array_equal(fast.label_lengths, reference.label_lengths)
    assert np.array_equal(fast.search_counts, reference.search_counts)
    assert np.array_equal(fast.recall_counts, reference.recall_counts)


def assert_models_identical(reference, fast):
    assert fast.leaf_ids == reference.leaf_ids
    for leaf_id in reference.leaf_ids:
        assert_leaf_graphs_identical(reference.leaf_graph(leaf_id),
                                     fast.leaf_graph(leaf_id))
    assert (fast.pooled_graph is None) == (reference.pooled_graph is None)
    if reference.pooled_graph is not None:
        assert_leaf_graphs_identical(reference.pooled_graph,
                                     fast.pooled_graph)


# ---------------------------------------------------------------------------
# The resolver: executor= is the only spelling


class TestResolveExecutor:
    def test_default_is_thread(self):
        executor = resolve_executor()
        assert isinstance(executor, ThreadShardExecutor)
        assert executor.name == "thread"
        assert executor.workers == 1

    def test_names_resolve_to_matching_classes(self):
        assert isinstance(resolve_executor("serial"), SerialExecutor)
        assert isinstance(resolve_executor("thread", workers=3),
                          ThreadShardExecutor)
        process = resolve_executor("process", workers=3)
        assert isinstance(process, ProcessShardExecutor)
        assert process.workers == 3

    def test_instance_passes_through(self):
        mine = ThreadShardExecutor(4)
        assert resolve_executor(mine) is mine
        assert resolve_executor(mine, workers=9) is mine

    def test_executor_plus_parallel_rejected(self):
        with pytest.raises(TypeError, match="parallel"):
            resolve_executor("serial", parallel="thread")

    def test_unknown_spelling_names_the_accepted_ones(self):
        with pytest.raises(ValueError, match="unknown executor"):
            resolve_executor("fiber")
        with pytest.raises(ValueError, match="serial"):
            resolve_executor("fiber")

    def test_cluster_needs_a_coordinator(self):
        with pytest.raises(ValueError, match="ClusterCoordinator"):
            resolve_executor("cluster")

    def test_reference_engine_needs_in_process_executor(self):
        resolve_executor("serial", engine="reference")
        resolve_executor("thread", engine="reference")
        with pytest.raises(ValueError, match="semantics reference"):
            resolve_executor("process", engine="reference")

    def test_batch_recommend_rejects_both_spellings(self, model,
                                                    requests):
        with pytest.raises(TypeError, match="parallel"):
            batch_recommend(model, requests, executor="serial",
                            parallel="thread")


    def test_parallel_spelling_is_gone_everywhere(self):
        """``executor=`` is the only spelling: no entry point takes
        ``parallel``, and sharding re-exports nothing lazily.  Nor does
        anything take a cost model, a model format to write, or a
        ``dense_limit`` choosing between two ways to count."""
        import dataclasses
        import inspect

        from repro.cli import main
        from repro.core import execution, sharding
        from repro.core.batch import (differential_update,
                                      validate_model_for_engine)
        from repro.core.execution import ConstructionJob, Executor
        from repro.core.serialization import save_model
        from repro.serving import (AsyncNRTFront, BatchPipeline,
                                   DailyRefreshOrchestrator, NRTService,
                                   RefreshReport)

        for entry_point in (batch_recommend, differential_update,
                            validate_model_for_engine,
                            GraphExModel.construct, NRTService,
                            BatchPipeline, AsyncNRTFront,
                            DailyRefreshOrchestrator, resolve_executor):
            parameters = inspect.signature(entry_point).parameters
            assert "parallel" not in parameters, entry_point
        assert "cluster" not in \
            inspect.signature(resolve_executor).parameters
        assert list(inspect.signature(
            validate_model_for_engine).parameters) == \
            ["model", "engine", "executor"]
        assert "__getattr__" not in vars(sharding)

        for planned in (Executor, ThreadShardExecutor, SerialExecutor,
                        ProcessShardExecutor, ClusterExecutor,
                        ClusterExecutor.local, resolve_executor,
                        InferenceJob, ConstructionJob,
                        ShardPlan.for_inference,
                        ShardPlan.for_construction,
                        ClusterCoordinator.run_inference,
                        ClusterCoordinator.run_construction):
            assert "cost_model" not in \
                inspect.signature(planned).parameters, planned
        assert "costs" not in inspect.signature(ShardPlan.replan).parameters
        assert "format_version" not in \
            inspect.signature(save_model).parameters
        for name in ("CostModel", "plan_rebalance_gain", "observe_spread"):
            assert not hasattr(execution, name), name
        for counted in (LeafBatchRunner, InferenceJob,
                        Executor.run_inference,
                        ThreadShardExecutor.run_inference,
                        SerialExecutor.run_inference,
                        ProcessShardExecutor.run_inference,
                        ClusterExecutor.run_inference,
                        ClusterExecutor.run_inference_async,
                        execution._init_inference_worker,
                        ClusterCoordinator.run_inference):
            assert "dense_limit" not in \
                inspect.signature(counted).parameters, counted
        assert not {"n_cost_observations", "rebalance_gain"} & {
            field.name for field in dataclasses.fields(RefreshReport)}
        with pytest.raises(SystemExit) as exit_info:
            main(["construct", "--curated", "c", "--out", "m",
                  "--format-version", "2"])
        assert exit_info.value.code == 2


# ---------------------------------------------------------------------------
# The scatter/merge contract: one implementation, every substrate


def _short_inference_shard(requests):
    """Pool entry point that loses its last row (module-level so the
    forked worker can unpickle it by reference)."""
    from repro.core import execution

    rows = execution._INFERENCE_RUNNER.run_indexed(requests)
    return rows[:-1], 0.0


class TestInferenceJobContract:
    @pytest.fixture(scope="class")
    def world(self):
        """No pooled graph: leaf 999 has nowhere to be served from."""
        return GraphExModel.construct(build_curated())

    #: Item 7 is re-requested under three different leaves (three
    #: different groups); item 8's leaf has neither graph nor fallback.
    REQUESTS = [(7, "leaf1 word0 thing", 1), (1, "leaf2 word1 thing", 2),
                (7, "leaf3 word2 thing", 3), (8, "leaf1 word0", 999),
                (2, "leaf4 word0 thing", 4), (7, "leaf2 word0 thing", 2)]

    @pytest.mark.parametrize("n_shards", [1, 2, 3, 8])
    def test_any_cut_any_completion_order_matches_scalar_loop(
            self, world, n_shards):
        scalar = {item_id: world.recommend(title, leaf_id, k=5)
                  for item_id, title, leaf_id in self.REQUESTS}
        runner = LeafBatchRunner(world, k=5)
        job = InferenceJob(world, self.REQUESTS, n_shards, k=5)
        for shard in reversed(job.plan.shards):     # out of order
            assert job.merge(shard, runner.run_indexed(
                job.requests_of(shard))) == \
                sum(units for _key, units in job.units(shard))
        out = job.output()
        assert out == scalar
        assert out[8] == []
        assert out[7] == world.recommend("leaf2 word0 thing", 2, k=5)
        assert list(out) == [7, 1, 8, 2]      # first-seen id order

    def test_wrong_row_count_raises(self, world):
        job = InferenceJob(world, self.REQUESTS, 1, k=5)
        (shard,) = job.plan.shards
        with pytest.raises(ShardExecutionError, match="4 rows for 5"):
            job.merge(shard, [[]] * 4)

    def test_wrong_row_count_raises_on_the_process_path(
            self, world, monkeypatch):
        from repro.core import execution

        monkeypatch.setattr(execution, "_run_inference_shard",
                            _short_inference_shard)
        with pytest.raises(ShardExecutionError, match="rows for"):
            ProcessShardExecutor(2).run_inference(world, self.REQUESTS,
                                                  k=5)


class TestConstructionMergeOrder:
    def test_process_and_cluster_graphs_identical(self):
        """Both out-of-process substrates hand back the same graphs in
        curated order, whichever shard a leaf ran in.  Leaf 2
        dominates, so the plan is ((2,), (1, 3, 4, 5)): shard-index
        order and leaf order disagree."""
        curated = build_curated(sizes=(3, 14, 3, 2, 2))
        assert [min(shard) for shard in
                ShardPlan.for_construction(curated, 2).shards] == [2, 1]
        process_graphs = ProcessShardExecutor(2).run_construction(curated)
        with ClusterExecutor.local(workers=2) as cluster:
            cluster_graphs = cluster.run_construction(curated)
        assert list(cluster_graphs) == list(process_graphs) \
            == list(curated.leaves)
        for leaf_id, graph in process_graphs.items():
            assert_leaf_graphs_identical(graph, cluster_graphs[leaf_id])


# ---------------------------------------------------------------------------
# Replan cost preservation (satellite 2)


class TestReplanCostPreservation:
    def test_orphans_keep_recorded_costs(self):
        plan = ShardPlan.balance([(1, 50), (2, 40), (3, 30), (4, 20)], 2)
        replanned = plan.replan([1, 4], 2)
        # LPT on the *recorded* costs: 50 and 20 land on separate
        # shards with those exact costs, not re-proxied to 1 each.
        assert replanned.shards == ((1,), (4,))
        assert replanned.shard_costs == [50, 20]

    def test_unknown_key_rejected(self):
        plan = ShardPlan.balance([(1, 5)], 1)
        with pytest.raises(ValueError,
                           match="not part of this plan"):
            plan.replan([1, 99], 1)


# ---------------------------------------------------------------------------
# Cross-executor equivalence: the headline contract


class TestCrossExecutorEquivalence:
    def test_serial_matches_leaf_batch_runner_semantics(
            self, model, requests, expected):
        """The oracle itself agrees with the engine's duplicate-id
        (last wins) and pooled-fallback semantics."""
        runner_expected = {}
        latest = {}
        for index, request in enumerate(requests):
            latest[request[0]] = index
        rows = LeafBatchRunner(model, k=5).run(requests)
        for item_id, index in latest.items():
            runner_expected[item_id] = rows[item_id]
        assert expected == runner_expected

    def test_thread_fan_out_identical(self, model, requests, expected):
        for workers in (2, 3, 8):
            executor = ThreadShardExecutor(workers)
            assert executor.run_inference(model, requests, k=5) == \
                expected

    def test_process_identical(self, model, requests, expected):
        metrics = MetricsRegistry()
        with ProcessShardExecutor(workers=2, metrics=metrics) as executor:
            assert executor.run_inference(model, requests, k=5) == \
                expected
        assert metrics.counter_value("executor.inference.requests",
                                     executor="process") == len(requests)

    def test_in_process_substrates_time_one_task_per_shard(
            self, model, requests):
        """Serial, thread and process all record inference the same
        way: one ``executor.inference.tasks`` per *planned shard* (not
        per leaf group), every request counted once."""
        for executor_cls, workers in ((SerialExecutor, 1),
                                      (ThreadShardExecutor, 2),
                                      (ProcessShardExecutor, 2)):
            metrics = MetricsRegistry()
            executor = (executor_cls(metrics=metrics) if workers == 1
                        else executor_cls(workers, metrics=metrics))
            with executor:
                executor.run_inference(model, requests, k=5)
            plan, groups = ShardPlan.for_inference(model, requests,
                                                   workers)
            assert plan.n_shards == workers < len(groups)
            labels = {"executor": executor.name}
            assert metrics.counter_value("executor.inference.tasks",
                                         **labels) == plan.n_shards
            assert metrics.counter_value("executor.inference.requests",
                                         **labels) == len(requests)
            assert metrics.histogram_stats(
                "executor.inference.seconds",
                **labels)["count"] == plan.n_shards

    def test_construction_identical_across_substrates(self, curated,
                                                      model):
        for executor in (SerialExecutor(), ThreadShardExecutor(3),
                         ProcessShardExecutor(workers=2)):
            with executor:
                rebuilt = GraphExModel.construct(curated,
                                                 build_pooled=True,
                                                 executor=executor)
            assert_models_identical(model, rebuilt)

    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_any_workload_any_executor_identical(self, data, model):
        """Property: a drawn workload served through a drawn substrate,
        telemetry live or off, is element-wise identical to the serial
        oracle with telemetry off — and a live registry counts every
        request once."""
        leaf_ids = list(model.leaf_ids) + [999]  # 999 -> pooled
        n = data.draw(st.integers(min_value=0, max_value=20))
        requests = []
        for i in range(n):
            leaf_id = data.draw(st.sampled_from(leaf_ids))
            words = data.draw(st.lists(
                st.sampled_from(["leaf1", "leaf2", "word0", "word1",
                                 "thing", "extra", "zzz"]),
                min_size=0, max_size=4))
            item_id = data.draw(st.integers(min_value=0, max_value=8))
            requests.append((item_id, " ".join(words), leaf_id))
        workers = data.draw(st.integers(min_value=1, max_value=4))
        executor = data.draw(st.sampled_from(["serial", "thread"]))
        metrics = data.draw(st.sampled_from([NullRegistry,
                                             MetricsRegistry]))()
        oracle = SerialExecutor(metrics=NullRegistry()).run_inference(
            model, requests, k=4)
        got = resolve_executor(executor, workers=workers, metrics=metrics) \
            .run_inference(model, requests, k=4)
        assert got == oracle
        if not isinstance(metrics, NullRegistry):
            assert metrics.counter_value("executor.inference.requests",
                                         executor=executor) == n

    def test_cluster_with_faults_identical(self, model, requests,
                                           expected, tmp_path):
        """A localhost fleet with a worker that hard-dies on its first
        shard still serves the oracle's exact output."""
        from repro.core.serialization import save_model

        artifact = tmp_path / "model"
        save_model(model, artifact)
        retry = RetryPolicy(max_attempts=5, base_delay=0.01,
                            max_delay=0.05, jitter=0.0, seed=0)

        async def drive():
            async with ClusterCoordinator(rpc_timeout=20.0,
                                          retry=retry) as coordinator:
                tasks = []
                for name, kwargs in (("doomed",
                                      {"die_after_assignments": 0}),
                                     ("survivor-1", {}),
                                     ("survivor-2", {})):
                    worker = ClusterWorker(coordinator.host,
                                           coordinator.port,
                                           name=name, **kwargs)
                    tasks.append(asyncio.ensure_future(worker.run()))
                await coordinator.wait_for_workers(3, timeout=10.0)
                executor = ClusterExecutor(coordinator)
                got = await executor.run_inference_async(
                    str(artifact), requests, k=5)
                await coordinator.stop()
                for task in tasks:
                    task.cancel()
                await asyncio.gather(*tasks, return_exceptions=True)
                return got

        assert asyncio.run(drive()) == expected

    def test_local_cluster_executor_lifecycle(self, model, requests,
                                              expected, tmp_path):
        """`ClusterExecutor.local` (the CLI's --executor cluster
        backend) boots, serves identically, and tears down cleanly."""
        from repro.core.serialization import save_model

        artifact = tmp_path / "model"
        save_model(model, artifact)
        executor = ClusterExecutor.local(workers=2)
        try:
            assert executor.run_inference(str(artifact), requests,
                                          k=5) == expected
        finally:
            executor.close()
        executor.close()  # idempotent

    def test_sync_call_on_coordinator_loop_rejected(self):
        async def drive():
            async with ClusterCoordinator() as coordinator:
                executor = ClusterExecutor(coordinator)
                with pytest.raises(RuntimeError, match="own"):
                    executor.run_inference("unused", [])

        asyncio.run(drive())

    def test_unstarted_coordinator_rejected(self):
        executor = ClusterExecutor(ClusterCoordinator())
        with pytest.raises(RuntimeError, match="started"):
            executor.run_inference("unused", [])

