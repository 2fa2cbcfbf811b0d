"""Tests for the unified execution plane (ISSUE 8).

Covers the :mod:`repro.core.execution` subsystem bottom-up: the
CostModel value object (decay folds, JSON round-trip, merge, proxy
fallback), the resolver behind every ``executor=`` keyword, the
scatter/merge jobs every substrate calls, observed-cost feedback into :class:`ShardPlan` (plans change on
a skewed world, outputs do not), orphan re-planning cost preservation,
and the headline cross-executor equivalence contract: any workload on
any substrate — serial oracle, thread fan-out, worker processes, or a
localhost cluster with injected faults — serves element-wise identical
results and builds bit-identical models.
"""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (ClusterCoordinator, ClusterWorker, RetryPolicy)
from repro.core.batch import batch_recommend
from repro.core.curation import (CuratedKeyphrases, CuratedLeaf,
                                 CurationConfig)
from repro.core.execution import (ClusterExecutor, CostModel, Executor, InferenceJob,
                                  ProcessShardExecutor, SerialExecutor,
                                  ThreadShardExecutor,
                                  plan_rebalance_gain, resolve_executor)
from repro.core.fast_inference import LeafBatchRunner
from repro.core.model import GraphExModel
from repro.core.sharding import (POOLED_GROUP, ShardExecutionError,
                                 ShardPlan, construction_proxy)


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
# CostModel


class TestCostModel:
    def test_first_observation_sets_rate(self):
        cost_model = CostModel()
        cost_model.observe_inference(7, seconds=0.5, units=10)
        assert cost_model.n_observations() == 1
        assert cost_model.n_observations("inference") == 1
        assert cost_model.n_observations("construction") == 0
        assert cost_model.has_observations("inference")
        assert not cost_model.has_observations("construction")
        [(key, cost)] = cost_model.inference_costs([(7, 10)])
        assert key == 7
        assert cost == round(0.05 * 10 * 1_000_000)

    def test_observations_decay_fold(self):
        cost_model = CostModel(decay=0.7)
        cost_model.observe_construction(1, seconds=1.0, units=1)
        cost_model.observe_construction(1, seconds=3.0, units=1)
        [(_, cost)] = cost_model.construction_costs([(1, 1)])
        # 0.7 * 1.0 + 0.3 * 3.0 = 1.6 seconds/unit
        assert cost == round(1.6 * 1_000_000)
        assert cost_model.n_observations("construction") == 2

    def test_empty_kind_passes_proxy_through(self):
        cost_model = CostModel()
        proxy = [(1, 5), (2, 4), (POOLED_GROUP, 3)]
        assert cost_model.inference_costs(proxy) == proxy
        cost_model.observe_construction(1, 0.1, 10)
        # Construction observations must not leak into inference plans.
        assert cost_model.inference_costs(proxy) == proxy

    def test_unobserved_key_uses_mean_rate(self):
        cost_model = CostModel()
        cost_model.observe_inference(1, seconds=0.2, units=1)
        cost_model.observe_inference(2, seconds=0.4, units=1)
        costs = dict(cost_model.inference_costs([(1, 1), (2, 1), (3, 2)]))
        assert costs[3] == round(0.3 * 2 * 1_000_000)

    def test_costs_are_positive_ints(self):
        """ShardPlan.from_json strictness: costs must be ints >= 1."""
        cost_model = CostModel()
        cost_model.observe_inference(1, seconds=0.0, units=1)
        costs = cost_model.inference_costs([(1, 1), (2, 0)])
        assert all(isinstance(cost, int) and cost >= 1
                   for _key, cost in costs)

    def test_json_round_trip_exact(self):
        cost_model = CostModel(decay=0.6)
        cost_model.observe_inference(7, 0.123456, 3)
        cost_model.observe_inference(POOLED_GROUP, 0.5, 2)
        cost_model.observe_construction(7, 1.75, 40)
        cost_model.observe_construction("leaf-x", 0.25, 9)
        restored = CostModel.from_json(cost_model.to_json())
        assert restored == cost_model
        # Exactness is what makes the daily hand-off deterministic: the
        # restored model re-costs a proxy identically.
        proxy = [(7, 3), (POOLED_GROUP, 2), (11, 1)]
        assert restored.inference_costs(proxy) == \
            cost_model.inference_costs(proxy)

    def test_json_payload_shape(self):
        cost_model = CostModel()
        cost_model.observe_inference(5, 0.1, 2)
        payload = json.loads(cost_model.to_json())
        assert payload["decay"] == 0.7
        assert set(payload) == {"decay", "inference", "construction"}
        assert payload["inference"]["5"] == [0.05, 1]

    def test_from_json_rejects_garbage(self):
        with pytest.raises(ValueError, match="not JSON"):
            CostModel.from_json("{nope")
        with pytest.raises(ValueError, match="'decay'"):
            CostModel.from_json("[]")
        with pytest.raises(ValueError, match="rate, count"):
            CostModel.from_json(
                '{"decay": 0.7, "inference": {"1": [0.5]}}')

    def test_merge_copies_one_sided_keys(self):
        mine, theirs = CostModel(), CostModel()
        theirs.observe_inference(1, 0.5, 1)
        mine.merge(theirs)
        assert mine.inference_costs([(1, 1)]) == \
            theirs.inference_costs([(1, 1)])
        assert mine.n_observations() == 1

    def test_merge_decays_shared_keys(self):
        mine, theirs = CostModel(decay=0.5), CostModel(decay=0.5)
        mine.observe_inference(1, 1.0, 1)       # rate 1.0, count 1
        theirs.observe_inference(1, 3.0, 1)     # rate 3.0, count 1
        mine.merge(theirs)
        # old_weight = 1 * 0.5; rate = (1.0*0.5 + 3.0*1) / 1.5
        [(_, cost)] = mine.inference_costs([(1, 1)])
        assert cost == round((0.5 + 3.0) / 1.5 * 1_000_000)
        assert mine.n_observations() == 2

    def test_invalid_decay_and_kind_rejected(self):
        with pytest.raises(ValueError, match="decay"):
            CostModel(decay=1.0)
        with pytest.raises(ValueError, match="decay"):
            CostModel(decay=-0.1)
        cost_model = CostModel()
        with pytest.raises(ValueError, match="unknown cost kind"):
            cost_model.observe("gpu", 1, 0.1)
        with pytest.raises(ValueError, match="unknown cost kind"):
            cost_model.costs("gpu", [(1, 1)])


class TestPlanRebalanceGain:
    def test_none_without_comparison(self):
        proxy = [(1, 5), (2, 5)]
        assert plan_rebalance_gain(None, proxy, 2) is None
        empty = CostModel()
        assert plan_rebalance_gain(empty, proxy, 2) is None
        observed = CostModel()
        observed.observe_construction(1, 0.5, 5)
        assert plan_rebalance_gain(observed, proxy, 1) is None
        assert plan_rebalance_gain(observed, [(1, 5)], 2) is None

    def test_skewed_observations_show_gain(self):
        """Equal proxies, skewed reality: the proxy plan pairs the two
        slow keys onto one shard; the observed plan separates them."""
        cost_model = CostModel()
        for key, rate in ((1, 1.0), (2, 0.1), (3, 1.0), (4, 0.1)):
            cost_model.observe_construction(key, rate, 1)
        proxy = [(1, 1), (2, 1), (3, 1), (4, 1)]
        gain = plan_rebalance_gain(cost_model, proxy, 2)
        assert gain is not None and gain > 1.5

    def test_balanced_observations_no_gain(self):
        cost_model = CostModel()
        for key in (1, 2, 3, 4):
            cost_model.observe_construction(key, 1.0, 1)
        gain = plan_rebalance_gain(
            cost_model, [(1, 1), (2, 1), (3, 1), (4, 1)], 2)
        assert gain == pytest.approx(1.0)


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

    def test_cost_model_is_threaded_through(self):
        cost_model = CostModel()
        executor = resolve_executor("thread", cost_model=cost_model)
        assert executor.cost_model is cost_model

    def test_batch_recommend_rejects_both_spellings(self, model,
                                                    requests):
        with pytest.raises(TypeError, match="parallel"):
            batch_recommend(model, requests, executor="serial",
                            parallel="thread")


    def test_parallel_spelling_is_gone_everywhere(self):
        """``executor=`` is the only spelling: no entry point takes
        ``parallel``, and sharding re-exports nothing lazily."""
        import inspect

        from repro.core import sharding
        from repro.core.batch import (differential_update,
                                      validate_model_for_engine)
        from repro.serving import (AsyncNRTFront, BatchPipeline,
                                   DailyRefreshOrchestrator, NRTService)

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


class TestConstructionAbsorbOrder:
    def test_process_and_cluster_caches_have_equal_state(self):
        """Every out-of-process substrate absorbs shard token states in
        ascending-smallest-leaf order, so equal plans give equal
        caches — not just equal graphs.  Leaf 2 dominates, so the plan
        is ((2,), (1, 3, 4, 5)): shard-index order and leaf order
        disagree."""
        curated = build_curated(sizes=(3, 14, 3, 2, 2))
        assert [min(shard) for shard in
                ShardPlan.for_construction(curated, 2).shards] == [2, 1]
        process_graphs, process_cache = \
            ProcessShardExecutor(2).run_construction(curated)
        with ClusterExecutor.local(workers=2) as cluster:
            cluster_graphs, cluster_cache = \
                cluster.run_construction(curated)
        assert cluster_cache.export_state() == \
            process_cache.export_state()
        assert list(cluster_graphs) == list(process_graphs)
        for leaf_id, graph in process_graphs.items():
            assert_leaf_graphs_identical(graph, cluster_graphs[leaf_id])


# ---------------------------------------------------------------------------
# Observed-cost feedback into ShardPlan


class TestCostFeedbackIntoPlans:
    def test_inference_partition_changes_outputs_do_not(
            self, model, requests, expected):
        """The acceptance loop: record a skewed cost model, feed it
        back, watch the partition move — and the output stay put."""
        cost_model = CostModel()
        # Pretend leaf 2's group is pathologically slow.
        for leaf_id in model.leaf_ids:
            cost_model.observe_inference(
                leaf_id, 10.0 if leaf_id == 2 else 0.01, 1)
        proxy_plan, _ = ShardPlan.for_inference(model, requests, 2)
        fed_plan, _ = ShardPlan.for_inference(model, requests, 2,
                                              cost_model=cost_model)
        assert proxy_plan.shards != fed_plan.shards
        # Leaf 2 must sit alone on the heaviest shard now.
        heaviest = max(range(fed_plan.n_shards),
                       key=lambda i: fed_plan.shard_costs[i])
        assert fed_plan.shards[heaviest] == (2,)

        executor = ThreadShardExecutor(2, cost_model=cost_model)
        assert executor.run_inference(model, requests, k=5) == expected

    def test_construction_partition_changes_models_do_not(
            self, curated, model):
        cost_model = CostModel()
        # Invert reality: the big leaf is cheap, the small ones costly.
        for leaf_id, units in construction_proxy(curated):
            cost_model.observe_construction(
                leaf_id, 0.01 if len(curated.leaves[leaf_id]) > 5 else 5.0,
                units)
        proxy_plan = ShardPlan.for_construction(curated, 2)
        fed_plan = ShardPlan.for_construction(curated, 2,
                                              cost_model=cost_model)
        assert proxy_plan.shards != fed_plan.shards

        rebuilt = GraphExModel.construct(
            curated, build_pooled=True,
            executor=ThreadShardExecutor(2, cost_model=cost_model))
        assert_models_identical(model, rebuilt)

    def test_executors_record_observations(self, model, curated,
                                           requests):
        executor = ThreadShardExecutor(2)
        assert not executor.cost_model.has_observations("inference")
        executor.run_inference(model, requests, k=5)
        assert executor.cost_model.n_observations("inference") >= \
            model.n_leaves
        executor.run_construction(curated)
        n_leaves = sum(1 for leaf in curated.leaves.values()
                       if len(leaf) > 0)
        assert executor.cost_model.n_observations("construction") == \
            n_leaves

    def test_process_executor_records_worker_timings(self, model,
                                                     curated, requests):
        with ProcessShardExecutor(workers=2) as executor:
            executor.run_inference(model, requests, k=5)
            assert executor.cost_model.has_observations("inference")
            executor.run_construction(curated)
            assert executor.cost_model.has_observations("construction")

    def test_recorded_model_round_trips_into_same_plan(self, curated):
        executor = ThreadShardExecutor(2)
        executor.run_construction(curated)
        restored = CostModel.from_json(executor.cost_model.to_json())
        assert ShardPlan.for_construction(curated, 2,
                                          cost_model=restored) == \
            ShardPlan.for_construction(curated, 2,
                                       cost_model=executor.cost_model)


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

    def test_fresher_costs_override_recorded(self):
        plan = ShardPlan.balance([(1, 50), (2, 40), (3, 30)], 2)
        replanned = plan.replan([1, 2, 3], 2, costs={1: 5})
        # Key 1 collapsed to 5; keys 2/3 keep recorded costs.
        assert replanned.shard_costs == [40, 35]
        assert replanned.shards == ((2,), (3, 1))

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
        with ProcessShardExecutor(workers=2) as executor:
            assert executor.run_inference(model, requests, k=5) == \
                expected

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
        """Property: a drawn workload served through a drawn substrate
        is element-wise identical to the serial oracle."""
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
        oracle = SerialExecutor().run_inference(model, requests, k=4)
        got = resolve_executor(executor, workers=workers) \
            .run_inference(model, requests, k=4)
        assert got == oracle

    def test_cluster_with_faults_identical(self, model, requests,
                                           expected, tmp_path):
        """A localhost fleet with a worker that hard-dies on its first
        shard still serves the oracle's exact output, and the executor
        records cost observations for the merged units."""
        from repro.core.serialization import save_model

        artifact = tmp_path / "model"
        save_model(model, artifact, format_version=3)
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
                n_observed = executor.cost_model.n_observations(
                    "inference")
                await coordinator.stop()
                for task in tasks:
                    task.cancel()
                await asyncio.gather(*tasks, return_exceptions=True)
                return got, n_observed

        got, n_observed = asyncio.run(drive())
        assert got == expected
        assert n_observed > 0

    def test_local_cluster_executor_lifecycle(self, model, requests,
                                              expected, tmp_path):
        """`ClusterExecutor.local` (the CLI's --executor cluster
        backend) boots, serves identically, and tears down cleanly."""
        from repro.core.serialization import save_model

        artifact = tmp_path / "model"
        save_model(model, artifact, format_version=3)
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


# ---------------------------------------------------------------------------
# Refresh integration: yesterday's costs steer today's plan


class TestRefreshCostFeedback:
    def test_second_refresh_reports_rebalance_stats(self, curated,
                                                    model):
        from repro.serving.kvstore import KeyValueStore
        from repro.serving.batch_pipeline import BatchPipeline
        from repro.serving.refresh import DailyRefreshOrchestrator

        requests = [(i, f"leaf{1 + (i % 5)} word0 thing", 1 + (i % 5))
                    for i in range(10)]
        pipeline = BatchPipeline(model, store=KeyValueStore())
        orchestrator = DailyRefreshOrchestrator(pipeline, workers=2)
        assert orchestrator.cost_model is \
            orchestrator.executor.cost_model

        first = orchestrator.refresh_sync(curated, requests)
        # Day one runs on proxies: nothing to compare yet, but the
        # build itself populated the model.
        assert first.rebalance_gain is None
        assert first.n_cost_observations > 0

        second = orchestrator.refresh_sync(curated, requests)
        assert second.rebalance_gain is not None
        assert second.rebalance_gain > 0
        assert second.n_cost_observations >= first.n_cost_observations
        assert second.generation > first.generation
