"""Tests for the unified execution plane (ISSUE 8).

Covers the :mod:`repro.core.execution` subsystem bottom-up: the
resolver behind every ``executor=`` keyword, the scatter/merge job
every substrate calls, construction staying in process, orphan
re-planning cost preservation, and the headline cross-executor
equivalence contract: any workload on either substrate — the serial
oracle, or a fleet of worker processes (with injected faults) — serves
element-wise identical results.
"""

from __future__ import annotations

import asyncio
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (ClusterCoordinator, ClusterWorker, RetryPolicy)
from repro.core.batch import batch_recommend
from repro.core.curation import (CuratedKeyphrases, CuratedLeaf,
                                 CurationConfig)
from repro.core.execution import (ClusterExecutor, InferenceJob,
                                  SerialExecutor, resolve_executor)
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
    def test_default_is_serial(self):
        executor = resolve_executor()
        assert isinstance(executor, SerialExecutor)
        assert executor.name == "serial"
        assert not hasattr(executor, "workers")

    def test_names_resolve_to_matching_classes(self):
        """One string names an executor: ``serial``.  The fleet's two
        CLI names need an instance, and ``thread`` is no name at all."""
        assert isinstance(resolve_executor("serial"), SerialExecutor)
        for fleet_name in ("process", "cluster"):
            with pytest.raises(ValueError, match="ClusterExecutor.local"):
                resolve_executor(fleet_name)
        with pytest.raises(ValueError, match="unknown executor 'thread'"):
            resolve_executor("thread")

    def test_instance_passes_through(self, fleet):
        mine = SerialExecutor()
        assert resolve_executor(mine) is mine
        assert resolve_executor(fleet) is fleet
        with pytest.raises(TypeError, match="workers"):
            resolve_executor(mine, workers=9)

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

    def test_reference_engine_needs_in_process_executor(self, fleet):
        resolve_executor("serial", engine="reference")
        resolve_executor(None, engine="reference")
        with pytest.raises(ValueError, match="semantics reference"):
            resolve_executor(fleet, engine="reference")

    def test_batch_recommend_rejects_both_spellings(self, model,
                                                    requests):
        with pytest.raises(TypeError, match="parallel"):
            batch_recommend(model, requests, executor="serial",
                            parallel="thread")

    def test_parallel_spelling_is_gone_everywhere(self):
        """``executor=`` is the only spelling.  That no entry point
        takes ``parallel``, a cost model, a model format to write, a
        ``dense_limit`` or a worker count — and that the pools and
        their classes are gone — is the ``removed-spelling`` lint
        rule's table (``repro.analysis.rules.removed_spelling``), held
        over the whole package by ``test_analysis``'s repo-wide gate;
        what a table of names cannot see is pinned here: sharding
        re-exports nothing lazily, and the CLI refuses the old flags as
        usage errors."""
        from repro.cli import main
        from repro.core import sharding

        assert "__getattr__" not in vars(sharding)
        for argv in (["construct", "--curated", "c", "--out", "m",
                      "--format-version", "2"],
                     ["construct", "--curated", "c", "--out", "m",
                      "--executor", "thread"],
                     ["recommend", "--model", "m", "--title", "t",
                      "--leaf", "1", "--parallel", "serial"],
                     ["serve-nrt", "--model", "m",
                      "--executor", "thread"]):
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            assert exit_info.value.code == 2, argv


# ---------------------------------------------------------------------------
# The scatter/merge contract: one implementation, every substrate


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
                job.requests_of(shard))) == len(job.requests_of(shard))
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


class TestConstructionStaysInProcess:
    def test_fleet_is_refused_before_any_leaf_is_built(
            self, fleet, curated, monkeypatch):
        """The fleet serves inference only: handed to ``construct``, it
        is a named ``ValueError`` raised before any leaf graph is built,
        here or on a worker.  The reference builder's refusal is pinned
        in ``test_fast_construct.py``."""
        from repro.core import execution

        built = []
        monkeypatch.setattr(execution, "build_leaf_graph_fast",
                            lambda *args: built.append(args))
        with pytest.raises(ValueError, match="construction runs in process"):
            GraphExModel.construct(curated, executor=fleet)
        assert built == []

    def test_serial_construction_times_each_leaf(self, curated):
        """``executor.construction.*{executor=serial}``: one timed task
        per non-empty leaf, the graphs in curated order."""
        metrics = MetricsRegistry()
        graphs = SerialExecutor(metrics=metrics).run_construction(curated)
        assert list(graphs) == list(curated.leaves)
        labels = {"executor": "serial"}
        for name in ("tasks", "leaves"):
            assert metrics.counter_value(f"executor.construction.{name}",
                                         **labels) == len(graphs)
        assert metrics.histogram_stats("executor.construction.seconds",
                                       **labels)["count"] == len(graphs)


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

    def test_process_identical(self, fleet, model, requests, expected):
        """The fleet serves the oracle's output and books every request
        once (an adopting wrapper gives the call its own registry)."""
        metrics = MetricsRegistry()
        with ClusterExecutor(fleet.coordinator,
                             metrics=metrics) as executor:
            assert executor.run_inference(model, requests, k=5) == \
                expected
        assert metrics.counter_value("cluster.requests.merged") \
            == len(requests)
        assert fleet.coordinator.n_live() == 2  # adopted: not stopped

    def test_in_process_substrates_time_one_task_per_shard(
            self, model, requests):
        """The one in-process substrate records inference as one
        ``executor.inference.tasks`` per *planned shard* — here one,
        not one per leaf group — every request counted once."""
        metrics = MetricsRegistry()
        SerialExecutor(metrics=metrics).run_inference(model, requests,
                                                      k=5)
        plan, groups = ShardPlan.for_inference(model, requests, 1)
        assert plan.n_shards == 1 < len(groups)
        labels = {"executor": "serial"}
        assert metrics.counter_value("executor.inference.tasks",
                                     **labels) == 1
        assert metrics.counter_value("executor.inference.requests",
                                     **labels) == len(requests)
        assert metrics.histogram_stats(
            "executor.inference.seconds", **labels)["count"] == 1

    def test_construction_identical_across_substrates(self, curated,
                                                      model):
        """Construction has one substrate, the calling process; every
        ``executor=`` spelling ``construct`` accepts for it builds the
        same model, a metrics registry or none."""
        for executor in (None, "serial", SerialExecutor(),
                         SerialExecutor(metrics=MetricsRegistry())):
            rebuilt = GraphExModel.construct(curated, build_pooled=True,
                                             executor=executor)
            assert_models_identical(model, rebuilt)

    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_any_workload_any_executor_identical(self, data, fleet,
                                                 model):
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
        substrate = data.draw(st.sampled_from(["serial", "fleet"]))
        metrics = data.draw(st.sampled_from([NullRegistry,
                                             MetricsRegistry]))()
        oracle = SerialExecutor(metrics=NullRegistry()).run_inference(
            model, requests, k=4)
        if substrate == "serial":
            executor = resolve_executor("serial", metrics=metrics)
            counted = ("executor.inference.requests",
                       {"executor": "serial"})
        else:
            executor = ClusterExecutor(fleet.coordinator, metrics=metrics)
            counted = ("cluster.requests.merged", {})
        assert executor.run_inference(model, requests, k=4) == oracle
        if not isinstance(metrics, NullRegistry):
            assert metrics.counter_value(counted[0], **counted[1]) == n

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
        """`ClusterExecutor.local` (what the CLI's --executor
        process|cluster boots) starts real worker processes, serves
        identically, and ``close()`` leaves none behind."""
        from repro.core.serialization import save_model

        artifact = tmp_path / "model"
        save_model(model, artifact)
        executor = ClusterExecutor.local(workers=2)
        procs = list(executor._owned[2])
        try:
            assert len(procs) == 2
            assert all(proc.poll() is None for proc in procs)
            assert executor.run_inference(str(artifact), requests,
                                          k=5) == expected
        finally:
            executor.close()
        assert [proc.poll() for proc in procs] == [0, 0]
        executor.close()  # idempotent

    def test_reap_kills_a_straggler(self):
        """What ``close()`` does after stopping the coordinator: wait
        for each worker process, and kill one that will not leave."""
        import signal
        import subprocess

        from repro.cluster import reap_workers

        straggler = subprocess.Popen(
            [sys.executable, "-c", "import time; time.sleep(600)"])
        reap_workers([straggler], timeout=0.2)
        assert straggler.poll() == -signal.SIGKILL

    def test_worker_that_exits_before_registering_fails_boot_at_once(
            self, monkeypatch):
        """A launcher pointed at a bad interpreter flag: ``local()``
        raises with the child's exit code and stderr tail long before
        ``start_timeout``."""
        from repro.cluster import ClusterError, worker

        monkeypatch.setattr(worker, "WORKER_COMMAND",
                            (sys.executable, "--no-such-flag"))
        started = time.monotonic()
        with pytest.raises(ClusterError) as excinfo:
            ClusterExecutor.local(workers=2, start_timeout=60.0)
        assert time.monotonic() - started < 10.0
        message = str(excinfo.value)
        assert "exited with code 2 before registering" in message
        assert "no-such-flag" in message  # the interpreter's own words

    def test_worker_leaves_when_its_connection_drops(self):
        """A parent that dies without ``close()`` orphans nothing: the
        coordinator-side socket closes (no shutdown frame is sent) and
        the worker process exits on its own."""
        from repro.cluster import spawn_worker

        async def drive():
            async with ClusterCoordinator() as coordinator:
                proc = spawn_worker(
                    f"{coordinator.host}:{coordinator.port}", "orphan")
                try:
                    await coordinator.wait_for_workers(1, timeout=30.0)
                    (handle,) = coordinator._workers.values()
                    handle.transport.close()
                    return await asyncio.get_running_loop() \
                        .run_in_executor(None, proc.wait, 30.0)
                finally:
                    proc.kill()

        assert asyncio.run(drive()) == 0

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

