"""Tests for the fault-tolerant multi-machine shard runner (ISSUE 7).

Covers the layers bottom-up: the shared retry policy, the wire protocol
codecs (bit-exact float round-trips), the fault-injecting transport,
the coordinator's happy paths (inference + construction element-wise
identical to the single-process fast paths), the robustness edge cases
(mid-plan joins, duplicate names, late-result fencing, graceful drain),
a hypothesis property that *any* drawn kill/drop/delay schedule still
yields identical results with every orphaned shard re-executed exactly
once, and the refresh-orchestrator integration (retried steps, remote
artifact deploys).
"""

from __future__ import annotations

import asyncio
import json
from collections import deque
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import (ClusterCoordinator, ClusterError,
                           ClusterExecutionError, ClusterWorker, Fault,
                           FaultSchedule, FaultyTransport, FrameError,
                           RetriesExhausted, RetryPolicy,
                           TransportClosed, WorkerKilled, decode_frame,
                           encode_frame)
from repro.cluster.protocol import (pack_recommendations, pack_requests,
                                    pack_token_state, pack_tokenizer,
                                    unpack_recommendations,
                                    unpack_requests, unpack_token_state,
                                    unpack_tokenizer)
from repro.core.curation import (CuratedKeyphrases, CuratedLeaf,
                                 CurationConfig)
from repro.core.fast_construct import fast_construct_leaf_graphs
from repro.core.fast_inference import LeafBatchRunner
from repro.core.inference import Recommendation
from repro.core.model import GraphExModel
from repro.core.serialization import save_model
from repro.core.tokenize import DEFAULT_TOKENIZER, SpaceTokenizer


# ---------------------------------------------------------------------------
# World fixtures


def build_curated(n_leaves: int = 5, phrases: int = 6) -> CuratedKeyphrases:
    leaves = {}
    for leaf_id in range(1, n_leaves + 1):
        leaf = CuratedLeaf(leaf_id=leaf_id)
        for j in range(phrases):
            leaf.add(f"phrase {leaf_id} word{j} extra", 5 + j,
                     3 + (j % 4))
        leaves[leaf_id] = leaf
    return CuratedKeyphrases(leaves=leaves, effective_threshold=1,
                             config=CurationConfig(min_search_count=1))


@pytest.fixture(scope="module")
def curated():
    return build_curated()


@pytest.fixture(scope="module")
def model(curated):
    return GraphExModel.construct(curated)


@pytest.fixture(scope="module")
def artifact(model, tmp_path_factory):
    directory = tmp_path_factory.mktemp("cluster-model") / "model"
    save_model(model, directory)
    return directory


@pytest.fixture(scope="module")
def requests(model):
    out = []
    for i in range(30):
        leaf_id = 1 + (i % model.n_leaves)
        out.append((i, f"word{i % 6} phrase {leaf_id} extra", leaf_id))
    return out


@pytest.fixture(scope="module")
def expected(model, requests):
    return LeafBatchRunner(model, k=5).run(requests)


def fast_retry(**overrides) -> RetryPolicy:
    defaults = dict(max_attempts=5, base_delay=0.01, max_delay=0.05,
                    jitter=0.0, seed=0)
    defaults.update(overrides)
    return RetryPolicy(**defaults)


async def spawn_worker(coordinator, **kwargs) -> tuple:
    worker = ClusterWorker(coordinator.host, coordinator.port, **kwargs)
    task = asyncio.ensure_future(worker.run())
    return worker, task


async def teardown(coordinator, tasks) -> None:
    await coordinator.stop()
    for task in tasks:
        task.cancel()
    if tasks:
        await asyncio.gather(*tasks, return_exceptions=True)


# ---------------------------------------------------------------------------
# Retry policy


class TestRetryPolicy:
    def test_seeded_delays_are_reproducible(self):
        a = list(RetryPolicy(seed=13).delays())
        b = list(RetryPolicy(seed=13).delays())
        assert a == b and len(a) == 3

    def test_delays_respect_cap_and_jitter_band(self):
        policy = RetryPolicy(max_attempts=8, base_delay=0.1,
                             max_delay=0.5, multiplier=2.0, jitter=0.4,
                             seed=7)
        for attempt in range(7):
            capped = min(0.5, 0.1 * 2.0 ** attempt)
            delay = policy.delay_for(attempt)
            assert capped * 0.6 <= delay <= capped

    def test_zero_jitter_is_deterministic_exponential(self):
        policy = RetryPolicy(max_attempts=5, base_delay=1.0,
                             max_delay=6.0, multiplier=2.0, jitter=0.0)
        assert list(policy.delays()) == [1.0, 2.0, 4.0, 6.0]

    def test_call_retries_then_succeeds(self):
        attempts, slept, noted = [], [], []
        policy = fast_retry(max_attempts=4)

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise OSError("transient")
            return "done"

        result = policy.call(flaky, sleep=slept.append,
                             on_retry=lambda a, e, d: noted.append(a))
        assert result == "done"
        assert len(attempts) == 3
        assert len(slept) == 2 == len(noted)

    def test_call_exhausts_with_cause_and_attempts(self):
        policy = fast_retry(max_attempts=3)

        def doomed():
            raise OSError("always")

        with pytest.raises(RetriesExhausted) as excinfo:
            policy.call(doomed, sleep=lambda _d: None)
        assert excinfo.value.attempts == 3
        assert isinstance(excinfo.value.__cause__, OSError)

    def test_non_matching_exception_propagates_immediately(self):
        calls = []

        def wrong_kind():
            calls.append(1)
            raise ValueError("not transient")

        with pytest.raises(ValueError):
            fast_retry().call(wrong_kind, retry_on=(OSError,),
                              sleep=lambda _d: None)
        assert len(calls) == 1

    def test_call_async_retries(self):
        attempts = []

        async def flaky():
            attempts.append(1)
            if len(attempts) < 2:
                raise OSError("transient")
            return 42

        assert asyncio.run(fast_retry().call_async(flaky)) == 42
        assert len(attempts) == 2

    def test_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="jitter"):
            RetryPolicy(jitter=1.0)
        with pytest.raises(ValueError, match="delays"):
            RetryPolicy(base_delay=-1.0)


# ---------------------------------------------------------------------------
# Protocol


class TestProtocol:
    def test_frame_roundtrip(self):
        message = {"type": "x", "nested": {"a": [1, 2.5, "s", None]}}
        assert decode_frame(encode_frame(message)[4:]) == message

    def test_non_object_payload_rejected(self):
        with pytest.raises(FrameError, match="JSON object"):
            decode_frame(b"[1, 2]")
        with pytest.raises(FrameError, match="undecodable"):
            decode_frame(b"{nope")

    def test_recommendations_roundtrip_bit_exact(self):
        scores = [0.1, 1 / 3, 5e-324, 1.7976931348623157e308,
                  2.220446049250313e-16]
        recs = [Recommendation(f"text {i}", score, i, i + 1, i % 3)
                for i, score in enumerate(scores)]
        back = unpack_recommendations(
            json.loads(json.dumps(pack_recommendations(recs))))
        assert back == recs  # float equality == bit identity here

    def test_requests_roundtrip(self):
        reqs = [(1, "a title", 7), (2, "", -3)]
        assert unpack_requests(
            json.loads(json.dumps(pack_requests(reqs)))) == reqs

    def test_tokenizer_roundtrip_preserves_semantics(self):
        tokenizer = SpaceTokenizer(stem=True,
                                   drop_stopwords=("for", "with"))
        back = unpack_tokenizer(
            json.loads(json.dumps(pack_tokenizer(tokenizer))))
        for text in ("Wireless Headphones for gaming", "cables with!"):
            assert back(text) == tokenizer(text)

    def test_custom_tokenizer_not_wire_representable(self):
        with pytest.raises(ValueError, match="SpaceTokenizer"):
            pack_tokenizer(lambda text: text.split())

    def test_token_state_roundtrip(self):
        state = (["tok0", "tok1"], {"a b": (0, 1), "": ()}, None)
        back = unpack_token_state(
            json.loads(json.dumps(pack_token_state(state))))
        assert back == state

    def test_oversized_frame_rejected(self):
        import repro.cluster.protocol as protocol
        big = {"data": "x" * (protocol.MAX_FRAME_BYTES + 1)}
        with pytest.raises(FrameError, match="exceeds"):
            encode_frame(big)


# ---------------------------------------------------------------------------
# Fault-injecting transport


class StubTransport:
    """List-backed stand-in for a Transport (unit-tests the injector)."""

    def __init__(self, incoming=()):
        self.incoming = deque(incoming)
        self.sent = []
        self.closed = False

    async def send(self, message):
        if self.closed:
            raise TransportClosed("closed")
        self.sent.append(message)

    async def recv(self):
        if not self.incoming:
            raise TransportClosed("drained")
        return self.incoming.popleft()

    def close(self):
        self.closed = True

    async def wait_closed(self):
        pass


class TestFaultyTransport:
    def test_drop_skips_the_indexed_frame(self):
        inner = StubTransport()
        faulty = FaultyTransport(inner, FaultSchedule(
            send={1: Fault("drop")}))

        async def drive():
            for i in range(3):
                await faulty.send({"n": i})

        asyncio.run(drive())
        assert [m["n"] for m in inner.sent] == [0, 2]

    def test_sever_closes_and_raises(self):
        inner = StubTransport()
        faulty = FaultyTransport(inner, FaultSchedule(
            send={0: Fault("sever")}))
        with pytest.raises(TransportClosed, match="injected"):
            asyncio.run(faulty.send({"n": 0}))
        assert inner.closed

    def test_recv_drop_delivers_the_next_frame(self):
        inner = StubTransport([{"n": 0}, {"n": 1}])
        faulty = FaultyTransport(inner, FaultSchedule(
            recv={0: Fault("drop")}))
        assert asyncio.run(faulty.recv()) == {"n": 1}

    def test_match_predicate_counts_only_matching_frames(self):
        inner = StubTransport()
        faulty = FaultyTransport(inner, FaultSchedule(
            send={0: Fault("drop")},
            match=lambda m: m.get("type") == "shard_result"))

        async def drive():
            await faulty.send({"type": "heartbeat"})
            await faulty.send({"type": "shard_result", "n": 1})
            await faulty.send({"type": "shard_result", "n": 2})

        asyncio.run(drive())
        assert [m for m in inner.sent
                if m.get("type") == "shard_result"] == [
                    {"type": "shard_result", "n": 2}]

    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError, match="fault action"):
            Fault("explode")


# ---------------------------------------------------------------------------
# Coordinator happy paths


class TestClusterInference:
    def test_two_workers_identical_and_exactly_once(self, artifact,
                                                    requests, expected):
        async def drive():
            async with ClusterCoordinator(rpc_timeout=20.0) as coord:
                _w, t1 = await spawn_worker(coord, name="a")
                _w, t2 = await spawn_worker(coord, name="b")
                await coord.wait_for_workers(2, timeout=10.0)
                got = await coord.run_inference(str(artifact), requests,
                                                k=5)
                await teardown(coord, [t1, t2])
                return got, coord.last_report

        got, report = asyncio.run(drive())
        assert got == expected
        assert all(count == 1 for count in report.merge_counts.values())
        assert sorted(report.workers_used) == ["a", "b"]
        assert report.n_replans == report.n_retries == 0

    def test_in_memory_model_is_persisted_to_spool(self, model,
                                                   requests, expected):
        async def drive():
            async with ClusterCoordinator(rpc_timeout=20.0) as coord:
                _w, task = await spawn_worker(coord, name="solo")
                await coord.wait_for_workers(1, timeout=10.0)
                got = await coord.run_inference(model, requests, k=5)
                await teardown(coord, [task])
                return got

        assert asyncio.run(drive()) == expected

    def test_stream_distribution_identical(self, artifact, requests,
                                           expected):
        async def drive():
            async with ClusterCoordinator(rpc_timeout=20.0) as coord:
                _w, task = await spawn_worker(coord, name="streamed")
                await coord.wait_for_workers(1, timeout=10.0)
                got = await coord.run_inference(
                    str(artifact), requests, k=5, distribute="stream")
                await teardown(coord, [task])
                return got

        assert asyncio.run(drive()) == expected

    def test_empty_fleet_degrades_to_local(self, artifact, requests,
                                           expected):
        async def drive():
            async with ClusterCoordinator() as coord:
                got = await coord.run_inference(str(artifact), requests,
                                                k=5)
                return got, coord.last_report

        got, report = asyncio.run(drive())
        assert got == expected
        assert report.n_local_units == report.n_units_planned > 0

    def test_local_fallback_disabled_fails_loudly(self, artifact,
                                                  requests):
        async def drive():
            async with ClusterCoordinator(local_fallback=False) as coord:
                await coord.run_inference(str(artifact), requests, k=5)

        with pytest.raises(ClusterError, match="fallback"):
            asyncio.run(drive())

    def test_worker_exception_surfaces_original_traceback(
            self, artifact, requests, monkeypatch):
        """A shard that raises on its host fails the job with the
        worker's own traceback, not a bare connection error."""

        def exploding_compute(self, message):
            raise RuntimeError("boom-on-worker")

        monkeypatch.setattr(ClusterWorker, "_run_inference_shard",
                            exploding_compute)

        async def drive():
            async with ClusterCoordinator(rpc_timeout=20.0) as coord:
                _w, task = await spawn_worker(coord, name="broken")
                await coord.wait_for_workers(1, timeout=10.0)
                try:
                    await coord.run_inference(str(artifact), requests,
                                              k=5)
                finally:
                    await teardown(coord, [task])

        with pytest.raises(ClusterExecutionError,
                           match="original worker traceback") as excinfo:
            asyncio.run(drive())
        assert "boom-on-worker" in excinfo.value.worker_traceback
        assert "RuntimeError" in excinfo.value.worker_traceback

    def test_run_construction_identical_to_fast_path(self, curated):
        async def drive():
            async with ClusterCoordinator(rpc_timeout=20.0) as coord:
                _w, t1 = await spawn_worker(coord, name="c1")
                _w, t2 = await spawn_worker(coord, name="c2")
                await coord.wait_for_workers(2, timeout=10.0)
                graphs, cache = await coord.run_construction(
                    curated, DEFAULT_TOKENIZER)
                await teardown(coord, [t1, t2])
                return graphs, cache, coord.last_report

        graphs, cache, report = asyncio.run(drive())
        ref_graphs, ref_cache = fast_construct_leaf_graphs(
            curated, DEFAULT_TOKENIZER)
        assert list(graphs) == list(ref_graphs)
        for leaf_id, reference in ref_graphs.items():
            built = graphs[leaf_id]
            assert list(built.label_texts) == list(reference.label_texts)
            assert np.array_equal(built.graph.indptr,
                                  reference.graph.indptr)
            assert np.array_equal(built.graph.indices,
                                  reference.graph.indices)
            assert np.array_equal(built.label_lengths,
                                  reference.label_lengths)
            assert np.array_equal(built.search_counts,
                                  reference.search_counts)
            assert np.array_equal(built.recall_counts,
                                  reference.recall_counts)
            assert list(built.word_vocab) == list(reference.word_vocab)
        # The merged pool knows every token the reference pool knows.
        assert len(cache) == len(ref_cache)
        assert all(count == 1 for count in report.merge_counts.values())

    def test_custom_tokenizer_construction_runs_locally(self, curated):
        """A non-wire-representable tokenizer cannot promise identical
        remote semantics — the job silently takes the local path."""
        tokenizer = lambda text: text.split()  # noqa: E731

        async def drive():
            async with ClusterCoordinator() as coord:
                _w, task = await spawn_worker(coord, name="idle")
                await coord.wait_for_workers(1, timeout=10.0)
                graphs, cache = await coord.run_construction(curated,
                                                             tokenizer)
                await teardown(coord, [task])
                return graphs

        graphs = asyncio.run(drive())
        ref_graphs, _ = fast_construct_leaf_graphs(curated, tokenizer)
        assert list(graphs) == list(ref_graphs)

    def test_deploy_artifact_acknowledged_by_fleet(self, artifact):
        async def drive():
            async with ClusterCoordinator(rpc_timeout=20.0) as coord:
                _w, t1 = await spawn_worker(coord, name="d1")
                _w, t2 = await spawn_worker(coord, name="d2")
                await coord.wait_for_workers(2, timeout=10.0)
                count = await coord.deploy_artifact(artifact,
                                                    generation=3)
                await teardown(coord, [t1, t2])
                return count

        assert asyncio.run(drive()) == 2


# ---------------------------------------------------------------------------
# Robustness edge cases (the satellite-4 quartet)


class TestCoordinatorEdgeCases:
    def test_worker_joining_mid_plan_is_used(self, artifact, requests,
                                             expected):
        """A worker that registers only after the job has started picks
        up the shard orphaned by a crashed host, while the sole
        survivor is still busy.  Local fallback is off, so completion
        proves the late joiner really ran it."""

        def slow_results(transport):
            return FaultyTransport(transport, FaultSchedule(
                send={0: Fault("delay", delay=0.6)},
                match=lambda m: m.get("type") == "shard_result"))

        async def drive():
            async with ClusterCoordinator(rpc_timeout=20.0,
                                          retry=fast_retry(),
                                          local_fallback=False) as coord:
                _w, t1 = await spawn_worker(
                    coord, name="slow", transport_wrapper=slow_results)
                await coord.wait_for_workers(1, timeout=10.0)
                _w, t2 = await spawn_worker(coord, name="doomed",
                                            die_after_assignments=0)
                await coord.wait_for_workers(2, timeout=10.0)
                job = asyncio.ensure_future(coord.run_inference(
                    str(artifact), requests, k=5))
                await asyncio.sleep(0.15)
                assert not job.done()
                _w, t3 = await spawn_worker(coord, name="late-joiner")
                got = await job
                report = coord.last_report
                await teardown(coord, [t1, t2, t3])
                return got, report

        got, report = asyncio.run(drive())
        assert got == expected
        assert "late-joiner" in report.workers_used
        assert report.n_replans >= 1
        assert report.n_local_units == 0
        assert all(count == 1 for count in report.merge_counts.values())

    def test_duplicate_registration_rejected(self):
        async def drive():
            async with ClusterCoordinator() as coord:
                first, task = await spawn_worker(coord, name="dup")
                await coord.wait_for_workers(1, timeout=10.0)
                second = ClusterWorker(coord.host, coord.port,
                                       name="dup")
                with pytest.raises(ConnectionError,
                                   match="already registered"):
                    await second.run()
                # The live holder kept the name and the connection.
                assert coord.worker_names() == ["dup"]
                await teardown(coord, [task])

        asyncio.run(drive())

    def test_late_result_after_reassignment_not_double_merged(
            self, artifact, requests, expected):
        """A worker whose results arrive after the deadline: the unit
        is fenced, retried elsewhere, and when the late result finally
        lands it is discarded — never merged a second time."""

        def slow_results(transport):
            return FaultyTransport(transport, FaultSchedule(
                send={0: Fault("delay", delay=1.2),
                      1: Fault("delay", delay=1.2)},
                match=lambda m: m.get("type") == "shard_result"))

        async def drive():
            async with ClusterCoordinator(
                    rpc_timeout=0.4,
                    retry=fast_retry()) as coord:
                _w, t1 = await spawn_worker(
                    coord, name="slow", transport_wrapper=slow_results)
                await coord.wait_for_workers(1, timeout=10.0)
                _w, t2 = await spawn_worker(coord, name="prompt")
                await coord.wait_for_workers(2, timeout=10.0)
                got = await coord.run_inference(str(artifact), requests,
                                                k=5)
                # Give the delayed frames time to land while the
                # connection is still up, then stop.
                await asyncio.sleep(1.5)
                report = coord.last_report
                await teardown(coord, [t1, t2])
                return got, report

        got, report = asyncio.run(drive())
        assert got == expected
        assert report.n_retries >= 1
        # The exactly-once invariant is the point: despite the retries
        # and the eventually-arriving duplicates, nothing double-merged.
        assert all(count == 1 for count in report.merge_counts.values())

    def test_late_result_fencing_rule_is_deterministic(self):
        """Unit-level pin of the discard rule: a frame for a stale (or
        unknown) assignment increments the late counter and never
        resolves a future."""
        from repro.cluster.coordinator import (ClusterRunReport,
                                               _Assignment, _Unit)

        async def drive():
            coord = ClusterCoordinator()
            await coord.start()
            try:
                report = ClusterRunReport(kind="inference",
                                          n_units_planned=1,
                                          n_workers_at_start=1)
                coord._active_report = report
                entry = _Assignment(
                    unit=_Unit((1,)),
                    future=asyncio.get_event_loop().create_future(),
                    stale=True)
                coord._assignments[7] = entry
                worker = type("W", (), {"last_seen": 0.0})()
                coord._route_frame(worker, {"type": "shard_result",
                                            "assignment": 7})
                coord._route_frame(worker, {"type": "shard_result",
                                            "assignment": 999})
                assert report.n_late_discarded == 2
                assert not entry.future.done()
            finally:
                coord._active_report = None
                await coord.stop()

        asyncio.run(drive())

    def test_dead_worker_orphans_are_replanned(self, artifact, requests,
                                               expected):
        async def drive():
            async with ClusterCoordinator(
                    rpc_timeout=20.0, retry=fast_retry()) as coord:
                _w, t1 = await spawn_worker(coord, name="doomed",
                                            die_after_assignments=0)
                await coord.wait_for_workers(1, timeout=10.0)
                _w, t2 = await spawn_worker(coord, name="survivor")
                await coord.wait_for_workers(2, timeout=10.0)
                got = await coord.run_inference(str(artifact), requests,
                                                k=5)
                report = coord.last_report
                await teardown(coord, [t1, t2])
                return got, report

        got, report = asyncio.run(drive())
        assert got == expected
        assert report.n_replans >= 1
        assert report.orphaned_keys
        orphans = {key for group in report.orphaned_keys
                   for key in group}
        assert all(report.merge_counts[key] == 1 for key in orphans)

    def test_graceful_stop_drains_in_flight_job(self, artifact,
                                                requests, expected):
        """stop(drain=True) lets the running job finish and merge; new
        jobs are rejected from that moment."""

        def slow_delivery(transport):
            return FaultyTransport(transport, FaultSchedule(
                recv={0: Fault("delay", delay=0.3)},
                match=lambda m: m.get("type") == "run_shard"))

        async def drive():
            coord = ClusterCoordinator(rpc_timeout=20.0)
            await coord.start()
            _w, task = await spawn_worker(
                coord, name="draining", transport_wrapper=slow_delivery)
            await coord.wait_for_workers(1, timeout=10.0)
            job = asyncio.ensure_future(coord.run_inference(
                str(artifact), requests, k=5))
            await asyncio.sleep(0.05)
            await coord.stop(drain=True)
            got = await job
            with pytest.raises(ClusterError, match="stopping"):
                await coord.run_inference(str(artifact), requests, k=5)
            task.cancel()
            await asyncio.gather(task, return_exceptions=True)
            return got

        assert asyncio.run(drive()) == expected


# ---------------------------------------------------------------------------
# The fault-injection property


def worker_fault_spec():
    """One worker's failure mode for the property below."""
    return st.one_of(
        st.none(),
        st.tuples(st.just("kill"), st.integers(0, 1)),
        st.tuples(st.just("sever"), st.integers(0, 2)),
        st.tuples(st.just("drop"), st.integers(0, 2)),
        st.tuples(st.just("delay"), st.integers(0, 2)),
    )


class TestFaultInjectionProperty:
    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(specs=st.lists(worker_fault_spec(), min_size=2, max_size=3))
    def test_any_fault_schedule_yields_identical_results(
            self, specs, artifact, requests, expected):
        """The headline property: for ANY drawn schedule of worker
        kills, severed connections, dropped results, and delayed
        results, the cluster's merged output is element-wise identical
        to the single-process fast path, and every orphaned shard is
        re-executed and merged exactly once."""

        def make_worker_kwargs(spec):
            if spec is None:
                return {}
            action, index = spec
            if action == "kill":
                return {"die_after_assignments": index}
            fault = (Fault(action) if action != "delay"
                     else Fault("delay", delay=1.0))
            schedule = FaultSchedule(
                send={index: fault},
                match=lambda m: m.get("type") == "shard_result")
            return {"transport_wrapper":
                    lambda t, s=schedule: FaultyTransport(t, s)}

        async def drive():
            async with ClusterCoordinator(
                    rpc_timeout=0.4, retry=fast_retry(),
                    heartbeat_timeout=5.0) as coord:
                tasks = []
                for index, spec in enumerate(specs):
                    _w, task = await spawn_worker(
                        coord, name=f"w{index}",
                        heartbeat_interval=0.1,
                        **make_worker_kwargs(spec))
                    tasks.append(task)
                await coord.wait_for_workers(len(specs), timeout=10.0)
                got = await coord.run_inference(str(artifact), requests,
                                                k=5)
                report = coord.last_report
                await teardown(coord, tasks)
                return got, report

        got, report = asyncio.run(drive())
        assert got == expected
        assert all(count == 1 for count in report.merge_counts.values())
        orphans = {key for group in report.orphaned_keys
                   for key in group}
        assert all(report.merge_counts[key] == 1 for key in orphans)


# ---------------------------------------------------------------------------
# Worker internals


class TestWorkerKillSwitch:
    def test_kill_switch_raises_worker_killed(self, artifact, requests):
        async def drive():
            async with ClusterCoordinator(
                    rpc_timeout=20.0, retry=fast_retry()) as coord:
                worker, task = await spawn_worker(
                    coord, name="condemned", die_after_assignments=0)
                await coord.wait_for_workers(1, timeout=10.0)
                _w2, t2 = await spawn_worker(coord, name="backup")
                await coord.wait_for_workers(2, timeout=10.0)
                await coord.run_inference(str(artifact), requests, k=5)
                with pytest.raises(WorkerKilled):
                    await task
                assert worker.n_completed == 0
                await teardown(coord, [t2])

        asyncio.run(drive())


# ---------------------------------------------------------------------------
# Fleet metrics (observability plane)


class TestFleetMetrics:
    """Worker registries ride heartbeats AND shard_result frames; the
    coordinator keeps the *latest* snapshot per worker and merges once
    — so fleet counters are exactly-once and equal the single-process
    totals, however the units were scheduled."""

    def test_two_worker_fleet_snapshot_is_valid_and_exact(
            self, artifact, requests, expected):
        from repro.obs import validate_snapshot

        async def drive():
            async with ClusterCoordinator(rpc_timeout=20.0) as coord:
                _w, t1 = await spawn_worker(coord, name="a")
                _w, t2 = await spawn_worker(coord, name="b")
                await coord.wait_for_workers(2, timeout=10.0)
                got = await coord.run_inference(str(artifact), requests,
                                                k=5)
                fleet = coord.fleet_snapshot()
                await teardown(coord, [t1, t2])
                return got, coord.last_report, fleet

        got, report, fleet = asyncio.run(drive())
        assert got == expected
        assert report.n_retries == 0
        for snapshot in (report.fleet_metrics, fleet):
            validate_snapshot(snapshot)
            counters = snapshot["counters"]
            # Exactly-once merge: every request merged once, whichever
            # worker ran it, and the workers' own execution counters
            # agree (no retries, so executed == merged).
            assert counters["cluster.requests.merged"] == len(requests)
            assert counters["worker.requests"] == len(requests)
        assert "cluster.requests.merged" in report.as_dict()[
            "fleet_metrics"]["counters"]

    def test_fleet_counters_equal_single_process_run(
            self, artifact, requests, expected):
        async def fleet_run():
            async with ClusterCoordinator(rpc_timeout=20.0) as coord:
                _w, t1 = await spawn_worker(coord, name="a")
                _w, t2 = await spawn_worker(coord, name="b")
                await coord.wait_for_workers(2, timeout=10.0)
                got = await coord.run_inference(str(artifact), requests,
                                                k=5)
                await teardown(coord, [t1, t2])
                return got, coord.last_report

        async def local_run():
            async with ClusterCoordinator() as coord:
                got = await coord.run_inference(str(artifact), requests,
                                                k=5)
                return got, coord.last_report

        fleet_got, fleet_report = asyncio.run(fleet_run())
        local_got, local_report = asyncio.run(local_run())
        assert fleet_got == local_got == expected
        fleet_merged = fleet_report.fleet_metrics["counters"][
            "cluster.requests.merged"]
        local_merged = local_report.fleet_metrics["counters"][
            "cluster.requests.merged"]
        assert fleet_merged == local_merged == len(requests)

    def test_construction_fleet_counters(self, curated):
        async def drive():
            async with ClusterCoordinator(rpc_timeout=20.0) as coord:
                _w, t1 = await spawn_worker(coord, name="a")
                await coord.wait_for_workers(1, timeout=10.0)
                graphs, _cache = await coord.run_construction(
                    curated, DEFAULT_TOKENIZER)
                await teardown(coord, [t1])
                return graphs, coord.last_report

        graphs, report = asyncio.run(drive())
        n_leaves = sum(1 for leaf in curated.leaves.values()
                       if len(leaf) > 0)
        assert len(graphs) == n_leaves
        counters = report.fleet_metrics["counters"]
        assert counters["cluster.leaves.merged"] == n_leaves

    def test_malformed_worker_snapshot_is_rejected_not_merged(
            self, artifact, requests, expected):
        from repro.serving.kvstore import KeyValueStore  # noqa: F401

        async def drive():
            async with ClusterCoordinator(rpc_timeout=20.0) as coord:
                _w, t1 = await spawn_worker(coord, name="a")
                await coord.wait_for_workers(1, timeout=10.0)
                # Inject a poisoned heartbeat-shaped frame by hand.
                worker = next(iter(coord._workers.values()))
                coord._stash_worker_metrics(
                    worker, {"metrics": {"schema_version": 999}})
                got = await coord.run_inference(str(artifact), requests,
                                                k=5)
                fleet = coord.fleet_snapshot()
                await teardown(coord, [t1])
                return got, fleet, coord

        got, fleet, coord = asyncio.run(drive())
        assert got == expected
        # The bad snapshot was counted and dropped; the fleet view
        # still validates and still reflects the worker's good
        # (shard_result-borne) snapshots.
        from repro.obs import validate_snapshot
        validate_snapshot(fleet)
        assert fleet["counters"][
            "coordinator.metrics.rejected_snapshots"] == 1
        assert fleet["counters"]["cluster.requests.merged"] \
            == len(requests)
