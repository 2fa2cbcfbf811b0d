"""Tests for the fault-tolerant multi-machine shard runner (ISSUE 7).

Covers the layers bottom-up: the shared retry policy, the wire protocol
codecs (bit-exact float round-trips), the fault-injecting transport,
the coordinator's happy paths (inference element-wise identical to the
single-process fast path), the robustness edge cases
(mid-plan joins, duplicate names, late-result fencing, graceful drain),
a hypothesis property that *any* drawn kill/drop/delay schedule still
yields identical results with every orphaned shard re-executed exactly
once, and the refresh-orchestrator integration (retried steps, remote
artifact deploys).
"""

from __future__ import annotations

import asyncio
import json
import struct
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
from repro.cluster.protocol import (PROTOCOL_VERSION, pack_ranked,
                                    pack_requests, read_frame,
                                    unpack_ranked, unpack_recommendations,
                                    unpack_requests)
from repro.cluster.scheduler import Scheduler
from repro.cluster.transport import Transport
from repro.core.curation import (CuratedKeyphrases, CuratedLeaf,
                                 CurationConfig)
from repro.core.fast_inference import LeafBatchRunner, RankedColumns
from repro.core.model import GraphExModel
from repro.core.serialization import open_model, save_model
from repro.core.sharding import ShardPlan
from repro.core.tokenize import SpaceTokenizer
from repro.obs import MetricsRegistry


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

    def test_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="jitter"):
            RetryPolicy(jitter=1.0)
        with pytest.raises(ValueError, match="delays"):
            RetryPolicy(base_delay=-1.0)


# ---------------------------------------------------------------------------
# Protocol


def through_a_stream(wire: bytes, n_frames: int = 1):
    """What the receiving end of a connection makes of ``wire``: the
    frame it reads, or the list of them when asked for several."""
    async def read_back():
        reader = asyncio.StreamReader()
        reader.feed_data(wire)
        reader.feed_eof()
        return [await read_frame(reader) for _ in range(n_frames)]

    frames = asyncio.run(read_back())
    return frames[0] if n_frames == 1 else frames


def bit_patterns(n: int) -> np.ndarray:
    """``n`` float64 scores that between them hold every awkward bit
    pattern: the smallest subnormal, the largest finite, both zeros,
    infinities, and quiet and signalling NaNs with payloads."""
    awkward = np.array([5e-324, 1.7976931348623157e308, -0.0, 0.0,
                        np.inf, -np.inf, 0.1, 1 / 3], dtype="<f8")
    nans = np.array([0x7ff8000000000000, 0x7ff8000000000001,
                     0xfff8dead0000beef, 0x7ff0000000000001,
                     0x7ff4000000c0ffee], dtype="<u8").view("<f8")
    return np.resize(np.concatenate([awkward, nans]), n)


class TestProtocol:
    def test_frame_roundtrip_with_and_without_a_tail(self):
        message = {"type": "x", "nested": {"a": [1, 2.5, "s", None]}}
        assert through_a_stream(encode_frame(message)) == message
        for tail in (b"\x00", bytes(range(256)) * 3, b'{"type":"y"}'):
            sent = {**message, "tail": tail}
            frame = encode_frame(sent)
            assert isinstance(frame, bytes)
            assert frame.endswith(tail)             # raw, not re-encoded
            assert through_a_stream(frame) == sent
            assert sent == {**message, "tail": tail}   # not mutated
        # An empty tail is no tail.
        assert through_a_stream(
            encode_frame({**message, "tail": b""})) == message
        # Two frames back to back stay two frames.
        both = encode_frame({"n": 1, "tail": b"ab"}) + encode_frame({"n": 2})
        assert through_a_stream(both, 2) == [{"n": 1, "tail": b"ab"},
                                             {"n": 2}]

    def test_tail_is_bytes_and_the_control_object_cannot_name_it(self):
        with pytest.raises(FrameError, match="must be bytes"):
            encode_frame({"type": "x", "tail": "text"})
        with pytest.raises(FrameError, match="must be bytes"):
            encode_frame({"type": "x", "tail": [1, 2]})
        with pytest.raises(FrameError, match="binary tail"):
            decode_frame(b'{"type":"x","tail":[1,2]}')

    def test_protocol_1_worker_is_rejected_at_registration(self):
        """A pre-tail worker would answer with JSON rows this
        coordinator no longer reads: it is turned away up front, with
        the reason the version check always gave."""
        async def drive():
            async with ClusterCoordinator() as coord:
                peer = Transport(*await asyncio.open_connection(
                    coord.host, coord.port))
                await peer.send({"type": "register", "name": "old",
                                 "protocol": 1})
                reply = await peer.recv()
                peer.close()
                return reply, coord.n_live()

        reply, n_live = asyncio.run(drive())
        assert reply["type"] == "error"
        assert reply["reason"] == \
            f"protocol 1 != coordinator protocol {PROTOCOL_VERSION}"
        assert n_live == 0

    def test_non_object_payload_rejected(self):
        with pytest.raises(FrameError, match="JSON object"):
            decode_frame(b"[1, 2]")
        with pytest.raises(FrameError, match="undecodable"):
            decode_frame(b"{nope")

    @settings(max_examples=60, deadline=None)
    @given(sizes=st.lists(st.integers(0, 6), min_size=0, max_size=12),
           n_unanswered=st.integers(0, 5),
           bits=st.lists(st.integers(0, 2 ** 64 - 1), max_size=8),
           seed=st.integers(0, 2 ** 31))
    def test_ranked_columns_roundtrip_bit_exact(self, sizes, n_unanswered,
                                                bits, seed):
        """Columns cross the wire as the bytes they are: every score
        bit pattern — subnormals, -0.0, NaN payloads, drawn at random —
        comes back byte for byte, and so does every integer."""
        rng = np.random.default_rng(seed)
        n_requests = len(sizes) + n_unanswered
        n_rows = sum(sizes)
        scores = bit_patterns(n_rows)
        drawn = np.array(bits[:n_rows], dtype="<u8").view("<f8")
        scores[:len(drawn)] = drawn
        ranked = RankedColumns(
            requests=rng.permutation(n_requests)[:len(sizes)],
            sizes=np.array(sizes, dtype=np.int64),
            labels=rng.integers(0, 2 ** 31, n_rows),
            counts=rng.integers(1, 40, n_rows),
            scores=scores)
        reply = through_a_stream(encode_frame(
            {"type": "shard_result", **pack_ranked(ranked, n_requests)}))
        back = unpack_ranked(reply, n_requests)
        for sent, got in zip(ranked[:4], back[:4]):
            assert got.dtype == np.dtype("<i4")
            assert np.array_equal(sent, got)
        assert back.scores.tobytes() == scores.tobytes()
        # 8 bytes per answered request, 16 per row, nothing else.
        assert len(reply.get("tail", b"")) == 8 * len(sizes) + 16 * n_rows

    def test_columns_that_do_not_fit_int32_are_refused_by_the_sender(self):
        wide = RankedColumns(np.array([0]), np.array([1]),
                             np.array([2 ** 31]), np.array([1]),
                             np.array([0.5]))
        with pytest.raises(FrameError, match="'labels' does not fit"):
            pack_ranked(wide, 1)

    @pytest.mark.parametrize("kwargs,titles", [
        ({"k": 0}, None), ({"k": -3}, None),
        ({"k": 5, "hard_limit": 0}, None),
        ({"k": 5}, "zzz qqq"), ({"k": 5}, ""),
    ], ids=["k=0", "k<0", "hard_limit=0", "all-oov", "empty-titles"])
    def test_empty_shards_cross_as_an_empty_tail(self, model, requests,
                                                 kwargs, titles):
        if titles is not None:
            requests = [(item_id, titles, leaf_id)
                        for item_id, _title, leaf_id in requests]
        runner = LeafBatchRunner(model, **kwargs)
        packed = pack_ranked(runner.run_ranked(requests), len(requests))
        assert packed["n_answered"] == packed["n_rows"] == 0
        reply = through_a_stream(encode_frame(packed))
        assert "tail" not in reply
        assert unpack_recommendations(reply, model, requests) \
            == runner.run_indexed(requests) == [[] for _ in requests]

    @pytest.mark.parametrize("mmap", [False, True], ids=["copied", "mmap"])
    def test_shipped_columns_materialise_to_the_engines_rows(
            self, model, artifact, requests, mmap, monkeypatch):
        """worker half + wire + coordinator half == run_indexed, rows
        compared field by field (floats by ==, which is bit identity
        for the finite scores the alignments produce) — at the default
        chunk size and with the batch cut every two items."""
        from repro.core import fast_inference
        from repro.core.serialization import load_model
        opened = load_model(artifact, mmap=mmap)
        reqs = requests + [(99, "nothing known here", 2),
                           (100, "word1 phrase 3", 77)]
        for kwargs, chunk_items in (
                ({"k": 5}, fast_inference.CHUNK_ITEMS),
                ({"k": 3, "hard_limit": 2}, fast_inference.CHUNK_ITEMS),
                ({"k": 4}, 2)):
            monkeypatch.setattr(fast_inference, "CHUNK_ITEMS", chunk_items)
            worker_side = LeafBatchRunner(model, **kwargs)
            reply = through_a_stream(encode_frame(pack_ranked(
                worker_side.run_ranked(reqs), len(reqs))))
            assert unpack_recommendations(reply, opened, reqs) \
                == worker_side.run_indexed(reqs)

    def test_requests_roundtrip(self):
        reqs = [(1, "a title", 7), (2, "", -3)]
        assert unpack_requests(
            json.loads(json.dumps(pack_requests(reqs)))) == reqs

    def test_tokenizer_roundtrip_preserves_semantics(self):
        """An artifact header carries ``spec()``; every process that
        opens the artifact reads it back with ``from_spec``."""
        tokenizer = SpaceTokenizer(stem=True,
                                   drop_stopwords=("for", "with"))
        back = SpaceTokenizer.from_spec(
            json.loads(json.dumps(tokenizer.spec())))
        assert (back.stems, back.stopwords) == (True, {"for", "with"})
        for text in ("Wireless Headphones for gaming", "cables with!"):
            assert back(text) == tokenizer(text)
        plain = SpaceTokenizer.from_spec(
            json.loads(json.dumps(SpaceTokenizer().spec())))
        assert (plain.stems, plain.stopwords) == (False, frozenset())

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_mutated_frames_fail_only_by_name(self, model, requests, data):
        """Byte-level fuzz of both codecs: a valid frame with bytes
        flipped, cut off or inserted reads back as a message, a
        ``FrameError`` or the end of the stream, and mutated result
        counts and tails unpack to columns or a ``FrameError`` —
        nothing else ever escapes to the connection's task."""
        def mutate(blob: bytes) -> bytes:
            for _ in range(data.draw(st.integers(1, 3))):
                at = data.draw(st.integers(0, max(0, len(blob) - 1)))
                how = data.draw(st.sampled_from(["flip", "cut", "insert"]))
                if how == "flip" and blob:
                    blob = (blob[:at] + bytes([blob[at] ^ data.draw(
                        st.integers(1, 255))]) + blob[at + 1:])
                elif how == "cut":
                    blob = blob[:at]
                else:
                    blob = (blob[:at] + data.draw(st.binary(
                        min_size=1, max_size=8)) + blob[at:])
            return blob

        shard = requests[:6]
        result = {"type": "shard_result", "assignment": 2,
                  **pack_ranked(LeafBatchRunner(model, k=5)
                                .run_ranked(shard), len(shard))}
        valid = [{"type": "heartbeat", "name": "w"},
                 {"type": "run_shard", "kind": "inference",
                  "assignment": 1, "requests": pack_requests(shard),
                  "k": 5, "hard_limit": None},
                 result]
        wire = data.draw(st.one_of(
            st.sampled_from(valid).map(encode_frame).map(mutate),
            # Random flips do not find these: drawn explicitly.
            st.just(frame_declaring(b"[" * 100_000, 0, b"")),
            st.just(frame_declaring(b'{"n":' + b"9" * 5000 + b"}", 0,
                                    b""))))
        try:
            assert isinstance(through_a_stream(wire), dict)
        except (FrameError, asyncio.IncompleteReadError):
            pass

        reply = dict(result, tail=mutate(result["tail"]))
        for field in data.draw(st.lists(st.sampled_from(
                ["n_requests", "n_answered", "n_rows"]), max_size=2)):
            reply[field] = data.draw(st.one_of(
                st.integers(-2, 2 ** 40), st.booleans(), st.none(),
                st.text(max_size=2)))
        try:
            assert isinstance(unpack_ranked(reply, len(shard)),
                              RankedColumns)
        except FrameError:
            pass

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

    def test_in_memory_model_is_spooled_once_per_object(
            self, curated, model, requests, expected, monkeypatch):
        """A service holding a fleet calls once per window with the
        same model object: N calls leave one spool directory, one
        mapping on the coordinator and one model and runner on the
        worker — not N of each.  Another object gets its own."""
        from repro.cluster import coordinator as coordinator_module

        saves = []
        real_save = coordinator_module.save_model

        def counting_save(source, path):
            saves.append(path)
            return real_save(source, path)

        monkeypatch.setattr(coordinator_module, "save_model",
                            counting_save)
        other = GraphExModel.construct(curated)

        async def drive():
            async with ClusterCoordinator(rpc_timeout=20.0) as coord:
                worker, task = await spawn_worker(coord, name="solo")
                await coord.wait_for_workers(1, timeout=10.0)
                for _ in range(4):
                    assert await coord.run_inference(
                        model, requests, k=5) == expected
                spooled = sorted(path.name for path in
                                 coord._model_spool.iterdir())
                counts = (len(saves), spooled, len(coord._model_cache),
                          len(worker._models), len(worker._runners))
                assert await coord.run_inference(
                    other, requests, k=5) == expected
                await teardown(coord, [task])
                return counts

        assert asyncio.run(drive()) == (1, ["model-0"], 1, 1, 1)
        assert len(saves) == 2

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
# Hostile result columns: the coordinator trusts nothing in a reply


COLUMNS = ("requests", "sizes", "labels", "counts", "scores")


def result_columns(message: dict) -> dict:
    """Writable copies of a result message's five columns."""
    a, r = message["n_answered"], message["n_rows"]
    tail = message.get("tail", b"")
    ints = np.frombuffer(tail, "<i4", 2 * (a + r)).copy()
    cuts = [0, a, 2 * a, 2 * a + r, 2 * (a + r)]
    columns = {name: ints[lo:hi]
               for name, lo, hi in zip(COLUMNS, cuts, cuts[1:])}
    columns["scores"] = np.frombuffer(tail, "<f8", r, 8 * (a + r)).copy()
    return columns


def poke(column: str, index: int, value) -> "callable":
    """A mutation: overwrite one cell of one column (``value`` may be a
    function of the message and its columns)."""
    def mutate(message: dict) -> dict:
        columns = result_columns(message)
        columns[column][index] = value(message, columns) \
            if callable(value) else value
        return {**message, "tail": b"".join(
            columns[name].tobytes() for name in COLUMNS)}
    return mutate


HOSTILE = {
    "label-past-its-graph": (
        poke("labels", 0, 10 ** 6), "label id outside its owning graph"),
    "label-negative": (
        poke("labels", -1, -1), "label id outside its owning graph"),
    "label-one-past-the-last": (
        # Every fixture leaf holds six labels: ids 0..5.
        poke("labels", 0, 6), "label id outside its owning graph"),
    "request-index-out-of-range": (
        poke("requests", 0, lambda m, c: m["n_requests"]),
        "request index outside the shard"),
    "request-index-negative": (
        poke("requests", 0, -1), "request index outside the shard"),
    "request-index-duplicated": (
        poke("requests", 1, lambda m, c: c["requests"][0]),
        "request index twice"),
    "row-count-negative": (
        poke("sizes", 0, -1), "negative row count"),
    "row-counts-do-not-sum": (
        poke("sizes", 0, lambda m, c: c["sizes"][0] + 1),
        "row counts sum to"),
    "tail-too-long": (
        lambda m: {**m, "tail": m["tail"] + b"\x00" * 4},
        "result tail is"),
    "tail-too-short": (
        lambda m: {**m, "tail": m["tail"][:-4]}, "result tail is"),
    "tail-missing": (
        lambda m: {k: v for k, v in m.items() if k != "tail"},
        "result tail is 0 bytes"),
    "request-count-echo-wrong": (
        lambda m: {**m, "n_requests": m["n_requests"] + 1},
        "answers a shard of"),
    "row-count-field-not-a-count": (
        lambda m: {**m, "n_rows": -1}, "'n_rows' must be a count"),
    "answered-field-missing": (
        lambda m: {k: v for k, v in m.items() if k != "n_answered"},
        "'n_answered' must be a count"),
}


class TamperOnce:
    """Worker-side transport wrapper: rewrites the first
    ``shard_result`` it is asked to send, then behaves."""

    def __init__(self, transport, mutate):
        self._transport = transport
        self._mutate = mutate

    async def send(self, message: dict) -> None:
        if self._mutate is not None \
                and message.get("type") == "shard_result":
            message, self._mutate = self._mutate(message), None
        await self._transport.send(message)

    def __getattr__(self, name):
        return getattr(self._transport, name)


class TestHostileResults:
    @pytest.mark.parametrize("case", sorted(HOSTILE))
    def test_codec_names_the_fault_and_builds_no_row(self, model,
                                                     requests, case):
        mutate, reason = HOSTILE[case]
        honest = pack_ranked(
            LeafBatchRunner(model, k=5).run_ranked(requests),
            len(requests))
        assert unpack_recommendations(honest, model, requests) \
            == LeafBatchRunner(model, k=5).run_indexed(requests)
        with pytest.raises(FrameError, match=reason):
            unpack_recommendations(mutate(honest), model, requests)

    @pytest.mark.parametrize("case", sorted(HOSTILE))
    def test_job_fails_by_name_and_the_next_one_runs(
            self, artifact, requests, expected, case):
        """A tampered reply fails its job with the codec's reason — no
        row of it is ever returned — and the coordinator, its worker
        and its mapped model are all still good for the next job."""
        mutate, reason = HOSTILE[case]

        async def drive():
            async with ClusterCoordinator(rpc_timeout=20.0) as coord:
                _w, task = await spawn_worker(
                    coord, name="tampered",
                    transport_wrapper=lambda t: TamperOnce(t, mutate))
                await coord.wait_for_workers(1, timeout=10.0)
                with pytest.raises(ClusterError, match=reason) as info:
                    await coord.run_inference(str(artifact), requests,
                                              k=5)
                got = await coord.run_inference(str(artifact), requests,
                                                k=5)
                report = coord.last_report
                await teardown(coord, [task])
                return str(info.value), got, report

        message, got, report = asyncio.run(drive())
        assert "FrameError" in message and "tampered" in message
        assert got == expected
        assert report.workers_used == ["tampered"]
        assert report.n_local_units == 0


# ---------------------------------------------------------------------------
# One artifact save per job: ids are only as good as the texts they index


class TestArtifactIdentity:
    def test_identity_names_the_save_not_the_path(self, model, tmp_path):
        directory = save_model(model, tmp_path / "model")
        first = open_model(directory).artifact_identity
        assert first and first == open_model(directory).artifact_identity
        save_model(model, directory)          # same model, same path
        assert open_model(directory).artifact_identity != first
        assert model.artifact_identity is None      # built, not opened

    def test_worker_on_another_save_is_refused_not_misread(
            self, curated, model, requests, expected, tmp_path):
        """Coordinator and worker each open a path once.  A worker that
        joins after an in-place re-save maps another payload than the
        coordinator did; with ids on the wire its answer would read as
        another save's keyphrases, so the shard is refused by name."""
        directory = save_model(model, tmp_path / "served")
        # Same labels in another order: every id now means another text.
        shuffled = build_curated()
        for leaf in shuffled.leaves.values():
            leaf.texts.reverse()
        other = GraphExModel.construct(shuffled)

        async def drive():
            async with ClusterCoordinator(rpc_timeout=20.0) as coord:
                _w, early = await spawn_worker(coord, name="early")
                await coord.wait_for_workers(1, timeout=10.0)
                untouched = await coord.run_inference(
                    str(directory), requests, k=5)
                mapped = open_model(directory).artifact_identity
                early.cancel()
                await asyncio.gather(early, return_exceptions=True)
                while coord.n_live():
                    await asyncio.sleep(0.01)

                save_model(other, directory)
                resaved = open_model(directory).artifact_identity
                _w, late = await spawn_worker(coord, name="late")
                await coord.wait_for_workers(1, timeout=10.0)
                with pytest.raises(ClusterExecutionError,
                                   match="artifact mismatch") as info:
                    await coord.run_inference(str(directory), requests,
                                              k=5)
                # Nothing else is disturbed: another artifact still runs
                # on the same coordinator and the same worker.
                elsewhere = save_model(model, tmp_path / "elsewhere")
                again = await coord.run_inference(str(elsewhere),
                                                  requests, k=5)
                await teardown(coord, [late])
                return untouched, mapped, resaved, str(info.value), again

        untouched, mapped, resaved, message, again = asyncio.run(drive())
        assert untouched == again == expected
        assert mapped != resaved
        assert repr(mapped) in message and repr(resaved) in message
        assert "late" in message


# ---------------------------------------------------------------------------
# Malformed frames: a peer that is not speaking the protocol


async def raw_peer(coord):
    return await asyncio.open_connection(coord.host, coord.port)


async def register_raw(coord, name: str):
    """A hand-driven registered peer: (reader, writer)."""
    reader, writer = await raw_peer(coord)
    writer.write(encode_frame({"type": "register", "name": name,
                               "protocol": PROTOCOL_VERSION}))
    assert (await read_frame(reader))["type"] == "registered"
    return reader, writer


def frame_declaring(control: bytes, tail_declared: int,
                    body: bytes) -> bytes:
    """A hand-built frame whose header need not match its body."""
    return struct.pack(">II", len(control), tail_declared) + control + body


HEARTBEAT = b'{"type":"heartbeat"}'
MALFORMED = {
    # The reader takes the missing tail bytes out of the next frame's
    # header and then reads that frame's JSON as a header.
    "tail-shorter-than-declared": (
        frame_declaring(HEARTBEAT, 16, b"\x01" * 8)
        + encode_frame({"type": "heartbeat"}),
        "peer announced a"),
    # The frame itself is served; the surplus reads as the next header.
    "tail-longer-than-declared": (
        frame_declaring(HEARTBEAT, 8, b"\xff" * 16),
        "peer announced a"),
    "control-object-not-json": (
        frame_declaring(b"{nope", 0, b""), "undecodable frame"),
    "control-object-not-an-object": (
        frame_declaring(b"[1,2]", 0, b""), "must be a JSON object"),
    "control-object-names-the-tail": (
        frame_declaring(b'{"type":"heartbeat","tail":"x"}', 0, b""),
        "binary tail"),
    # json.loads recurses per nesting level.
    "control-object-nested-too-deep": (
        frame_declaring(b"[" * 100_000, 0, b""), "undecodable frame"),
    # Ids key the coordinator's tables: a list is not one.
    "assignment-not-an-id": (
        encode_frame({"type": "shard_result", "assignment": [1]}),
        "'assignment' must be an integer id"),
}


class TestMalformedFrames:
    @staticmethod
    def collect_loop_errors() -> list:
        """Everything asyncio would otherwise log as 'Unhandled
        exception in client_connected_cb' / 'Task exception was never
        retrieved'."""
        errors: list = []
        asyncio.get_running_loop().set_exception_handler(
            lambda _loop, context: errors.append(context))
        return errors

    @pytest.mark.parametrize("hello,reason", [
        # "GET " and "/ HT" read as the two uint32 lengths of a header.
        (b"GET / HTTP/1.1\r\nHost: x\r\n\r\n",
         f"peer announced a {sum(struct.unpack('>II', b'GET / HT'))}-byte "
         f"frame"),
        (frame_declaring(b"[" * 100_000, 0, b""), "undecodable frame"),
    ], ids=["http-get", "nested-too-deep"])
    def test_garbage_hello_is_rejected_by_name(self, artifact, requests,
                                               expected, hello, reason):
        async def drive():
            errors = self.collect_loop_errors()
            async with ClusterCoordinator(rpc_timeout=20.0) as coord:
                _w, task = await spawn_worker(coord, name="survivor")
                await coord.wait_for_workers(1, timeout=10.0)
                reader, writer = await raw_peer(coord)
                writer.write(hello)
                reply = await asyncio.wait_for(read_frame(reader), 5.0)
                assert await asyncio.wait_for(reader.read(), 5.0) == b""
                writer.close()
                got = await coord.run_inference(str(artifact), requests,
                                                k=5)
                rejected = coord.metrics.counter_value(
                    "coordinator.frames.rejected")
                names = coord.worker_names()
                await teardown(coord, [task])
                await asyncio.sleep(0)
                return reply, got, rejected, names, errors

        reply, got, rejected, names, errors = asyncio.run(drive())
        assert reply["type"] == "error"
        assert reply["reason"].startswith(f"malformed frame: {reason}")
        assert got == expected and names == ["survivor"]
        assert rejected == 1
        assert errors == []

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_mid_session_malformed_frame_drops_only_that_worker(
            self, artifact, requests, expected, case):
        wire, reason = MALFORMED[case]

        async def drive():
            errors = self.collect_loop_errors()
            async with ClusterCoordinator(rpc_timeout=20.0) as coord:
                _w, task = await spawn_worker(coord, name="survivor")
                reader, writer = await register_raw(coord, "broken")
                await coord.wait_for_workers(2, timeout=10.0)
                writer.write(wire)
                reply = await asyncio.wait_for(read_frame(reader), 5.0)
                assert await asyncio.wait_for(reader.read(), 5.0) == b""
                writer.close()
                names = coord.worker_names()
                got = await coord.run_inference(str(artifact), requests,
                                                k=5)
                report = coord.last_report
                rejected = coord.metrics.counter_value(
                    "coordinator.frames.rejected")
                await teardown(coord, [task])
                await asyncio.sleep(0)
                return reply, names, got, report, rejected, errors

        reply, names, got, report, rejected, errors = asyncio.run(drive())
        assert reply["type"] == "error"
        assert reply["reason"].startswith("malformed frame: ")
        assert reason in reply["reason"]
        assert names == ["survivor"]
        assert got == expected
        assert report.workers_used == ["survivor"]
        assert rejected == 1
        assert errors == []

    def test_malformed_frame_mid_shard_replans_its_unit(
            self, artifact, requests, expected):
        """The broken peer holds a unit when its stream goes bad: the
        unit is re-planned onto the survivor and merged exactly once."""
        async def drive():
            errors = self.collect_loop_errors()
            async with ClusterCoordinator(rpc_timeout=20.0,
                                          retry=fast_retry()) as coord:
                reader, writer = await register_raw(coord, "broken")
                await coord.wait_for_workers(1, timeout=10.0)
                _w, task = await spawn_worker(coord, name="survivor")
                await coord.wait_for_workers(2, timeout=10.0)
                job = asyncio.ensure_future(coord.run_inference(
                    str(artifact), requests, k=5))
                shard = await asyncio.wait_for(read_frame(reader), 5.0)
                assert shard["type"] == "run_shard"
                writer.write(frame_declaring(b"{nope", 0, b""))
                got = await job
                report = coord.last_report
                writer.close()
                await teardown(coord, [task])
                return got, report, errors

        got, report, errors = asyncio.run(drive())
        assert got == expected
        assert report.n_replans == 1
        assert all(count == 1 for count in report.merge_counts.values())
        assert errors == []


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

        def noting(transport):
            # Faults nothing: the predicate matches no frame, it only
            # notes every one the late joiner sends or receives.
            return FaultyTransport(transport, FaultSchedule(
                match=lambda m: seen.append(m)))

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
                _w, t3 = await spawn_worker(
                    coord, name="late-joiner", transport_wrapper=noting)
                got = await job
                report = coord.last_report
                await teardown(coord, [t1, t2, t3])
                return got, report

        seen = []
        got, report = asyncio.run(drive())
        assert got == expected
        assert "late-joiner" in report.workers_used
        # The model reached it the one way a model reaches any worker:
        # the first frame after registration is the shard, by path.
        assert [frame["type"] for frame in seen[:3]] \
            == ["register", "registered", "run_shard"]
        assert seen[2]["model_path"] == str(artifact)
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
        """Unit-level pin of the discard rule, on the scheduler alone
        (no event loop, no sockets): a reply for a stale (timed-out) or
        unknown assignment, or from a worker that does not hold it, is
        counted late and claims nothing; the live one is merged once."""
        scheduler = Scheduler(fast_retry(), rpc_timeout=1.0,
                              heartbeat_timeout=None, local_fallback=False)
        scheduler.join("w", 0.0)
        plan = ShardPlan([(1,)], {1: 1})
        assert scheduler.start("inference", plan, MetricsRegistry(),
                               0.0).send == [("w", 0, (1,))]
        assert scheduler.tick(1.0).send == []        # fenced, backing off
        assert scheduler.tick(2.0).send == [("w", 1, (1,))]
        for name, assignment in (("w", 0), ("w", 999), ("x", 1)):
            assert scheduler.reply(name, assignment) is None
        report = scheduler.report
        assert (report.n_late_discarded, report.n_retries) == (3, 1)
        assert scheduler.reply("w", 1) == ((1,), 2.0)
        assert scheduler.settle((1,), 1, 2.0, 2.5).done
        assert report.merge_counts == {1: 1}

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


class TestFramesWithoutASender:
    def test_deleted_frames_are_unknown_and_the_worker_keeps_serving(
            self, artifact):
        """``artifact_begin`` (the stream's opening frame) and ``ping``
        have no sender and so no handler: a worker names the type it
        does not know, stays up, and serves the next real frame.  The
        register frame carries name and protocol, nothing else."""
        frames = []

        async def coordinator_side(reader, writer):
            peer = Transport(reader, writer)
            frames.append(await peer.recv())
            await peer.send({"type": "registered"})
            for message in ({"type": "artifact_begin", "name": "a",
                             "request_id": 1},
                            {"type": "ping", "request_id": 2},
                            {"type": "deploy_model", "request_id": 3,
                             "model_path": str(artifact)},
                            {"type": "shutdown"}):
                await peer.send(message)
                frames.append(await peer.recv())
            peer.close()

        async def drive():
            server = await asyncio.start_server(coordinator_side,
                                                "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            await asyncio.wait_for(
                ClusterWorker("127.0.0.1", port, name="w").run(), 10.0)
            server.close()
            await server.wait_closed()

        asyncio.run(drive())
        hello, begin, ping, deployed, bye = frames
        assert hello == {"type": "register", "name": "w",
                         "protocol": PROTOCOL_VERSION}
        assert begin == {"type": "error", "reason":
                         "unknown message type 'artifact_begin'"}
        assert ping == {"type": "error",
                        "reason": "unknown message type 'ping'"}
        assert (deployed["type"], deployed["request_id"]) == ("deployed", 3)
        assert bye["type"] == "bye"


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
