"""The four workloads and the loop that drives and times them.

Each workload stresses layers the others leave idle, so a change to
one layer shows on one workload and must leave the rest flat (the
``why`` strings are the ones ``BENCHMARK.json`` records):

* ``batch_catalog``   — engine + tokenizer in large vectorised groups.
* ``build_refresh``   — curate → construct → persist → mmap-open →
  full load → hot-swap; inference is a footnote.
* ``nrt_streams``     — 32-item micro-batches through the asyncio
  front and the KV store; fixed per-call cost dominates.
* ``cluster_scatter`` — protocol, transport and coordinator; the engine
  runs on two worker subprocesses.

A workload touches the program only from outside, through public
functions, and only ever hands it inputs generated by ``world.py``.
"""

from __future__ import annotations

import asyncio
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cluster import ClusterCoordinator, RetryPolicy
from repro.core.batch import batch_recommend
from repro.core.curation import fast_curate
from repro.core.model import GraphExModel
from repro.core.serialization import load_model, open_model, save_model
from repro.serving import (AsyncNRTFront, BatchPipeline,
                           DailyRefreshOrchestrator, ItemEvent,
                           ItemEventKind, KeyValueStore, NRTService)

import verify
import world
from measure import Sample, Sampler, percentile
from world import HARD_LIMIT, K, Profile

HERE = Path(__file__).resolve().parent

#: Paced-phase health limit, per stream.  One window is always in the
#: buffer when the generator stops; a rate the front cannot sustain
#: leaves several times that behind within one segment.  Loose on
#: purpose: a collector pause or a slow spell of the box must not fail
#: an op, an unsustainable rate must.  How late the generator ran is
#: reported (``bench.loadgen.lag_p99_ms``), not judged: every latency
#: is measured from the due time, so a stall already counts in it.
MAX_END_BACKLOG = 4 * 32


@dataclass(frozen=True)
class Phase:
    """One timed region of a workload."""

    name: str
    share: float          # of the run's --seconds
    min_samples: int      # ops (or windows) the region must reach
    throughput: bool = True
    latency: bool = True


@dataclass
class Outcome:
    """Verification verdict on one timed op."""

    attempted: int = 1
    failed: int = 0
    #: Latencies measured *inside* the op (wall seconds), when the op
    #: is a load segment rather than one request.
    latencies_s: Optional[List[float]] = None


class Workload:
    """Interface the driver times; see :func:`run_phases`."""

    name = ""
    why = ""
    units = ""
    tail_pct = 80
    phases: Tuple[Phase, ...] = ()
    #: Pin the measuring process to one CPU.  One CPython process runs
    #: Python on one core at a time anyway; left alone, the scheduler
    #: spreads its threads over both cores and the interpreter-lock
    #: hand-off between cores flips the NRT front between two speeds
    #: (157 vs 215 ms for the same 512-event segment, for seconds or
    #: for a whole run).  Off where processes are the parallelism.
    single_cpu = True

    def __init__(self, seed: int, profile: Profile, workdir: Path,
                 trace=None) -> None:
        self.seed = seed
        self.profile = profile
        self.workdir = Path(workdir)
        #: The :class:`tracing.Trace` of a traced run, else None.
        self.trace = trace
        self.setup_reps = profile.setup_reps
        self.units_per_op = 0

    def generate(self) -> dict:
        """Generate inputs and write artifacts: the benchmark's own
        work.  The runner does it in a process of its own, so that the
        measured process's peak memory is the program's, not the
        generator's; the returned dict crosses over as a pickle."""
        raise NotImplementedError

    def attach(self, inputs: dict) -> None:
        """Take over what :meth:`generate` returned."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Generate and attach in one process (tests)."""
        self.attach(self.generate())

    def reset(self) -> None:
        """Drop the previous cold start's objects; untimed."""

    def cold_start(self):
        """What the program does before it can serve, on fresh
        objects, through its first op.  Returns that op's result."""
        raise NotImplementedError

    def stage(self, phase: str, index: int, midpoint: bool) -> None:
        """Untimed preparation of op ``index``."""

    def op(self, phase: str, index: int):
        raise NotImplementedError

    def check(self, phase: str, index: int, result) -> Outcome:
        raise NotImplementedError

    def finish(self) -> int:
        """Final oracle checks; returns the ops they found wrong."""
        return 0

    def teardown(self) -> None:
        self.reset()

    def children_rss_mb(self) -> float:
        return 0.0

    def worker_trace_paths(self) -> List[Path]:
        """Busy-interval files of worker processes (traced cluster)."""
        return []

    def layer_facts(self) -> Dict[str, float]:
        """Public counters for the traced run (exact counts)."""
        return {}

    def probe_artifact(self) -> Path:
        """A model artifact this workload served from."""
        return self.artifact


# ---------------------------------------------------------------------------
# 1. batch_catalog


class BatchCatalog(Workload):
    name = "batch_catalog"
    why = ("the paper's batch path: engine and tokenizer do all the work "
           "in large leaf groups, so an engine change shows here and a "
           "serving or cluster change must not")
    units = "items"
    tail_pct = 80
    phases = (Phase("ops", 1.0, 50),)

    def generate(self) -> dict:
        generated = world.serving_world(self.seed, self.profile)
        built = GraphExModel.construct(generated.curated_a,
                                       build_pooled=True)
        chunks = world.chunks(generated.catalog,
                              self.profile.catalog_chunk)
        return {"artifact": save_model(built, self.workdir / "model-a"),
                "chunks": chunks,
                # What the in-memory model serves: the mapped one must
                # serve the same, on every chunk.
                "expected": [verify.portable_digest(batch_recommend(
                    built, chunk, k=K, hard_limit=HARD_LIMIT))
                    for chunk in chunks]}

    def attach(self, inputs: dict) -> None:
        self.artifact = inputs["artifact"]
        self.chunks = inputs["chunks"]
        self.expected = inputs["expected"]
        self.units_per_op = len(self.chunks[0])
        self.digests: Dict[int, int] = {}
        self.first_result = None
        self.model = None

    def _infer(self, model: GraphExModel, index: int):
        return batch_recommend(model, self.chunks[index % len(self.chunks)],
                               k=K, hard_limit=HARD_LIMIT)

    def reset(self) -> None:
        self.model = None

    def cold_start(self):
        self.model = open_model(self.artifact)
        return self._infer(self.model, 0)

    def op(self, phase: str, index: int):
        return self._infer(self.model, index)

    def check(self, phase: str, index: int, result) -> Outcome:
        chunk = index % len(self.chunks)
        digest = verify.result_digest(result)
        if chunk not in self.digests:
            # First pass over this chunk: against the generate stage's
            # expectation; later passes against this pass, cheaply.
            if verify.portable_digest(result) != self.expected[chunk]:
                return Outcome(failed=1)
            self.digests[chunk] = digest
            if chunk == 0:
                self.first_result = result
        return Outcome(failed=int(digest != self.digests[chunk]))

    def finish(self) -> int:
        ok = verify.matches_reference(self.model, self.chunks[0],
                                      self.first_result)
        return int(not ok)


# ---------------------------------------------------------------------------
# 2. build_refresh


class BuildRefresh(Workload):
    name = "build_refresh"
    why = ("the paper's sub-minute construction and daily refresh: "
           "curation, builder, artifact write+read and the refresh loop "
           "dominate; inference is a 256-item footnote")
    units = "keyphrases"
    tail_pct = 80
    phases = (Phase("ops", 1.0, 50),)

    def generate(self) -> dict:
        return {"world": world.build_world(self.seed, self.profile)}

    def attach(self, inputs: dict) -> None:
        self.world = inputs["world"]
        self.units_per_op = fast_curate(
            self.world.stats, self.world.config).n_keyphrases
        self.served_digest: Optional[int] = None
        self.orchestrator: Optional[DailyRefreshOrchestrator] = None
        self.last_report = None
        self.reports: List = []

    @property
    def artifacts(self) -> Path:
        """Where the orchestrator persists each generation."""
        return self.workdir / "refresh"

    def reset(self) -> None:
        self.orchestrator = None
        shutil.rmtree(self.artifacts, ignore_errors=True)

    def cold_start(self):
        store: KeyValueStore = KeyValueStore()
        empty = GraphExModel({})
        pipeline = BatchPipeline(empty, store, k=K, hard_limit=HARD_LIMIT)
        self.orchestrator = DailyRefreshOrchestrator(
            pipeline, build_pooled=True, artifact_dir=self.artifacts)
        self.nrt = self.orchestrator.register(
            NRTService(empty, store, k=K, hard_limit=HARD_LIMIT))
        return self.op("cold", 0)

    def op(self, phase: str, index: int):
        curated = fast_curate(self.world.stats, self.world.config)
        return self.orchestrator.refresh_sync(curated,
                                              self.world.requests)

    def check(self, phase: str, index: int, report) -> Outcome:
        self.reports.append(report)
        pipeline = self.orchestrator.pipeline
        served = verify.result_digest(
            {item_id: pipeline.serve(item_id)
             for item_id, _title, _leaf in self.world.requests})
        if self.served_digest is None:
            self.served_digest = served
        ok = (report.failure is None
              and report.n_keyphrases == self.units_per_op
              and report.n_inferred == len(self.world.requests)
              and report.artifact_path is not None
              and Path(report.artifact_path, "model.json").is_file()
              and self.nrt.model_generation == report.generation
              and served == self.served_digest)
        # Keep two generations on disk, like a deployment would.
        shutil.rmtree(self.artifacts / f"gen-{report.generation - 2}",
                      ignore_errors=True)
        self.last_report = report
        return Outcome(failed=int(not ok))

    def finish(self) -> int:
        curated = fast_curate(self.world.stats, self.world.config)
        mapped = self.orchestrator.model
        copied = load_model(self.last_report.artifact_path)
        expected = verify.served_texts(copied, self.world.requests)
        pipeline = self.orchestrator.pipeline
        ok = (verify.matches_reference_builder(curated, copied)
              and verify.models_identical(mapped, copied)
              and verify.served_texts(mapped, self.world.requests)
              == expected
              and all(pipeline.serve(item_id) == expected[item_id]
                      for item_id, _title, _leaf in self.world.requests))
        return int(not ok)

    def probe_artifact(self) -> Path:
        return Path(self.last_report.artifact_path)

    def layer_facts(self) -> Dict[str, float]:
        reports = self.reports
        kept = self.units_per_op / max(1, len(self.world.stats))
        return {
            "core.curation.kept_share": kept,
            "serving.refresh.construct_s": float(np.median(
                [r.construct_seconds for r in reports])),
            "serving.refresh.load_s": float(np.median(
                [r.load_seconds for r in reports])),
            "serving.refresh.swap_s": float(np.median(
                [r.swap_seconds for r in reports])),
            "serving.refresh.retries": float(sum(
                r.n_retries for r in reports)),
        }


# ---------------------------------------------------------------------------
# 3. nrt_streams


class StampedStore(KeyValueStore):
    """A KV store that stamps every promote — the outside observation
    point at which a window's recommendations become readable."""

    def __init__(self) -> None:
        super().__init__()
        self.stamps: List[float] = []

    def promote(self, version: int) -> None:
        super().promote(version)
        self.stamps.append(time.perf_counter())


@dataclass
class _StreamLog:
    """Everything submitted to one stream, in order."""

    universe_rows: List[int] = field(default_factory=list)
    deleted: List[bool] = field(default_factory=list)


class NrtStreams(Workload):
    name = "nrt_streams"
    why = ("the paper's near-real-time path: 32-item micro-batches where "
           "fixed per-call cost dominates, through the asyncio front and "
           "KV store that no other workload touches, with a hot-swap in "
           "flight")
    units = "events"
    tail_pct = 90
    phases = (Phase("saturate", 0.45, 16, latency=False),
              Phase("paced", 0.55, 150, throughput=False))
    streams = ("s0", "s1")
    window = 32

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self.front: Optional[AsyncNRTFront] = None

    def generate(self) -> dict:
        generated = world.serving_world(self.seed, self.profile,
                                        self.streams)
        return {"universes": generated.universes, "artifacts": [
            save_model(GraphExModel.construct(curated, build_pooled=True),
                       self.workdir / f"model-{tag}")
            for tag, curated in (("a", generated.curated_a),
                                 ("b", generated.curated_b))]}

    def attach(self, inputs: dict) -> None:
        self.universes = inputs["universes"]
        self.artifact_paths = inputs["artifacts"]
        self.units_per_op = (len(self.streams)
                             * self.profile.nrt_segment_events)
        self.paced_windows = max(1, int(
            self.profile.nrt_rate * self.profile.nrt_paced_segment_s
            / len(self.streams) / self.window))
        self.rng = np.random.default_rng([self.seed, 3])
        self.lags_s: List[float] = []
        self.swap_pauses_s: List[float] = []
        self.end_backlogs: List[int] = []
        self.swap_latencies_s: List[float] = []
        self._event_clock = 0

    # -- state ----------------------------------------------------------

    def reset(self) -> None:
        self.teardown()
        # Fresh stores, pre-loaded with the item universe so the state
        # a flush copies is as large on the first window as on the last.
        self.stores: Dict[str, StampedStore] = {}
        for name in self.streams:
            store = StampedStore()
            version = store.create_version()
            store.bulk_load(version, {item_id: ["preloaded"] for
                                      item_id, _t, _l in
                                      self.universes[name]})
            store.promote(version)
            store.stamps.clear()
            if self.trace is not None:
                self.trace.time_lock(store)
            self.stores[name] = store
        self.logs = {name: _StreamLog() for name in self.streams}
        self.generation_paths = {0: self.artifact_paths[0]}

    def cold_start(self):
        self.loop = asyncio.new_event_loop()
        model = open_model(self.artifact_paths[0])
        self.front = AsyncNRTFront(
            model, window_size=self.window, window_seconds=1e12,
            wall_clock_seconds=3600.0, max_pending=256, k=K,
            hard_limit=HARD_LIMIT)
        for name in self.streams:
            self.front.add_stream(name, self.stores[name])
        self.loop.run_until_complete(self.front.start())
        first = self._events(self.streams[0], self.window)
        self.loop.run_until_complete(self._feed_all(
            {self.streams[0]: first}))
        return None

    def teardown(self) -> None:
        if self.front is not None:
            self.loop.run_until_complete(self.front.stop())
            self.front = None
        if self.loop is not None:
            self.loop.close()
            self.loop = None

    # -- event generation -------------------------------------------------

    def _events(self, name: str, count: int) -> List[ItemEvent]:
        universe = self.universes[name]
        rows = self.rng.integers(0, len(universe), size=count).tolist()
        deleted = (self.rng.random(count) < 0.05).tolist()
        log = self.logs[name]
        log.universe_rows.extend(rows)
        log.deleted.extend(deleted)
        events = []
        for row, gone in zip(rows, deleted):
            item_id, title, leaf_id = universe[row]
            self._event_clock += 1
            events.append(ItemEvent(
                ItemEventKind.DELETED if gone else ItemEventKind.REVISED,
                item_id, title, leaf_id, self._event_clock * 1e-3))
        return events

    def stage(self, phase: str, index: int, midpoint: bool) -> None:
        count = (self.profile.nrt_segment_events if phase == "saturate"
                 else self.paced_windows * self.window)
        self._staged = {name: self._events(name, count)
                        for name in self.streams}
        self._swap = midpoint
        self._windows_before = {
            name: len(self.front.processed_windows(name))
            for name in self.streams}

    # -- the two kinds of op ------------------------------------------------

    async def _swap_model(self) -> None:
        current = self.generation_paths[self.front.model_generation]
        target = self.artifact_paths[
            1 - self.artifact_paths.index(current)]
        start = time.perf_counter()
        generation = await self.front.refresh_model(str(target))
        self.swap_pauses_s.append(time.perf_counter() - start)
        self.generation_paths[generation] = target

    async def _feed_all(self, staged: Dict[str, List[ItemEvent]],
                        swap: bool = False) -> None:
        async def feed(name: str) -> None:
            for event in staged[name]:
                await self.front.submit(name, event)
        tasks = [feed(name) for name in staged]
        if swap:
            tasks.append(self._swap_model())
        await asyncio.gather(*tasks)
        await self.front.join()

    async def _paced(self, staged: Dict[str, List[ItemEvent]],
                     swap: bool) -> Dict[str, List[float]]:
        """Open loop: events go out when due, not when the front is
        ready.  Returns each stream's due times."""
        order = [(name, event) for events in zip(
            *(staged[name] for name in self.streams))
            for name, event in zip(self.streams, events)]
        interval = 1.0 / self.profile.nrt_rate
        start = time.perf_counter() + 0.002
        due: Dict[str, List[float]] = {name: [] for name in self.streams}
        swap_task = None
        for index, (name, event) in enumerate(order):
            due_at = start + index * interval
            wait = due_at - time.perf_counter()
            if wait > 0:
                await asyncio.sleep(wait)
            if swap and index == len(order) // 2:
                swap_task = asyncio.ensure_future(self._swap_model())
            self.lags_s.append(max(0.0, time.perf_counter() - due_at))
            due[name].append(due_at)
            await self.front.submit(name, event)
        self.end_backlogs.append(sum(
            self.front.stats(name).n_pending for name in self.streams))
        if swap_task is not None:
            await swap_task
        await self.front.join()
        return due

    def op(self, phase: str, index: int):
        if phase == "saturate":
            return self.loop.run_until_complete(
                self._feed_all(self._staged, self._swap))
        return self.loop.run_until_complete(
            self._paced(self._staged, self._swap))

    # -- verification -------------------------------------------------------

    def _segment_windows(self, name: str):
        """Windows this op closed on ``name`` and their promote stamps."""
        first = self._windows_before[name]
        windows = self.front.processed_windows(name)[first:]
        return windows, self.stores[name].stamps[first:first + len(windows)]

    def check(self, phase: str, index: int, result) -> Outcome:
        if phase == "cold":
            return Outcome(failed=int(
                len(self.front.processed_windows(self.streams[0])) != 1))
        drained = all(self.front.stats(name).n_pending == 0
                      for name in self.streams)
        if phase == "saturate":
            closed = sum(w.n_events for name in self.streams
                         for w in self._segment_windows(name)[0])
            return Outcome(failed=int(not drained
                                      or closed != self.units_per_op))
        latencies: List[float] = []
        for name in self.streams:
            windows, stamps = self._segment_windows(name)
            last = -1
            for stats, stamp in zip(windows, stamps):
                last += stats.n_events
                latencies.append(stamp - result[name][last])
            drained = drained and last + 1 == len(result[name])
        healthy = (drained and self.end_backlogs[-1]
                   <= MAX_END_BACKLOG * len(self.streams))
        n_windows = len(latencies)
        if not healthy:
            print(f"nrt_streams: paced segment {index} unhealthy: "
                  f"drained={drained} end backlog="
                  f"{self.end_backlogs[-1]} events", file=sys.stderr)
            return Outcome(attempted=n_windows, failed=n_windows)
        if self._swap:
            self.swap_latencies_s.append(max(latencies))
        return Outcome(attempted=n_windows, latencies_s=latencies)

    def finish(self) -> int:
        """Zero event loss, and every sampled item serves what
        ``batch_recommend`` gives under the generation that its last
        window recorded."""
        self.loop.run_until_complete(self.front.stop())
        failed_windows = set()
        lost = 0
        pick = np.random.default_rng([self.seed, 4])
        per_stream = self.profile.nrt_verify_items // len(self.streams)
        models = {path: open_model(path) for path in self.artifact_paths}
        for name in self.streams:
            stats = self.front.stats(name)
            log = self.logs[name]
            windows = self.front.processed_windows(name)
            lost += int(stats.n_dropped or stats.n_flush_failures
                        or stats.n_pending
                        or stats.n_submitted != len(log.universe_rows)
                        or sum(w.n_events for w in windows)
                        != len(log.universe_rows))
            window_of = np.repeat(np.arange(len(windows)),
                                  [w.n_events for w in windows])
            last_touch = dict(zip(log.universe_rows,
                                  range(len(log.universe_rows))))
            rows = sorted(last_touch)
            if len(rows) > per_stream:
                rows = pick.choice(rows, size=per_stream,
                                   replace=False).tolist()
            universe = self.universes[name]
            store = self.stores[name]
            by_path: Dict[Path, List[int]] = {}
            for row in rows:
                position = last_touch[row]
                window = int(window_of[position])
                if log.deleted[position]:
                    if store.get(universe[row][0]) is not None:
                        failed_windows.add((name, window))
                    continue
                generation = windows[window].model_generation
                by_path.setdefault(self.generation_paths[generation],
                                   []).append(row)
            for path, path_rows in by_path.items():
                expected = verify.served_texts(
                    models[path], [universe[row] for row in path_rows])
                for row in path_rows:
                    item_id = universe[row][0]
                    if store.get(item_id) != expected[item_id]:
                        failed_windows.add(
                            (name, int(window_of[last_touch[row]])))
        return lost + len(failed_windows)

    def layer_facts(self) -> Dict[str, float]:
        stats = [self.front.stats(name) for name in self.streams]
        return {
            "serving.nrt.windows": float(sum(s.n_windows for s in stats)),
            "serving.nrt.flush_failures": float(
                sum(s.n_flush_failures for s in stats)),
            "serving.async_front.queue_depth_hwm": float(
                max(s.n_queue_hwm for s in stats)),
            "serving.async_front.swap_pause_ms":
                1e3 * float(np.median(self.swap_pauses_s))
                if self.swap_pauses_s else 0.0,
            "serving.async_front.swap_max_latency_ms":
                1e3 * max(self.swap_latencies_s, default=0.0),
            "bench.loadgen.lag_p99_ms":
                1e3 * percentile(self.lags_s, 99) if self.lags_s else 0.0,
        }

    def probe_artifact(self) -> Path:
        return self.artifact_paths[0]


# ---------------------------------------------------------------------------
# 4. cluster_scatter


class ClusterScatter(Workload):
    name = "cluster_scatter"
    why = ("the overhead-bound cluster path: protocol, transport and "
           "coordinator dominate, the engine runs on two worker "
           "subprocesses, so wire or batching work shows here and must "
           "leave the other three flat")
    units = "items"
    tail_pct = 80
    phases = (Phase("ops", 1.0, 50),)
    n_workers = 2
    single_cpu = False

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.setup_reps = self.profile.cluster_setup_reps
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self.coordinator: Optional[ClusterCoordinator] = None
        self.procs: List[subprocess.Popen] = []

    def generate(self) -> dict:
        generated = world.serving_world(self.seed, self.profile)
        built = GraphExModel.construct(generated.curated_a,
                                       build_pooled=True)
        chunks = world.chunks(
            generated.catalog[:self.profile.cluster_items],
            self.profile.cluster_chunk)
        return {"artifact": save_model(built, self.workdir / "model-a"),
                "chunks": chunks,
                "expected": [batch_recommend(built, chunk, k=K,
                                             hard_limit=HARD_LIMIT)
                             for chunk in chunks]}

    def attach(self, inputs: dict) -> None:
        self.artifact = inputs["artifact"]
        self.chunks = inputs["chunks"]
        self.expected = inputs["expected"]
        self.units_per_op = len(self.chunks[0])
        self.reports: List[dict] = []
        self.fleets = 0

    def reset(self) -> None:
        if self.coordinator is not None:
            self.loop.run_until_complete(self.coordinator.stop())
            self.coordinator = None
        for proc in self.procs:
            try:
                proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        self.procs = []
        if self.loop is not None:
            self.loop.close()
            self.loop = None

    def worker_trace_paths(self) -> List[Path]:
        return sorted(self.workdir.glob("worker-trace-*.json"))

    def cold_start(self):
        self.loop = asyncio.new_event_loop()
        self.coordinator = ClusterCoordinator(
            rpc_timeout=60.0, retry=RetryPolicy(seed=0))
        host, port = self.loop.run_until_complete(
            self.coordinator.start())
        self.fleets += 1
        for index in range(self.n_workers):
            name = f"w{self.fleets}-{index}"
            argv = [sys.executable, str(HERE / "worker_main.py"),
                    "--connect", f"{host}:{port}", "--name", name,
                    "--spool", str(self.workdir / f"spool-{name}")]
            if self.trace is not None:
                argv += ["--trace-out", str(
                    self.workdir / f"worker-trace-{name}.json")]
            self.procs.append(subprocess.Popen(argv))
        self.loop.run_until_complete(
            self.coordinator.wait_for_workers(self.n_workers,
                                              timeout=60.0))
        self.loop.run_until_complete(
            self.coordinator.deploy_artifact(self.artifact))
        return self.op("cold", 0)

    def op(self, phase: str, index: int):
        chunk = self.chunks[index % len(self.chunks)]
        result = self.loop.run_until_complete(
            self.coordinator.run_inference(
                str(self.artifact), chunk, k=K, hard_limit=HARD_LIMIT))
        return result, self.coordinator.last_report.as_dict()

    def check(self, phase: str, index: int, outcome) -> Outcome:
        result, report = outcome
        self.reports.append(report)
        ok = (result == self.expected[index % len(self.chunks)]
              and report["exactly_once"]
              and report["n_local_units"] == 0)
        return Outcome(failed=int(not ok))

    def children_rss_mb(self) -> float:
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
        return usage.ru_maxrss / 1024.0

    def layer_facts(self) -> Dict[str, float]:
        reports = self.reports
        return {
            "core.sharding.units_per_op": float(np.median(
                [r["n_units_planned"] for r in reports])),
            "cluster.coordinator.retries": float(sum(
                r["n_retries"] for r in reports)),
            "cluster.coordinator.replans": float(sum(
                r["n_replans"] for r in reports)),
            "cluster.coordinator.local_units": float(sum(
                r["n_local_units"] for r in reports)),
        }


WORKLOADS = {cls.name: cls for cls in (BatchCatalog, BuildRefresh,
                                       NrtStreams, ClusterScatter)}


# ---------------------------------------------------------------------------
# The driver


@dataclass
class RunLog:
    """Everything one driven run measured."""

    setup: List[Sample] = field(default_factory=list)
    ops: List[Sample] = field(default_factory=list)
    latencies: List[Sample] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def absorb(self, outcome: Outcome) -> None:
        self.attempted += outcome.attempted
        self.failed += outcome.failed


def cold_starts(workload: Workload, sampler: Sampler, log: RunLog,
                span=None) -> None:
    """Time the cold start ``setup_reps`` times on fresh objects; the
    last one's objects stay live for the timed regions."""
    for rep in range(workload.setup_reps):
        workload.reset()

        def timed(rep=rep):
            if span is None:
                return workload.cold_start()
            with span("cold", rep):
                return workload.cold_start()

        sample, result = sampler.sample(timed)
        if span is not None:
            span.annotate(sample.factor)
        outcome = workload.check("cold", 0, result)
        log.absorb(outcome)
        if not outcome.failed:
            log.setup.append(sample)


def run_phases(workload: Workload, seconds: float, sampler: Sampler,
               log: RunLog, *, clock=time.perf_counter,
               min_scale: float = 1.0, span=None) -> None:
    """Drive every phase for its share of ``seconds``.

    A phase ends once its time share has elapsed *and* it holds its
    minimum sample count (capped at 1.5x the share, so a slow spell
    cannot run away with the whole budget).  An op that fails
    verification is counted and contributes no latency.
    """
    for phase in workload.phases:
        budget = seconds * phase.share
        minimum = int(phase.min_samples * min_scale)
        start = clock()
        swapped = False
        index = 0
        n_samples = 0
        while True:
            elapsed = clock() - start
            if elapsed >= 1.5 * budget or (elapsed >= budget
                                           and n_samples >= minimum):
                break
            midpoint = not swapped and elapsed >= budget / 2
            swapped = swapped or midpoint
            workload.stage(phase.name, index, midpoint)

            def timed(phase=phase, index=index):
                if span is None:
                    return workload.op(phase.name, index)
                with span(phase.name, index):
                    return workload.op(phase.name, index)

            sample, result = sampler.sample(timed)
            if span is not None:
                span.annotate(sample.factor)
            outcome = workload.check(phase.name, index, result)
            log.absorb(outcome)
            index += 1
            if outcome.failed:
                continue
            if phase.throughput:
                log.ops.append(sample)
            if outcome.latencies_s is not None:
                log.latencies.extend(Sample(latency, sample.factor)
                                     for latency in outcome.latencies_s)
                n_samples += len(outcome.latencies_s)
            else:
                if phase.latency:
                    log.latencies.append(sample)
                n_samples += 1


def self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
