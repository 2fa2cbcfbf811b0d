"""Fault-tolerant cluster coordinator: ShardPlans across N hosts.

The multi-machine shard runner the ROADMAP promised: a
:class:`ClusterCoordinator` listens on localhost TCP, executor hosts
(:class:`~repro.cluster.worker.ClusterWorker`) register, and the units
of a :class:`~repro.core.sharding.ShardPlan` are executed across the
fleet (the plan stays here; a unit's requests or leaves are what
ships).  How a batch or corpus is cut into
units and merged back is not decided here: both jobs drive a
:class:`~repro.core.execution.InferenceJob` /
:class:`~repro.core.execution.ConstructionJob`, the same scatter/merge
contract the inline executor calls, and this module only
schedules units, moves frames, and fences results.  The outputs are
element-wise/bit-identical to the single-process fast paths under
**any** failure topology; the fault-injection suite proves it.

Inference results cross the wire as ids, not rows.  Coordinator and
workers map the same artifact — each ``run_shard`` frame carries the
identity of the save the coordinator mapped, and a worker that opened
another refuses the shard — so a worker runs Algorithm 1 up to the
ranked columns and replies with label ids, counts and raw scores in
the frame's binary tail.  The coordinator validates the columns
against the unit's own requests and builds the ``Recommendation`` rows
itself, from its own mapping, with the engine's one materialiser
(:func:`~repro.cluster.protocol.unpack_recommendations`); what
:meth:`~repro.core.execution.InferenceJob.merge` receives is what an
in-process shard would have handed it.  That row build is serial in
this process and is, after the workers' own time, the largest term of
a cluster op.

Robustness model, in order of escalation:

1. **Per-RPC deadlines** — every dispatched shard must answer within
   ``rpc_timeout``; a silent worker does not stall the plan.
2. **Retry with capped exponential backoff + jitter**
   (:class:`~repro.cluster.retry.RetryPolicy`) — a timed-out shard is
   marked *stale* (a late result is discarded, never double-merged) and
   re-dispatched, preferring a different host; attempts are bounded.
3. **Liveness** — a severed connection is detected immediately, and a
   host that stops heartbeating past ``heartbeat_timeout`` is declared
   dead even if its socket lingers.
4. **Dead-host re-planning** — the orphaned work units of a dead
   worker are re-balanced across the *surviving* hosts with their
   original cost estimates (:meth:`ShardPlan.replan`); workers that
   join mid-plan are folded in on the next dispatch.
5. **Graceful degradation** — when the fleet empties, remaining units
   run locally in the coordinator (``local_fallback``), so a cluster
   job never produces less than the single-process path would.

Exactly-once merging is enforced at the work-unit level: a unit's keys
are merged into the output exactly once, no matter how many duplicate
executions its retries and delayed results produced.  Every run leaves
a :class:`ClusterRunReport` (``last_report``) recording merges per key,
re-plans, retries, and late discards — the observability surface the
property tests assert on.
"""

from __future__ import annotations

import asyncio
import itertools
import shutil
import tempfile
import time
from collections import deque
from contextlib import suppress
from dataclasses import dataclass, field
from pathlib import Path
from typing import (TYPE_CHECKING, Callable, Deque, Dict, Hashable, List,
                    Optional, Sequence, Set, Tuple, Union)

from ..core.batch import BatchResult, InferenceRequest
from ..core.execution import ConstructionJob, InferenceJob
from ..core.model import GraphExModel
from ..core.serialization import open_model, save_model
from ..core.tokenize import DEFAULT_TOKENIZER, SpaceTokenizer
from ..obs import MetricsRegistry, merge_snapshots, validate_snapshot
from .protocol import (PROTOCOL_VERSION, FrameError,
                       pack_curated_leaves, pack_requests,
                       unpack_recommendations)
from .retry import RetryPolicy
from .transport import Transport, TransportClosed

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from ..core.curation import CuratedKeyphrases
    from ..core.model import LeafGraph

__all__ = ["ClusterCoordinator", "ClusterError", "ClusterExecutionError",
           "ClusterRunReport"]


class ClusterError(RuntimeError):
    """A cluster job could not complete (fleet/timeout/merge failure)."""


class ClusterExecutionError(ClusterError):
    """A shard raised on its worker; carries the worker traceback."""

    def __init__(self, message: str,
                 worker_traceback: Optional[str] = None) -> None:
        super().__init__(message)
        self.worker_traceback = worker_traceback


class _WorkerDied(Exception):
    """Internal signal: the worker holding an assignment dropped."""


@dataclass
class ClusterRunReport:
    """What one cluster job did — the fault-tolerance audit trail.

    Attributes:
        kind: ``"inference"`` or ``"construction"``.
        n_units_planned: Work units in the initial plan.
        n_workers_at_start: Live hosts when the plan was cut.
        n_replans: Dead-host events that re-balanced orphaned keys.
        n_retries: Per-shard deadline expiries that re-dispatched.
        n_late_discarded: Results that arrived after their assignment
            was superseded and were discarded instead of double-merged.
        n_local_units: Units the coordinator ran itself (fleet empty).
        workers_used: Hosts that contributed at least one dispatch.
        merge_counts: Times each work-unit key was merged — the
            exactly-once invariant is ``all(v == 1)``.
        orphaned_keys: Key groups that were orphaned by a dead host and
            re-planned.
        fleet_metrics: The merged fleet metrics snapshot at job end —
            the job's registry folded with the latest heartbeat
            snapshot of every worker seen (see
            :meth:`ClusterCoordinator.fleet_snapshot`).
    """

    kind: str
    n_units_planned: int
    n_workers_at_start: int
    n_replans: int = 0
    n_retries: int = 0
    n_late_discarded: int = 0
    n_local_units: int = 0
    workers_used: List[str] = field(default_factory=list)
    merge_counts: Dict[Hashable, int] = field(default_factory=dict)
    orphaned_keys: List[List[Hashable]] = field(default_factory=list)
    fleet_metrics: Optional[dict] = None

    def as_dict(self) -> dict:
        """JSON-ready summary (bench artifacts embed this)."""
        return {
            "kind": self.kind,
            "n_units_planned": self.n_units_planned,
            "n_workers_at_start": self.n_workers_at_start,
            "n_replans": self.n_replans,
            "n_retries": self.n_retries,
            "n_late_discarded": self.n_late_discarded,
            "n_local_units": self.n_local_units,
            "workers_used": list(self.workers_used),
            "exactly_once": all(count == 1
                                for count in self.merge_counts.values()),
            "fleet_metrics": self.fleet_metrics,
        }


class _Unit:
    """One schedulable work unit: a tuple of plan keys + retry count."""

    __slots__ = ("keys", "attempts")

    def __init__(self, keys: Tuple[Hashable, ...]) -> None:
        self.keys = tuple(keys)
        self.attempts = 0


@dataclass
class _Assignment:
    unit: _Unit
    future: "asyncio.Future[dict]"
    stale: bool = False


@dataclass
class _JobRun:
    """The job in flight, as the scheduler sees it.

    ``encode(keys)`` is the kind-specific part of a unit's
    ``run_shard`` frame; ``decode(keys, reply)`` unpacks a reply,
    merges it into ``job``, and returns how many requests/leaves it
    settled.
    """

    kind: str
    job: Union[InferenceJob, ConstructionJob]
    encode: Callable[[Tuple[Hashable, ...]], dict]
    decode: Callable[[Tuple[Hashable, ...], dict], int]
    metrics: MetricsRegistry
    report: ClusterRunReport
    pending: Deque[_Unit] = field(default_factory=deque)
    fatal: List[BaseException] = field(default_factory=list)


class _WorkerHandle:
    """Coordinator-side state of one registered host."""

    __slots__ = ("name", "transport", "alive", "busy", "last_seen",
                 "current_assignment")

    def __init__(self, name: str, transport) -> None:
        self.name = name
        self.transport = transport
        self.alive = True
        self.busy = False
        self.last_seen = time.monotonic()
        self.current_assignment: Optional[int] = None


class ClusterCoordinator:
    """Executes ShardPlans across registered executor hosts.

    Args:
        host, port: Listening address; port 0 picks a free port
            (read it back from :attr:`port` after :meth:`start`).
        retry: Backoff policy for timed-out shard RPCs; the default is
            4 attempts with 50ms → 2s capped exponential jittered
            delays.
        rpc_timeout: Per-shard (and per-deploy) response deadline in
            seconds.
        heartbeat_timeout: Declare a host dead after this many seconds
            without any frame from it; ``None`` relies on
            connection-close detection alone.
        local_fallback: When the fleet is empty, run remaining units in
            the coordinator process instead of failing the job.
        metrics: The coordinator's own
            :class:`~repro.obs.MetricsRegistry` (a fresh one by
            default).  Worker heartbeats carry registry snapshots that
            are stashed latest-per-worker and folded together with this
            registry by :meth:`fleet_snapshot` — replace-then-merge, so
            a worker's cumulative counters are never double-counted no
            matter how many heartbeats it sent.

    One job (:meth:`run_inference` / :meth:`run_construction`) runs at
    a time; concurrent calls queue on an internal lock.  Use as an
    async context manager, or call :meth:`start` / :meth:`stop`.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 retry: Optional[RetryPolicy] = None,
                 rpc_timeout: float = 30.0,
                 heartbeat_timeout: Optional[float] = None,
                 local_fallback: bool = True,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self._host = host
        self._port = port
        self._retry = retry if retry is not None else RetryPolicy()
        self._rpc_timeout = rpc_timeout
        self._heartbeat_timeout = heartbeat_timeout
        self._local_fallback = local_fallback
        self._workers: Dict[str, _WorkerHandle] = {}
        self._idle: Deque[_WorkerHandle] = deque()
        self._assignments: Dict[int, _Assignment] = {}
        self._assignment_counter = itertools.count()
        self._rpc_counter = itertools.count()
        self._rpc_waiters: Dict[int, "asyncio.Future[dict]"] = {}
        self._model_cache: Dict[str, GraphExModel] = {}
        #: id(model) → (the model, its spooled artifact), per in-memory
        #: model a job was given.
        self._spooled: Dict[int, Tuple[GraphExModel, Path]] = {}
        self._model_spool: Optional[Path] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._conn_tasks: Set[asyncio.Task] = set()
        self._monitor_task: Optional[asyncio.Task] = None
        self._state_changed: Optional[asyncio.Event] = None
        self._job_lock: Optional[asyncio.Lock] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._active_report: Optional[ClusterRunReport] = None
        self._closing = False
        #: Report of the most recently finished job.
        self.last_report: Optional[ClusterRunReport] = None
        #: The coordinator's own registry (scheduler-side counters).
        self.metrics = metrics if metrics is not None \
            else MetricsRegistry()
        #: Latest validated heartbeat snapshot per worker name.  A
        #: worker's registry is cumulative, so only its newest snapshot
        #: counts — replacement here is what makes the fleet view
        #: exactly-once.
        self._worker_metrics: Dict[str, dict] = {}
        self._active_metrics: Optional[MetricsRegistry] = None

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Bind the server; returns the (host, port) workers dial."""
        self._loop = asyncio.get_running_loop()
        self._state_changed = asyncio.Event()
        self._job_lock = asyncio.Lock()
        self._server = await asyncio.start_server(
            self._serve_connection, self._host, self._port)
        self._port = self._server.sockets[0].getsockname()[1]
        if self._heartbeat_timeout is not None:
            self._monitor_task = asyncio.ensure_future(
                self._monitor_heartbeats())
        return self._host, self._port

    async def stop(self, drain: bool = True) -> None:
        """Shut the fleet down.

        With ``drain`` (default) the running job — if any — finishes
        first: its in-flight shards are merged and its result returned
        to its caller before any worker is told to go.  New jobs are
        rejected from the moment stop is called.
        """
        self._closing = True
        if drain and self._job_lock is not None:
            async with self._job_lock:
                pass
        if self._monitor_task is not None:
            self._monitor_task.cancel()
            with suppress(asyncio.CancelledError):
                await self._monitor_task
        for worker in list(self._workers.values()):
            with suppress(TransportClosed, OSError):
                await asyncio.wait_for(
                    worker.transport.send({"type": "shutdown"}),
                    timeout=1.0)
            worker.alive = False
            worker.transport.close()
        self._workers.clear()
        self._idle.clear()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Drain the per-connection reader tasks: the transport closes
        # above EOF their reads, so they exit on their own — cancelling
        # them would trip asyncio.streams' connection_made callback
        # (task.exception() on a cancelled task logs).  Cancel only a
        # straggler that somehow outlives the grace period.
        if self._conn_tasks:
            _done, pending = await asyncio.wait(set(self._conn_tasks),
                                                timeout=2.0)
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.wait(pending, timeout=1.0)
        if self._model_spool is not None:
            # Spool teardown is filesystem work; off-loop so stop()
            # cannot stall a loop shared with other servers
            # (async-no-blocking).
            spool = self._model_spool
            await asyncio.get_event_loop().run_in_executor(
                None, lambda: shutil.rmtree(spool, ignore_errors=True))

    async def __aenter__(self) -> "ClusterCoordinator":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    @property
    def port(self) -> int:
        """The bound port (meaningful after :meth:`start`)."""
        return self._port

    @property
    def host(self) -> str:
        return self._host

    @property
    def loop(self) -> Optional[asyncio.AbstractEventLoop]:
        """The event loop the coordinator runs on (set by :meth:`start`).

        :class:`~repro.core.execution.ClusterExecutor` submits its
        synchronous calls here from other threads.
        """
        return self._loop

    def n_live(self) -> int:
        """Currently registered live hosts."""
        return sum(1 for worker in self._workers.values() if worker.alive)

    def worker_names(self) -> List[str]:
        """Names of the live hosts, registration order."""
        return [worker.name for worker in self._workers.values()
                if worker.alive]

    def fleet_snapshot(self) -> dict:
        """One merged metrics view of the whole fleet.

        Folds the coordinator's own registry with the **latest**
        heartbeat snapshot of every worker seen so far (dead workers
        included — their last reading still happened).  Because worker
        registries are cumulative and only the newest snapshot per
        worker is kept, merging here is exactly-once: the result's
        counters equal what one shared registry would have recorded.
        """
        return self._fleet_view(self.metrics)

    def _fleet_view(self, registry: MetricsRegistry) -> dict:
        """``registry`` folded with every worker's latest snapshot."""
        return merge_snapshots(
            [registry.snapshot()]
            + [snapshot for _name, snapshot in
               sorted(self._worker_metrics.items())])

    async def wait_for_workers(self, n: int,
                               timeout: float = 30.0) -> None:
        """Block until ``n`` hosts are registered (or raise)."""
        deadline = time.monotonic() + timeout
        while self.n_live() < n:
            if time.monotonic() > deadline:
                raise ClusterError(
                    f"only {self.n_live()} of {n} workers registered "
                    f"within {timeout}s")
            await asyncio.sleep(0.02)

    # -- connection handling ------------------------------------------------

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        transport = Transport(reader, writer)
        try:
            hello = await asyncio.wait_for(transport.recv(), timeout=30.0)
        except (TransportClosed, asyncio.TimeoutError):
            transport.close()
            return
        except FrameError as exc:
            # Not a worker at all (an HTTP probe's "GET " reads as a
            # gigabyte frame) or a broken one: say why, then hang up.
            self.metrics.inc("coordinator.frames.rejected")
            await self._reject(transport, f"malformed frame: {exc}")
            return
        if hello.get("type") != "register":
            await self._reject(transport,
                               f"expected register frame, got "
                               f"{hello.get('type')!r}")
            return
        if hello.get("protocol") != PROTOCOL_VERSION:
            await self._reject(transport,
                               f"protocol {hello.get('protocol')!r} != "
                               f"coordinator protocol {PROTOCOL_VERSION}")
            return
        if self._closing:
            await self._reject(transport, "coordinator is stopping")
            return
        name = str(hello.get("name"))
        existing = self._workers.get(name)
        if existing is not None and existing.alive:
            # Duplicate registration: the live holder keeps the name —
            # a reconnecting host must drop its old link first (which
            # marks it dead and frees the name).
            await self._reject(transport,
                               f"worker name {name!r} is already "
                               f"registered and alive")
            return
        worker = _WorkerHandle(name, transport)
        self._workers[name] = worker
        with suppress(TransportClosed):
            await transport.send({"type": "registered",
                                  "coordinator": f"{self._host}:"
                                                 f"{self._port}"})
        self._release_worker(worker)
        reason = "connection closed"
        try:
            while True:
                frame = await transport.recv()
                worker.last_seen = time.monotonic()
                if not self._route_frame(worker, frame):
                    break
        except TransportClosed:
            pass
        except FrameError as exc:
            # The stream can no longer be trusted to be in step: tell
            # the peer why and drop the link; its unit is re-planned.
            reason = f"malformed frame: {exc}"
            self.metrics.inc("coordinator.frames.rejected")
            with suppress(TransportClosed):
                await transport.send({"type": "error", "reason": reason})
        finally:
            self._mark_dead(worker, reason)

    async def _reject(self, transport, reason: str) -> None:
        with suppress(TransportClosed):
            await transport.send({"type": "error", "reason": reason})
        transport.close()
        await transport.wait_closed()

    def _stash_worker_metrics(self, worker: _WorkerHandle,
                              frame: dict) -> None:
        """Keep the newest registry snapshot a worker frame carried.

        Heartbeats and shard results both ride one; a worker registry
        is cumulative, so replacing (never folding) the stashed
        snapshot is what keeps :meth:`fleet_snapshot` exactly-once.
        Late/stale results still count — their snapshot is still the
        newest reading from that host.
        """
        snapshot = frame.get("metrics")
        if snapshot is None:
            return
        try:
            validate_snapshot(snapshot)
        except ValueError:
            # A malformed snapshot must not kill the link (the worker
            # is otherwise healthy) — count and drop it.
            self.metrics.inc("coordinator.metrics.rejected_snapshots")
        else:
            self._worker_metrics[worker.name] = snapshot

    def _route_frame(self, worker: _WorkerHandle, frame: dict) -> bool:
        """Route one incoming frame; returns False to drop the link."""
        kind = frame.get("type")
        self._stash_worker_metrics(worker, frame)
        if kind == "heartbeat":
            return True
        if kind == "bye":
            return False
        request_id = frame.get("request_id")
        if request_id is not None:
            waiter = self._rpc_waiters.get(request_id)
            if waiter is not None and not waiter.done():
                waiter.set_result(frame)
            return True
        assignment_id = frame.get("assignment")
        if assignment_id is not None:
            entry = self._assignments.get(assignment_id)
            if entry is None or entry.stale or entry.future.done():
                # The late-result rule: this shard was re-assigned (or
                # the job moved on) — merging it now would double-count
                # its keys, so it is discarded, not double-merged.
                if self._active_report is not None:
                    self._active_report.n_late_discarded += 1
                    (self.metrics if self._active_metrics is None
                     else self._active_metrics).inc(
                        "cluster.units.late_discarded")
                return True
            entry.future.set_result(frame)
        return True

    def _mark_dead(self, worker: _WorkerHandle, reason: str) -> None:
        if not worker.alive:
            return
        worker.alive = False
        worker.transport.close()
        if self._workers.get(worker.name) is worker:
            del self._workers[worker.name]
        assignment_id = worker.current_assignment
        if assignment_id is not None:
            entry = self._assignments.get(assignment_id)
            if entry is not None and not entry.future.done():
                entry.future.set_exception(
                    _WorkerDied(f"{worker.name}: {reason}"))
        if self._state_changed is not None:
            self._state_changed.set()

    async def _monitor_heartbeats(self) -> None:
        interval = max(0.01, self._heartbeat_timeout / 4)
        while True:
            await asyncio.sleep(interval)
            now = time.monotonic()
            for worker in list(self._workers.values()):
                if worker.alive and \
                        now - worker.last_seen > self._heartbeat_timeout:
                    self._mark_dead(
                        worker,
                        f"no heartbeat for {self._heartbeat_timeout}s")

    # -- worker pool --------------------------------------------------------

    def _acquire_idle(self) -> Optional[_WorkerHandle]:
        while self._idle:
            worker = self._idle.popleft()
            if worker.alive and not worker.busy:
                worker.busy = True
                return worker
        return None

    def _release_worker(self, worker: _WorkerHandle) -> None:
        if worker.alive and not self._closing:
            worker.busy = False
            self._idle.append(worker)
        if self._state_changed is not None:
            self._state_changed.set()

    # -- RPC plumbing -------------------------------------------------------

    async def _request(self, worker: _WorkerHandle, message: dict,
                       timeout: Optional[float] = None) -> dict:
        request_id = next(self._rpc_counter)
        future: "asyncio.Future[dict]" = \
            asyncio.get_event_loop().create_future()
        self._rpc_waiters[request_id] = future
        try:
            await worker.transport.send({**message,
                                         "request_id": request_id})
            return await asyncio.wait_for(
                future, timeout if timeout is not None
                else self._rpc_timeout)
        finally:
            self._rpc_waiters.pop(request_id, None)

    # -- model hand-off -----------------------------------------------------

    async def _materialize(self, source: Union[GraphExModel, str, Path]
                           ) -> Tuple[Path, GraphExModel]:
        """Resolve a model source to (artifact path, opened model).

        A path opens mapped (memoized); an in-memory model is
        persisted to the coordinator's spool as a format-3 artifact
        the first time it is seen — every later job on the same object
        is answered from that one save, so a service calling once per
        window leaves one spool directory and one mapping per host, not
        one per call — and the *mapped* open is used locally too: workers
        and coordinator then share one physical model, the PR 6
        zero-copy plane doing the distribution.  The opened model is
        also what reply label ids are read against, so its
        ``artifact_identity`` rides every ``run_shard`` frame: a path
        re-saved in place after this open is a different artifact to
        any worker that opens it later, and is refused, not misread.
        """
        loop = asyncio.get_event_loop()
        if not isinstance(source, GraphExModel):
            path = Path(source)
        elif id(source) in self._spooled:
            path = self._spooled[id(source)][1]
        else:
            if self._model_spool is None:
                # mkdtemp off-loop (async-no-blocking).  Only a job
                # calls this, under _job_lock, so no second caller can
                # create a spool while this one awaits the executor.
                self._model_spool = Path(await loop.run_in_executor(
                    None, lambda: tempfile.mkdtemp(
                        prefix="graphex-coordinator-")))
            path = self._model_spool / f"model-{len(self._spooled)}"
            await loop.run_in_executor(
                None, lambda: save_model(source, path))
            # The model rides along so its id cannot be reused by
            # another object while the entry lives.
            self._spooled[id(source)] = (source, path)
        key = str(path)
        model = self._model_cache.get(key)
        if model is None:
            # The mmap open touches disk; off-loop like save_model
            # above.  setdefault so a concurrent open of the same key
            # keeps one canonical mapping.
            opened = await loop.run_in_executor(None, open_model, key)
            model = self._model_cache.setdefault(key, opened)
        return path, model

    # -- the scheduler ------------------------------------------------------

    def _fail(self, run: _JobRun, exc: BaseException) -> None:
        run.fatal.append(exc)
        self._state_changed.set()

    def _settle(self, run: _JobRun, unit: _Unit, n_merged: int,
                since: float) -> None:
        """Book one merged unit.  Runs on the fenced merge path only —
        exactly once per unit — so the merged counters equal the
        single-process totals (the CI fleet-equality assertion).

        The unit was timed whole, ``since`` its assignment (the
        worker's single reply allows nothing finer).
        """
        elapsed = time.monotonic() - since
        for key in unit.keys:
            run.report.merge_counts[key] = \
                run.report.merge_counts.get(key, 0) + 1
        run.metrics.inc("cluster.units.merged", kind=run.kind)
        run.metrics.inc("cluster.requests.merged"
                        if run.kind == "inference"
                        else "cluster.leaves.merged", n_merged)
        run.metrics.observe("cluster.unit.seconds", elapsed,
                            kind=run.kind)

    async def _execute_units(self, run: _JobRun) -> None:
        """Drive every unit to exactly-once completion (see module doc)."""
        kind, pending = run.kind, run.pending
        pending.extend(_Unit(shard) for shard in run.job.plan.shards)
        running: Set[asyncio.Task] = set()
        while not run.fatal:
            self._state_changed.clear()
            while pending:
                worker = self._acquire_idle()
                if worker is None:
                    break
                task = asyncio.ensure_future(
                    self._run_unit(run, worker, pending.popleft()))
                running.add(task)
                task.add_done_callback(running.discard)
            if not pending and not running:
                break
            if pending and not running and self.n_live() == 0:
                if not self._local_fallback:
                    self._fail(run, ClusterError(
                        f"no live workers remain for {kind} and local "
                        f"fallback is disabled"))
                    break
                # The fleet has emptied: degrade gracefully to local
                # execution — same scatter/merge, same output.
                while pending:
                    unit = pending.popleft()
                    start = time.monotonic()
                    self._settle(run, unit,
                                 run.job.run_local(unit.keys), start)
                    run.report.n_local_units += 1
                    run.metrics.inc("cluster.units.local", kind=kind)
                continue
            waiter = asyncio.ensure_future(self._state_changed.wait())
            await asyncio.wait({waiter, *running},
                               return_when=asyncio.FIRST_COMPLETED)
            waiter.cancel()
            with suppress(asyncio.CancelledError):
                await waiter
        if run.fatal:
            for task in running:
                task.cancel()
            if running:
                await asyncio.gather(*running, return_exceptions=True)
            raise run.fatal[0]

    async def _run_unit(self, run: _JobRun, worker: _WorkerHandle,
                        unit: _Unit) -> None:
        kind, report = run.kind, run.report
        try:
            assignment_id = next(self._assignment_counter)
            entry = _Assignment(
                unit=unit,
                future=asyncio.get_event_loop().create_future())
            self._assignments[assignment_id] = entry
            worker.current_assignment = assignment_id
            if worker.name not in report.workers_used:
                report.workers_used.append(worker.name)
            try:
                started = time.monotonic()
                message = {"type": "run_shard", "kind": kind,
                           "assignment": assignment_id,
                           **run.encode(unit.keys)}
                try:
                    await worker.transport.send(message)
                except (TransportClosed, asyncio.TimeoutError):
                    self._mark_dead(worker, "send failed")
                    self._replan_orphans(run, unit)
                    return
                try:
                    reply = await asyncio.wait_for(entry.future,
                                                   self._rpc_timeout)
                except asyncio.TimeoutError:
                    # Deadline expired: fence the assignment (a late
                    # result will be discarded), back off, re-dispatch.
                    # The worker goes back to the *end* of the idle
                    # queue, so the retry prefers a different host.
                    entry.stale = True
                    unit.attempts += 1
                    report.n_retries += 1
                    run.metrics.inc("cluster.retries", kind=kind)
                    worker.current_assignment = None
                    self._release_worker(worker)
                    if unit.attempts >= self._retry.max_attempts:
                        self._fail(run, ClusterError(
                            f"{kind} shard {list(unit.keys)!r} timed "
                            f"out on all {unit.attempts} attempts "
                            f"(rpc_timeout={self._rpc_timeout}s)"))
                        return
                    await asyncio.sleep(
                        self._retry.delay_for(unit.attempts - 1))
                    run.pending.append(unit)
                    self._state_changed.set()
                    return
                except _WorkerDied:
                    self._replan_orphans(run, unit)
                    return
            finally:
                worker.current_assignment = None
                self._assignments.pop(assignment_id, None)
            if reply.get("type") == "shard_error":
                self._release_worker(worker)
                self._fail(run, ClusterExecutionError(
                    f"{kind} shard {list(unit.keys)!r} raised on worker "
                    f"{worker.name}; original worker traceback:\n"
                    f"{reply.get('traceback', '<missing>')}",
                    worker_traceback=reply.get("traceback")))
                return
            try:
                n_merged = run.decode(unit.keys, reply)
            except Exception as exc:
                self._release_worker(worker)
                self._fail(run, ClusterError(
                    f"merging {kind} shard {list(unit.keys)!r} from "
                    f"{worker.name} failed: {exc!r}"))
                return
            self._settle(run, unit, n_merged, started)
            self._release_worker(worker)
        except Exception as exc:  # never lose the scheduler to a bug
            self._fail(run, exc)
        finally:
            self._state_changed.set()

    def _replan_orphans(self, run: _JobRun, unit: _Unit) -> None:
        """Dead-host path: re-balance the orphaned keys over survivors."""
        run.report.n_replans += 1
        run.report.orphaned_keys.append(list(unit.keys))
        run.metrics.inc("cluster.replans", kind=run.kind)
        n_live = self.n_live()
        if len(unit.keys) > 1 and n_live > 1:
            replanned = run.job.plan.replan(unit.keys, n_live)
            run.pending.extend(_Unit(shard) for shard in replanned.shards)
        else:
            run.pending.append(_Unit(unit.keys))
        self._state_changed.set()

    # -- jobs ---------------------------------------------------------------

    async def _run_job(
            self, kind: str, job: Union[InferenceJob, ConstructionJob],
            encode: Callable[[Tuple[Hashable, ...]], dict],
            decode: Callable[[Tuple[Hashable, ...], dict], int],
            metrics: Optional[MetricsRegistry]) -> None:
        """Run ``job`` across the fleet and leave its report behind."""
        run = _JobRun(
            kind, job, encode, decode,
            metrics if metrics is not None else self.metrics,
            ClusterRunReport(kind=kind, n_units_planned=job.plan.n_shards,
                             n_workers_at_start=self.n_live()))
        self._active_report, self._active_metrics = run.report, run.metrics
        try:
            await self._execute_units(run)
        finally:
            self._active_report = self._active_metrics = None
            try:
                run.report.fleet_metrics = self._fleet_view(run.metrics)
            except ValueError:
                # A job registry with custom buckets cannot fold with
                # the workers' default-bucket snapshots; the job view
                # alone is still a valid snapshot.
                run.report.fleet_metrics = run.metrics.snapshot()
            self.last_report = run.report

    async def run_inference(
            self, model_source: Union[GraphExModel, str, Path],
            requests: Sequence[InferenceRequest], *, k: int = 10,
            hard_limit: Optional[int] = None,
            metrics: Optional[MetricsRegistry] = None) -> BatchResult:
        """Infer a batch across the fleet.

        Args:
            model_source: A model artifact directory (the normal
                hand-off: workers mmap-open it by path — coordinator
                and workers see one filesystem, see the package
                docstring), or an in-memory model (persisted to a spool
                artifact first).
            requests: ``(item_id, title, leaf_id)`` triples.
            k, hard_limit: As in ``batch_recommend``.
            metrics: Registry for this job's counters and unit timings
                (a :class:`~repro.core.execution.ClusterExecutor`
                passes its own); the coordinator's registry by default.

        Returns:
            Item id → ranked recommendations, element-wise identical to
            the single-process fast path (last-request-wins duplicate
            semantics included) for any fleet size and failure
            topology.  Workers return ranked label ids; the rows are
            materialised here (see the module docstring).

        Raises:
            ClusterError: No live workers and no local fallback, a
                shard out of attempts, or a reply whose columns do not
                fit the unit that was sent (the message carries the
                codec's :class:`~repro.cluster.protocol.FrameError`).
            ClusterExecutionError: A shard raised on its worker — an
                artifact-identity mismatch among the causes.
        """
        async with self._job_lock:
            if self._closing:
                raise ClusterError("coordinator is stopping")
            path, model = await self._materialize(model_source)
            # The job's local runner validates configuration up front
            # and serves the empty-fleet fallback.
            job = InferenceJob(model, requests, max(1, self.n_live()),
                               k=k, hard_limit=hard_limit)

            def encode(keys: Tuple[Hashable, ...]) -> dict:
                return {"model_path": str(path),
                        "artifact": model.artifact_identity,
                        "requests": pack_requests(job.requests_of(keys)),
                        "k": k, "hard_limit": hard_limit}

            def decode(keys: Tuple[Hashable, ...], reply: dict) -> int:
                # The reply names labels by id; the rows are built here,
                # from this process's own mapping of the artifact.
                return job.merge(keys, unpack_recommendations(
                    reply, model, job.requests_of(keys)))

            await self._run_job("inference", job, encode, decode,
                                metrics)
            return job.output()

    async def run_construction(
            self, curated: "CuratedKeyphrases",
            tokenizer: SpaceTokenizer = DEFAULT_TOKENIZER, *,
            metrics: Optional[MetricsRegistry] = None
            ) -> Dict[int, "LeafGraph"]:
        """Build every non-empty leaf graph across the fleet.

        Same contract as every other executor's ``run_construction``:
        workers persist their unit's graphs as format-3 leaf bundles in
        their spool (:func:`~repro.core.execution.build_shard_bundle`)
        and the coordinator mmap-opens them (localhost / shared
        filesystem — the bundle never crosses the wire as a pickle);
        a reply names its bundle and nothing else, and the
        :class:`~repro.core.execution.ConstructionJob` returns the
        graphs in curated order whichever unit finished first.  The
        frame carries ``tokenizer.spec()``, which a worker reads back
        with ``SpaceTokenizer.from_spec``.
        """
        async with self._job_lock:
            if self._closing:
                raise ClusterError("coordinator is stopping")
            job = ConstructionJob(curated, tokenizer,
                                  max(1, self.n_live()))

            def encode(keys: Tuple[Hashable, ...]) -> dict:
                return {"tokenizer": tokenizer.spec(),
                        "leaves": pack_curated_leaves(
                            job.leaves_of(keys))}

            def decode(keys: Tuple[Hashable, ...], reply: dict) -> int:
                return job.merge_bundle(keys, reply["bundle_path"])

            await self._run_job("construction", job, encode, decode,
                                metrics)
            return job.output()

    # -- deployment ---------------------------------------------------------

    async def deploy_artifact(self, directory: Union[str, Path], *,
                              generation: Optional[int] = None,
                              timeout: Optional[float] = None) -> int:
        """Pre-deploy a model artifact to every live host.

        The daily-refresh hand-off: the orchestrator persists today's
        model as a format-3 artifact and calls this so every executor
        host opens (and caches) it, by path, before the first shard of
        the day arrives.

        A host that fails or times out is marked dead (the next job
        plans around it) rather than failing the deploy.

        Returns:
            The number of hosts that acknowledged the deployment.
        """
        directory = Path(directory)
        deployed = 0
        for worker in [w for w in self._workers.values() if w.alive]:
            try:
                reply = await self._request(
                    worker, {"type": "deploy_model",
                             "model_path": str(directory),
                             "generation": generation}, timeout)
            except (TransportClosed, asyncio.TimeoutError, OSError):
                self._mark_dead(worker, "deploy failed")
                continue
            if reply.get("type") == "deployed":
                deployed += 1
        return deployed
