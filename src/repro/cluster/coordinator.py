"""Fault-tolerant cluster coordinator: ShardPlans across N hosts.

A :class:`ClusterCoordinator` listens on localhost TCP, executor hosts
(:class:`~repro.cluster.worker.ClusterWorker`) register, and the units
of a :class:`~repro.core.sharding.ShardPlan` run across the fleet (the
plan stays here; a unit's requests are what ships).  A job drives an
:class:`~repro.core.execution.InferenceJob`, the scatter/merge the
inline executor calls, so outputs are element-wise identical to the
single-process fast path under **any** failure topology.  The fleet
serves inference only: models are built in process
(``SerialExecutor.run_construction``).

Inference results cross the wire as ids, not rows
(:mod:`~repro.cluster.protocol`): the rows are built here, from this
process's own mapping of the artifact, and that serial row build is,
after the workers' own time, the largest term of a cluster op.  A job
that asks for texts (``texts=True``, what serving asks for) reads only
the label texts and builds no row.

This module is the socket shell around a
:class:`~repro.cluster.scheduler.Scheduler`, which makes every decision
(its docstring has the event → action table).  The shell checks each
hello, turns every frame into one scheduler call, and carries out the
returned actions: it sends ``run_shard`` frames, runs units locally,
decodes and merges replies, and hangs up on hosts declared dead.  One
timer, armed at the scheduler's ``next_wakeup``, delivers every
deadline, backoff and heartbeat expiry.
"""

from __future__ import annotations

import asyncio
import itertools
import shutil
import tempfile
from contextlib import suppress
from dataclasses import dataclass
from pathlib import Path
from typing import (Callable, Dict, Hashable, List, NamedTuple, Optional,
                    Sequence, Set, Tuple, Union)

from ..core.batch import BatchResult, InferenceRequest, TextResult
from ..core.execution import InferenceJob
from ..core.model import GraphExModel
from ..core.serialization import open_model, save_model
from ..obs import MetricsRegistry, merge_snapshots, validate_snapshot
from .protocol import (PROTOCOL_VERSION, FrameError, pack_requests,
                       unpack_recommendations)
from .retry import RetryPolicy
from .scheduler import (Actions, ClusterError, ClusterExecutionError,
                        ClusterRunReport, Scheduler)
from .transport import Transport, TransportClosed

__all__ = ["ClusterCoordinator", "ClusterError", "ClusterExecutionError",
           "ClusterRunReport"]


class _Link(NamedTuple):
    """One registered worker's connection."""

    name: str
    transport: Transport


@dataclass
class _JobRun:
    """The running job's I/O half: ``encode(keys)`` is the unit's part
    of a ``run_shard`` frame, ``decode(keys, reply)`` merges a reply
    into ``job`` and returns the requests it settled, and ``over``
    resolves when the scheduler ends the job."""

    job: InferenceJob
    encode: Callable[[Tuple[Hashable, ...]], dict]
    decode: Callable[[Tuple[Hashable, ...], dict], int]
    over: "asyncio.Future[None]"


def _frame_id(frame: dict, field: str) -> Optional[int]:
    """A frame's ``request_id`` / ``assignment``: absent or an int."""
    value = frame.get(field)
    if value is not None and type(value) is not int:
        raise FrameError(f"{field!r} must be an integer id, got "
                         f"{type(value).__name__}")
    return value


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

    One job (:meth:`run_inference`) runs at a time; concurrent calls
    queue on an internal lock.  Use as an async context manager, or
    call :meth:`start` / :meth:`stop`.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 retry: Optional[RetryPolicy] = None,
                 rpc_timeout: float = 30.0,
                 heartbeat_timeout: Optional[float] = None,
                 local_fallback: bool = True,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self._host = host
        self._port = port
        self._rpc_timeout = rpc_timeout
        self._scheduler = Scheduler(
            retry if retry is not None else RetryPolicy(), rpc_timeout,
            heartbeat_timeout, local_fallback)
        self._workers: Dict[str, _Link] = {}
        self._rpc_counter = itertools.count()
        self._rpc_waiters: Dict[int, "asyncio.Future[dict]"] = {}
        self._model_cache: Dict[str, GraphExModel] = {}
        #: id(model) → (the model, its spooled artifact), per in-memory
        #: model a job was given.
        self._spooled: Dict[int, Tuple[GraphExModel, Path]] = {}
        self._model_spool: Optional[Path] = None
        self._server: Optional[asyncio.AbstractServer] = None
        #: Connection readers and timer-fired action runs.
        self._tasks: Set[asyncio.Task] = set()
        self._timer: Optional[asyncio.TimerHandle] = None
        self._registered: Optional[asyncio.Condition] = None
        self._job_lock: Optional[asyncio.Lock] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._run: Optional[_JobRun] = None
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

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Bind the server; returns the (host, port) workers dial."""
        self._loop = asyncio.get_running_loop()
        self._registered = asyncio.Condition()
        self._job_lock = asyncio.Lock()
        self._server = await asyncio.start_server(
            self._serve_connection, self._host, self._port)
        self._port = self._server.sockets[0].getsockname()[1]
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
        for link in list(self._workers.values()):
            with suppress(TransportClosed, OSError):
                await asyncio.wait_for(
                    link.transport.send({"type": "shutdown"}),
                    timeout=1.0)
            await self._apply(self._drop(link))
        if self._timer is not None:
            self._timer.cancel()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Drain the per-connection reader tasks: the transport closes
        # above EOF their reads, so they exit on their own — cancelling
        # them would trip asyncio.streams' connection_made callback
        # (task.exception() on a cancelled task logs).  Cancel only a
        # straggler that somehow outlives the grace period.
        if self._tasks:
            _done, pending = await asyncio.wait(set(self._tasks),
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
        return len(self._scheduler.workers)

    def worker_names(self) -> List[str]:
        """Names of the live hosts, registration order."""
        return list(self._scheduler.workers)

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
        async with self._registered:
            try:
                await asyncio.wait_for(self._registered.wait_for(
                    lambda: self.n_live() >= n), timeout)
            except asyncio.TimeoutError:
                raise ClusterError(
                    f"only {self.n_live()} of {n} workers registered "
                    f"within {timeout}s") from None

    # -- connection handling ------------------------------------------------

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._track(task)
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
        if name in self._workers:
            # Duplicate registration: the live holder keeps the name —
            # a reconnecting host must drop its old link first (which
            # frees the name).
            await self._reject(transport,
                               f"worker name {name!r} is already "
                               f"registered and alive")
            return
        link = self._workers[name] = _Link(name, transport)
        try:
            with suppress(TransportClosed):
                await transport.send({"type": "registered",
                                      "coordinator": f"{self._host}:"
                                                     f"{self._port}"})
            if self._workers.get(name) is link:
                await self._apply(self._scheduler.join(name, self._now()))
                async with self._registered:
                    self._registered.notify_all()
            while await self._route_frame(link, await transport.recv()):
                pass
        except TransportClosed:
            pass
        except FrameError as exc:
            # The stream can no longer be trusted to be in step: tell
            # the peer why and drop the link; its unit is re-planned.
            self.metrics.inc("coordinator.frames.rejected")
            with suppress(TransportClosed):
                await transport.send({"type": "error",
                                      "reason": f"malformed frame: {exc}"})
        finally:
            await self._apply(self._drop(link))

    async def _reject(self, transport, reason: str) -> None:
        with suppress(TransportClosed):
            await transport.send({"type": "error", "reason": reason})
        transport.close()
        await transport.wait_closed()

    def _stash_worker_metrics(self, worker: _Link,
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

    async def _route_frame(self, link: _Link, frame: dict) -> bool:
        """Turn one frame into one scheduler call; False drops the link."""
        request_id = _frame_id(frame, "request_id")
        assignment = _frame_id(frame, "assignment")
        self._scheduler.heard(link.name, self._now())
        self._stash_worker_metrics(link, frame)
        if frame.get("type") == "bye":
            return False
        if request_id is not None:
            waiter = self._rpc_waiters.get(request_id)
            if waiter is not None and not waiter.done():
                waiter.set_result(frame)
        elif assignment is not None:
            await self._apply(self._merge(link.name, assignment, frame))
        return True

    def _merge(self, name: str, assignment: int, frame: dict) -> Actions:
        """A unit's reply: fenced by the scheduler, merged here."""
        claimed = self._scheduler.reply(name, assignment)
        if claimed is None:
            return Actions()
        keys, since = claimed
        if frame.get("type") == "shard_error":
            return self._scheduler.fail(ClusterExecutionError(
                f"inference shard {list(keys)!r} raised on worker {name}; "
                f"original worker traceback:\n"
                f"{frame.get('traceback', '<missing>')}",
                worker_traceback=frame.get("traceback")))
        try:
            n_merged = self._run.decode(keys, frame)
        except Exception as exc:
            return self._scheduler.fail(ClusterError(
                f"merging inference shard {list(keys)!r} from {name} "
                f"failed: {exc!r}"))
        return self._scheduler.settle(keys, n_merged, since, self._now())

    def _drop(self, link: _Link) -> Actions:
        """Hang up on a worker; the scheduler re-plans what it held."""
        if self._workers.get(link.name) is not link:
            return Actions()
        del self._workers[link.name]
        link.transport.close()
        return self._scheduler.leave(link.name, self._now())

    # -- carrying out the scheduler's actions -------------------------------

    async def _apply(self, actions: Actions) -> None:
        """Carry out what the scheduler decided, then re-arm the timer."""
        for name in actions.drop:         # already gone from the scheduler
            link = self._workers.pop(name, None)
            if link is not None:
                link.transport.close()
        run = self._run
        for keys in actions.local:
            since = self._now()
            try:
                n_merged = run.job.run_local(keys)
            except Exception as exc:
                await self._apply(self._scheduler.fail(exc))
                break
            await self._apply(self._scheduler.settle(
                keys, n_merged, since, self._now(), local=True))
        for name, assignment, keys in actions.send:
            link = self._workers.get(name)
            if link is None:
                continue            # gone since; leave() re-planned it
            try:
                await link.transport.send({
                    "type": "run_shard", "assignment": assignment,
                    **run.encode(keys)})
            except TransportClosed:
                await self._apply(self._drop(link))
            except Exception as exc:  # never lose a job to a bad frame
                await self._apply(self._scheduler.fail(exc))
        if run is not None and not run.over.done():
            if actions.error is not None:
                run.over.set_exception(actions.error)
            elif actions.done:
                run.over.set_result(None)
        self._arm()

    def _arm(self) -> None:
        """Keep the one timer at the scheduler's next wake-up."""
        if self._timer is not None:
            self._timer.cancel()
        wake = self._scheduler.next_wakeup()
        self._timer = None if wake is None \
            else self._loop.call_at(wake, self._on_timer)

    def _on_timer(self) -> None:
        self._timer = None
        self._track(asyncio.ensure_future(
            self._apply(self._scheduler.tick(self._now()))))

    def _track(self, task: asyncio.Task) -> None:
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    def _now(self) -> float:
        return self._loop.time()

    # -- RPC plumbing -------------------------------------------------------

    async def _request(self, link: _Link, message: dict,
                       timeout: Optional[float] = None) -> dict:
        request_id = next(self._rpc_counter)
        future: "asyncio.Future[dict]" = \
            asyncio.get_event_loop().create_future()
        self._rpc_waiters[request_id] = future
        try:
            await link.transport.send({**message,
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

    # -- the job ------------------------------------------------------------

    async def run_inference(
            self, model_source: Union[GraphExModel, str, Path],
            requests: Sequence[InferenceRequest], *, k: int = 10,
            hard_limit: Optional[int] = None, texts: bool = False,
            metrics: Optional[MetricsRegistry] = None
            ) -> Union[BatchResult, TextResult]:
        """Infer a batch across the fleet.

        Args:
            model_source: A model artifact directory (the normal
                hand-off: workers mmap-open it by path — coordinator
                and workers see one filesystem, see the package
                docstring), or an in-memory model (persisted to a spool
                artifact first).
            requests: ``(item_id, title, leaf_id)`` triples.
            k, hard_limit, texts: As in ``batch_recommend``.
            metrics: Registry for this job's counters and unit timings
                (a :class:`~repro.core.execution.ClusterExecutor`
                passes its own); the coordinator's registry by default.

        Returns:
            Item id → ranked recommendations, element-wise identical to
            the single-process fast path (last-request-wins duplicate
            semantics included) for any fleet size and failure
            topology.  Workers return ranked label ids; the rows are
            materialised here (see the module docstring) — or, with
            ``texts``, only their texts are read and no row is built.

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
                               k=k, hard_limit=hard_limit, texts=texts)

            def encode(keys: Tuple[Hashable, ...]) -> dict:
                return {"model_path": str(path),
                        "artifact": model.artifact_identity,
                        "requests": pack_requests(job.requests_of(keys)),
                        "k": k, "hard_limit": hard_limit}

            def decode(keys: Tuple[Hashable, ...], reply: dict) -> int:
                # The reply names labels by id; the rows are built here,
                # from this process's own mapping of the artifact.
                return job.merge(keys, unpack_recommendations(
                    reply, model, job.requests_of(keys), texts=texts))

            registry = metrics if metrics is not None else self.metrics
            run = self._run = _JobRun(job, encode, decode,
                                      self._loop.create_future())
            try:
                await self._apply(self._scheduler.start(
                    "inference", job.plan, registry, self._now()))
                await run.over
            finally:
                self._run = None
                report = self._scheduler.finish()
                try:
                    report.fleet_metrics = self._fleet_view(registry)
                except ValueError:
                    # A job registry with custom buckets cannot fold
                    # with the workers' default-bucket snapshots; the
                    # job view alone is still a valid snapshot.
                    report.fleet_metrics = registry.snapshot()
                self.last_report = report
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
        for link in list(self._workers.values()):
            try:
                reply = await self._request(
                    link, {"type": "deploy_model",
                           "model_path": str(directory),
                           "generation": generation}, timeout)
            except (TransportClosed, asyncio.TimeoutError, OSError):
                await self._apply(self._drop(link))
                continue
            if reply.get("type") == "deployed":
                deployed += 1
        return deployed
