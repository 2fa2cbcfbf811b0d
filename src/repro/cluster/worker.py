"""Cluster executor host: registers, receives shards, returns results.

A :class:`ClusterWorker` is one "machine" of the fleet.  It dials the
coordinator over localhost TCP, registers under a unique name, then
serves inference shards sequentially from its connection.  It keeps one
open model: the artifact at the path the last ``run_shard`` or
``deploy_model`` frame named (zero-copy ``mmap``, via
:func:`repro.core.serialization.open_model` — worker and coordinator see
one filesystem, the :mod:`repro.cluster` contract).  A frame naming
another path, or another save of the path than the coordinator mapped
(the ``artifact`` identity on a ``run_shard`` frame), re-opens; a shard
whose fresh open is not that save either is refused.  Each shard runs
through a :class:`~repro.core.fast_inference.LeafBatchRunner` *up to the
ranked columns* (``run_ranked``).  No row is built here: the reply's binary
tail carries stacked label ids, counts and raw scores
(:func:`~repro.cluster.protocol.pack_ranked`), and the coordinator
materialises them from its own mapping of the artifact.

A worker-side exception never kills the worker: it is caught and
returned as a ``shard_error`` frame carrying the full traceback, which
the coordinator raises as
:class:`~repro.cluster.coordinator.ClusterExecutionError`.
Heartbeats flow from a separate task over the same (send-locked)
connection, so a long shard does not read as a dead host.

Fault injection: ``transport_wrapper`` wraps the connection (tests pass
a :class:`~repro.cluster.transport.FaultyTransport` factory), and
``die_after_assignments=N`` is the kill switch — the worker completes
``N`` assignments, then drops the connection cold (``hard_exit=True``
additionally kills the process) upon receiving the next one, exactly a
host crash mid-plan.

:func:`spawn_worker` / :func:`reap_workers` start and collect workers
as real subprocesses of the ``repro.cli cluster-worker`` entry point —
the one launcher behind ``ClusterExecutor.local`` (what the CLI's
``--workers N`` boots) and ``cluster-run``.
"""

from __future__ import annotations

import asyncio
import os
import subprocess
import sys
import traceback
from pathlib import Path
from typing import Callable, Iterable, Optional

from ..core.fast_inference import LeafBatchRunner
from ..core.model import GraphExModel
from ..core.serialization import open_model
from ..obs import MetricsRegistry
from .protocol import (PROTOCOL_VERSION, pack_metrics_snapshot,
                       pack_ranked, unpack_requests)
from .transport import Transport, TransportClosed

__all__ = ["ClusterWorker", "WorkerKilled", "spawn_worker", "reap_workers"]

#: The argv prefix that starts one worker process.
WORKER_COMMAND = (sys.executable, "-m", "repro.cli", "cluster-worker")


def spawn_worker(address: str, name: str, *flags: str,
                 stderr=None) -> subprocess.Popen:
    """Start one worker subprocess dialling the coordinator at
    ``address`` (``HOST:PORT``); ``flags`` are further ``cluster-worker``
    options.  The child finds this package whatever the caller's
    ``sys.path`` held, and leaves on its own when its connection drops.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parents[2])]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.Popen(
        [*WORKER_COMMAND, "--connect", address, "--name", name, *flags],
        env=env, stdin=subprocess.DEVNULL, stderr=stderr)


def reap_workers(procs: Iterable[subprocess.Popen],
                 timeout: float = 10.0) -> None:
    """Wait for worker subprocesses whose coordinator has stopped (each
    was told to go, or saw its connection close); kill a straggler."""
    for proc in procs:
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


class WorkerKilled(Exception):
    """The kill switch fired: the worker dropped off mid-plan."""


class ClusterWorker:
    """One executor host of the cluster (see module docstring).

    Args:
        host, port: The coordinator's listening address.
        name: Registration name; must be unique among live workers
            (default: ``worker-<pid>``).
        spool_dir: Ignored (a worker writes nothing); accepted because
            ``benchmarks/perf/worker_main.py`` still passes it.
        heartbeat_interval: Seconds between heartbeat frames; ``None``
            disables them (connection-close detection still works).
        transport_wrapper: Optional wrapper applied to the connection —
            the fault-injection hook.
        die_after_assignments: Kill switch — complete this many
            assignments, then sever on the next one.  ``None`` never
            dies.
        hard_exit: With the kill switch, also ``os._exit(1)`` — the
            subprocess-worker crash used by the bench/CI smoke.
        metrics: This host's :class:`~repro.obs.MetricsRegistry` (a
            fresh one by default).  Its snapshot rides every heartbeat
            *and* every shard result frame, so the coordinator's fleet
            view is current the moment the last shard merges — never
            pickle, always the versioned snapshot JSON.
    """

    def __init__(self, host: str, port: int, *,
                 name: Optional[str] = None,
                 spool_dir: Optional[str] = None,
                 heartbeat_interval: Optional[float] = None,
                 transport_wrapper: Optional[
                     Callable[[Transport], object]] = None,
                 die_after_assignments: Optional[int] = None,
                 hard_exit: bool = False,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self._host = host
        self._port = port
        self.name = name or f"worker-{os.getpid()}"
        self._heartbeat_interval = heartbeat_interval
        self._transport_wrapper = transport_wrapper
        self._die_after = die_after_assignments
        self._hard_exit = hard_exit
        self._transport = None
        #: The one open model, and the frame path it was opened at.
        self._model: Optional[GraphExModel] = None
        self._model_path: Optional[str] = None
        #: Assignments completed (results sent) — the kill-switch clock
        #: and the thing tests assert on.
        self.n_completed = 0
        #: Executed-work telemetry (counts *executions*, which can
        #: exceed the coordinator's exactly-once merged counters under
        #: retries — that asymmetry is itself the retry signal).
        self.metrics = metrics if metrics is not None \
            else MetricsRegistry()

    async def run(self) -> None:
        """Serve until the coordinator shuts us down or the link dies."""
        reader, writer = await asyncio.open_connection(self._host,
                                                       self._port)
        transport = Transport(reader, writer)
        if self._transport_wrapper is not None:
            transport = self._transport_wrapper(transport)
        self._transport = transport
        heartbeat_task = None
        try:
            await transport.send({"type": "register", "name": self.name,
                                  "protocol": PROTOCOL_VERSION})
            reply = await transport.recv()
            if reply.get("type") != "registered":
                raise ConnectionError(
                    f"registration rejected: "
                    f"{reply.get('reason', reply)}")
            if self._heartbeat_interval is not None:
                heartbeat_task = asyncio.ensure_future(
                    self._heartbeat_loop())
            while True:
                try:
                    message = await transport.recv()
                except TransportClosed:
                    return
                if not await self._handle(message):
                    return
        except WorkerKilled:
            if self._hard_exit:  # pragma: no cover - subprocess only
                os._exit(1)
            raise
        finally:
            if heartbeat_task is not None:
                heartbeat_task.cancel()
            transport.close()
            await transport.wait_closed()

    async def _heartbeat_loop(self) -> None:
        try:
            while True:
                await asyncio.sleep(self._heartbeat_interval)
                await self._transport.send({
                    "type": "heartbeat", "name": self.name,
                    "metrics": pack_metrics_snapshot(
                        self.metrics.snapshot())})
        except (TransportClosed, asyncio.CancelledError):
            pass

    async def _handle(self, message: dict) -> bool:
        """Dispatch one frame; returns False to stop serving."""
        kind = message.get("type")
        if kind == "run_shard":
            await self._handle_shard(message)
        elif kind == "deploy_model":
            await self._handle_deploy(message)
        elif kind == "shutdown":
            await self._transport.send({"type": "bye", "name": self.name})
            return False
        else:
            await self._transport.send({
                "type": "error",
                "reason": f"unknown message type {kind!r}"})
        return True

    # -- shard execution ----------------------------------------------------

    async def _handle_shard(self, message: dict) -> None:
        if self._die_after is not None \
                and self.n_completed >= self._die_after:
            # The kill switch: drop off mid-plan without a word, like a
            # crashed host.  The coordinator finds out from the closed
            # connection (or a missed heartbeat) and re-plans.
            self._transport.close()
            raise WorkerKilled(
                f"{self.name} killed after {self.n_completed} "
                f"assignments")
        assignment = message.get("assignment")
        try:
            # Compute off the event loop so heartbeats keep flowing
            # while a long shard runs — a busy host is not a dead host.
            reply = await asyncio.get_event_loop().run_in_executor(
                None, self._run_inference_shard, message)
        except Exception:
            await self._transport.send({
                "type": "shard_error", "assignment": assignment,
                "worker": self.name,
                "traceback": traceback.format_exc()})
            return
        # The registry snapshot rides the result frame itself: the
        # coordinator stashes it while routing, so the fleet view
        # already covers this shard when the job's last unit merges —
        # no waiting on the next heartbeat tick.
        reply.update({"type": "shard_result", "assignment": assignment,
                      "worker": self.name,
                      "metrics": pack_metrics_snapshot(
                          self.metrics.snapshot())})
        await self._transport.send(reply)
        self.n_completed += 1

    def _open(self, message: dict) -> GraphExModel:
        """The one open model, re-opened unless it is the frame's path at
        the save the frame names (a ``deploy_model`` frame names none):
        a daily ``gen-<N>/`` leaves one mapping, not one per day."""
        path = message["model_path"]
        wanted = message.get("artifact")
        if path != self._model_path \
                or wanted not in (None, self._model.artifact_identity):
            self._model, self._model_path = open_model(path), path
        return self._model

    def _run_inference_shard(self, message: dict) -> dict:
        model = self._open(message)
        if message.get("artifact") != model.artifact_identity:
            # The reply names labels by id; read against another save
            # of the artifact they would be another save's keyphrases.
            raise RuntimeError(
                f"artifact mismatch: the coordinator mapped save "
                f"{message.get('artifact')!r} of the model, {self.name} "
                f"opened save {model.artifact_identity!r}: the artifact "
                f"was re-saved in place after the coordinator opened it")
        runner = LeafBatchRunner(model, k=message.get("k", 10),
                                 hard_limit=message.get("hard_limit"))
        requests = unpack_requests(message["requests"])
        with self.metrics.timer("worker.shard.seconds"):
            ranked = runner.run_ranked(requests)
        self.metrics.inc("worker.shards")
        self.metrics.inc("worker.requests", len(requests))
        return pack_ranked(ranked, len(requests))

    # -- model distribution -------------------------------------------------

    async def _handle_deploy(self, message: dict) -> None:
        try:
            # Opening a model mmaps files; off-loop so heartbeats keep
            # flowing while a large deploy materializes
            # (async-no-blocking).  Safe off-thread: the recv loop
            # handles one frame at a time, so the open is not raced.
            await asyncio.get_event_loop().run_in_executor(
                None, self._open, message)
        except Exception:
            await self._transport.send({
                "type": "shard_error",
                "request_id": message.get("request_id"),
                "worker": self.name, "traceback": traceback.format_exc()})
            return
        await self._transport.send({
            "type": "deployed", "request_id": message.get("request_id"),
            "worker": self.name})
