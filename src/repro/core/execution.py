"""The unified execution plane: one Executor abstraction, two substrates.

GraphEx runs inference batches in two places: here, on the calling
thread, or on a fleet of worker processes.  This module puts both
behind one :class:`Executor` interface, chosen everywhere
(``batch_recommend``, the serving stack) by the single ``executor=``
keyword, which :func:`resolve_executor` turns into an instance:

===============  ===============  ==========================  =======
``executor=``    class            where a batch runs          oracle?
===============  ===============  ==========================  =======
``None``/serial  SerialExecutor   calling thread, one call    yes
an instance      ClusterExecutor  worker processes over TCP   no
===============  ===============  ==========================  =======

Construction runs in process only.  :meth:`SerialExecutor.run_construction`
builds every leaf on the calling thread, and ``GraphExModel.construct``
refuses any other executor: a fleet built slower than the inline loop
at every scale measured (see :class:`Executor`).

There is no in-process pool: two threads measured slower than one
(see :class:`Executor`), so in process there is one substrate, inline,
and a batch is one ``LeafBatchRunner.run_indexed`` call.  Out of
process there is one plane, the cluster's: a :class:`ClusterExecutor`
carries its own fleet — its size and its lifetime — so no entry point
takes a worker count.  The CLI's ``--workers N`` (``N >= 1``) means
``ClusterExecutor.local(N)``, a fleet of ``N`` worker subprocesses on
this box; ``0``, its default, means in process.

Both substrates are bound by the same non-negotiable contract:
**element-wise identical inference output** for any fleet size and any
failure topology — pinned by the cross-executor property suite in
``tests/test_execution.py``.  A fleet's scatter/merge is the
coordinator's :class:`~repro.cluster.coordinator.FleetJob`.
"""

from __future__ import annotations

import asyncio
import tempfile
import threading
import time
from concurrent.futures import TimeoutError as FutureTimeout
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Union

from ..obs import MetricsRegistry, NullRegistry
from .batch import BatchResult, InferenceRequest, last_request_wins
from .fast_construct import build_leaf_graph_fast
from .fast_inference import LeafBatchRunner
from .tokenize import DEFAULT_TOKENIZER, SpaceTokenizer, TokenCache

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from ..cluster.coordinator import ClusterCoordinator
    from .curation import CuratedKeyphrases
    from .model import GraphExModel, LeafGraph

__all__ = ["Executor", "SerialExecutor", "ClusterExecutor",
           "resolve_executor"]


# ---------------------------------------------------------------------------
# The Executor interface


class Executor:
    """One place an inference batch can run.

    Subclasses implement :meth:`run_inference`.  Both substrates are
    output-equivalent — the contract in the module docstring — so
    callers choose purely on capacity.

    What each buys, measured on the 2-core bench box against
    ``benchmarks/perf/world.py``'s serving world (seed 11, 24 leaves),
    unnormalised medians, ratios serial ms / substrate ms.  The
    inference rows are ``benchmarks/bench_substrates.py`` on the mapped
    98k-keyphrase model (25 order-rotated runs a side; the ``pools``
    rows timed the two in-process pools the fleet replaced).  The
    construct rows time ``GraphExModel.construct`` inline against the
    fleet build that existed until then (leaves shipped out as JSON,
    built leaf graphs mapped back from the workers' spools), in
    alternating pairs at ``serving_phrases`` x1 / x4 / x16, 5 / 5 / 3
    pairs, serial faster in every pair::

        job                         serial  thread x2    process x2   fleet x2
        pools  inference, 1200       84 ms  91 (0.91x)   176 (0.48x)
               inference, 7200      765 ms 762 (1.00x)  1155 (0.66x)
               construct,   98k kp  104 ms 120 (0.88x)   230 (0.47x)
        fleet  inference, 1200       79 ms                             68 (1.15x)
               inference, 7200      784 ms                            647 (1.23x)
               construct,   98k kp  155 ms                            201 (0.77x)
               construct,  375k kp  564 ms                            822 (0.69x)
               construct, 1.38M kp 2739 ms                           3117 (0.88x)

    Construction runs in process because of the last three rows.

    The two in-process pools never beat the inline path they wrapped (a
    thread pool cannot overlap the kernel's short numpy calls under the
    interpreter lock; the process pool was built per call and pickled
    the model in and every row out), so they are gone and this class
    has two implementations.  A held fleet of two worker processes —
    boot 0.32-0.34 s once, plus ~0.2 s the first time it sees a model —
    reads 1.15-1.23x of serial on inference while occupying three
    processes to serial's one (0.71-0.76x on the same shared box on a
    busier day).  So on one box inline is the cheapest substrate
    everywhere and the fastest wherever the fleet does not have idle
    cores to itself; a fleet is for more hardware than the caller has.

    Every substrate answers with the engine's
    :class:`~repro.core.fast_inference.RowView` per item: the
    coordinator runs the shipped columns through the same
    ``materialise`` that ``run_indexed`` ends in, so a
    caller that only stores ``.texts()`` (the serving writers) builds no
    :class:`~repro.core.inference.Recommendation` anywhere.

    Attributes:
        name: The spelling this class answers to.
        metrics: The :class:`~repro.obs.MetricsRegistry` this executor
            records into; a :class:`~repro.obs.NullRegistry` (telemetry
            off) by default.
    """

    name: str = "abstract"

    def __init__(self, *,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.metrics = metrics if metrics is not None else NullRegistry()

    def run_inference(self, model: "GraphExModel",
                      requests: Sequence[InferenceRequest],
                      k: int = 10, hard_limit: Optional[int] = None
                      ) -> BatchResult:
        """Infer a batch; item id → ranked recommendations (a row view
        each, as in ``batch_recommend``) with the scalar loop's
        last-request-wins duplicate semantics."""
        raise NotImplementedError

    def close(self) -> None:
        """Release owned resources (the inline executor owns none)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class SerialExecutor(Executor):
    """The in-process substrate, the default, and the oracle: the
    calling thread, no plan, no pool.

    It is the code path ``batch_recommend`` runs when given no
    ``executor=``, the reference the cross-executor property suite
    compares a fleet against, the only executor the scalar
    ``reference`` engine pairs with, and the one place the fast builder
    runs (:meth:`run_construction`).  An inference batch is one timed
    ``LeafBatchRunner.run_indexed`` call (the engine packs its leaf
    groups into cross-leaf chunks itself) plus
    :func:`~repro.core.batch.last_request_wins`; construction runs and
    times leaf by leaf against one shared ``TokenCache``.  Both land in
    :attr:`metrics` under ``executor.*{executor=serial}``.
    """

    name = "serial"

    def _record(self, kind: str, unit: str, settled: int,
                seconds: float) -> None:
        labels = {"executor": self.name}
        self.metrics.inc(f"executor.{kind}.tasks", **labels)
        self.metrics.inc(f"executor.{kind}.{unit}", settled, **labels)
        self.metrics.observe(f"executor.{kind}.seconds", seconds, **labels)

    def run_inference(self, model: "GraphExModel",
                      requests: Sequence[InferenceRequest],
                      k: int = 10, hard_limit: Optional[int] = None
                      ) -> BatchResult:
        start = time.perf_counter()
        runner = LeafBatchRunner(model, k=k, hard_limit=hard_limit)
        rows = runner.run_indexed(requests)
        self._record("inference", "requests", len(rows),
                     time.perf_counter() - start)
        return last_request_wins(requests, rows)

    def run_construction(self, curated: "CuratedKeyphrases",
                         tokenizer: SpaceTokenizer = DEFAULT_TOKENIZER
                         ) -> Dict[int, "LeafGraph"]:
        """Build every non-empty leaf graph with the fast builder: leaf
        id → graph, in curated order.  A graph is a function of its
        curated leaf alone, so the shared cache never shows in it."""
        cache = TokenCache(tokenizer)
        built: Dict[int, "LeafGraph"] = {}
        for leaf_id, leaf in curated.leaves.items():
            if len(leaf) > 0:
                start = time.perf_counter()
                built[leaf_id] = build_leaf_graph_fast(leaf, cache)
                self._record("construction", "leaves", 1,
                             time.perf_counter() - start)
        return built


class ClusterExecutor(Executor):
    """The out-of-process substrate: shards run on a fleet of workers.

    Wraps a *started*
    :class:`~repro.cluster.coordinator.ClusterCoordinator` — fleet
    management, per-RPC deadlines, retries, dead-host re-planning and
    exactly-once merging all live there; this class adapts it to the
    synchronous :class:`Executor` interface.  It takes a model by
    artifact: a saved directory or a model opened from one, whose
    ``artifact_dir`` it ships (a model built in memory is a
    ``ValueError``: ``save_model`` it first).  Workers open the
    artifact by path, run Algorithm 1 up to the ranked columns and
    reply with label ids; nothing is pickled in either direction.

    What it buys is in :class:`Executor`'s table: with two workers on
    the 2-core bench box, 1.15-1.23x of serial on inference for three
    processes.  Whether the fleet earns its place is ROADMAP item 8
    ("Decide the fleet on numbers").  A way to use more machines than
    one, not a cheaper way to use one.

    The sync :meth:`run_inference` submits to the coordinator's event
    loop and blocks the *calling* thread, so it must not be called from
    that loop — code already running on it awaits the coordinator's
    ``run_inference`` instead.

    Args:
        coordinator: A started coordinator (its loop must be running).

    Use :meth:`local` for a self-contained fleet of worker processes
    on this box when no external cluster is running — :meth:`close`
    tears that fleet down; an adopted coordinator is never stopped by
    this class.
    """

    name = "cluster"

    def __init__(self, coordinator: "ClusterCoordinator", *,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        super().__init__(metrics=metrics)
        self.coordinator = coordinator
        self._owned: Optional[tuple] = None

    @classmethod
    def local(cls, workers: int = 2, *,
              metrics: Optional[MetricsRegistry] = None,
              retry=None, rpc_timeout: float = 30.0,
              start_timeout: float = 60.0) -> "ClusterExecutor":
        """Boot a self-contained localhost fleet and wrap it.

        Spins a daemon thread running a private event loop, starts a
        coordinator on it and ``workers`` worker *subprocesses*
        (:func:`~repro.cluster.worker.spawn_worker` — the ``repro.cli
        cluster-worker`` entry point ``cluster-run`` also launches),
        and returns the executor once every one has registered.  What
        the CLI's ``--workers N`` boots.  ``workers < 1`` is a
        ``ValueError``: a fleet is never silently resized.

        A worker that exits before registering fails the boot at once
        with its exit code and the tail of its stderr.  :meth:`close`
        (or the context manager) stops the fleet.  Workers also leave
        on their own when their connection drops, so a parent that
        dies without closing orphans nothing.
        """
        from ..cluster.coordinator import ClusterCoordinator, ClusterError
        from ..cluster.worker import spawn_worker

        if workers < 1:
            raise ValueError(f"a fleet needs at least one worker, got "
                             f"workers={workers!r}")
        loop = asyncio.new_event_loop()
        thread = threading.Thread(target=loop.run_forever,
                                  name="graphex-cluster-loop",
                                  daemon=True)
        thread.start()
        executor = cls(ClusterCoordinator(retry=retry,
                                          rpc_timeout=rpc_timeout),
                       metrics=metrics)
        # One file takes every worker's stderr (kept to explain a
        # failed boot; a pipe nobody reads would block a chatty child).
        procs, stderr = [], tempfile.TemporaryFile()
        executor._owned = (loop, thread, procs, stderr)
        try:
            host, port = asyncio.run_coroutine_threadsafe(
                executor.coordinator.start(), loop).result(start_timeout)
            for index in range(workers):
                procs.append(spawn_worker(f"{host}:{port}",
                                          f"local-{index}", stderr=stderr))
            registered = asyncio.run_coroutine_threadsafe(
                executor.coordinator.wait_for_workers(
                    workers, timeout=start_timeout), loop)
            while True:
                try:
                    registered.result(timeout=0.05)
                    break
                except FutureTimeout:
                    dead = [proc for proc in procs
                            if proc.poll() is not None]
                    if dead:
                        registered.cancel()
                        stderr.seek(0)
                        tail = stderr.read()[-2000:].decode(errors="replace")
                        raise ClusterError(
                            f"worker process exited with code "
                            f"{dead[0].returncode} before registering; "
                            f"stderr tail:\n{tail}") from None
        except BaseException:
            executor.close()
            raise
        return executor

    def _submit(self, coro):
        """Run a coordinator coroutine from this (non-loop) thread."""
        loop = self.coordinator.loop
        if loop is None:
            coro.close()
            raise RuntimeError(
                "ClusterExecutor needs a started coordinator (its "
                "event loop is not running)")
        try:
            running = asyncio.get_running_loop()
        except RuntimeError:
            running = None
        if running is loop:
            coro.close()
            raise RuntimeError(
                "ClusterExecutor cannot block the coordinator's own "
                "event loop; await coordinator.run_inference instead")
        return asyncio.run_coroutine_threadsafe(coro, loop).result()

    def run_inference(self, model: "GraphExModel",
                      requests: Sequence[InferenceRequest],
                      k: int = 10, hard_limit: Optional[int] = None
                      ) -> BatchResult:
        return self._submit(self.coordinator.run_inference(
            model, requests, k=k, hard_limit=hard_limit,
            metrics=self.metrics))

    def close(self) -> None:
        """Tear down a :meth:`local` fleet (no-op for adopted ones):
        stop the coordinator — each worker is told to go — then wait
        for the worker processes and kill a straggler.  Idempotent."""
        owned, self._owned = self._owned, None
        if owned is None:
            return
        from ..cluster.worker import reap_workers

        loop, thread, procs, stderr = owned
        try:
            asyncio.run_coroutine_threadsafe(
                self.coordinator.stop(), loop).result(timeout=30.0)
        finally:
            loop.call_soon_threadsafe(loop.stop)
            thread.join(timeout=10.0)
            loop.close()
            reap_workers(procs)
            stderr.close()


# ---------------------------------------------------------------------------
# The resolver: the only place executor spellings are interpreted.


def resolve_executor(executor: Union[Executor, str, None] = None, *,
                     metrics: Optional[MetricsRegistry] = None,
                     engine: Optional[str] = None) -> Executor:
    """Resolve an ``executor=`` argument to an :class:`Executor` instance.

    The single entry point behind every ``executor=`` keyword:

    * an :class:`Executor` instance passes through unchanged (it keeps
      its own fleet and metrics registry);
    * ``None`` and ``"serial"`` build a :class:`SerialExecutor`
      recording into ``metrics``;
    * any other string is an error — a fleet cannot be conjured from
      one (``ClusterExecutor.local(N)`` boots one).

    ``engine`` (an engine *or* builder name) enforces the oracle
    pairing rule: the scalar ``reference`` paths stay single-process,
    so only a :class:`SerialExecutor` may serve them.

    Raises:
        ValueError: On an unknown spelling, or a reference
            engine/builder paired with an out-of-process executor.
    """
    if isinstance(executor, Executor):
        resolved = executor
    elif executor is None or executor == "serial":
        resolved = SerialExecutor(metrics=metrics)
    else:
        raise ValueError(
            f"unknown executor {executor!r}; expected None, 'serial' or "
            f"an Executor instance (ClusterExecutor.local() for a fleet "
            f"of worker processes)")

    if engine is not None and engine != "fast" \
            and not isinstance(resolved, SerialExecutor):
        raise ValueError(
            f"executor {resolved.name!r} requires the fast "
            f"engine/builder; the {engine!r} path stays single-process "
            f"as the semantics reference")
    return resolved
