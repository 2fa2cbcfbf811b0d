"""The unified execution plane: one Executor abstraction, four substrates.

GraphEx runs the same shard-shaped work — leaf-group inference batches
and whole-leaf construction — on several execution substrates: the
calling thread, an in-process thread pool, a process pool, and the
multi-machine cluster runner.  This module puts them behind one
:class:`Executor` interface, chosen everywhere (``batch_recommend``,
``GraphExModel.construct``, the serving stack, the CLI) by the single
``executor=`` keyword, which :func:`resolve_executor` turns into an
instance:

===========  ===================  ==========================  ==========
name         class                where shards run            oracle?
===========  ===================  ==========================  ==========
``serial``   SerialExecutor       calling thread, one shard   yes
``thread``   ThreadShardExecutor  in-process thread pool      no
``process``  ProcessShardExecutor worker processes            no
``cluster``  ClusterExecutor      remote hosts over TCP       no
===========  ===================  ==========================  ==========

All four are bound by the same non-negotiable contract: **element-wise
identical inference output and bit-identical constructed models** for
any substrate, any worker count, and any failure topology — pinned by
the cross-executor property suite in ``tests/test_execution.py``.

The contract is implemented once, here.  :class:`InferenceJob` and
:class:`ConstructionJob` own how a batch/corpus is cut into leaf units
(the :class:`~repro.core.sharding.ShardPlan`), how unit results are
merged back (rows by request index, last request wins; built leaf
graphs by leaf id), and which units a timed span is counted against
(``units``).  Every substrate — the cluster coordinator and worker
included — only decides *where* a unit runs and hands the outcome to
the job; :func:`build_shard_bundle` is the one out-of-process shard
builder.

Plans balance on one cost: the request-count (inference) / char-count
(construction) proxy, defined once in
:meth:`ShardPlan.for_inference` / :meth:`ShardPlan.for_construction`.
A plan only changes *which shard* runs a work unit (outputs are
batch-composition independent), so balance never shows in the served
bytes.  Every executor records each timed span of shard work into its
metrics registry (:meth:`Executor.record_timing`).
"""

from __future__ import annotations

import asyncio
import multiprocessing
import shutil
import tempfile
import threading
import time
import traceback
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from pathlib import Path
from typing import (TYPE_CHECKING, Callable, Dict, Hashable, List,
                    Optional, Sequence, Tuple, Union)

from ..obs import MetricsRegistry, NullRegistry
from .batch import BatchResult, InferenceRequest, last_request_wins
from .fast_construct import build_leaf_graph_fast
from .fast_inference import LeafBatchRunner
from .inference import Recommendation
from .serialization import load_leaf_graphs, save_leaf_graphs
from .sharding import (ShardExecutionError, ShardPlan, ShardWorkerError,
                       _unwrap_shard_future, construction_proxy)
from .tokenize import DEFAULT_TOKENIZER, TokenCache, Tokenizer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from ..cluster.coordinator import ClusterCoordinator
    from .curation import CuratedKeyphrases, CuratedLeaf
    from .model import GraphExModel, LeafGraph

__all__ = ["EXECUTOR_NAMES", "Executor", "SerialExecutor",
           "ThreadShardExecutor", "ProcessShardExecutor",
           "ClusterExecutor", "InferenceJob", "ConstructionJob",
           "build_shard_bundle", "resolve_executor"]

#: Executor spellings accepted by :func:`resolve_executor` (and the CLI
#: ``--executor`` flag).
EXECUTOR_NAMES = ("serial", "thread", "process", "cluster")


# ---------------------------------------------------------------------------
# The scatter/merge contracts: one copy each, called by every substrate


class InferenceJob:
    """One request batch, cut into leaf-group units and merged back —
    the single implementation of the inference scatter/merge contract.

    Requests are grouped by the leaf graph that serves them and the
    groups balanced into shards (:meth:`ShardPlan.for_inference`).  A
    *unit* is any tuple of group keys: a planned shard, a re-planned
    orphan set, one key.  Whoever runs a unit feeds all of
    :meth:`requests_of` through one ``LeafBatchRunner.run_indexed``
    call — the engine packs the unit's leaf groups into cross-leaf
    chunks itself, so a unit of many small groups costs what one large
    group does — and hands the rows to :meth:`merge`.  (A cluster
    worker runs the same call only up to its ranked columns,
    ``run_ranked``; the coordinator materialises them against the same
    artifact, so what reaches :meth:`merge` is the same rows.)  A
    request whose leaf has neither a graph nor the pooled fallback
    belongs to no unit and keeps ``[]``.

    Constructing the job builds the local runner behind
    :meth:`run_local`, which validates ``hard_limit`` and probes the
    alignment function before any unit is dispatched.
    """

    def __init__(self, model: "GraphExModel",
                 requests: Sequence[InferenceRequest], n_shards: int,
                 *, k: int = 10, hard_limit: Optional[int] = None) -> None:
        self._requests = list(requests)
        self._runner = LeafBatchRunner(model, k=k, hard_limit=hard_limit)
        self.plan, self._groups = ShardPlan.for_inference(
            model, self._requests, n_shards)
        self._rows: List[List[Recommendation]] = \
            [[] for _ in self._requests]

    def _indices(self, keys: Sequence[Hashable]) -> List[int]:
        return [index for key in keys for index in self._groups[key]]

    def requests_of(self, keys: Sequence[Hashable]
                    ) -> List[InferenceRequest]:
        """The unit's requests, group by group, in batch order."""
        return [self._requests[index] for index in self._indices(keys)]

    def units(self, keys: Sequence[Hashable]
              ) -> List[Tuple[Hashable, int]]:
        """``(key, n_requests)`` per group — what a timing is counted
        against."""
        return [(key, len(self._groups[key])) for key in keys]

    def merge(self, keys: Sequence[Hashable],
              rows: Sequence[List[Recommendation]]) -> int:
        """Scatter a unit's rows (in :meth:`requests_of` order) back to
        their request indices; returns how many requests it settled.
        A wrong row count raises :class:`ShardExecutionError` — zipping
        it in would serve another request's recommendations."""
        indices = self._indices(keys)
        if len(rows) != len(indices):
            raise ShardExecutionError(
                f"inference unit {list(keys)!r} returned {len(rows)} "
                f"rows for {len(indices)} requests")
        for index, recs in zip(indices, rows):
            self._rows[index] = recs
        return len(indices)

    def run_local(self, keys: Sequence[Hashable]) -> int:
        """Run a unit on the calling thread and merge it."""
        return self.merge(
            keys, self._runner.run_indexed(self.requests_of(keys)))

    def output(self) -> BatchResult:
        """Item id → rows; the last request for an id wins."""
        return last_request_wins(self._requests, self._rows)


class ConstructionJob:
    """One curated corpus, cut into whole-leaf units and merged back —
    the single implementation of the construction scatter/merge contract.

    The non-empty leaves are balanced into shards
    (:meth:`ShardPlan.for_construction`).  A unit — any tuple of leaf
    ids — is either built on the calling thread against the job's
    shared, thread-safe :class:`TokenCache` (:meth:`run_local`) or
    built elsewhere by :func:`build_shard_bundle` and handed to
    :meth:`merge_bundle`.  A built graph is a function of its curated
    leaf alone (the pinned bit-identity contract), so graphs are all
    that is merged and where a unit ran never shows in the model.
    """

    def __init__(self, curated: "CuratedKeyphrases", tokenizer: Tokenizer,
                 n_shards: int) -> None:
        self._units = dict(construction_proxy(curated))
        self._leaves = curated.leaves
        self.plan = ShardPlan.for_construction(curated, n_shards)
        self._cache = TokenCache(tokenizer)
        self._built: Dict[int, "LeafGraph"] = {}

    def leaves_of(self, keys: Sequence[int]) -> List["CuratedLeaf"]:
        """The unit's curated leaves, in key order."""
        return [self._leaves[key] for key in keys]

    def units(self, keys: Sequence[int]) -> List[Tuple[int, int]]:
        """``(leaf_id, char proxy)`` per leaf — what a timing is
        counted against."""
        return [(key, self._units[key]) for key in keys]

    def merge_bundle(self, keys: Sequence[int],
                     bundle_path: Union[str, Path]) -> int:
        """Adopt a unit built by :func:`build_shard_bundle`: mmap-open
        its leaf bundle (zero-copy, read-only views); returns the
        leaves settled."""
        for graph in load_leaf_graphs(bundle_path, mmap=True):
            self._built[graph.leaf_id] = graph
        return len(keys)

    def run_local(self, keys: Sequence[int]) -> int:
        """Build a unit on the calling thread."""
        for key in keys:
            self._built[key] = build_leaf_graph_fast(self._leaves[key],
                                                     self._cache)
        return len(keys)

    def output(self) -> Dict[int, "LeafGraph"]:
        """The built graphs in curated order, however the units
        completed; call after every unit has merged."""
        return {leaf_id: self._built[leaf_id] for leaf_id in self._units}


def build_shard_bundle(leaves: Sequence["CuratedLeaf"],
                       tokenizer: Tokenizer, directory: Union[str, Path]
                       ) -> List[Tuple[int, float]]:
    """Build one out-of-process construction unit onto disk.

    The built leaf graphs are written as a zero-copy format-3 *leaf
    bundle* (:func:`repro.core.serialization.save_leaf_graphs` — raw
    page-aligned arrays plus one string blob) that the parent
    mmap-opens through :meth:`ConstructionJob.merge_bundle`; graphs are
    never serialized object-by-object.  The unit's private
    :class:`TokenCache` keeps the memoized-tokenization win within the
    unit and dies with it: the bundle is everything the parent needs,
    the pooled graph included.

    Returns:
        ``(leaf_id, seconds)`` per built leaf.
    """
    try:
        cache = TokenCache(tokenizer)
        graphs = []
        timings: List[Tuple[int, float]] = []
        for leaf in leaves:
            start = time.perf_counter()
            graphs.append(build_leaf_graph_fast(leaf, cache))
            timings.append((leaf.leaf_id, time.perf_counter() - start))
        save_leaf_graphs(graphs, directory)
        return timings
    except Exception:
        # A half-written bundle must not outlive the failure: the parent
        # only removes the staging root it knows about, and a retrying
        # caller would otherwise mmap stale arrays from this attempt.
        shutil.rmtree(directory, ignore_errors=True)
        raise


# ---------------------------------------------------------------------------
# The Executor interface


class Executor:
    """One execution substrate for shard-shaped GraphEx work.

    Subclasses implement :meth:`run_inference` (leaf-group shards of a
    request batch) and :meth:`run_construction` (whole-leaf shards of a
    curated corpus) and record per-shard wall-clock timings into
    :attr:`metrics`.  All substrates are output-equivalent — the
    bit-identity contract in the module docstring — so callers choose
    purely on capacity.

    Attributes:
        name: The :data:`EXECUTOR_NAMES` spelling this class answers to.
        supports_reference: Whether the scalar ``reference``
            engine/builder may pair with this executor.  Only the
            in-process substrates do — the scalar paths stay
            single-process as the semantics oracle.
        metrics: The :class:`~repro.obs.MetricsRegistry` this executor
            records into; a :class:`~repro.obs.NullRegistry` (telemetry
            off) by default.  Every timed shard feeds it through
            :meth:`record_timing`.
    """

    name: str = "abstract"
    supports_reference: bool = False

    def __init__(self, workers: int = 1, *,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        #: Upper bound on pool workers (and on shards planned).
        self.workers = max(1, int(workers))
        self.metrics = metrics if metrics is not None else NullRegistry()

    def record_timing(self, kind: str,
                      keyed_units: Sequence[Tuple[Hashable, int]],
                      elapsed: float) -> None:
        """Record one timed span of shard work into :attr:`metrics` —
        the single chokepoint for executor timings."""
        metrics = self.metrics
        metrics.inc(f"executor.{kind}.tasks", executor=self.name)
        if kind == "inference":
            metrics.inc("executor.inference.requests",
                        sum(units for _key, units in keyed_units),
                        executor=self.name)
        else:
            metrics.inc("executor.construction.leaves",
                        len(keyed_units), executor=self.name)
        metrics.observe(f"executor.{kind}.seconds", elapsed,
                        executor=self.name)

    def record_plan(self, kind: str, plan: ShardPlan) -> None:
        """Gauge a plan's balance (see ShardPlan.balance_stats)."""
        stats = plan.balance_stats()
        self.metrics.gauge("executor.plan.n_shards",
                           stats["n_shards"], kind=kind,
                           executor=self.name)
        self.metrics.gauge("executor.plan.imbalance",
                           stats["imbalance"], kind=kind,
                           executor=self.name)

    def _run_inline(self, kind: str,
                    job: Union[InferenceJob, ConstructionJob],
                    keys: Sequence[Hashable]) -> None:
        """Run one shard on the calling thread — the in-process loop
        of every substrate.  An inference shard is one timed unit: the
        engine packs its leaf groups into cross-leaf chunks itself, as
        on the process and cluster substrates.  Construction runs and
        times leaf by leaf (it shares one ``TokenCache`` and gains
        nothing from a wider unit)."""
        units = [tuple(keys)] if kind == "inference" \
            else [(key,) for key in keys]
        for unit in units:
            start = time.perf_counter()
            job.run_local(unit)
            self.record_timing(kind, job.units(unit),
                               time.perf_counter() - start)

    def _run_plan(self, kind: str,
                  job: Union[InferenceJob, ConstructionJob],
                  pooled: Callable[[Tuple[tuple, ...]], None]):
        """Run every planned shard and return the job's output: inline
        with one worker or one shard, else through ``pooled(shards)``."""
        self.record_plan(kind, job.plan)
        shards = job.plan.shards
        if self.workers == 1 or len(shards) <= 1:
            for shard in shards:
                self._run_inline(kind, job, shard)
        else:
            pooled(shards)
        return job.output()

    def run_inference(self, model: "GraphExModel",
                      requests: Sequence[InferenceRequest],
                      k: int = 10, hard_limit: Optional[int] = None
                      ) -> BatchResult:
        """Infer a batch; item id → ranked recommendations with the
        scalar loop's last-request-wins duplicate semantics."""
        raise NotImplementedError

    def run_construction(self, curated: "CuratedKeyphrases",
                         tokenizer: Tokenizer = DEFAULT_TOKENIZER
                         ) -> Dict[int, "LeafGraph"]:
        """Build every non-empty leaf graph; same contract as
        :func:`~repro.core.fast_construct.fast_construct_leaf_graphs`
        (leaf id → graph, in curated order) on every substrate."""
        raise NotImplementedError

    def close(self) -> None:
        """Release owned resources (no-op for in-process executors)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class ThreadShardExecutor(Executor):
    """In-process thread sharding (the default substrate).

    Leaf groups (inference) and whole leaves (construction) are
    LPT-planned via :class:`~repro.core.sharding.ShardPlan` and each
    planned shard runs on a pool thread.
    With one worker (or one shard) the work runs inline on the calling
    thread, timing included.

    Args:
        workers: Upper bound on threads (and shards planned).
    """

    name = "thread"
    supports_reference = True

    def _run_threads(self, kind: str,
                     job: Union[InferenceJob, ConstructionJob]):
        def pooled(shards: Tuple[tuple, ...]) -> None:
            # Shard threads scatter into disjoint request rows / leaf
            # ids, and the shared TokenCache is thread-safe.
            with ThreadPoolExecutor(max_workers=len(shards)) as pool:
                list(pool.map(
                    lambda shard: self._run_inline(kind, job, shard),
                    shards))

        return self._run_plan(kind, job, pooled)

    def run_inference(self, model: "GraphExModel",
                      requests: Sequence[InferenceRequest],
                      k: int = 10, hard_limit: Optional[int] = None
                      ) -> BatchResult:
        return self._run_threads("inference", InferenceJob(
            model, requests, self.workers, k=k, hard_limit=hard_limit))

    def run_construction(self, curated: "CuratedKeyphrases",
                         tokenizer: Tokenizer = DEFAULT_TOKENIZER
                         ) -> Dict[int, "LeafGraph"]:
        return self._run_threads("construction", ConstructionJob(
            curated, tokenizer, self.workers))


class SerialExecutor(ThreadShardExecutor):
    """The oracle substrate: one shard, calling thread, no pools.

    Identical code path to :class:`ThreadShardExecutor` with
    ``workers=1`` — everything runs inline — which is exactly what
    makes it the reference the cross-executor property suite compares
    the other substrates against.
    """

    name = "serial"

    def __init__(self, *, metrics: Optional[MetricsRegistry] = None) -> None:
        super().__init__(1, metrics=metrics)


# ---------------------------------------------------------------------------
# Worker-process entry points.  Module-level (picklable by reference) and
# parameterised through per-process globals set by the pool initializer,
# so the model/tokenizer is shipped once per worker, not once per task.

_INFERENCE_RUNNER: Optional[LeafBatchRunner] = None
_CONSTRUCT_TOKENIZER: Optional[Tokenizer] = None


def _init_inference_worker(model: "GraphExModel", k: int,
                           hard_limit: Optional[int]) -> None:
    """Build this worker's runner once; its shards reuse it."""
    global _INFERENCE_RUNNER
    _INFERENCE_RUNNER = LeafBatchRunner(model, k=k, hard_limit=hard_limit)


def _run_inference_shard(requests: Sequence[InferenceRequest]
                         ) -> Tuple[List[List[Recommendation]], float]:
    """One inference shard: per-request results in shard order, plus the
    worker-side wall-clock seconds the shard took (measured here so
    ``executor.inference.seconds`` never counts pool start-up or
    queueing).

    Failures come back as :class:`ShardWorkerError` carrying the full
    worker-side traceback — a raw exception would lose it (or, when
    unpicklable, collapse into a bare ``BrokenProcessPool``).
    """
    try:
        start = time.perf_counter()
        rows = _INFERENCE_RUNNER.run_indexed(requests)
        return rows, time.perf_counter() - start
    except Exception:
        raise ShardWorkerError(traceback.format_exc()) from None


def _init_construct_worker(tokenizer: Tokenizer) -> None:
    global _CONSTRUCT_TOKENIZER
    _CONSTRUCT_TOKENIZER = tokenizer


def _build_construct_shard(leaves: Sequence["CuratedLeaf"],
                           artifact_dir: str):
    """One construction shard: :func:`build_shard_bundle` under this
    worker's tokenizer.  Only the per-leaf timings cross the process
    boundary as a pickle; failures come back as :class:`ShardWorkerError`,
    as in :func:`_run_inference_shard`."""
    try:
        return build_shard_bundle(leaves, _CONSTRUCT_TOKENIZER,
                                  artifact_dir)
    except Exception:
        raise ShardWorkerError(traceback.format_exc()) from None


class ProcessShardExecutor(Executor):
    """Runs fast-engine shards in worker processes.

    Args:
        workers: Upper bound on worker processes (and shards planned).
            With one worker, or one shard after planning, work runs in
            the calling process — same output, no pool overhead.
        start_method: Optional multiprocessing start method ("fork",
            "spawn", "forkserver"); None uses the platform default.

    Output is element-wise/bit-identical to the single-process fast
    paths for any worker count (see the module docstring for why).
    """

    name = "process"

    def __init__(self, workers: int = 2,
                 start_method: Optional[str] = None, *,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        super().__init__(workers, metrics=metrics)
        self._start_method = start_method

    def _pool(self, n_shards: int, initializer, initargs
              ) -> ProcessPoolExecutor:
        context = (multiprocessing.get_context(self._start_method)
                   if self._start_method is not None else None)
        return ProcessPoolExecutor(max_workers=n_shards,
                                   mp_context=context,
                                   initializer=initializer,
                                   initargs=initargs)

    def run_inference(self, model: "GraphExModel",
                      requests: Sequence[InferenceRequest],
                      k: int = 10, hard_limit: Optional[int] = None
                      ) -> BatchResult:
        """Infer a batch with leaf-group shards in worker processes.

        Each worker times its shard itself, so pool start-up and
        queueing never reach ``executor.inference.seconds``.
        """
        job = InferenceJob(model, requests, self.workers, k=k,
                           hard_limit=hard_limit)

        def pooled(shards: Tuple[tuple, ...]) -> None:
            with self._pool(len(shards), _init_inference_worker,
                            (model, k, hard_limit)) as pool:
                futures = [pool.submit(_run_inference_shard,
                                       job.requests_of(shard))
                           for shard in shards]
                for index, (shard, future) in enumerate(
                        zip(shards, futures)):
                    rows, elapsed = _unwrap_shard_future(
                        future, "inference", index, shard)
                    job.merge(shard, rows)
                    self.record_timing("inference", job.units(shard),
                                       elapsed)

        return self._run_plan("inference", job, pooled)

    def run_construction(self, curated: "CuratedKeyphrases",
                         tokenizer: Tokenizer = DEFAULT_TOKENIZER
                         ) -> Dict[int, "LeafGraph"]:
        """Build every non-empty leaf graph with whole-leaf process shards.

        Each worker persists its shard as a leaf bundle under a
        temporary directory (:func:`build_shard_bundle`) and the parent
        mmap-opens it instead of unpickling graph objects.  The
        returned graphs' arrays are read-only views over the bundle
        mappings (label texts decode lazily); the temporary files are
        unlinked before returning (live mappings keep them readable —
        POSIX), so nothing leaks.
        """
        job = ConstructionJob(curated, tokenizer, self.workers)

        def pooled(shards: Tuple[tuple, ...]) -> None:
            staging = Path(tempfile.mkdtemp(prefix="graphex-shard-"))
            try:
                with self._pool(len(shards), _init_construct_worker,
                                (tokenizer,)) as pool:
                    futures = [pool.submit(
                        _build_construct_shard, job.leaves_of(shard),
                        str(staging / f"shard-{index}"))
                        for index, shard in enumerate(shards)]
                    for index, (shard, future) in enumerate(
                            zip(shards, futures)):
                        timings = _unwrap_shard_future(
                            future, "construction", index, shard)
                        job.merge_bundle(shard,
                                         staging / f"shard-{index}")
                        for leaf_id, seconds in timings:
                            self.record_timing(
                                "construction", job.units((leaf_id,)),
                                seconds)
            finally:
                shutil.rmtree(staging, ignore_errors=True)

        return self._run_plan("construction", job, pooled)


class ClusterExecutor(Executor):
    """The multi-machine substrate: shards run on remote hosts.

    Wraps a *started*
    :class:`~repro.cluster.coordinator.ClusterCoordinator` — fleet
    management, per-RPC deadlines, retries, dead-host re-planning and
    exactly-once merging all live there; this class adapts it to the
    synchronous :class:`Executor` interface.

    What it buys, measured (``benchmarks/perf``, the 2-core bench box,
    after PR 20, medians of ten runs): two worker processes plus the
    coordinator at 400-item chunks serve **13.8k items/s**
    (``cluster_scatter``, 29 ms per chunk), the local engine on one
    pinned core at 1200-item chunks **12.5k items/s**
    (``batch_catalog``).  So the fleet is ~1.1x one core while
    occupying two: a way to use more machines than one, not a cheaper
    way to use one.  Of an op's ~28 ms the slower worker's engine time
    is ~17, and the coordinator's serial row build (it materialises
    every shard's rows itself, from ids) most of the rest.  Where the
    break-even sits as chunk size varies is not measured yet (ROADMAP
    open item 2).

    The sync :meth:`run_inference` / :meth:`run_construction` submit to
    the coordinator's event loop and block the *calling* thread, so
    they must not be called from that loop — code already running on
    it awaits :meth:`run_inference_async` /
    :meth:`run_construction_async` instead.

    Args:
        coordinator: A started coordinator (its loop must be running).
        distribute: Model hand-off for inference jobs — ``"path"``
            (shared filesystem / localhost) or ``"stream"`` (spool the
            artifact over each worker's connection).

    Use :meth:`local` for a self-contained fleet (own loop thread plus
    N in-process workers) when no external cluster is running —
    :meth:`close` tears that fleet down; an adopted coordinator is
    never stopped by this class.
    """

    name = "cluster"

    def __init__(self, coordinator: "ClusterCoordinator", *,
                 distribute: str = "path",
                 metrics: Optional[MetricsRegistry] = None) -> None:
        super().__init__(metrics=metrics)
        self.coordinator = coordinator
        self._distribute = distribute
        self._owned: Optional[tuple] = None

    @classmethod
    def local(cls, workers: int = 2, *,
              distribute: str = "path",
              metrics: Optional[MetricsRegistry] = None,
              retry=None, rpc_timeout: float = 30.0,
              start_timeout: float = 60.0) -> "ClusterExecutor":
        """Boot a self-contained localhost fleet and wrap it.

        Spins a daemon thread running a private event loop, starts a
        coordinator plus ``workers`` in-process
        :class:`~repro.cluster.worker.ClusterWorker` hosts on it, and
        returns the executor once every host has registered.  The CLI's
        ``--executor cluster`` backend.  :meth:`close` (or the context
        manager) stops the fleet and joins the loop thread.
        """
        from ..cluster.coordinator import ClusterCoordinator
        from ..cluster.worker import ClusterWorker

        workers = max(1, int(workers))
        loop = asyncio.new_event_loop()
        thread = threading.Thread(target=loop.run_forever,
                                  name="graphex-cluster-loop",
                                  daemon=True)
        thread.start()

        async def boot():
            coordinator = ClusterCoordinator(retry=retry,
                                             rpc_timeout=rpc_timeout)
            await coordinator.start()
            tasks = []
            for index in range(workers):
                worker = ClusterWorker(coordinator.host,
                                       coordinator.port,
                                       name=f"local-{index}")
                tasks.append(asyncio.ensure_future(worker.run()))
            await coordinator.wait_for_workers(workers,
                                               timeout=start_timeout)
            return coordinator, tasks

        try:
            coordinator, tasks = asyncio.run_coroutine_threadsafe(
                boot(), loop).result(timeout=start_timeout)
        except BaseException:
            loop.call_soon_threadsafe(loop.stop)
            thread.join(timeout=10.0)
            loop.close()
            raise
        executor = cls(coordinator, distribute=distribute,
                       metrics=metrics)
        executor._owned = (loop, thread, tasks)
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
                "event loop; await run_inference_async / "
                "run_construction_async instead")
        return asyncio.run_coroutine_threadsafe(coro, loop).result()

    async def run_inference_async(
            self, model: "GraphExModel",
            requests: Sequence[InferenceRequest],
            k: int = 10, hard_limit: Optional[int] = None) -> BatchResult:
        """:meth:`run_inference` for callers on the coordinator loop."""
        return await self.coordinator.run_inference(
            model, list(requests), k=k, hard_limit=hard_limit,
            distribute=self._distribute, metrics=self.metrics)

    async def run_construction_async(
            self, curated: "CuratedKeyphrases",
            tokenizer: Tokenizer = DEFAULT_TOKENIZER
            ) -> Dict[int, "LeafGraph"]:
        """:meth:`run_construction` for callers on the coordinator loop."""
        return await self.coordinator.run_construction(
            curated, tokenizer, metrics=self.metrics)

    def run_inference(self, model: "GraphExModel",
                      requests: Sequence[InferenceRequest],
                      k: int = 10, hard_limit: Optional[int] = None
                      ) -> BatchResult:
        return self._submit(self.run_inference_async(
            model, requests, k=k, hard_limit=hard_limit))

    def run_construction(self, curated: "CuratedKeyphrases",
                         tokenizer: Tokenizer = DEFAULT_TOKENIZER
                         ) -> Dict[int, "LeafGraph"]:
        return self._submit(self.run_construction_async(curated,
                                                        tokenizer))

    def close(self) -> None:
        """Tear down a :meth:`local` fleet (no-op for adopted ones)."""
        owned, self._owned = self._owned, None
        if owned is None:
            return
        loop, thread, tasks = owned

        async def shutdown():
            await self.coordinator.stop()
            for task in tasks:
                task.cancel()
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)

        asyncio.run_coroutine_threadsafe(shutdown(),
                                         loop).result(timeout=30.0)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=10.0)
        loop.close()


# ---------------------------------------------------------------------------
# The resolver: the only place executor spellings are interpreted.


def resolve_executor(executor: Union[Executor, str, None] = None, *,
                     workers: int = 1,
                     metrics: Optional[MetricsRegistry] = None,
                     engine: Optional[str] = None) -> Executor:
    """Resolve an ``executor=`` argument to an :class:`Executor` instance.

    The single entry point behind every ``executor=`` keyword:

    * an :class:`Executor` instance passes through unchanged (it keeps
      its own workers and metrics registry);
    * ``"serial"`` / ``"thread"`` / ``"process"`` build the matching
      class with ``workers`` and ``metrics``;
    * ``None`` means ``"thread"``;
    * ``"cluster"`` is a valid name but not a valid *string* — a fleet
      cannot be conjured from one.

    ``engine`` (an engine *or* builder name) enforces the oracle
    pairing rule: the scalar ``reference`` paths stay single-process,
    so only executors with :attr:`Executor.supports_reference` may
    serve them.

    Raises:
        ValueError: On an unknown spelling, the bare string
            ``"cluster"``, or a reference engine/builder paired with
            an out-of-process executor.
    """
    if executor is None:
        executor = "thread"
    if isinstance(executor, Executor):
        resolved = executor
    elif executor == "serial":
        resolved = SerialExecutor(metrics=metrics)
    elif executor == "thread":
        resolved = ThreadShardExecutor(workers, metrics=metrics)
    elif executor == "process":
        resolved = ProcessShardExecutor(workers, metrics=metrics)
    elif executor == "cluster":
        raise ValueError(
            "executor='cluster' needs a started ClusterCoordinator: "
            "pass a ClusterExecutor instance or use "
            "ClusterExecutor.local()")
    else:
        raise ValueError(
            f"unknown executor {executor!r}; expected an Executor "
            f"instance or one of {EXECUTOR_NAMES}")

    if engine is not None and engine != "fast" \
            and not resolved.supports_reference:
        raise ValueError(
            f"executor {resolved.name!r} requires the fast "
            f"engine/builder; the {engine!r} path stays single-process "
            f"as the semantics reference")
    return resolved
