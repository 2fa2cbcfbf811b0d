"""The unified execution plane: one Executor abstraction, two substrates.

GraphEx runs the same shard-shaped work — leaf-group inference batches
and whole-leaf construction — in two places: here, on the calling
thread, or on a fleet of worker processes.  This module puts both
behind one :class:`Executor` interface, chosen everywhere
(``batch_recommend``, ``GraphExModel.construct``, the serving stack)
by the single ``executor=`` keyword, which :func:`resolve_executor`
turns into an instance:

===============  ===============  ==========================  =======
``executor=``    class            where shards run            oracle?
===============  ===============  ==========================  =======
``None``/serial  SerialExecutor   calling thread, one shard   yes
an instance      ClusterExecutor  worker processes over TCP   no
===============  ===============  ==========================  =======

There is no in-process pool: two threads measured slower than one on
both job kinds (see :class:`Executor`), so in process there is one
substrate, inline.  Out of process there is one plane, the cluster's:
a :class:`ClusterExecutor` carries its own fleet — its size and its
lifetime — so no entry point takes a worker count.  The CLI's
``--executor process|cluster --workers N`` both mean
``ClusterExecutor.local(N)``, a fleet of ``N`` worker subprocesses on
this box.

Both substrates are bound by the same non-negotiable contract:
**element-wise identical inference output and bit-identical constructed
models** for any fleet size and any failure topology — pinned by the
cross-executor property suite in ``tests/test_execution.py``.

The contract is implemented once, here.  :class:`InferenceJob` and
:class:`ConstructionJob` own how a batch/corpus is cut into leaf units
(the :class:`~repro.core.sharding.ShardPlan`), how unit results are
merged back (rows by request index, last request wins; built leaf
graphs by leaf id), and how many requests / leaves a unit settled
(what ``run_local`` and ``merge`` return).  Each substrate — the cluster coordinator and worker
included — only decides *where* a unit runs and hands the outcome to
the job; :func:`build_shard_bundle` is the one out-of-process shard
builder.

Plans balance on one cost: the request-count (inference) / char-count
(construction) proxy, defined once in
:meth:`ShardPlan.for_inference` / :meth:`ShardPlan.for_construction`.
A plan only changes *which shard* runs a work unit (outputs are
batch-composition independent), so balance never shows in the served
bytes.
"""

from __future__ import annotations

import asyncio
import shutil
import tempfile
import threading
import time
from concurrent.futures import TimeoutError as FutureTimeout
from pathlib import Path
from typing import (TYPE_CHECKING, Dict, Hashable, List, Optional,
                    Sequence, Tuple, Union)

from ..obs import MetricsRegistry, NullRegistry
from .batch import (BatchResult, InferenceRequest, TextResult,
                    last_request_wins)
from .fast_construct import build_leaf_graph_fast
from .fast_inference import LeafBatchRunner
from .serialization import load_leaf_graphs, save_leaf_graphs
from .sharding import ShardExecutionError, ShardPlan, construction_proxy
from .tokenize import DEFAULT_TOKENIZER, SpaceTokenizer, TokenCache

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from ..cluster.coordinator import ClusterCoordinator
    from .curation import CuratedKeyphrases, CuratedLeaf
    from .model import GraphExModel, LeafGraph

__all__ = ["EXECUTOR_NAMES", "Executor", "SerialExecutor",
           "ClusterExecutor", "InferenceJob", "ConstructionJob",
           "build_shard_bundle", "resolve_executor"]

#: What the CLI's ``--executor`` flag offers.  The library resolves
#: only ``"serial"`` from a string (:func:`resolve_executor`); the other
#: two name the fleet the CLI boots with ``ClusterExecutor.local``.
EXECUTOR_NAMES = ("serial", "process", "cluster")


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
    artifact, so what reaches :meth:`merge` is the same rows — or the
    same texts, for a job built with ``texts=True``.)  A
    request whose leaf has neither a graph nor the pooled fallback
    belongs to no unit and keeps ``[]``.

    Constructing the job builds the local runner behind
    :meth:`run_local`, which validates ``hard_limit`` before any unit
    is dispatched.
    """

    def __init__(self, model: "GraphExModel",
                 requests: Sequence[InferenceRequest], n_shards: int,
                 *, k: int = 10, hard_limit: Optional[int] = None,
                 texts: bool = False) -> None:
        self._requests = list(requests)
        self._runner = LeafBatchRunner(model, k=k, hard_limit=hard_limit)
        self._texts = texts
        self.plan, self._groups = ShardPlan.for_inference(
            model, self._requests, n_shards)
        self._rows: List[list] = [[] for _ in self._requests]

    def _indices(self, keys: Sequence[Hashable]) -> List[int]:
        return [index for key in keys for index in self._groups[key]]

    def requests_of(self, keys: Sequence[Hashable]
                    ) -> List[InferenceRequest]:
        """The unit's requests, group by group, in batch order."""
        return [self._requests[index] for index in self._indices(keys)]

    def merge(self, keys: Sequence[Hashable],
              rows: Sequence[list]) -> int:
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
        return self.merge(keys, self._runner.run_indexed(
            self.requests_of(keys), texts=self._texts))

    def output(self) -> Union[BatchResult, TextResult]:
        """Item id → rows (texts); the last request for an id wins."""
        return last_request_wins(self._requests, self._rows)


class ConstructionJob:
    """One curated corpus, cut into whole-leaf units and merged back —
    the single implementation of the construction scatter/merge contract.

    The non-empty leaves are balanced into shards
    (:meth:`ShardPlan.for_construction`).  A unit — any tuple of leaf
    ids — is either built on the calling thread against the job's
    one :class:`TokenCache` (:meth:`run_local`) or
    built elsewhere by :func:`build_shard_bundle` and handed to
    :meth:`merge_bundle`.  A built graph is a function of its curated
    leaf alone (the pinned bit-identity contract), so graphs are all
    that is merged and where a unit ran never shows in the model.
    """

    def __init__(self, curated: "CuratedKeyphrases", tokenizer: SpaceTokenizer,
                 n_shards: int) -> None:
        self._units = dict(construction_proxy(curated))
        self._leaves = curated.leaves
        self.plan = ShardPlan.for_construction(curated, n_shards)
        self._cache = TokenCache(tokenizer)
        self._built: Dict[int, "LeafGraph"] = {}

    def leaves_of(self, keys: Sequence[int]) -> List["CuratedLeaf"]:
        """The unit's curated leaves, in key order."""
        return [self._leaves[key] for key in keys]

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
                       tokenizer: SpaceTokenizer, directory: Union[str, Path]
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
    """One place shard-shaped GraphEx work can run.

    Subclasses implement :meth:`run_inference` (leaf-group shards of a
    request batch) and :meth:`run_construction` (whole-leaf shards of a
    curated corpus).  Both substrates are output-equivalent — the
    bit-identity contract in the module docstring — so callers choose
    purely on capacity.

    What each buys, measured (``benchmarks/bench_substrates.py``: the
    bench serving world, seed 11 — 98k keyphrases in 24 leaves, mapped
    model — on the 2-core bench box; five alternating parent / change
    script runs of five order-rotated rounds each, unnormalised
    medians of all 25 runs, ratios are serial ms / substrate ms)::

        job                       serial  thread x2    process x2   fleet x2
        parent  inference, 1200    84 ms  91 (0.91x)   176 (0.48x)
                inference, 7200   765 ms 762 (1.00x)  1155 (0.66x)
                construct, 98k kp 104 ms 120 (0.88x)   230 (0.47x)
        change  inference, 1200    79 ms                            68 (1.15x)
                inference, 7200   784 ms                           647 (1.23x)
                construct, 98k kp 100 ms                           157 (0.62x)

    The two in-process pools the parent offered never beat the inline
    path they wrapped (a thread pool cannot overlap the kernel's short
    numpy calls under the interpreter lock; the process pool was built
    per call and pickled the model in and every row out), so they are
    gone and this class has two implementations.  A held fleet of two
    worker processes — boot 0.32-0.34 s once, plus ~0.2 s the first
    time it sees a model — is 1.5-2.6x the process pool it replaces on
    every job, and against serial it reads 1.15-1.23x on inference
    while occupying three processes to serial's one, and **below 1.00x
    of serial on construction (0.62x)**: leaves are shipped out as JSON
    and the bundles mapped back for a build that takes 100 ms inline.
    (The reading taken for the issue that asked for this change, on
    the same shared box on a busier day, had the same fleet at
    0.71-0.76x of serial on inference.)  So on one box inline is the
    cheapest substrate everywhere and the fastest wherever the fleet
    does not have idle cores to itself; a fleet is for more hardware
    than the caller has.

    ``run_inference(..., texts=True)`` is step 6's text exit on every
    substrate: the serving writers (NRT windows, the batch pipeline's
    loads) ask for it, so for serving the coordinator skips its row
    build and hands each request its slice of the label texts it
    decodes anyway — the same columns, the same wire, no
    :class:`~repro.core.inference.Recommendation` built.

    Attributes:
        name: The spelling this class answers to.
        supports_reference: Whether the scalar ``reference``
            engine/builder may pair with this executor.  Only the
            in-process one does — the scalar paths stay single-process
            as the semantics oracle.
        metrics: The :class:`~repro.obs.MetricsRegistry` this executor
            records into; a :class:`~repro.obs.NullRegistry` (telemetry
            off) by default.
    """

    name: str = "abstract"
    supports_reference: bool = False

    def __init__(self, *,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.metrics = metrics if metrics is not None else NullRegistry()

    def run_inference(self, model: "GraphExModel",
                      requests: Sequence[InferenceRequest],
                      k: int = 10, hard_limit: Optional[int] = None, *,
                      texts: bool = False
                      ) -> Union[BatchResult, TextResult]:
        """Infer a batch; item id → ranked recommendations (their texts
        when ``texts``, as in ``batch_recommend``) with the scalar
        loop's last-request-wins duplicate semantics."""
        raise NotImplementedError

    def run_construction(self, curated: "CuratedKeyphrases",
                         tokenizer: SpaceTokenizer = DEFAULT_TOKENIZER
                         ) -> Dict[int, "LeafGraph"]:
        """Build every non-empty leaf graph with the fast builder: leaf
        id → graph, in curated order, bit-identical on every substrate."""
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
    """The in-process substrate, the default, and the oracle: one
    shard, the calling thread, no pool.

    It is the code path ``batch_recommend`` and
    ``GraphExModel.construct`` run when given no ``executor=``, and the
    reference the cross-executor property suite compares a fleet
    against.  An inference batch is one timed unit (the engine packs
    its leaf groups into cross-leaf chunks itself, as on a cluster
    worker); construction runs and times leaf by leaf against one
    shared ``TokenCache``.  Both land in :attr:`metrics` under
    ``executor.*{executor=serial}``.
    """

    name = "serial"
    supports_reference = True

    def _run(self, kind: str, job: Union[InferenceJob, ConstructionJob]):
        """Run the job's one planned shard here and return its output."""
        metrics, labels = self.metrics, {"executor": self.name}
        for shard in job.plan.shards:
            for unit in ([shard] if kind == "inference"
                         else [(key,) for key in shard]):
                start = time.perf_counter()
                settled = job.run_local(unit)
                elapsed = time.perf_counter() - start
                metrics.inc(f"executor.{kind}.tasks", **labels)
                metrics.inc("executor.inference.requests"
                            if kind == "inference"
                            else "executor.construction.leaves",
                            settled, **labels)
                metrics.observe(f"executor.{kind}.seconds", elapsed,
                                **labels)
        return job.output()

    def run_inference(self, model: "GraphExModel",
                      requests: Sequence[InferenceRequest],
                      k: int = 10, hard_limit: Optional[int] = None, *,
                      texts: bool = False
                      ) -> Union[BatchResult, TextResult]:
        return self._run("inference", InferenceJob(
            model, requests, 1, k=k, hard_limit=hard_limit, texts=texts))

    def run_construction(self, curated: "CuratedKeyphrases",
                         tokenizer: SpaceTokenizer = DEFAULT_TOKENIZER
                         ) -> Dict[int, "LeafGraph"]:
        return self._run("construction",
                         ConstructionJob(curated, tokenizer, 1))


class ClusterExecutor(Executor):
    """The out-of-process substrate: shards run on a fleet of workers.

    Wraps a *started*
    :class:`~repro.cluster.coordinator.ClusterCoordinator` — fleet
    management, per-RPC deadlines, retries, dead-host re-planning and
    exactly-once merging all live there; this class adapts it to the
    synchronous :class:`Executor` interface.  Workers open the model
    artifact by path, run Algorithm 1 up to the ranked columns and
    reply with label ids; nothing is pickled in either direction.

    What it buys is in :class:`Executor`'s table: with two workers on
    the 2-core bench box, 1.15-1.23x of serial on inference for three
    processes, 0.62x on construction — and in ``benchmarks/perf``
    (after PR 20, medians of ten runs) ``cluster_scatter`` at 400-item
    chunks serves 13.8k items/s against ``batch_catalog``'s 12.5k on
    one pinned core.  Of such an op's ~28 ms the slower worker's engine
    time is ~17 and the coordinator's serial row build (it materialises
    every shard's rows itself, from ids) most of the rest, which is
    what keeps two workers well short of 2x.  A way to use more
    machines than one, not a cheaper way to use one.

    The sync :meth:`run_inference` / :meth:`run_construction` submit to
    the coordinator's event loop and block the *calling* thread, so
    they must not be called from that loop — code already running on
    it awaits :meth:`run_inference_async` /
    :meth:`run_construction_async` instead.

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
        the CLI's ``--executor process|cluster --workers N`` boots.

        A worker that exits before registering fails the boot at once
        with its exit code and the tail of its stderr.  :meth:`close`
        (or the context manager) stops the fleet.  Workers also leave
        on their own when their connection drops, so a parent that
        dies without closing orphans nothing.
        """
        from ..cluster.coordinator import ClusterCoordinator, ClusterError
        from ..cluster.worker import spawn_worker

        workers = max(1, int(workers))
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
                "event loop; await run_inference_async / "
                "run_construction_async instead")
        return asyncio.run_coroutine_threadsafe(coro, loop).result()

    async def run_inference_async(
            self, model: "GraphExModel",
            requests: Sequence[InferenceRequest],
            k: int = 10, hard_limit: Optional[int] = None, *,
            texts: bool = False) -> Union[BatchResult, TextResult]:
        """:meth:`run_inference` for callers on the coordinator loop."""
        return await self.coordinator.run_inference(
            model, list(requests), k=k, hard_limit=hard_limit,
            texts=texts, metrics=self.metrics)

    async def run_construction_async(
            self, curated: "CuratedKeyphrases",
            tokenizer: SpaceTokenizer = DEFAULT_TOKENIZER
            ) -> Dict[int, "LeafGraph"]:
        """:meth:`run_construction` for callers on the coordinator loop."""
        return await self.coordinator.run_construction(
            curated, tokenizer, metrics=self.metrics)

    def run_inference(self, model: "GraphExModel",
                      requests: Sequence[InferenceRequest],
                      k: int = 10, hard_limit: Optional[int] = None, *,
                      texts: bool = False
                      ) -> Union[BatchResult, TextResult]:
        return self._submit(self.run_inference_async(
            model, requests, k=k, hard_limit=hard_limit, texts=texts))

    def run_construction(self, curated: "CuratedKeyphrases",
                         tokenizer: SpaceTokenizer = DEFAULT_TOKENIZER
                         ) -> Dict[int, "LeafGraph"]:
        return self._submit(self.run_construction_async(curated,
                                                        tokenizer))

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
    * ``"process"`` and ``"cluster"`` are names the CLI offers but not
      valid *strings* here — a fleet cannot be conjured from one.

    ``engine`` (an engine *or* builder name) enforces the oracle
    pairing rule: the scalar ``reference`` paths stay single-process,
    so only executors with :attr:`Executor.supports_reference` may
    serve them.

    Raises:
        ValueError: On an unknown spelling, a bare fleet name, or a
            reference engine/builder paired with an out-of-process
            executor.
    """
    if isinstance(executor, Executor):
        resolved = executor
    elif executor is None or executor == "serial":
        resolved = SerialExecutor(metrics=metrics)
    elif executor in ("process", "cluster"):
        raise ValueError(
            f"executor={executor!r} needs a started ClusterCoordinator: "
            f"pass a ClusterExecutor instance or use "
            f"ClusterExecutor.local()")
    else:
        raise ValueError(
            f"unknown executor {executor!r}; expected None, 'serial' or "
            f"an Executor instance (ClusterExecutor.local() for a fleet "
            f"of worker processes)")

    if engine is not None and engine != "fast" \
            and not resolved.supports_reference:
        raise ValueError(
            f"executor {resolved.name!r} requires the fast "
            f"engine/builder; the {engine!r} path stays single-process "
            f"as the semantics reference")
    return resolved
