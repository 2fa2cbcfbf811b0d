"""Daily model-refresh orchestration (the paper's Figure 7 loop).

Fast construction exists precisely so a *fresh* model can be rebuilt and
put in front of sellers every day.  This module ties that loop together
end to end:

1. **Construct** a new model from today's curated keyphrases through the
   fast builder (seconds at paper scale, Section IV-G).
2. **Batch-load** it: :meth:`BatchPipeline.full_load` re-infers the
   catalog and atomically promotes the fresh KV table.
3. **Hot-swap** every registered NRT serving target —
   :class:`~repro.serving.nrt.NRTService` and
   :class:`~repro.serving.async_front.AsyncNRTFront` instances keep
   serving throughout; each is retargeted at a window boundary via its
   ``refresh_model``.

Every refresh is *generation-numbered*: the orchestrator stamps the same
generation into every swapped target, and each processed window records
the generation that served it
(:attr:`~repro.serving.nrt.WindowStats.model_generation`), so an
observer can tell exactly which day's model produced a given window.

The heavy steps (construction, batch inference) run in an executor, so
an asyncio front being refreshed keeps ingesting events while the new
model is built behind it — the zero-downtime property the daily loop
needs.
"""

from __future__ import annotations

import asyncio
import inspect
from dataclasses import dataclass
from pathlib import Path
from typing import (TYPE_CHECKING, Any, Callable, List, Optional,
                    Sequence, Union)

from ..cluster.retry import RetriesExhausted, RetryPolicy
from ..core.alignment import get_alignment
from ..core.batch import InferenceRequest
from ..core.curation import CuratedKeyphrases
from ..core.execution import SerialExecutor
from ..core.model import GraphExModel
from ..core.serialization import load_model, save_model
from ..obs import MetricsRegistry, Tracer
from .batch_pipeline import BatchPipeline

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from ..cluster.coordinator import ClusterCoordinator

__all__ = ["DailyRefreshOrchestrator", "RefreshReport"]


@dataclass
class RefreshReport:
    """What one orchestrated daily refresh did.

    The ``*_seconds`` fields are *views over the orchestrator's
    tracer*: each is the duration of the matching ``refresh.*`` span
    of this refresh (``construct_seconds`` folds the persist span in,
    as it always has), so the report, the exported trace, and the
    ``refresh.*_seconds`` histograms in the metrics registry can never
    disagree about where the time went.
    """

    generation: int
    n_leaves: int
    n_keyphrases: int
    n_inferred: int
    n_served: int
    n_targets: int
    construct_seconds: float
    load_seconds: float
    swap_seconds: float
    #: Directory of the persisted format-3 artifact this refresh
    #: deployed (``None`` when the orchestrator has no ``artifact_dir``
    #: and the model was handed off in memory instead).
    artifact_path: Optional[str] = None
    #: Transient construct/persist/load failures that were retried away
    #: under the orchestrator's :class:`~repro.cluster.retry.RetryPolicy`.
    n_retries: int = 0
    #: Remote executor hosts the artifact was deployed to via the
    #: orchestrator's cluster coordinator (0 without one).
    n_remote_deployed: int = 0
    #: ``None`` on success; otherwise which step exhausted its retries
    #: and why.  A failed refresh returns a report instead of raising
    #: (only when a retry policy is configured), so the daily loop can
    #: record the miss and proceed to the next cycle.
    failure: Optional[str] = None


class DailyRefreshOrchestrator:
    """Runs the daily construct → batch-load → hot-swap loop.

    Args:
        pipeline: The batch pipeline whose store serves the catalog; its
            model is refreshed and its :meth:`~BatchPipeline.full_load`
            re-run on every refresh.
        alignment: Registry name of the constructed models' ranking
            alignment (an unknown one is a ``ValueError`` here).
        build_pooled: Also build the pooled fallback graph each day.
        artifact_dir: When set, every refresh persists its freshly
            constructed model as a format-3 artifact under
            ``artifact_dir/gen-<N>`` and deploys the *memory-mapped*
            open of that artifact: the pipeline and every registered
            target receive views over one physical copy, and the
            report's :attr:`RefreshReport.artifact_path` names the
            directory so other hosts/processes can open the same
            artifact themselves.  Unset (default) hands the in-memory
            model around as before.
        retry: When set, the construct, persist and batch-load steps
            run under this :class:`~repro.cluster.retry.RetryPolicy`
            (capped backoff with jitter): a transient failure is
            retried, and a step that exhausts its attempts makes
            :meth:`refresh` *return* a :class:`RefreshReport` with
            :attr:`~RefreshReport.failure` set instead of raising — the
            daily loop records the miss and the next cycle proceeds.
            Unset (default), failures propagate as before.
        cluster: A started
            :class:`~repro.cluster.coordinator.ClusterCoordinator`;
            each refresh then deploys the day's artifact to every live
            executor host after the local stack is swapped (requires
            ``artifact_dir``, and :meth:`refresh` must run on the
            coordinator's event loop).
        metrics: A :class:`repro.obs.MetricsRegistry` for the
            orchestrator's refresh counters/histograms, shared with
            the in-process :class:`~repro.core.execution.SerialExecutor`
            each day's fast build runs on, so every refresh's leaf
            timings land in it too (fresh private one by default).
            Each refresh's construct → load → swap
            lifecycle is additionally traced as spans on
            :attr:`tracer`, and the report's timing fields are views
            over those spans.

    Usage::

        orchestrator = DailyRefreshOrchestrator(pipeline)
        orchestrator.register(front)          # a live AsyncNRTFront
        report = await orchestrator.refresh(todays_curated, catalog)
        assert front.model_generation == report.generation
    """

    def __init__(self, pipeline: BatchPipeline, *,
                 alignment: str = "lta",
                 build_pooled: bool = False,
                 artifact_dir: Optional[Union[str, Path]] = None,
                 retry: Optional[RetryPolicy] = None,
                 cluster: Optional["ClusterCoordinator"] = None,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        if cluster is not None and artifact_dir is None:
            raise ValueError(
                "cluster deployment needs artifact_dir: remote hosts "
                "open the day's model by artifact, not by pickle")
        self.pipeline = pipeline
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = Tracer()
        # An unknown name is refused now, not after each day's build.
        get_alignment(alignment)
        self._alignment = alignment
        self._build_pooled = build_pooled
        self._artifact_dir = (None if artifact_dir is None
                              else Path(artifact_dir))
        self._retry = retry
        self._cluster = cluster
        self._targets: List[Any] = []
        self._generation = 0

    @property
    def generation(self) -> int:
        """Refresh generations *issued* so far (0 = none yet).  A
        refresh that failed midway still consumed its number — see
        :meth:`refresh` — so a generation never names two different
        models."""
        return self._generation

    @property
    def model(self) -> GraphExModel:
        """The model currently deployed everywhere (the pipeline's)."""
        return self.pipeline.model

    @property
    def targets(self) -> List[Any]:
        """Registered serving targets, in registration order."""
        return list(self._targets)

    def register(self, target: Any) -> Any:
        """Register an NRT serving target for hot-swap on each refresh.

        Anything exposing ``refresh_model(model, generation=...)`` works
        — :class:`~repro.serving.nrt.NRTService` (swapped inline) and
        :class:`~repro.serving.async_front.AsyncNRTFront` (awaited: its
        streams swap in one hand-off on its flush lane).  Returns the
        target for chaining.
        """
        if not callable(getattr(target, "refresh_model", None)):
            raise TypeError(
                f"{type(target).__name__} has no refresh_model(); "
                "cannot hot-swap it")
        self._targets.append(target)
        return target

    async def refresh(self, curated: CuratedKeyphrases,
                      requests: Sequence[InferenceRequest]
                      ) -> RefreshReport:
        """Run one daily refresh: construct, batch-load, hot-swap.

        Construction and the full batch load run in an executor so a
        live asyncio front keeps ingesting while the new model is
        prepared — the store's transaction lock serializes the load
        against window flushes on a shared store, so a flush in flight
        can never re-promote a pre-refresh table over the fresh load.
        The new generation number is stamped into every swapped target.

        Deploy semantics: the refresh is a staged deploy, not a
        transaction.  Once construction succeeds its generation number
        is *burned* (never reused for a different model).  A failure
        persisting the artifact leaves the whole stack on the previous
        generation; a failure in the batch load or a later target swap
        propagates with the earlier stages already deployed — the
        pipeline may be on the new model while some NRT targets still
        serve the old one.
        Serving stays consistent throughout (every table promotion is
        atomic); rerunning :meth:`refresh` converges the stack.  On the
        successful path there is likewise a bounded staleness window:
        an NRT flush landing between the batch promote and that
        stream's own swap still infers under the old model, so its
        items serve old-model keyphrases until their next seller event
        or the next day's refresh — the same eventual consistency the
        paper's daily loop accepts, observable per window through
        ``WindowStats.model_generation``.
        """
        loop = asyncio.get_running_loop()
        n_retries = 0

        def note_retry(attempt: int, exc: BaseException,
                       delay: float) -> None:
            nonlocal n_retries
            n_retries += 1

        def attempt(step: Callable[[], Any]) -> Callable[[], Any]:
            """Wrap a blocking step in the retry policy, if one is set."""
            if self._retry is None:
                return step
            return lambda: self._retry.call(step, on_retry=note_retry)

        def exhausted(step: str, exc: RetriesExhausted,
                      construct_seconds: float, model=None,
                      load_seconds: float = 0.0,
                      artifact_path: Optional[str] = None) -> RefreshReport:
            """The step is dead for today; record the miss instead of
            aborting the daily loop."""
            return self._finish(RefreshReport(
                generation=self._generation,
                n_leaves=0 if model is None else model.n_leaves,
                n_keyphrases=0 if model is None else model.n_keyphrases,
                n_inferred=0, n_served=0, n_targets=len(self._targets),
                construct_seconds=construct_seconds,
                load_seconds=load_seconds, swap_seconds=0.0,
                artifact_path=artifact_path, n_retries=n_retries,
                failure=f"{step} exhausted {exc.attempts} attempts: "
                        f"{exc.__cause__!r}"))

        try:
            with self.tracer.span("refresh.construct") as construct_span:
                model = await loop.run_in_executor(
                    None, attempt(lambda: GraphExModel.construct(
                        curated, alignment=self._alignment,
                        build_pooled=self._build_pooled,
                        executor=SerialExecutor(metrics=self.metrics))))
        except RetriesExhausted as exc:
            # No generation was burned — the next cycle's refresh
            # starts clean.
            return exhausted("construct", exc, construct_span.duration_s)
        construct_seconds = construct_span.duration_s
        # Issue a number strictly above every deployment's local
        # history — a target may have been hot-swapped directly since
        # the last orchestrated refresh — so each adopts it verbatim
        # (next_generation never bumps past it) and every window stamp
        # maps back to exactly one RefreshReport.  Burned now: a
        # failure below leaves a gap rather than reusing the number
        # for a different day's model.
        generation = 1 + max(
            [self._generation, self.pipeline.model_generation]
            + [getattr(target, "model_generation", 0)
               for target in self._targets])
        self._generation = generation

        # Persist-then-remap: with an artifact_dir, the built model is
        # written out as a format-3 artifact (in the executor — the
        # front keeps ingesting) and the *mapped* open of that artifact
        # is what gets deployed, so the pipeline and every target share
        # one physical copy and the in-memory build is dropped.
        artifact_path: Optional[str] = None
        if self._artifact_dir is not None:
            artifact = self._artifact_dir / f"gen-{generation}"
            try:
                with self.tracer.span(
                        "refresh.persist",
                        generation=generation) as persist_span:
                    # save_model over the same gen-<N>/ is an atomic
                    # re-save, so a failed attempt is safe to repeat
                    # (``model`` is rebound only once one succeeds).
                    model = await loop.run_in_executor(
                        None, attempt(lambda: load_model(
                            save_model(model, artifact), mmap=True)))
            except RetriesExhausted as exc:
                # Nothing was deployed: the pipeline and every target
                # still serve the previous generation.
                return exhausted(
                    "persist", exc,
                    construct_seconds + persist_span.duration_s, model)
            artifact_path = str(artifact)
            # construct_seconds has always folded persist time in; the
            # trace keeps the two spans distinct.
            construct_seconds += persist_span.duration_s

        # Batch first: the fresh catalog-wide table must be promoted
        # before the NRT edge starts writing new-model windows on top.
        try:
            with self.tracer.span("refresh.load",
                                  generation=generation) as load_span:
                self.pipeline.refresh_model(model, generation=generation)
                request_list = list(requests)
                # full_load re-infers the whole catalog and promotes its
                # table atomically, so re-running a failed attempt is
                # safe.
                report = await loop.run_in_executor(
                    None,
                    attempt(lambda: self.pipeline.full_load(request_list)))
        except RetriesExhausted as exc:
            return exhausted("batch load", exc, construct_seconds, model,
                             load_seconds=load_span.duration_s,
                             artifact_path=artifact_path)
        load_seconds = load_span.duration_s

        with self.tracer.span("refresh.swap", generation=generation,
                              n_targets=len(self._targets)) as swap_span:
            for target in self._targets:
                result = target.refresh_model(model,
                                              generation=generation)
                if inspect.isawaitable(result):
                    await result
        swap_seconds = swap_span.duration_s

        # Remote plane last: every executor host of the cluster opens
        # (and caches) the day's artifact so the first cluster job of
        # the new generation starts warm.  A host that fails here is
        # marked dead and planned around, never a refresh failure.
        n_remote_deployed = 0
        if self._cluster is not None and artifact_path is not None:
            with self.tracer.span("refresh.deploy_remote",
                                  generation=generation):
                n_remote_deployed = await self._cluster.deploy_artifact(
                    artifact_path, generation=generation)

        return self._finish(RefreshReport(
            generation=generation,
            n_leaves=model.n_leaves,
            n_keyphrases=model.n_keyphrases,
            n_inferred=report.n_inferred,
            n_served=report.n_served,
            n_targets=len(self._targets),
            construct_seconds=construct_seconds,
            load_seconds=load_seconds,
            swap_seconds=swap_seconds,
            artifact_path=artifact_path,
            n_retries=n_retries,
            n_remote_deployed=n_remote_deployed))

    def _finish(self, report: RefreshReport) -> RefreshReport:
        """Fold one refresh's outcome into the metrics registry.

        Every :meth:`refresh` exit — success or recorded failure —
        passes through here, so the ``refresh.*`` series and the
        returned reports always agree."""
        metrics = self.metrics
        metrics.inc("refresh.runs")
        if report.failure is not None:
            metrics.inc("refresh.failures")
        if report.n_retries:
            metrics.inc("refresh.retries", report.n_retries)
        metrics.observe("refresh.construct_seconds",
                        report.construct_seconds)
        metrics.observe("refresh.load_seconds", report.load_seconds)
        metrics.observe("refresh.swap_seconds", report.swap_seconds)
        metrics.gauge("refresh.generation", float(report.generation))
        return report

    def refresh_sync(self, curated: CuratedKeyphrases,
                     requests: Sequence[InferenceRequest]
                     ) -> RefreshReport:
        """:meth:`refresh` for synchronous callers (no running loop).

        Only valid when no registered target needs a *live* event loop
        — i.e. every :class:`AsyncNRTFront` registered here is not
        currently running (a running front must be refreshed from its
        own loop via the async :meth:`refresh`).
        """
        return asyncio.run(self.refresh(curated, requests))
