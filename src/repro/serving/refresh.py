"""Daily model-refresh orchestration (the paper's Figure 7 loop).

Fast construction exists precisely so a *fresh* model can be rebuilt and
put in front of sellers every day.  This module ties that loop together
end to end:

1. **Construct** a new model from today's curated keyphrases through the
   fast builder (seconds at paper scale, Section IV-G).
2. **Persist** it as the artifact ``artifact_dir/gen-<N>/`` and open
   it: the open, not the build, is what gets deployed, so every
   consumer shares one physical copy and a fleet hands its workers the
   directory.
3. **Batch-load** it: :meth:`BatchPipeline.full_load` re-infers the
   catalog and atomically promotes the fresh KV table.
4. **Hot-swap** every registered NRT serving target —
   :class:`~repro.serving.nrt.NRTService` and
   :class:`~repro.serving.async_front.AsyncNRTFront` instances keep
   serving throughout; each is retargeted at a window boundary via its
   ``refresh_model``.

Every refresh is *generation-numbered*: the orchestrator stamps the same
generation into every swapped target, and each processed window records
the generation that served it
(:attr:`~repro.serving.nrt.WindowStats.model_generation`), so an
observer can tell exactly which day's model produced a given window.

The heavy steps (construction, the persist and open, batch inference)
run in an executor, so an asyncio front being refreshed keeps ingesting
events while the new model is built behind it — the zero-downtime
property the daily loop needs.
"""

from __future__ import annotations

import asyncio
import functools
import inspect
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from ..cluster.retry import RetriesExhausted, RetryPolicy
from ..core.alignment import get_alignment
from ..core.batch import InferenceRequest
from ..core.curation import CuratedKeyphrases
from ..core.execution import SerialExecutor
from ..core.model import GraphExModel
from ..core.serialization import load_model, save_model
from ..obs import MetricsRegistry, Span, Tracer
from .batch_pipeline import BatchPipeline

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
    #: Directory of the persisted artifact this refresh deployed
    #: (``None`` when the refresh failed before one was deployed).
    artifact_path: Optional[str] = None
    #: Transient construct/persist/load failures that were retried away
    #: under the orchestrator's :class:`~repro.cluster.retry.RetryPolicy`.
    n_retries: int = 0
    #: ``None`` on success; otherwise which step exhausted its retries
    #: and why.  A failed refresh returns a report instead of raising
    #: (only when a retry policy is configured), so the daily loop can
    #: record the miss and proceed to the next cycle.
    failure: Optional[str] = None


class DailyRefreshOrchestrator:
    """Runs the daily construct → persist → batch-load → hot-swap loop.

    Args:
        pipeline: The batch pipeline whose store serves the catalog; its
            model is refreshed and its :meth:`~BatchPipeline.full_load`
            re-run on every refresh.
        artifact_dir: Each refresh persists its model as the artifact
            ``artifact_dir/gen-<N>`` (:attr:`RefreshReport.artifact_path`)
            and deploys its open: the pipeline and every target share
            one physical copy, and a fleet behind any of them is handed
            the directory on its next job.
        alignment: Registry name of the constructed models' ranking
            alignment (an unknown one is a ``ValueError`` here).
        build_pooled: Also build the pooled fallback graph each day.
        retry: When set, the construct, persist and batch-load steps
            run under this :class:`~repro.cluster.retry.RetryPolicy`
            (capped backoff with jitter): a transient failure is
            retried, and a step that exhausts its attempts makes
            :meth:`refresh` *return* a :class:`RefreshReport` with
            :attr:`~RefreshReport.failure` set instead of raising — the
            daily loop records the miss and the next cycle proceeds.
            Unset (default), failures propagate (still counted).
        metrics: A :class:`repro.obs.MetricsRegistry` for the
            orchestrator's refresh counters/histograms, shared with
            the in-process :class:`~repro.core.execution.SerialExecutor`
            each day's fast build runs on, so every refresh's leaf
            timings land in it too (fresh private one by default).
            Each refresh's construct → persist → load → swap
            lifecycle is additionally traced as spans on
            :attr:`tracer`, and the report's timing fields are views
            over those spans.

    Usage::

        orchestrator = DailyRefreshOrchestrator(
            pipeline, artifact_dir="artifacts")
        orchestrator.register(front)          # a live AsyncNRTFront
        report = await orchestrator.refresh(todays_curated, catalog)
        assert front.model_generation == report.generation
        assert report.artifact_path == f"artifacts/gen-{report.generation}"
    """

    def __init__(self, pipeline: BatchPipeline, *,
                 artifact_dir: Union[str, Path],
                 alignment: str = "lta",
                 build_pooled: bool = False,
                 retry: Optional[RetryPolicy] = None,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.pipeline = pipeline
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = Tracer()
        # An unknown name is refused now, not after each day's build.
        get_alignment(alignment)
        self._alignment = alignment
        self._build_pooled = build_pooled
        self._artifact_dir = Path(artifact_dir)
        self._retry = retry
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
        streams' one slot swaps in one hand-off on its flush lane).
        Returns the target for chaining.
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
        """Run one daily refresh: construct, persist, batch-load,
        hot-swap.

        Construction, the persist and the full batch load run in an
        executor so a live asyncio front keeps ingesting while the new
        model is prepared — the store's transaction lock serializes the load
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
        retried: List[int] = []  # the 0-based try each retry followed
        spans: Dict[str, Span] = {}
        generation = self._generation
        model = artifact = loaded = None

        def off_loop(work: Callable[[], Any]) -> "asyncio.Future[Any]":
            """Run a blocking step in the executor, under the policy."""
            if self._retry is not None:
                work = functools.partial(
                    self._retry.call, work,
                    on_retry=lambda n, *_: retried.append(n))
            return loop.run_in_executor(None, work)

        try:
            with self.tracer.span("refresh.construct") as spans["construct"]:
                model = await off_loop(lambda: GraphExModel.construct(
                    curated, alignment=self._alignment,
                    build_pooled=self._build_pooled,
                    executor=SerialExecutor(metrics=self.metrics)))
            # Issue a number strictly above every deployment's local
            # history — a target may have been hot-swapped directly since
            # the last orchestrated refresh — so each adopts it verbatim
            # (ModelSlot.swap never bumps past it) and every window stamp
            # maps back to exactly one RefreshReport.  Burned now: a
            # failure below leaves a gap rather than reusing the number
            # for a different day's model.
            generation = self._generation = 1 + max(
                [self._generation, self.pipeline.model_generation]
                + [getattr(target, "model_generation", 0)
                   for target in self._targets])

            # Persist-then-remap: the day's artifact is opened and the
            # open deployed, one physical copy behind every consumer (a
            # fleet is handed its directory).  A failure here deploys
            # nothing; a re-save over gen-<N>/ is atomic, so an attempt
            # is safe to repeat (``model`` is rebound once one succeeds).
            path = str(self._artifact_dir / f"gen-{generation}")
            with self.tracer.span("refresh.persist",
                                  generation=generation) as spans["persist"]:
                model = await off_loop(
                    lambda: load_model(save_model(model, path)))
            artifact = path

            # Batch first: the fresh catalog-wide table must be promoted
            # before the NRT edge starts writing new-model windows on
            # top.  full_load re-infers the whole catalog and promotes
            # its table atomically, so re-running a failed attempt is
            # safe.
            with self.tracer.span("refresh.load",
                                  generation=generation) as spans["load"]:
                self.pipeline.refresh_model(model, generation=generation)
                request_list = list(requests)
                loaded = await off_loop(
                    lambda: self.pipeline.full_load(request_list))

            with self.tracer.span("refresh.swap", generation=generation,
                                  n_targets=len(self._targets)
                                  ) as spans["swap"]:
                for target in self._targets:
                    result = target.refresh_model(model,
                                                  generation=generation)
                    if inspect.isawaitable(result):
                        await result
            failure = None
        except RetriesExhausted as exc:
            # The last span opened is dead for today: record the miss.
            step = list(spans)[-1]
            failure = (f"{'batch load' if step == 'load' else step} "
                       f"exhausted {exc.attempts} attempts: "
                       f"{exc.__cause__!r}")
        except Exception:
            self._finish(len(retried))
            raise

        took = {step: span.duration_s for step, span in spans.items()}
        report = RefreshReport(
            generation=generation,
            n_leaves=0 if model is None else model.n_leaves,
            n_keyphrases=0 if model is None else model.n_keyphrases,
            n_inferred=0 if loaded is None else loaded.n_inferred,
            n_served=0 if loaded is None else loaded.n_served,
            n_targets=len(self._targets),
            construct_seconds=(took.get("construct", 0.0)
                               + took.get("persist", 0.0)),
            load_seconds=took.get("load", 0.0),
            swap_seconds=took.get("swap", 0.0),
            artifact_path=artifact,
            n_retries=len(retried),
            failure=failure)
        self._finish(len(retried), report)
        return report

    def _finish(self, n_retries: int,
                report: Optional[RefreshReport] = None) -> None:
        """Fold one refresh's outcome into the metrics registry.

        Every :meth:`refresh` exit passes through here, a raised one
        with no report; only a report without a failure moves the
        ``refresh.generation`` gauge."""
        metrics = self.metrics
        metrics.inc("refresh.runs")
        if report is None or report.failure is not None:
            metrics.inc("refresh.failures")
        if n_retries:
            metrics.inc("refresh.retries", n_retries)
        if report is not None:
            metrics.observe("refresh.construct_seconds",
                            report.construct_seconds)
            metrics.observe("refresh.load_seconds", report.load_seconds)
            metrics.observe("refresh.swap_seconds", report.swap_seconds)
            if report.failure is None:
                metrics.gauge("refresh.generation", float(report.generation))

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
