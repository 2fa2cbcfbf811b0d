"""Tests for the daily refresh orchestrator (construct → load → swap).

The Figure 7 daily loop end to end: a new model is constructed through
the fast builder, the batch table is fully re-loaded and atomically
promoted, and every registered NRT serving target — sync services and
live asyncio fronts alike — is hot-swapped at a window boundary, all
stamped with one shared generation number.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.serving import (
    AsyncNRTFront,
    BatchPipeline,
    DailyRefreshOrchestrator,
    ItemEvent,
    ItemEventKind,
    KeyValueStore,
    NRTService,
)
from tests.conftest import (FIG3_LEAF_ID, FlakyStore, build_fig3_curated,
                            build_fig3_variant_curated)

REQUESTS = [
    (1, "audeze maxwell gaming headphones", FIG3_LEAF_ID),
    (2, "bluetooth wireless headphones new", FIG3_LEAF_ID),
]


def make_event(item_id: int, ts: float,
               title: str = "audeze maxwell gaming headphones"
               ) -> ItemEvent:
    return ItemEvent(kind=ItemEventKind.CREATED, item_id=item_id,
                     title=title, leaf_id=FIG3_LEAF_ID, timestamp=ts)


class TestDailyRefreshOrchestrator:
    def test_register_requires_refresh_model(self, fig3_model, tmp_path):
        orchestrator = DailyRefreshOrchestrator(
            BatchPipeline(fig3_model), artifact_dir=tmp_path / "artifacts")
        with pytest.raises(TypeError, match="refresh_model"):
            orchestrator.register(object())
        assert orchestrator.targets == []

    def test_artifact_dir_is_a_required_keyword(self, fig3_model, tmp_path):
        """Every refresh deploys an artifact: an orchestrator without a
        directory to persist to, or given one positionally, is refused
        at construction, and it takes no fleet of its own."""
        pipeline = BatchPipeline(fig3_model)
        with pytest.raises(TypeError, match="artifact_dir"):
            DailyRefreshOrchestrator(pipeline)
        with pytest.raises(TypeError, match="positional"):
            DailyRefreshOrchestrator(pipeline, tmp_path / "artifacts")
        with pytest.raises(TypeError, match="cluster"):
            DailyRefreshOrchestrator(pipeline,
                                     artifact_dir=tmp_path / "artifacts",
                                     cluster=object())
        assert not (tmp_path / "artifacts").exists()

    def test_refresh_deploys_one_generation_across_the_stack(
            self, fig3_model, fig3_variant_model, tmp_path):
        """One refresh retargets the pipeline AND a registered sync
        service, reloads the batch table under the new model, and
        stamps the same generation everywhere."""
        store = KeyValueStore()
        pipeline = BatchPipeline(fig3_model, store=store)
        pipeline.full_load(REQUESTS)
        service = NRTService(fig3_model, store, window_size=1)
        orchestrator = DailyRefreshOrchestrator(
            pipeline, artifact_dir=tmp_path / "artifacts")
        assert orchestrator.register(service) is service

        report = orchestrator.refresh_sync(build_fig3_variant_curated(),
                                           REQUESTS)
        assert report.generation == 1 == orchestrator.generation
        assert pipeline.model_generation == 1
        assert service.model_generation == 1
        assert pipeline.model is service.model is orchestrator.model
        assert report.n_targets == 1
        assert report.n_inferred == len(REQUESTS)
        assert report.n_served == len(REQUESTS)

        # The batch table was re-inferred under the new model.
        clean_pipeline = BatchPipeline(fig3_variant_model)
        clean_pipeline.full_load(REQUESTS)
        for item_id, _title, _leaf in REQUESTS:
            assert pipeline.serve(item_id) == clean_pipeline.serve(item_id)

        # The NRT edge now infers under the new model, stamped with the
        # orchestrator's generation.
        service.submit(make_event(9, 0.0))
        clean = NRTService(fig3_variant_model, KeyValueStore(),
                           window_size=1)
        clean.submit(make_event(9, 0.0))
        assert service.serve(9) == clean.serve(9)
        assert service.processed_windows[-1].model_generation == 1

    def test_refresh_with_artifact_dir_persists_and_maps(
            self, fig3_model, fig3_variant_model, tmp_path):
        """ISSUE 6: with ``artifact_dir`` set the orchestrator writes a
        model artifact per refresh and deploys its *mapped* open —
        one physical copy behind the pipeline and every target, with
        the artifact path reported for other hosts to open."""
        from repro.core.serialization import load_model

        store = KeyValueStore()
        pipeline = BatchPipeline(fig3_model, store=store)
        service = NRTService(fig3_model, store, window_size=1)
        orchestrator = DailyRefreshOrchestrator(
            pipeline, artifact_dir=tmp_path / "artifacts")
        orchestrator.register(service)

        report = orchestrator.refresh_sync(build_fig3_variant_curated(),
                                           REQUESTS)
        assert report.artifact_path == str(
            tmp_path / "artifacts" / "gen-1")
        # Pipeline and service share the one mapped instance, whose
        # arrays are read-only views over the artifact file.
        assert pipeline.model is service.model
        leaf_id = pipeline.model.leaf_ids[0]
        assert pipeline.model.leaf_graph(leaf_id).graph.is_readonly
        # The artifact on disk reopens bit-identical and the served
        # table matches a clean in-memory deployment.
        reopened = load_model(report.artifact_path)
        clean = BatchPipeline(fig3_variant_model)
        clean.full_load(REQUESTS)
        for item_id, _title, _leaf in REQUESTS:
            assert pipeline.serve(item_id) == clean.serve(item_id)
        assert reopened.leaf_ids == pipeline.model.leaf_ids
        # A second refresh lands under the next generation's directory.
        second = orchestrator.refresh_sync(build_fig3_curated(),
                                           REQUESTS)
        assert second.artifact_path == str(
            tmp_path / "artifacts" / "gen-2")

    def test_successive_refreshes_increment_generation(self, fig3_model,
                                                       tmp_path):
        pipeline = BatchPipeline(fig3_model)
        service = NRTService(fig3_model, pipeline.store, window_size=1)
        orchestrator = DailyRefreshOrchestrator(
            pipeline, artifact_dir=tmp_path / "artifacts")
        orchestrator.register(service)
        first = orchestrator.refresh_sync(build_fig3_curated(), REQUESTS)
        second = orchestrator.refresh_sync(build_fig3_variant_curated(),
                                           REQUESTS)
        assert (first.generation, second.generation) == (1, 2)
        assert orchestrator.generation == 2
        assert service.model_generation == 2
        service.submit(make_event(9, 0.0))
        assert service.processed_windows[-1].model_generation == 2

    def test_refresh_hot_swaps_running_front_mid_traffic(
            self, fig3_model, fig3_variant_model, tmp_path):
        """The zero-downtime path: a live AsyncNRTFront keeps serving
        while the orchestrator rebuilds + reloads behind it, then every
        stream is quiesced and swapped; traffic submitted afterwards is
        served by the new model."""

        async def drive():
            pipeline = BatchPipeline(fig3_model)
            pipeline.full_load(REQUESTS)
            front = AsyncNRTFront(fig3_model, window_size=2,
                                  window_seconds=1000.0,
                                  wall_clock_seconds=30.0)
            front.add_stream("a")
            front.add_stream("b")
            orchestrator = DailyRefreshOrchestrator(
                pipeline, artifact_dir=tmp_path / "artifacts")
            orchestrator.register(front)
            async with front:
                for name in ("a", "b"):
                    await front.submit(name, make_event(1, 0.0))
                report = await orchestrator.refresh(
                    build_fig3_variant_curated(), REQUESTS)
                for name in ("a", "b"):
                    await front.submit(name, make_event(50, 0.1))
            return front, report

        front, report = asyncio.run(drive())
        assert report.generation == 1
        assert front.model_generation == 1
        clean = NRTService(fig3_variant_model, KeyValueStore(),
                           window_size=1)
        clean.submit(make_event(50, 0.1))
        for name in ("a", "b"):
            stats = front.stats(name)
            assert stats.n_pending == 0
            assert stats.n_submitted == 2          # zero loss
            assert sum(w.n_events
                       for w in front.processed_windows(name)) == 2
            assert front.serve(name, 50) == clean.serve(50)

    def test_orchestrator_issues_above_any_local_swap(
            self, fig3_model, fig3_variant_model, tmp_path):
        """A target hot-swapped directly between orchestrated refreshes
        does not desynchronize the numbering: the orchestrator issues a
        generation strictly above every deployment's local history, so
        each target adopts it verbatim and the class-docstring contract
        ``target.model_generation == report.generation`` holds."""
        pipeline = BatchPipeline(fig3_model)
        service = NRTService(fig3_model, pipeline.store, window_size=1)
        service.refresh_model(fig3_variant_model)   # local swap: gen 1
        orchestrator = DailyRefreshOrchestrator(
            pipeline, artifact_dir=tmp_path / "artifacts")
        orchestrator.register(service)
        report = orchestrator.refresh_sync(build_fig3_curated(), REQUESTS)
        assert report.generation == 2               # strictly above 1
        assert service.model_generation == report.generation
        assert pipeline.model_generation == report.generation

    def test_failed_refresh_burns_its_generation_number(self, fig3_model,
                                                        tmp_path):
        """A refresh that fails after construction consumed its
        generation number: the next successful refresh gets a fresh one,
        so a generation never names two different days' models."""
        store = FlakyStore()
        pipeline = BatchPipeline(fig3_model, store=store)
        service = NRTService(fig3_model, store, window_size=1)
        orchestrator = DailyRefreshOrchestrator(
            pipeline, artifact_dir=tmp_path / "artifacts")
        orchestrator.register(service)
        store.fail_on = "bulk_load"
        with pytest.raises(OSError, match="kv outage"):
            orchestrator.refresh_sync(build_fig3_curated(), REQUESTS)
        assert orchestrator.generation == 1     # burned
        assert service.model_generation == 0    # swap never reached
        report = orchestrator.refresh_sync(build_fig3_variant_curated(),
                                           REQUESTS)
        assert report.generation == 2
        assert service.model_generation == 2
        assert pipeline.serve(REQUESTS[0][0])   # stack converged

    def test_full_load_waits_for_in_flight_flush_on_shared_store(
            self, fig3_model, fig3_variant_model, tmp_path):
        """Regression: the orchestrated full_load runs in an executor
        while a live front flushes the same store from another thread.
        Both writers now hold the store's transaction lock, so a window
        flush that started *before* the refresh can no longer promote a
        pre-refresh snapshot over the freshly loaded table."""
        import threading
        entered = threading.Event()

        def slow_enrich(event):
            entered.set()
            import time as _time
            _time.sleep(0.5)    # hold the store lock across the refresh
            return event.title

        async def drive():
            store = KeyValueStore()
            pipeline = BatchPipeline(fig3_model, store=store)
            pipeline.full_load(REQUESTS)
            front = AsyncNRTFront(fig3_model, window_size=100,
                                  window_seconds=1000.0,
                                  wall_clock_seconds=60.0,
                                  enrich=slow_enrich)
            front.add_stream("s", store=store)
            orchestrator = DailyRefreshOrchestrator(
                pipeline, artifact_dir=tmp_path / "artifacts")
            orchestrator.register(front)
            async with front:
                await front.submit("s", make_event(999, 0.0))
                await front.join()
                flush_task = asyncio.create_task(front.flush_stream("s"))
                await asyncio.get_running_loop().run_in_executor(
                    None, entered.wait)     # flush holds the lock now
                report = await orchestrator.refresh(
                    build_fig3_variant_curated(), REQUESTS)
                await flush_task
            return pipeline, report

        pipeline, report = asyncio.run(drive())
        assert report.generation == 1
        # The catalog serves the new model's output: the in-flight
        # old-model flush promoted BEFORE the full load, not after.
        clean = BatchPipeline(fig3_variant_model)
        clean.full_load(REQUESTS)
        for item_id, _title, _leaf in REQUESTS:
            assert pipeline.serve(item_id) == clean.serve(item_id)

    def test_every_build_is_timed_in_the_orchestrator_registry(
            self, fig3_model, tmp_path):
        """Each day's model builds in process, leaf by leaf, into the
        orchestrator's own registry: two refreshes, twice the leaves."""
        orchestrator = DailyRefreshOrchestrator(
            BatchPipeline(fig3_model), artifact_dir=tmp_path / "artifacts")
        reports = [orchestrator.refresh_sync(build_fig3_variant_curated(),
                                             REQUESTS) for _ in range(2)]
        assert orchestrator.metrics.counter_value(
            "executor.construction.leaves", executor="serial") \
            == sum(report.n_leaves for report in reports) > 0


class TestRefreshRetries:
    """ISSUE 7 satellite: the daily loop survives transient step
    failures through the shared cluster retry policy, and records an
    exhausted step on the report instead of aborting the cycle."""

    @staticmethod
    def make_policy(**overrides):
        from repro.cluster import RetryPolicy
        defaults = dict(max_attempts=3, base_delay=0.001,
                        max_delay=0.002, jitter=0.0, seed=0)
        defaults.update(overrides)
        return RetryPolicy(**defaults)

    def test_transient_construct_failure_is_retried_away(
            self, fig3_model, monkeypatch, tmp_path):
        from repro.core.model import GraphExModel
        real = GraphExModel.construct.__func__
        calls = []

        def flaky(curated, **kwargs):
            calls.append(1)
            if len(calls) < 3:
                raise RuntimeError("transient builder outage")
            return real(GraphExModel, curated, **kwargs)

        monkeypatch.setattr(GraphExModel, "construct", flaky)
        pipeline = BatchPipeline(fig3_model)
        orchestrator = DailyRefreshOrchestrator(
            pipeline, artifact_dir=tmp_path / "artifacts",
            retry=self.make_policy(max_attempts=4))
        report = orchestrator.refresh_sync(build_fig3_variant_curated(),
                                           REQUESTS)
        assert report.failure is None
        assert report.n_retries == 2
        assert report.generation == 1 == pipeline.model_generation
        assert len(calls) == 3

    def test_construct_exhaustion_reported_without_burning_generation(
            self, fig3_model, monkeypatch, tmp_path):
        from repro.core.model import GraphExModel
        real = GraphExModel.construct.__func__

        def doomed(curated, **kwargs):
            raise RuntimeError("builder down all day")

        monkeypatch.setattr(GraphExModel, "construct", doomed)
        pipeline = BatchPipeline(fig3_model)
        orchestrator = DailyRefreshOrchestrator(
            pipeline, artifact_dir=tmp_path / "artifacts",
            retry=self.make_policy())
        report = orchestrator.refresh_sync(build_fig3_curated(),
                                           REQUESTS)
        assert report.failure is not None
        assert "construct exhausted 3 attempts" in report.failure
        assert "builder down all day" in report.failure
        assert report.n_retries == 2
        # No generation was burned: the next (healthy) cycle starts
        # clean at 1, and the stack never moved.
        assert orchestrator.generation == 0
        assert pipeline.model is fig3_model
        monkeypatch.setattr(GraphExModel, "construct", classmethod(real))
        healthy = orchestrator.refresh_sync(build_fig3_variant_curated(),
                                            REQUESTS)
        assert healthy.failure is None
        assert healthy.generation == 1

    def test_batch_load_exhaustion_burns_generation_and_reports(
            self, fig3_model, tmp_path):
        class DeadStore(KeyValueStore):
            def bulk_load(self, version, records):
                raise RuntimeError("kv outage")

        store = DeadStore()
        pipeline = BatchPipeline(fig3_model, store=store)
        service = NRTService(fig3_model, store, window_size=1)
        orchestrator = DailyRefreshOrchestrator(
            pipeline, artifact_dir=tmp_path / "artifacts",
            retry=self.make_policy())
        orchestrator.register(service)
        report = orchestrator.refresh_sync(build_fig3_curated(),
                                           REQUESTS)
        assert report.failure is not None
        assert "batch load exhausted 3 attempts" in report.failure
        assert report.n_retries == 2
        # Construction succeeded, so this generation is burned — but
        # the target swaps were never reached.
        assert report.generation == 1 == orchestrator.generation
        assert service.model_generation == 0

    @staticmethod
    def fail_fsync(monkeypatch, n_failures):
        """Make the first ``n_failures`` ``os.fsync`` calls raise
        ENOSPC (the first fsync of a save is the payload's)."""
        import os
        real_fsync = os.fsync
        failed = []

        def flaky_fsync(fd):
            if len(failed) < n_failures:
                failed.append(fd)
                raise OSError(28, "No space left on device")
            return real_fsync(fd)

        monkeypatch.setattr(os, "fsync", flaky_fsync)
        return failed

    def test_transient_persist_failure_is_retried_away(
            self, fig3_model, fig3_variant_model, monkeypatch, tmp_path):
        """One ENOSPC from the payload fsync: the re-save over the
        same ``gen-1/`` succeeds and the mapped artifact is deployed."""
        failed = self.fail_fsync(monkeypatch, 1)
        store = KeyValueStore()
        pipeline = BatchPipeline(fig3_model, store=store)
        service = NRTService(fig3_model, store, window_size=1)
        orchestrator = DailyRefreshOrchestrator(
            pipeline, artifact_dir=tmp_path / "artifacts",
            retry=self.make_policy())
        orchestrator.register(service)
        report = orchestrator.refresh_sync(build_fig3_variant_curated(),
                                           REQUESTS)
        assert len(failed) == 1
        assert report.failure is None
        assert report.n_retries == 1
        assert report.generation == 1 == service.model_generation
        assert report.artifact_path == str(tmp_path / "artifacts" / "gen-1")
        assert pipeline.model is service.model
        assert pipeline.model.leaf_graph(FIG3_LEAF_ID).graph.is_readonly
        assert sorted(p.name.split("-")[0] for p in
                      (tmp_path / "artifacts" / "gen-1").iterdir()) \
            == ["arrays", "model.json"]
        clean = BatchPipeline(fig3_variant_model)
        clean.full_load(REQUESTS)
        for item_id, _title, _leaf in REQUESTS:
            assert pipeline.serve(item_id) == clean.serve(item_id)

    def test_persist_exhaustion_reported_with_stack_untouched(
            self, fig3_model, monkeypatch, tmp_path):
        failed = self.fail_fsync(monkeypatch, 3)
        store = KeyValueStore()
        pipeline = BatchPipeline(fig3_model, store=store)
        pipeline.full_load(REQUESTS)
        served = {item_id: pipeline.serve(item_id)
                  for item_id, _title, _leaf in REQUESTS}
        service = NRTService(fig3_model, store, window_size=1)
        orchestrator = DailyRefreshOrchestrator(
            pipeline, artifact_dir=tmp_path / "artifacts",
            retry=self.make_policy())
        orchestrator.register(service)
        report = orchestrator.refresh_sync(build_fig3_variant_curated(),
                                           REQUESTS)
        assert len(failed) == 3
        assert report.failure is not None
        assert "persist exhausted 3 attempts" in report.failure
        assert "No space left" in report.failure
        assert report.n_retries == 2
        assert report.artifact_path is None
        assert report.n_inferred == report.n_served == 0
        # The number is burned, but nothing was deployed: pipeline and
        # target still serve the previous generation's model and table.
        assert report.generation == 1 == orchestrator.generation
        assert pipeline.model is service.model is fig3_model
        assert pipeline.model_generation == service.model_generation == 0
        assert {item_id: pipeline.serve(item_id)
                for item_id, _title, _leaf in REQUESTS} == served
        assert orchestrator.metrics.counter_value("refresh.failures") == 1
        # The disk recovers: the next refresh converges the stack.
        healthy = orchestrator.refresh_sync(build_fig3_variant_curated(),
                                            REQUESTS)
        assert healthy.failure is None
        assert healthy.generation == 2 == service.model_generation
        assert healthy.artifact_path == str(
            tmp_path / "artifacts" / "gen-2")
        assert pipeline.model is service.model is not fig3_model

    def refresh_over_bad_artifact(self, fig3_model, monkeypatch,
                                  tmp_path, damage):
        """One refresh whose persist step cannot succeed — ``damage``
        is done to every artifact it saves.  Asserts nothing of it was
        deployed; returns its report and the stack."""
        from pathlib import Path

        from repro.serving import refresh

        def damaged_save(model, directory):
            path = Path(refresh_save(model, directory))
            damage(path)
            return path

        refresh_save = refresh.save_model
        monkeypatch.setattr(refresh, "save_model", damaged_save)
        store = KeyValueStore()
        pipeline = BatchPipeline(fig3_model, store=store)
        pipeline.full_load(REQUESTS)
        served = {item_id: pipeline.serve(item_id)
                  for item_id, _title, _leaf in REQUESTS}
        service = NRTService(fig3_model, store, window_size=1)
        orchestrator = DailyRefreshOrchestrator(
            pipeline, artifact_dir=tmp_path / "artifacts",
            retry=self.make_policy())
        orchestrator.register(service)
        report = orchestrator.refresh_sync(build_fig3_variant_curated(),
                                           REQUESTS)
        assert "persist exhausted 3 attempts" in report.failure
        assert report.n_retries == 2
        assert report.artifact_path is None
        assert pipeline.model is service.model is fig3_model
        assert pipeline.model_generation == service.model_generation == 0
        assert {item_id: pipeline.serve(item_id)
                for item_id, _title, _leaf in REQUESTS} == served
        return report, orchestrator, pipeline, service

    def test_truncated_artifact_is_reported_with_stack_untouched(
            self, fig3_model, monkeypatch, tmp_path):
        """The payload reaches the disk short (a torn copy, a full
        volume that lied): the mapped open refuses it by name on every
        attempt, the report says so, and nothing was deployed."""
        import json

        def cut_last_byte(path):
            meta = json.loads((path / "model.json").read_text("utf-8"))
            payload = path / meta["arrays_file"]
            with open(payload, "r+b") as handle:
                handle.truncate(payload.stat().st_size - 1)

        report, orchestrator, pipeline, service = \
            self.refresh_over_bad_artifact(fig3_model, monkeypatch,
                                           tmp_path, cut_last_byte)
        assert "truncated payload" in report.failure
        assert "section 'pool/byte_offsets'" in report.failure
        assert str(tmp_path / "artifacts" / "gen-1") in report.failure
        # Writes land whole again: the next refresh converges the stack.
        monkeypatch.undo()
        healthy = orchestrator.refresh_sync(build_fig3_variant_curated(),
                                            REQUESTS)
        assert healthy.failure is None
        assert healthy.generation == 2 == service.model_generation
        assert pipeline.model is service.model is not fig3_model

    def test_malformed_manifest_is_reported_with_stack_untouched(
            self, fig3_model, monkeypatch, tmp_path):
        """``model.json`` reaches the disk as something else: same
        outcome, and the report names the file and what is wrong."""
        report, *_stack = self.refresh_over_bad_artifact(
            fig3_model, monkeypatch, tmp_path,
            lambda path: (path / "model.json").write_text("[1, 2]"))
        assert f"malformed {tmp_path / 'artifacts' / 'gen-1'}" \
            in report.failure
        assert "expected a JSON object" in report.failure

    def test_unknown_alignment_refused_before_any_build(
            self, fig3_model, monkeypatch, tmp_path):
        """An unknown alignment name is refused by name before a leaf
        is built — by the model, and by the orchestrator at its own
        construction rather than after every day's build, retried."""
        from repro.core import execution
        from repro.core.model import GraphExModel

        def no_build(*args):
            raise AssertionError("a leaf was built")

        monkeypatch.setattr(execution, "build_leaf_graph_fast", no_build)
        with pytest.raises(ValueError, match="unknown alignment 'cosine'"):
            GraphExModel.construct(build_fig3_curated(), alignment="cosine")
        with pytest.raises(ValueError, match="unknown alignment 'cosine'"):
            DailyRefreshOrchestrator(BatchPipeline(fig3_model),
                                     artifact_dir=tmp_path / "artifacts",
                                     alignment="cosine",
                                     retry=self.make_policy())

    def test_without_a_policy_persist_failures_propagate(
            self, fig3_model, monkeypatch, tmp_path):
        self.fail_fsync(monkeypatch, 1)
        pipeline = BatchPipeline(fig3_model)
        orchestrator = DailyRefreshOrchestrator(
            pipeline, artifact_dir=tmp_path / "artifacts")
        with pytest.raises(OSError, match="No space left"):
            orchestrator.refresh_sync(build_fig3_curated(), REQUESTS)
        assert pipeline.model is fig3_model

    def test_without_a_policy_failures_propagate_as_before(
            self, fig3_model, monkeypatch, tmp_path):
        from repro.core.model import GraphExModel

        def doomed(curated, **kwargs):
            raise RuntimeError("builder down")

        monkeypatch.setattr(GraphExModel, "construct", doomed)
        orchestrator = DailyRefreshOrchestrator(
            BatchPipeline(fig3_model), artifact_dir=tmp_path / "artifacts")
        with pytest.raises(RuntimeError, match="builder down"):
            orchestrator.refresh_sync(build_fig3_curated(), REQUESTS)


class TestRefreshClusterDeploy:
    """A fleet-backed pipeline or target is refreshed like any other:
    it takes the day's mapped open, and its fleet opens the artifact by
    path on its next job."""

    def test_a_fleet_backed_stack_refreshes_by_artifact(
            self, fig3_model, fleet, tmp_path):
        """With one, the fleet-backed pipeline and target take the
        day's mapped open and serve what the in-process stack does."""
        from repro.core.batch import batch_recommend

        store = KeyValueStore()
        pipeline = BatchPipeline(fig3_model, store, executor=fleet)
        orchestrator = DailyRefreshOrchestrator(
            pipeline, artifact_dir=tmp_path / "artifacts")
        service = orchestrator.register(
            NRTService(fig3_model, store, window_size=1, executor=fleet))
        report = orchestrator.refresh_sync(build_fig3_variant_curated(),
                                           REQUESTS)
        assert report.failure is None
        assert service.model_generation == report.generation == 1
        assert pipeline.model.artifact_dir \
            == (tmp_path / "artifacts" / "gen-1").resolve()
        service.submit(make_event(3, 0.0, "wireless gaming headphones"))
        expected = batch_recommend(orchestrator.model, REQUESTS
                                   + [(3, "wireless gaming headphones",
                                       FIG3_LEAF_ID)],
                                   k=20, hard_limit=40)
        served = {item_id: pipeline.serve(item_id) for item_id in expected}
        assert served == {item_id: [rec.text for rec in recs]
                          for item_id, recs in expected.items()}

    def test_a_fleet_keeps_one_open_of_the_latest_generation(
            self, fig3_model, tmp_path):
        """Refreshed twice, a fleet-backed pipeline hands its workers
        each day's directory on its own jobs: no ``deploy_model`` frame
        is sent, each worker holds one open, ``gen-2``, and the catalog
        serves what ``batch_recommend`` does on ``gen-2``."""
        from repro.cluster import ClusterCoordinator, ClusterWorker
        from repro.core.batch import batch_recommend
        from repro.core.curation import CuratedKeyphrases
        from repro.core.execution import ClusterExecutor
        from repro.core.serialization import load_model

        def two_leaves(curated):
            """The Figure 3 leaf under a second id too: a unit each
            for the two workers."""
            (leaf,) = curated.leaves.values()
            twin = type(leaf)(leaf_id=FIG3_LEAF_ID + 1)
            for row in zip(leaf.texts, leaf.search_counts,
                           leaf.recall_counts):
                twin.add(*row)
            return CuratedKeyphrases(
                leaves={FIG3_LEAF_ID: leaf, twin.leaf_id: twin},
                effective_threshold=curated.effective_threshold,
                config=curated.config)

        requests = REQUESTS + [(item_id + 10, title, FIG3_LEAF_ID + 1)
                               for item_id, title, _leaf in REQUESTS]
        frames = []

        class Recording(ClusterWorker):
            async def _handle(self, message):
                frames.append(message.get("type"))
                return await super()._handle(message)

        async def drive():
            async with ClusterCoordinator(rpc_timeout=20.0,
                                          local_fallback=False) as coord:
                workers = [Recording(coord.host, coord.port,
                                     name=f"host-{i}") for i in range(2)]
                tasks = [asyncio.ensure_future(w.run()) for w in workers]
                await coord.wait_for_workers(2, timeout=10.0)
                pipeline = BatchPipeline(fig3_model,
                                         executor=ClusterExecutor(coord))
                orchestrator = DailyRefreshOrchestrator(
                    pipeline, artifact_dir=tmp_path / "artifacts")
                reports = [await orchestrator.refresh(two_leaves(day),
                                                      requests)
                           for day in (build_fig3_curated(),
                                       build_fig3_variant_curated())]
                opens = [(w._model_path, w._model.artifact_dir)
                         for w in workers]
                await coord.stop()
                for task in tasks:
                    task.cancel()
                await asyncio.gather(*tasks, return_exceptions=True)
                return pipeline, reports, opens

        pipeline, reports, opens = asyncio.run(drive())
        latest = tmp_path / "artifacts" / "gen-2"
        assert [report.failure for report in reports] == [None, None]
        assert reports[-1].artifact_path == str(latest)
        assert opens == [(str(latest.resolve()), latest.resolve())] * 2
        assert "run_shard" in frames and "deploy_model" not in frames
        expected = batch_recommend(load_model(latest), requests,
                                   k=20, hard_limit=40)
        assert {item_id: pipeline.serve(item_id) for item_id in expected} \
            == {item_id: [rec.text for rec in recs]
                for item_id, recs in expected.items()}
