"""Tests for the repro-graphex command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main


@pytest.fixture(scope="module")
def workflow_dir(tmp_path_factory):
    """Run simulate -> curate -> construct once; share the artifacts."""
    root = tmp_path_factory.mktemp("cli")
    log_path = root / "log.json"
    curated_path = root / "curated.json"
    model_dir = root / "model"
    assert main(["simulate", "--out", str(log_path), "--profile", "tiny",
                 "--events", "8000"]) == 0
    assert main(["curate", "--log", str(log_path), "--out",
                 str(curated_path), "--min-search-count", "3"]) == 0
    assert main(["construct", "--curated", str(curated_path), "--out",
                 str(model_dir)]) == 0
    return root


@pytest.fixture
def booted(monkeypatch):
    """Every fleet the CLI boots during the test, so it can be shown
    closed afterwards."""
    from repro.core.execution import ClusterExecutor

    fleets = []
    real_local = ClusterExecutor.local

    def recording_local(workers):
        fleets.append(real_local(workers))
        return fleets[-1]

    monkeypatch.setattr(ClusterExecutor, "local", recording_local)
    return fleets


@pytest.fixture
def no_spawn(monkeypatch):
    """The argv of every process ``spawn_worker`` would have started
    during the test (``WORKER_COMMAND`` …); none is started."""
    from repro.cluster import worker

    spawned = []
    monkeypatch.setattr(worker.subprocess, "Popen",
                        lambda argv, **_kwargs: spawned.append(argv))
    return spawned


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate", "--out", "x.json"])
        assert args.profile == "tiny"
        assert args.events == 30_000

    def test_alignment_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["construct", "--curated", "c", "--out", "m",
                 "--alignment", "cosine"])

    def test_parallel_defaults_to_serial(self):
        from repro.core.execution import resolve_executor

        for command in (["recommend", "--model", "m", "--title", "t",
                         "--leaf", "1"],
                        ["serve-nrt", "--model", "m"]):
            args = build_parser().parse_args(command)
            assert args.workers == 2      # the fleet size, if one is asked for
            assert resolve_executor(args.executor).name == "serial"

    def test_construct_has_no_executor(self, no_spawn):
        """Models build in process only: ``construct --executor`` and
        ``--workers`` are argparse usage errors, and no worker starts."""
        for flags in (["--executor", "process"], ["--executor", "serial"],
                      ["--workers", "2"]):
            with pytest.raises(SystemExit) as exit_info:
                main(["construct", "--curated", "c", "--out", "m",
                      *flags])
            assert exit_info.value.code == 2, flags
        assert no_spawn == []

    def test_removed_flags_are_usage_errors(self):
        """``--parallel`` is no alias of ``--executor`` any more, and
        ``serve-nrt`` has no oracle engine to select."""
        for argv in (["construct", "--curated", "c", "--out", "m",
                      "--parallel", "process"],
                     ["recommend", "--model", "m", "--title", "t",
                      "--leaf", "1", "--parallel", "serial"],
                     ["serve-nrt", "--model", "m", "--parallel", "serial"],
                     ["serve-nrt", "--model", "m", "--engine", "fast"]):
            with pytest.raises(SystemExit) as exit_info:
                build_parser().parse_args(argv)
            assert exit_info.value.code == 2, argv


class TestWorkflow:
    def test_simulate_output_schema(self, workflow_dir):
        payload = json.loads((workflow_dir / "log.json").read_text())
        assert payload["profile"] == "tiny"
        stat = payload["stats"][0]
        assert set(stat) == {"text", "leaf_id", "search_count",
                             "recall_count"}

    def test_curate_output_schema(self, workflow_dir):
        payload = json.loads((workflow_dir / "curated.json").read_text())
        assert "effective_threshold" in payload
        assert payload["leaves"]
        leaf = next(iter(payload["leaves"].values()))
        assert len(leaf["texts"]) == len(leaf["search_counts"])

    def test_constructed_model_loads(self, workflow_dir):
        from repro.core.serialization import load_model
        model = load_model(workflow_dir / "model")
        assert model.n_leaves > 0

    def test_recommend_prints_results(self, workflow_dir, capsys):
        payload = json.loads((workflow_dir / "curated.json").read_text())
        leaf_id = int(next(iter(payload["leaves"])))
        text = payload["leaves"][str(leaf_id)]["texts"][0]
        assert main(["recommend", "--model",
                     str(workflow_dir / "model"), "--title", text,
                     "--leaf", str(leaf_id), "-k", "5"]) == 0
        out = capsys.readouterr().out
        assert text in out

    def test_recommend_unmatched_title(self, workflow_dir, capsys):
        assert main(["recommend", "--model", str(workflow_dir / "model"),
                     "--title", "zzz qqq xxx", "--leaf", "100"]) == 0
        assert "no recommendations" in capsys.readouterr().out

    def test_recommend_engines_print_identical_output(self, workflow_dir,
                                                      capsys):
        payload = json.loads((workflow_dir / "curated.json").read_text())
        leaf_id = int(next(iter(payload["leaves"])))
        text = payload["leaves"][str(leaf_id)]["texts"][0]
        outputs = {}
        for engine in ("reference", "fast"):
            assert main(["recommend", "--model",
                         str(workflow_dir / "model"), "--title", text,
                         "--leaf", str(leaf_id), "--engine", engine]) == 0
            outputs[engine] = capsys.readouterr().out
        assert outputs["fast"] == outputs["reference"]
        assert text in outputs["fast"]

    def test_construct_format_version_round_trips(self, workflow_dir,
                                                  tmp_path, capsys):
        """``construct`` writes a format-3 artifact and it loads back
        with the same leaves."""
        from repro.core.serialization import load_model
        baseline = load_model(workflow_dir / "model")
        out_dir = tmp_path / "model"
        assert main(["construct", "--curated",
                     str(workflow_dir / "curated.json"), "--out",
                     str(out_dir)]) == 0
        assert f"-> {out_dir}" in capsys.readouterr().out
        assert json.loads((out_dir / "model.json").read_text())[
            "format_version"] == 3
        assert load_model(out_dir).leaf_ids == baseline.leaf_ids

    def test_recommend_mmap_prints_identical_output(self, workflow_dir,
                                                    capsys):
        payload = json.loads((workflow_dir / "curated.json").read_text())
        leaf_id = int(next(iter(payload["leaves"])))
        text = payload["leaves"][str(leaf_id)]["texts"][0]
        outputs = {}
        for extra in ([], ["--mmap"]):
            assert main(["recommend", "--model",
                         str(workflow_dir / "model"), "--title", text,
                         "--leaf", str(leaf_id)] + extra) == 0
            outputs[bool(extra)] = capsys.readouterr().out
        assert outputs[True] == outputs[False]
        assert text in outputs[True]

    def test_recommend_rejects_unknown_engine(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["recommend", "--model", "m", "--title", "t",
                 "--leaf", "1", "--engine", "warp"])

    def test_curated_json_round_trips_curation_config(self, workflow_dir,
                                                      tmp_path):
        """Regression: construct used to rebuild CuratedKeyphrases with
        ``CurationConfig()`` defaults, silently discarding the knobs
        ``curate`` actually ran with."""
        from repro.cli import _load_curated
        from repro.core.curation import CurationConfig

        out = tmp_path / "curated_knobs.json"
        assert main(["curate", "--log", str(workflow_dir / "log.json"),
                     "--out", str(out), "--min-search-count", "5",
                     "--min-keyphrases", "77", "--floor", "3"]) == 0
        payload = json.loads(out.read_text())
        assert payload["config"]["min_search_count"] == 5
        restored = _load_curated(str(out))
        assert restored.config == CurationConfig(
            min_search_count=5, min_keyphrases=77, floor_search_count=3)

    def test_construct_accepts_legacy_curated_json(self, workflow_dir,
                                                   tmp_path):
        """Curated files written before the config block still load,
        falling back to defaults (the old behavior, now explicit)."""
        from repro.cli import _load_curated
        from repro.core.curation import CurationConfig

        payload = json.loads((workflow_dir / "curated.json").read_text())
        payload.pop("config")
        legacy = tmp_path / "legacy.json"
        legacy.write_text(json.dumps(payload))
        assert _load_curated(str(legacy)).config == CurationConfig()
        assert main(["construct", "--curated", str(legacy), "--out",
                     str(tmp_path / "legacy_model")]) == 0

    def test_serve_nrt_demo_runs_multi_stream(self, workflow_dir, capsys):
        assert main(["serve-nrt", "--model", str(workflow_dir / "model"),
                     "--streams", "3", "--events", "40",
                     "--window-size", "8"]) == 0
        out = capsys.readouterr().out
        for stream in ("stream-0", "stream-1", "stream-2"):
            assert stream in out
        assert "0 flush failures" in out
        assert "120 events across 3 streams" in out

    def test_serve_nrt_mid_run_refresh_demo(self, workflow_dir, capsys):
        """--refresh-after hot-swaps a freshly loaded model mid-run:
        the run completes with zero flush failures and the per-stream
        window summary shows generation-1 windows."""
        assert main(["serve-nrt", "--model", str(workflow_dir / "model"),
                     "--streams", "2", "--events", "30",
                     "--window-size", "8", "--refresh-after", "10"]) == 0
        out = capsys.readouterr().out
        assert "hot-swapped to model generation 1" in out
        assert "gen 1:" in out
        assert "0 flush failures" in out
        assert "60 events across 2 streams" in out

    def test_serve_nrt_has_no_engine_to_select(self, capsys, no_spawn):
        """A usage error (exit 2), refused before a model is looked for
        or a worker process started."""
        with pytest.raises(SystemExit) as exit_info:
            main(["serve-nrt", "--model", "absent",
                  "--engine", "reference", "--executor", "process"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --engine reference" \
            in capsys.readouterr().err
        assert no_spawn == []

    def test_serve_nrt_owns_the_fleet_it_boots(self, workflow_dir,
                                               capsys, booted):
        """--executor process on serve-nrt boots a fleet through
        _cli_executor, serves every window on it — across a hot-swap —
        and closes it."""
        assert main(["serve-nrt", "--model", str(workflow_dir / "model"),
                     "--streams", "2", "--events", "24",
                     "--window-size", "8", "--refresh-after", "8",
                     "--executor", "cluster", "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "0 flush failures" in out
        assert "48 events across 2 streams" in out
        assert [executor._owned for executor in booted] == [None]


class TestExecutorFlag:
    """The one --executor action."""

    def test_executor_defaults_to_none(self):
        args = build_parser().parse_args(
            ["recommend", "--model", "m", "--title", "t", "--leaf", "1"])
        assert args.executor is None

    def test_executor_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["recommend", "--model", "m", "--title", "t", "--leaf",
                 "1", "--executor", "warp"])
        # There is no in-process pool to name: `thread` is argparse
        # exit 2 on every command that takes an executor.
        for command in (["recommend", "--model", "m", "--title", "t",
                         "--leaf", "1"],
                        ["serve-nrt", "--model", "m"]):
            with pytest.raises(SystemExit) as exit_info:
                build_parser().parse_args(command + ["--executor",
                                                     "thread"])
            assert exit_info.value.code == 2
            for name in ("serial", "process", "cluster"):
                args = build_parser().parse_args(
                    command + ["--executor", name])
                assert args.executor == name

    def _recommend_output(self, workflow_dir, capsys, *extra):
        payload = json.loads((workflow_dir / "curated.json").read_text())
        leaf_id = int(next(iter(payload["leaves"])))
        text = payload["leaves"][str(leaf_id)]["texts"][0]
        assert main(["recommend", "--model", str(workflow_dir / "model"),
                     "--title", text, "--leaf", str(leaf_id),
                     *extra]) == 0
        return capsys.readouterr().out

    def test_recommend_executors_print_identical_output(
            self, workflow_dir, capsys):
        outputs = {
            name: self._recommend_output(
                workflow_dir, capsys, "--executor", name,
                "--workers", "2")
            for name in ("serial", "process")}
        assert outputs["process"] == outputs["serial"]

    def test_recommend_executor_cluster_identical(self, workflow_dir,
                                                  capsys):
        """--executor cluster boots a localhost fleet, serves the same
        bytes, and tears the fleet down before exiting."""
        baseline = self._recommend_output(workflow_dir, capsys)
        clustered = self._recommend_output(workflow_dir, capsys,
                                           "--executor", "cluster")
        assert clustered == baseline

    def test_recommend_rejects_bad_executor_pairing(self, capsys,
                                                    no_spawn):
        with pytest.raises(SystemExit) as exit_info:
            main(["recommend", "--model", "absent", "--title", "t",
                  "--leaf", "1", "--engine", "reference",
                  "--executor", "process"])
        assert exit_info.value.code == 2
        assert "recommend: --engine reference runs only on " \
            "--executor serial" in capsys.readouterr().err
        assert no_spawn == []


class TestClusterCLI:
    """ISSUE 7: the cluster-worker / cluster-run commands."""

    def test_cluster_worker_rejects_malformed_connect(self, capsys):
        assert main(["cluster-worker", "--connect", "nonsense"]) == 2
        assert "HOST:PORT" in capsys.readouterr().err

    def test_cluster_worker_rejects_non_numeric_port(self, capsys):
        assert main(["cluster-worker", "--connect", "localhost:abc"]) == 2

    def test_cluster_run_verifies_identical(self, workflow_dir, capsys):
        rc = main(["cluster-run", "--model",
                   str(workflow_dir / "model"), "--spawn-workers", "2",
                   "--requests", "24", "--rpc-timeout", "20.0"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "verified_identical: True" in out

    def test_cluster_run_survives_killed_machine(self, workflow_dir,
                                                 tmp_path, capsys):
        """One subprocess machine hard-exits on its first shard; the
        run must still verify through dead-host re-planning."""
        from repro.obs import load_snapshot

        metrics_path = tmp_path / "fleet-metrics.json"
        rc = main(["cluster-run", "--model",
                   str(workflow_dir / "model"), "--spawn-workers", "2",
                   "--kill-after", "0", "--requests", "24",
                   "--rpc-timeout", "20.0",
                   "--metrics-out", str(metrics_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "verified_identical: True" in out
        assert "n_replans: 1" in out or "n_local_units" in out
        # Exactly-once through the crash drill: the fenced merge counter
        # equals the request count; executions may exceed it (retries).
        counters = load_snapshot(str(metrics_path))["counters"]  # validates
        assert counters["cluster.requests.merged"] == 24
        assert counters["worker.requests"] >= 24


class TestLintCLI:
    """ISSUE 9: the `lint` subcommand fronts repro.analysis."""

    def test_lint_repo_is_clean(self, capsys):
        assert main(["lint"]) == 0
        assert "repro-lint: 0 violation(s)" in capsys.readouterr().out

    def test_lint_quiet_suppresses_output_on_success(self, capsys):
        assert main(["lint", "--quiet"]) == 0
        assert capsys.readouterr().out == ""

    def test_lint_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("async-no-blocking", "store-lock-discipline",
                        "monotonic-clock", "no-pickle-boundary",
                        "lazy-import-contract", "mmap-write-safety"):
            assert rule_id in out

    def test_lint_writes_json_report(self, tmp_path, capsys):
        report_path = tmp_path / "reports" / "lint.json"
        assert main(["lint", "--json", str(report_path),
                     "--quiet"]) == 0
        payload = json.loads(report_path.read_text(encoding="utf-8"))
        assert payload["tool"] == "repro-lint"
        assert payload["ok"] is True
        assert payload["n_violations"] == 0

    def test_lint_single_rule_filter(self, capsys):
        assert main(["lint", "--rule", "monotonic-clock",
                     "--quiet"]) == 0

    def test_lint_unknown_rule_is_usage_error(self, capsys):
        assert main(["lint", "--rule", "no-such-rule"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_lint_finds_violations_in_bad_tree(self, tmp_path, capsys):
        """A synthetic package with a wall-clock timer read exits 1
        and renders the finding."""
        package = tmp_path / "repro"
        (package / "cluster").mkdir(parents=True)
        (package / "__init__.py").write_text("")
        (package / "cluster" / "__init__.py").write_text("")
        (package / "cluster" / "timers.py").write_text(
            "import time\n\n\ndef deadline(t0, budget):\n"
            "    return time.time() - t0 > budget\n",
            encoding="utf-8")
        assert main(["lint", "--root", str(package)]) == 1
        assert "monotonic-clock" in capsys.readouterr().out


class TestMetricsCLI:
    """ISSUE 10: snapshot export flags and the `metrics` subcommand."""

    def _two_snapshots(self, tmp_path):
        from repro.obs import MetricsRegistry, dump_snapshot

        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("nrt.events", 3, stream="s")
        a.observe("nrt.window.flush_seconds", 0.002, stream="s")
        a.gauge("nrt.window.depth", 5.0, stream="s")
        b.inc("nrt.events", 4, stream="s")
        b.observe("nrt.window.flush_seconds", 0.004, stream="s")
        b.gauge("nrt.window.depth", 2.0, stream="s")
        path_a = tmp_path / "a.json"
        path_b = tmp_path / "b.json"
        dump_snapshot(a.snapshot(), str(path_a))
        dump_snapshot(b.snapshot(), str(path_b))
        return path_a, path_b

    def test_serve_nrt_metrics_out_writes_valid_snapshot(
            self, workflow_dir, tmp_path, capsys):
        from repro.obs import load_snapshot

        out = tmp_path / "nrt-metrics.json"
        assert main(["serve-nrt", "--model",
                     str(workflow_dir / "model"), "--streams", "2",
                     "--events", "40", "--metrics-out", str(out)]) == 0
        snapshot = load_snapshot(str(out))  # validates the schema
        counters = snapshot["counters"]
        per_stream = [counters[f"nrt.events{{stream=stream-{i}}}"]
                      for i in range(2)]
        assert per_stream == [40, 40]  # --events is per stream
        assert counters["front.submitted{stream=stream-0}"] \
            == per_stream[0]
        assert "wrote metrics snapshot" in capsys.readouterr().out

    def test_metrics_renders_single_snapshot(self, tmp_path, capsys):
        path_a, _ = self._two_snapshots(tmp_path)
        assert main(["metrics", str(path_a)]) == 0
        out = capsys.readouterr().out
        assert "nrt.events{stream=s} = 3" in out
        assert "nrt.window.flush_seconds{stream=s}: n=1" in out

    def test_metrics_merges_exactly(self, tmp_path, capsys):
        from repro.obs import load_snapshot

        path_a, path_b = self._two_snapshots(tmp_path)
        merged_path = tmp_path / "merged.json"
        assert main(["metrics", str(path_a), str(path_b),
                     "--merge-out", str(merged_path)]) == 0
        merged = load_snapshot(str(merged_path))
        assert merged["counters"]["nrt.events{stream=s}"] == 7
        hist = merged["histograms"][
            "nrt.window.flush_seconds{stream=s}"]
        assert hist["count"] == 2
        # Gauge extremes survive the merge (value is last-writer-wins).
        value, vmax, vmin = merged["gauges"][
            "nrt.window.depth{stream=s}"]
        assert (vmax, vmin) == (5.0, 2.0)

    def test_metrics_rejects_malformed_snapshot(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema_version": 999}', encoding="utf-8")
        assert main(["metrics", str(bad)]) == 2
        assert "cannot read/merge" in capsys.readouterr().err
