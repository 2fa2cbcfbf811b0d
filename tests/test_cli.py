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

    def test_workers_defaults_to_in_process(self):
        """One value says where inference runs: ``--workers`` 0 (in
        process) on recommend and serve-nrt, a fleet of 3 on
        cluster-run, and there is no other option naming it."""
        for command, workers in (
                (["recommend", "--model", "m", "--title", "t",
                  "--leaf", "1"], 0),
                (["serve-nrt", "--model", "m"], 0),
                (["cluster-run", "--model", "m"], 3)):
            args = build_parser().parse_args(command)
            assert args.workers == workers
            assert not hasattr(args, "executor")

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

    def test_recommend_mmap_is_a_usage_error(self, workflow_dir, capsys):
        """Every open maps the artifact, so ``recommend --mmap`` names
        no mode any more: exit 2, nothing printed on stdout."""
        payload = json.loads((workflow_dir / "curated.json").read_text())
        leaf_id = next(iter(payload["leaves"]))
        text = payload["leaves"][leaf_id]["texts"][0]
        argv = ["recommend", "--model", str(workflow_dir / "model"),
                "--title", text, "--leaf", leaf_id]
        with pytest.raises(SystemExit) as exit_info:
            main(argv + ["--mmap"])
        assert exit_info.value.code == 2
        assert capsys.readouterr().out == ""
        assert main(argv) == 0
        assert text in capsys.readouterr().out


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
        """``construct`` writes a format-6 artifact and it loads back
        with the same leaves."""
        from repro.core.serialization import load_model
        baseline = load_model(workflow_dir / "model")
        out_dir = tmp_path / "model"
        assert main(["construct", "--curated",
                     str(workflow_dir / "curated.json"), "--out",
                     str(out_dir)]) == 0
        assert f"-> {out_dir}" in capsys.readouterr().out
        assert json.loads((out_dir / "model.json").read_text())[
            "format_version"] == 6
        assert load_model(out_dir).leaf_ids == baseline.leaf_ids

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

    @pytest.mark.parametrize("leaf, problem", [
        ({"texts": ["usb cable", "hdmi cable", "usb hub"],
          "search_counts": [5, 4], "recall_counts": [1, 1, 1]},
         "has 3 texts, 2 search counts and 3 recall counts"),
        ({"texts": ["usb cable"], "search_counts": [5],
          "recall_counts": [1, 2]},
         "has 1 texts, 1 search counts and 2 recall counts"),
        ({"texts": ["usb cable", 7], "search_counts": [5, 4],
          "recall_counts": [1, 1]}, "has a text that is not a string"),
        ({"texts": ["usb cable", "usb hub"], "search_counts": [5, True],
          "recall_counts": [1, 1]}, "has a count that is not an integer"),
        ({"texts": ["usb cable", "usb hub"], "search_counts": [5, 4],
          "recall_counts": [1, 1.0]}, "has a count that is not an integer"),
    ], ids=["short-search", "long-recall", "int-text", "bool-count",
            "float-count"])
    def test_construct_refuses_a_malformed_curated_leaf(
            self, tmp_path, monkeypatch, leaf, problem):
        """Regression: the columns were zipped, so a leaf with 3 texts
        and 2 search counts built 2 labels and exited 0.  Now the file
        is refused by name — leaf id and all three lengths — and no
        leaf is built."""
        from repro.core import execution

        built = []
        monkeypatch.setattr(execution, "build_leaf_graph_fast",
                            lambda *args: built.append(args))
        path = tmp_path / "curated.json"
        path.write_text(json.dumps({
            "effective_threshold": 1,
            "leaves": {"100": {"texts": ["fine"], "search_counts": [1],
                               "recall_counts": [1]}, "101": leaf}}))
        out = tmp_path / "model"
        with pytest.raises(ValueError) as refused:
            main(["construct", "--curated", str(path), "--out", str(out)])
        assert str(refused.value) \
            == f"malformed curated file {path}: leaf 101 {problem}"
        assert built == [] and not out.exists()

    @pytest.mark.parametrize("engine", ["reference", "fast"])
    @pytest.mark.parametrize("field, value, shown", [
        ("leaf_id", "100", "'100', not int"),
        ("leaf_id", True, "True, not int"),
        ("search_count", "5", "'5', not int"),
        ("search_count", True, "True, not int"),
        ("recall_count", 1.5, "1.5, not int"),
        ("text", 123, "123, not str"),
    ], ids=["str-leaf", "bool-leaf", "str-search", "bool-search",
            "float-recall", "int-text"])
    def test_curate_refuses_a_malformed_stats_record(
            self, workflow_dir, tmp_path, engine, field, value, shown):
        """Regression: a ``"100"`` leaf id collapsed with leaf ``100``
        in the curated file (one keyphrase lost, exit 0) under the
        reference engine and was coerced by the fast one; a string
        count was coerced or raised a raw ``TypeError``; ``true``
        counted as 1; an int text died in ``str.split``.  Now the file
        is refused by name — record index and field — before curation,
        on either engine."""
        payload = json.loads((workflow_dir / "log.json").read_text())
        payload["stats"][3][field] = value
        log = tmp_path / "log.json"
        log.write_text(json.dumps(payload))
        out = tmp_path / "curated.json"
        with pytest.raises(ValueError) as refused:
            main(["curate", "--log", str(log), "--out", str(out),
                  "--engine", engine])
        assert str(refused.value) == (f"malformed stats file {log}: "
                                      f"record 3 has {field} {shown}")
        assert not out.exists()

    @pytest.mark.parametrize("engine", ["reference", "fast"])
    @pytest.mark.parametrize("field, value", [
        ("leaf_id", 2**63), ("leaf_id", -2**63 - 1),
        ("search_count", 2**63), ("search_count", -1),
        ("recall_count", 2**64), ("recall_count", -1),
    ], ids=["leaf-past-int64", "leaf-below-int64", "search-past-int64",
            "negative-search", "recall-past-int64", "negative-recall"])
    def test_curate_refuses_an_int_numpy_cannot_hold(
            self, workflow_dir, tmp_path, engine, field, value):
        """Regression: a leaf id or Search Count of 2**63 died in
        ``fast_curate`` with ``OverflowError: Python int too large to
        convert to C long``.  An int outside int64, or a negative
        count, is now refused by name before curation, on either
        engine."""
        payload = json.loads((workflow_dir / "log.json").read_text())
        payload["stats"][3][field] = value
        log = tmp_path / "log.json"
        log.write_text(json.dumps(payload))
        out = tmp_path / "curated.json"
        with pytest.raises(ValueError) as refused:
            main(["curate", "--log", str(log), "--out", str(out),
                  "--engine", engine])
        low = -2**63 if field == "leaf_id" else 0
        assert str(refused.value) == (
            f"malformed stats file {log}: record 3 has {field} {value}, "
            f"outside [{low}, {2**63})")
        assert not out.exists()

    @pytest.mark.parametrize("field, value", [
        ("leaf_id", -2**63), ("leaf_id", 2**63 - 1),
        ("search_count", 0), ("recall_count", 2**63 - 1)])
    def test_the_stats_loader_takes_the_ends_of_int64(
            self, workflow_dir, tmp_path, field, value):
        """The ranges are inclusive of numpy's ends: the extreme leaf
        ids and counts load as written."""
        from repro.cli import _load_stats

        payload = json.loads((workflow_dir / "log.json").read_text())
        payload["stats"][3][field] = value
        log = tmp_path / "log.json"
        log.write_text(json.dumps(payload))
        assert getattr(_load_stats(str(log))[3], field) == value

    @pytest.mark.parametrize("column, value", [
        ("search_counts", 2**63), ("search_counts", -1),
        ("recall_counts", 2**63), ("recall_counts", -1)])
    def test_construct_refuses_a_count_numpy_cannot_hold(
            self, tmp_path, monkeypatch, column, value):
        """Regression: a Search Count of 2**63 died in
        ``build_leaf_graph_fast`` with an ``OverflowError``.  A count
        outside int64, or a negative one, is now refused by name — file
        and leaf — and no leaf is built."""
        from repro.core import execution

        built = []
        monkeypatch.setattr(execution, "build_leaf_graph_fast",
                            lambda *args: built.append(args))
        leaf = {"texts": ["usb cable", "usb hub"], "search_counts": [5, 4],
                "recall_counts": [1, 1]}
        leaf[column][1] = value
        path = tmp_path / "curated.json"
        path.write_text(json.dumps({
            "effective_threshold": 1,
            "leaves": {"100": {"texts": ["fine"], "search_counts": [1],
                               "recall_counts": [1]}, "101": leaf}}))
        out = tmp_path / "model"
        with pytest.raises(ValueError) as refused:
            main(["construct", "--curated", str(path), "--out", str(out)])
        assert str(refused.value) == (
            f"malformed curated file {path}: leaf 101 has a count outside "
            f"[0, {2**63})")
        assert built == [] and not out.exists()

    @pytest.mark.parametrize("payload, problem", [
        ([], "the top level is not an object"),
        ({}, "stats is not a list"),
        ({"stats": {}}, "stats is not a list"),
        ({"stats": ["usb cable"]}, "record 0 is not an object"),
        ({"stats": [{"text": "usb cable", "leaf_id": 100,
                     "search_count": 5}]}, "record 0 has no recall_count"),
    ], ids=["list-top", "no-stats", "stats-object", "str-record",
            "missing-field"])
    def test_curate_refuses_a_malformed_stats_structure(
            self, tmp_path, payload, problem):
        """Regression: these died with a ``KeyError`` / ``TypeError`` /
        ``AttributeError`` traceback, and ``{"stats": {}}`` curated
        nothing and exited 0.  Each is refused by name."""
        log = tmp_path / "log.json"
        log.write_text(json.dumps(payload))
        out = tmp_path / "curated.json"
        with pytest.raises(ValueError) as refused:
            main(["curate", "--log", str(log), "--out", str(out)])
        assert str(refused.value) == f"malformed stats file {log}: {problem}"
        assert not out.exists()

    FINE_LEAF = {"texts": ["fine"], "search_counts": [1], "recall_counts": [1]}

    @pytest.mark.parametrize("payload, problem", [
        ([], "the top level is not an object"),
        ({"effective_threshold": 1}, "leaves is not an object"),
        ({"effective_threshold": 1, "leaves": []},
         "leaves is not an object"),
        ({"leaves": {}}, "effective_threshold is not an int"),
        ({"effective_threshold": 1, "leaves": {"100": "fine"}},
         "leaf 100 is not an object of lists "
         "('texts', 'search_counts', 'recall_counts')"),
        ({"effective_threshold": 1, "leaves": {"100": {
            "texts": ["fine"], "search_counts": [1]}}},
         "leaf 100 is not an object of lists "
         "('texts', 'search_counts', 'recall_counts')"),
        ({"effective_threshold": 1, "leaves": {"leaf": FINE_LEAF}},
         "leaf key 'leaf' is not an int64"),
        ({"effective_threshold": 1, "leaves": {"07": FINE_LEAF}},
         "leaf key '07' is not an int64"),
        ({"effective_threshold": 1, "leaves": {str(2**63): FINE_LEAF}},
         f"leaf key '{2**63}' is not an int64"),
        ({"effective_threshold": 1, "leaves": {}, "config": [3]},
         "config is not an object of CurationConfig's int fields "
         "['floor_search_count', 'max_tokens', 'min_keyphrases', "
         "'min_search_count', 'min_tokens']"),
        ({"effective_threshold": 1, "leaves": {},
          "config": {"min_search_count": 3, "stem": True}},
         "config is not an object of CurationConfig's int fields "
         "['floor_search_count', 'max_tokens', 'min_keyphrases', "
         "'min_search_count', 'min_tokens']"),
    ], ids=["list-top", "no-leaves", "leaves-list", "no-threshold",
            "str-leaf", "missing-column", "word-key", "padded-key",
            "key-past-int64", "config-list", "config-unknown-field"])
    def test_construct_refuses_a_malformed_curated_structure(
            self, tmp_path, monkeypatch, payload, problem):
        """Regression: these died with a ``KeyError`` / ``TypeError`` /
        ``AttributeError`` or a bare ``int()`` traceback (``"07"`` was
        read as leaf 7).  Each is refused by name and no leaf is
        built."""
        from repro.core import execution

        built = []
        monkeypatch.setattr(execution, "build_leaf_graph_fast",
                            lambda *args: built.append(args))
        path = tmp_path / "curated.json"
        path.write_text(json.dumps(payload))
        out = tmp_path / "model"
        with pytest.raises(ValueError) as refused:
            main(["construct", "--curated", str(path), "--out", str(out)])
        assert str(refused.value) \
            == f"malformed curated file {path}: {problem}"
        assert built == [] and not out.exists()

    @pytest.mark.parametrize("window", ["0", "-0.5", "nan"])
    def test_serve_nrt_refuses_a_zero_window(self, workflow_dir, capsys,
                                             window):
        """``--window-seconds`` is the front's wall-clock bound (see
        ``test_async_front.py``): one that is not > 0 is a usage error
        at parse time, like a negative ``--workers``."""
        with pytest.raises(SystemExit) as exit_info:
            main(["serve-nrt", "--model", str(workflow_dir / "model"),
                  "--window-seconds", window])
        assert exit_info.value.code == 2
        assert f"--window-seconds: must be > 0, got {window}" \
            in capsys.readouterr().err

    def test_a_zero_window_boots_no_fleet(self, workflow_dir, booted):
        """Refused before the front is built, so ``--workers 2`` boots
        no fleet first."""
        with pytest.raises(SystemExit) as exit_info:
            main(["serve-nrt", "--model", str(workflow_dir / "model"),
                  "--window-seconds", "0", "--workers", "2"])
        assert exit_info.value.code == 2
        assert booted == []

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
                  "--engine", "reference", "--workers", "2"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --engine reference" \
            in capsys.readouterr().err
        assert no_spawn == []

    def test_serve_nrt_owns_the_fleet_it_boots(self, workflow_dir,
                                               capsys, booted):
        """--workers 2 on serve-nrt boots one fleet, serves every
        window on it — across a hot-swap — and closes it."""
        assert main(["serve-nrt", "--model", str(workflow_dir / "model"),
                     "--streams", "2", "--events", "24",
                     "--window-size", "8", "--refresh-after", "8",
                     "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "0 flush failures" in out
        assert "48 events across 2 streams" in out
        assert [executor._owned for executor in booted] == [None]


class TestWorkersFlag:
    """The one fleet option: ``--workers N``."""

    COMMANDS = (["recommend", "--model", "m", "--title", "t", "--leaf",
                 "1"],
                ["serve-nrt", "--model", "m"],
                ["cluster-run", "--model", "m"])

    def test_negative_workers_is_a_usage_error(self, capsys, no_spawn):
        """A fleet is never silently resized: ``--workers -3`` is
        argparse exit 2 on every command that takes it."""
        for command in self.COMMANDS:
            for value in ("-3", "-1", "two"):
                with pytest.raises(SystemExit) as exit_info:
                    main(command + ["--workers", value])
                assert exit_info.value.code == 2, (command, value)
        assert "must be >= 0, got -1" in capsys.readouterr().err
        assert no_spawn == []

    def test_removed_fleet_options_are_usage_errors(self, no_spawn):
        """``--executor`` (any of its old names) and ``--spawn-workers``
        are gone: argparse exit 2, and no worker starts."""
        for command in self.COMMANDS:
            for flags in (["--executor", "serial"],
                          ["--executor", "process"],
                          ["--executor", "cluster"],
                          ["--executor", "thread"],
                          ["--spawn-workers", "2"]):
                with pytest.raises(SystemExit) as exit_info:
                    build_parser().parse_args(command + flags)
                assert exit_info.value.code == 2, (command, flags)
        assert no_spawn == []

    def _recommend_output(self, workflow_dir, capsys, *extra):
        payload = json.loads((workflow_dir / "curated.json").read_text())
        leaf_id = int(next(iter(payload["leaves"])))
        text = payload["leaves"][str(leaf_id)]["texts"][0]
        assert main(["recommend", "--model", str(workflow_dir / "model"),
                     "--title", text, "--leaf", str(leaf_id),
                     *extra]) == 0
        return capsys.readouterr().out

    def test_recommend_fleet_prints_identical_output(
            self, workflow_dir, capsys):
        """What CI ``cmp``s: ``--workers 2`` prints the bytes of
        ``--workers 0``."""
        outputs = {
            workers: self._recommend_output(
                workflow_dir, capsys, "--workers", workers)
            for workers in ("0", "2")}
        assert outputs["2"] == outputs["0"]

    def test_recommend_closes_the_fleet_it_boots(self, workflow_dir,
                                                 capsys, booted):
        """``--workers 1`` boots one fleet, serves the default's bytes,
        and tears the fleet down before exiting; ``--workers 0`` boots
        none."""
        baseline = self._recommend_output(workflow_dir, capsys,
                                          "--workers", "0")
        assert booted == []
        fleet = self._recommend_output(workflow_dir, capsys,
                                       "--workers", "1")
        assert fleet == baseline
        assert [executor._owned for executor in booted] == [None]

    def test_recommend_rejects_reference_on_a_fleet(self, capsys,
                                                    no_spawn):
        """A usage error (exit 2) raised before a model is looked for
        or a worker started."""
        with pytest.raises(SystemExit) as exit_info:
            main(["recommend", "--model", "absent", "--title", "t",
                  "--leaf", "1", "--engine", "reference",
                  "--workers", "2"])
        assert exit_info.value.code == 2
        assert "recommend: --engine reference runs only in process " \
            "(--workers 0)" in capsys.readouterr().err
        assert no_spawn == []


class TestClusterCLI:
    """ISSUE 7: the cluster-worker / cluster-run commands."""

    def test_cluster_worker_rejects_malformed_connect(self, capsys):
        assert main(["cluster-worker", "--connect", "nonsense"]) == 2
        assert "HOST:PORT" in capsys.readouterr().err

    @pytest.mark.parametrize("port", ["abc", "0", "65536", "99999"])
    def test_cluster_worker_rejects_a_port_it_cannot_dial(self, port,
                                                          capsys):
        """A port that is not a number in 1-65535 is a usage error,
        before any socket is opened (99999 once reached sock.connect
        and died with an OverflowError traceback)."""
        assert main(["cluster-worker", "--connect",
                     f"127.0.0.1:{port}"]) == 2
        assert "HOST:PORT" in capsys.readouterr().err

    @pytest.mark.parametrize("port", ["1", "65535"])
    def test_cluster_worker_dials_the_ends_of_the_port_range(
            self, port, monkeypatch):
        """The range check is inclusive: ports 1 and 65535 reach the
        worker, which is handed the parsed host and port."""
        import repro.cluster

        dialed = []

        class _Worker:
            def __init__(self, host, port, **_options):
                dialed.append((host, port))

            async def run(self):
                return None

        monkeypatch.setattr(repro.cluster, "ClusterWorker", _Worker)
        assert main(["cluster-worker", "--connect",
                     f"127.0.0.1:{port}"]) == 0
        assert dialed == [("127.0.0.1", int(port))]

    def test_cluster_run_verifies_identical(self, workflow_dir, capsys):
        rc = main(["cluster-run", "--model",
                   str(workflow_dir / "model"), "--workers", "2",
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
                   str(workflow_dir / "model"), "--workers", "2",
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

    def test_lint_list_rules_lists_exactly_the_registered_rules(
            self, capsys):
        """One line per registered rule, the seven of them, and no
        meta-rule besides."""
        from repro.analysis import rule_ids
        assert main(["lint", "--list-rules"]) == 0
        listed = [line.split(":")[0]
                  for line in capsys.readouterr().out.splitlines()]
        assert listed == rule_ids()
        assert len(listed) == 7
        assert not [rule for rule in listed if rule.startswith("waiver")]

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
