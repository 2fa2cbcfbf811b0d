"""Tests for repro-lint (:mod:`repro.analysis`).

Three layers, mirroring how the pass is trusted:

* **Per-rule fixtures** — every rule has a failing and a passing
  fixture under ``tests/analysis_fixtures/``; the bad one must fire
  (on the right lines, for the right reasons) and the good one must be
  silent, so a rule that rots in either direction fails here first.
* **The report machinery** — every finding gates (no source comment
  silences a rule), and the JSON schema CI consumes.
* **The repo itself** — the pass must exit clean over ``src/repro``
  (the CI gate, asserted in-process), and the monotonic-clock rule
  doubles as the regression pin that ``retry.py`` and the async
  front's window timers stay wall-clock-free.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from repro.analysis import (RULE_CLASSES, SCHEMA_VERSION, default_root,
                            lint_files, lint_sources, rule_ids, run,
                            split_fixture)
from repro.analysis.rules.async_blocking import AsyncNoBlockingRule
from repro.analysis.rules.clocks import MonotonicClockRule
from repro.analysis.rules.lazy_imports import LazyImportContractRule
from repro.analysis.rules.mmap_safety import MmapWriteSafetyRule
from repro.analysis.rules.pickle_boundary import NoPickleBoundaryRule
from repro.analysis.rules.removed_spelling import RemovedSpellingRule
from repro.analysis.rules.store_lock import StoreLockDisciplineRule

FIXTURES = Path(__file__).parent / "analysis_fixtures"


def lint_fixture(name: str, rule):
    sections = split_fixture(
        (FIXTURES / name).read_text(encoding="utf-8"))
    assert sections, f"fixture {name} has no module sections"
    return lint_sources(sections, rules=[rule])


class TestRuleFixtures:
    """Every rule: bad fixture fires, good fixture is silent."""

    CASES = [
        ("async_blocking", AsyncNoBlockingRule),
        ("store_lock", StoreLockDisciplineRule),
        ("clocks", MonotonicClockRule),
        ("pickle_boundary", NoPickleBoundaryRule),
        ("mmap_safety", MmapWriteSafetyRule),
        ("removed_spelling", RemovedSpellingRule),
    ]

    @pytest.mark.parametrize("stem,rule_cls", CASES,
                             ids=[c[0] for c in CASES])
    def test_bad_fixture_fires(self, stem, rule_cls):
        report = lint_fixture(f"{stem}_bad.py", rule_cls())
        assert not report.ok
        assert {v.rule for v in report.violations} == {rule_cls.id}

    @pytest.mark.parametrize("stem,rule_cls", CASES,
                             ids=[c[0] for c in CASES])
    def test_good_fixture_silent(self, stem, rule_cls):
        report = lint_fixture(f"{stem}_good.py", rule_cls())
        assert report.ok, report.render()

    def test_async_blocking_finds_each_construct(self):
        report = lint_fixture("async_blocking_bad.py",
                              AsyncNoBlockingRule())
        blocked = {v.message.split("(")[0].split()[2]
                   for v in report.violations}
        assert blocked == {"time.sleep", "open", "store.transaction",
                           "fut.result", "tempfile.mkdtemp",
                           "shutil.rmtree", "load_model"}

    def test_async_blocking_flags_an_inline_artifact_open(self):
        """``load_model`` reads ``model.json`` and checks the whole
        plane, as blocking as ``open_model``: inline in an ``async def``
        it is a finding, in the lambda handed to the executor it is
        not."""
        source = ("from repro.core.serialization import load_model\n"
                  "\n"
                  "\n"
                  "async def refresh(loop, path):\n"
                  "    load_model(path)\n"
                  "    return await loop.run_in_executor(\n"
                  "        None, lambda: load_model(path))\n")
        report = lint_sources({"repro.serving.fixture": source},
                              rules=[AsyncNoBlockingRule()])
        assert [(v.line, v.message.split("(")[0])
                for v in report.violations] == [
            (5, "blocking call load_model")]

    def test_store_lock_bad_flags_each_function(self):
        """A helper whose caller holds the transaction is flagged too:
        the function making the calls must enter it itself."""
        report = lint_fixture("store_lock_bad.py",
                              StoreLockDisciplineRule())
        assert sorted(v.message.split()[0] for v in report.violations) \
            == ["_fill", "fill_unlocked", "swap_unlocked"]

    def test_pickle_boundary_finds_numpys_side_doors(self):
        """numpy touches the cluster wire, so its own ways into pickle
        are flagged beside the module itself — one finding per door,
        the process pool's implicit pickling among them."""
        report = lint_fixture("pickle_boundary_bad.py",
                              NoPickleBoundaryRule())
        flagged = sorted(v.message.split("(")[1].split(")")[0]
                         for v in report.violations)
        assert flagged == sorted([
            "pickle", "pickle", "pickle.dumps", "np.loads",
            "ProcessPoolExecutor",
            "allow_pickle= not the literal False",
            "allow_pickle= not the literal False",
            "ndarray.dump", "ndarray.dumps"])
        door = NoPickleBoundaryRule._import_door
        assert door("multiprocessing.pool") == "multiprocessing"
        assert door("concurrent.futures.process")
        assert door("concurrent.futures") is None

    def test_removed_spelling_matches_each_form_once(self):
        """A parameter, a keyword, string constants, an import, an
        attribute — each deleted spelling fires once, where it is."""
        report = lint_fixture("removed_spelling_bad.py",
                              RemovedSpellingRule())
        assert sorted((v.line, v.message.split()[2])
                      for v in report.violations) == [
            (4, "distribute"), (5, "push="), (6, "artifact_begin"),
            (6, "model_artifact"), (8, "ThreadPoolExecutor"),
            (11, '"thread"'), (11, "workers="), (12, "to_json"),
            (14, "flush_executor"), (15, "engine="), (17, "_locked"),
            (20, "_Assignment"), (24, "_run_unit"), (25, "call_async"),
            (27, "_run_construction_shard"), (28, "build_shard_bundle"),
            (28, "unpack_curated_leaves"), (31, "run_construction"),
            (32, '"leaf-bundle"'), (32, "save_leaf_graphs"),
            (35, '"--spool"'), (37, "_pack_leaf"),
            (38, "_first_occurrence_ids"), (40, "_add_executor_options"),
            (40, "oracle_option"), (41, '"--executor"'),
            (41, "EXECUTOR_NAMES"), (42, '"--spawn-workers"'),
            (43, "_cli_executor"), (43, "_close_executor"),
            (46, "supports_reference"), (49, "fast_batch_recommend"),
            (52, "TextResult"), (52, "texts="),
            (53, "validate_hard_limit"), (54, "texts=")]

    def test_mmap_bad_flags_all_three_shapes(self):
        report = lint_fixture("mmap_safety_bad.py",
                              MmapWriteSafetyRule())
        assert len(report.violations) == 3

    def test_clock_rule_scope_covers_obs_plane(self):
        # The observability package joined the monotonic-clock scope:
        # wall-clock reads fire in BOTH the cluster and obs sections
        # of the bad fixture, and the good obs section stays silent.
        report = lint_fixture("clocks_bad.py", MonotonicClockRule())
        fired = {v.module for v in report.violations}
        assert "repro.cluster.fixture_clocks_bad" in fired
        assert "repro.obs.fixture_clocks_bad" in fired
        rule = MonotonicClockRule()
        assert any(module.startswith("repro.obs.")
                   for module in rule.SCOPES)
        assert "repro.obs" in rule.SCOPE_MODULES


class TestLazyImportFixtures:
    DECLARED = {("fix.eager", "fix.util"), ("fix.stale", "fix.util")}

    def test_bad_fixture_fires_cycle_eager_and_stale(self):
        rule = LazyImportContractRule(declared_lazy=self.DECLARED)
        report = lint_fixture("lazy_imports_bad.py", rule)
        messages = "\n".join(v.message for v in report.violations)
        assert "import cycle: fix.a <-> fix.b" in messages
        assert "fix.eager -> fix.util is a declared lazy edge" \
            in messages
        assert "declared lazy edge fix.stale -> fix.util no longer " \
            "exists" in messages
        assert len(report.violations) == 3

    def test_good_fixture_silent(self):
        rule = LazyImportContractRule(
            declared_lazy={("fix.c", "fix.util")})
        report = lint_fixture("lazy_imports_good.py", rule)
        assert report.ok, report.render()

    def test_type_checking_imports_are_not_edges(self):
        # fix.c's TYPE_CHECKING import of fix.d would otherwise close
        # the cycle fix.c -> fix.d -> fix.util with fix.c's lazy edge.
        rule = LazyImportContractRule(declared_lazy=set())
        report = lint_fixture("lazy_imports_good.py", rule)
        assert report.ok, report.render()

    def test_repo_declared_edges_hold(self):
        """The real contract: batch/sharding reach the execution plane
        only lazily, and the core module graph is acyclic."""
        report = run(rules=[LazyImportContractRule()])
        assert report.ok, report.render()


class TestNoMuteButton:
    """Every finding gates: a ``# lint:`` comment in any form the old
    waiver grammar accepted suppresses nothing, and is no finding of
    its own."""

    CLOCK = ("import time\n\n\ndef f():\n"
             "    {above}\n"
             "    return time.time()  {trailing}\n")
    STORE = ("{above}\n"
             "def _fill(store, version, items):\n"
             "    store.put(version, 1, items)\n"
             "    store.prune(version)\n")
    CASES = {
        "full": (CLOCK, "", "# lint: waive monotonic-clock: report stamp",
                 "monotonic-clock", 6),
        "multi-rule": (CLOCK, "# lint: waive async-no-blocking, "
                              "monotonic-clock: teardown path", "",
                       "monotonic-clock", 6),
        "caller-locked": (STORE, "# lint: caller-locked: flush() enters "
                                 "store.transaction()", "",
                          "store-lock-discipline", 2),
        "reasonless": (CLOCK, "", "# lint: waive monotonic-clock",
                       "monotonic-clock", 6),
        "malformed": (CLOCK, "# lint: disable-everything", "",
                      "monotonic-clock", 6),
    }

    @pytest.mark.parametrize("form", list(CASES))
    def test_old_waiver_comment_leaves_its_finding(self, form):
        template, above, trailing, rule, line = self.CASES[form]
        module = ("repro.serving.fixture" if template is self.STORE
                  else "repro.cluster.fixture")
        report = lint_sources(
            {module: template.format(above=above, trailing=trailing)})
        assert [(v.rule, v.line) for v in report.violations] == \
            [(rule, line)], report.render()

    def test_the_waiver_surface_is_gone(self):
        """No module, name or report field is left to hold a waiver."""
        import repro.analysis as analysis
        from repro.analysis import LintReport, engine, report
        assert importlib.util.find_spec("repro.analysis.waivers") is None
        for module, name in [(analysis, "Waiver"),
                             (analysis, "META_RULE_IDS"),
                             (engine, "META_RULE_IDS"),
                             (report, "Waiver"),
                             (report, "merge_rule_ids")]:
            assert not hasattr(module, name), (module.__name__, name)
        assert not {"waived", "waivers"} & set(vars(LintReport))

    def test_removed_spelling_pins_the_waiver_names(self):
        """Each deleted waiver spelling fires removed-spelling once if
        it comes back, under any ``repro`` module."""
        source = ("from repro.analysis.waivers import (\n"
                  "    CALLER_LOCKED_RULE, Waiver, parse_waivers)\n"
                  "from repro.analysis.engine import META_RULE_IDS\n"
                  "from repro.analysis.report import merge_rule_ids\n"
                  "META = (\"waiver-syntax\", \"waiver-unused\")\n"
                  "\n"
                  "\n"
                  "def report(graph):\n"
                  "    graph = type(graph).from_arrays(graph.indptr)\n"
                  "    return {\"n_waived\": 0}\n")
        report = lint_sources({"repro.analysis.fixture": source})
        assert {v.rule for v in report.violations} == {"removed-spelling"}
        assert sorted(v.message.split()[2] for v in report.violations) \
            == sorted(['"n_waived"', '"waiver-syntax"', '"waiver-unused"',
                       "CALLER_LOCKED_RULE", "META_RULE_IDS", "Waiver",
                       "from_arrays", "merge_rule_ids", "parse_waivers"])


    def test_removed_spelling_pins_the_leaf_group_planner(self):
        """``POOLED_GROUP`` and ``shard_costs`` fire anywhere; ``balance``
        fires only as a ``ShardPlan`` member, so the word stays free
        elsewhere."""
        source = ("from repro.core.model import POOLED_GROUP\n"
                  "\n"
                  "\n"
                  "class ShardPlan:\n"
                  "    def balance(self):\n"
                  "        return self.shard_costs\n"
                  "\n"
                  "\n"
                  "def balance(plan):\n"
                  "    return plan\n")
        report = lint_sources({"repro.core.sharding": source})
        assert sorted((v.line, v.message.split()[2])
                      for v in report.violations) == [
            (1, "POOLED_GROUP"), (5, "balance"), (6, "shard_costs")]

    def test_removed_spelling_pins_the_folded_fleet_job(self):
        """``InferenceJob``, ``ShardExecutionError`` and
        ``run_inference_async`` fire anywhere; ``replan`` fires only
        under ``repro.core.sharding``, so the scheduler keeps the word."""
        sharding = ("class ShardPlan:\n"
                    "    def replan(self, keys):\n"
                    "        raise ShardExecutionError(keys)\n")
        scheduler = ("from repro.core.execution import InferenceJob\n"
                     "\n"
                     "\n"
                     "async def run_inference_async(job):\n"
                     "    return job.replan(InferenceJob)\n")
        report = lint_sources({"repro.core.sharding": sharding,
                               "repro.cluster.scheduler": scheduler})
        assert sorted((v.module, v.line, v.message.split()[2])
                      for v in report.violations
                      if v.rule == "removed-spelling") == [
            ("repro.cluster.scheduler", 1, "InferenceJob"),
            ("repro.cluster.scheduler", 4, "run_inference_async"),
            ("repro.cluster.scheduler", 5, "InferenceJob"),
            ("repro.core.sharding", 2, "replan"),
            ("repro.core.sharding", 3, "ShardExecutionError")]

    def test_removed_spelling_pins_the_served_model_slot(self):
        """``next_generation`` and ``_model_loaded_at`` fire anywhere:
        the slot's swap is the one numbering rule and the one stamp."""
        nrt = ("def next_generation(current, explicit):\n"
               "    return current + 1\n")
        front = ("from repro.serving.nrt import next_generation\n"
                 "\n"
                 "\n"
                 "class Front:\n"
                 "    def refresh_model(self, model):\n"
                 "        self._model_loaded_at = next_generation(0, None)\n")
        report = lint_sources({"repro.serving.nrt": nrt,
                               "repro.serving.async_front": front})
        assert sorted((v.module, v.line, v.message.split()[2])
                      for v in report.violations
                      if v.rule == "removed-spelling") == [
            ("repro.serving.async_front", 1, "next_generation"),
            ("repro.serving.async_front", 6, "_model_loaded_at"),
            ("repro.serving.async_front", 6, "next_generation"),
            ("repro.serving.nrt", 1, "next_generation")]

    def test_removed_spelling_pins_the_311_floor(self):
        """``_get_with_depth`` and ``get_event_loop`` fire anywhere: the
        consumer's timed get runs in its own task, and a coroutine asks
        for the running loop; ``get_running_loop`` and the builtin
        ``TimeoutError`` stay free, as does the word in a comment."""
        front = ("import asyncio\n"
                 "\n"
                 "\n"
                 "async def _get_with_depth(queue):\n"
                 "    return await queue.get(), queue.qsize() + 1\n")
        worker = ("import asyncio\n"
                  "\n"
                  "\n"
                  "async def run(job):\n"
                  "    # not get_event_loop: the running one\n"
                  "    loop = asyncio.get_running_loop()\n"
                  "    try:\n"
                  "        return await loop.run_in_executor(None, job)\n"
                  "    except TimeoutError:\n"
                  "        return asyncio.get_event_loop()\n")
        report = lint_sources({"repro.serving.async_front": front,
                               "repro.cluster.worker": worker})
        assert sorted((v.module, v.line, v.message.split()[2])
                      for v in report.violations
                      if v.rule == "removed-spelling") == [
            ("repro.cluster.worker", 10, "get_event_loop"),
            ("repro.serving.async_front", 4, "_get_with_depth")]

    def test_removed_spelling_pins_the_vocabulary_wrapper(self):
        """``Vocabulary`` and ``from_interned`` fire anywhere: a graph's
        vocabulary is a plain dict, and the word in prose stays free."""
        vocab = ("class Vocabulary(dict):\n"
                 "    # a vocabulary is a dict\n"
                 "    @classmethod\n"
                 "    def from_interned(cls, tokens):\n"
                 "        return cls(zip(tokens, range(len(tokens))))\n")
        report = lint_sources({"repro.core.vocab": vocab})
        assert sorted((v.line, v.message.split()[2])
                      for v in report.violations
                      if v.rule == "removed-spelling") == [
            (1, "Vocabulary"), (4, "from_interned")]

    def test_removed_spelling_pins_the_one_consumer_loop(self):
        """``event_retained`` and ``_submit_batch`` fire anywhere: a
        drained batch is one ``_hand_off``, and nothing probes whether
        an event is buffered."""
        nrt = ("class NRTService:\n"
               "    def event_retained(self, event):\n"
               "        return False\n")
        front = ("class AsyncNRTFront:\n"
                 "    def _submit_batch(self, stream, events):\n"
                 "        return stream.service.event_retained(events[0])\n")
        report = lint_sources({"repro.serving.nrt": nrt,
                               "repro.serving.async_front": front})
        assert sorted((v.module, v.line, v.message.split()[2])
                      for v in report.violations
                      if v.rule == "removed-spelling") == [
            ("repro.serving.async_front", 2, "_submit_batch"),
            ("repro.serving.async_front", 3, "event_retained"),
            ("repro.serving.nrt", 2, "event_retained")]

    def test_removed_spelling_pins_the_one_open_mode(self):
        """``mmap=`` fires as a parameter or keyword and ``"--mmap"`` as
        a string, anywhere: every open maps its payload, so neither
        names a mode; ``np.memmap`` and the word in prose stay free."""
        serialization = ("import numpy as np\n"
                         "\n"
                         "\n"
                         "def load_model(directory, mmap=False):\n"
                         "    # an mmap= comment is prose\n"
                         "    return np.memmap(directory, mode=\"r\")\n")
        cli = ("from repro.core.serialization import load_model\n"
               "\n"
               "\n"
               "def recommend(parser, path):\n"
               "    parser.add_argument(\"--mmap\")\n"
               "    return load_model(path, mmap=True)\n")
        report = lint_sources({"repro.core.serialization": serialization,
                               "repro.cli": cli})
        assert sorted((v.module, v.line, v.message.split()[2])
                      for v in report.violations
                      if v.rule == "removed-spelling") == [
            ("repro.cli", 5, '"--mmap"'), ("repro.cli", 6, "mmap="),
            ("repro.core.serialization", 4, "mmap=")]


class TestReportSchema:
    def test_json_shape(self):
        report = run(rules=[MonotonicClockRule()])
        payload = json.loads(report.to_json())
        assert payload["tool"] == "repro-lint"
        assert payload["schema_version"] == SCHEMA_VERSION
        assert SCHEMA_VERSION == 2
        assert set(payload) == {"tool", "schema_version", "root", "ok",
                                "n_files", "n_violations",
                                "violations_by_rule", "violations"}

    def test_by_rule_includes_zero_counts(self):
        report = run()
        by_rule = json.loads(report.to_json())["violations_by_rule"]
        # Every registered rule ran, and nothing else reports.
        assert set(by_rule) == set(rule_ids())

    def test_violation_entries_are_addressable(self):
        report = lint_fixture("clocks_bad.py", MonotonicClockRule())
        entry = report.as_dict()["violations"][0]
        assert set(entry) == {"rule", "path", "module", "line", "col",
                              "message"}
        assert entry["line"] > 0


class TestSplitFixture:
    def test_line_numbers_match_the_file_on_disk(self):
        text = (FIXTURES / "clocks_bad.py").read_text(encoding="utf-8")
        sections = split_fixture(text)
        report = lint_sources(sections, rules=[MonotonicClockRule()])
        file_lines = text.splitlines()
        for violation in report.violations:
            assert "time.time" in file_lines[violation.line - 1] or \
                "datetime.now" in file_lines[violation.line - 1]

    def test_multiple_sections(self):
        sections = split_fixture(
            (FIXTURES / "lazy_imports_bad.py").read_text(
                encoding="utf-8"))
        assert set(sections) == {"fix.a", "fix.b", "fix.util",
                                 "fix.eager", "fix.stale"}


class TestRepoWideGate:
    """The tier-1 gate: the codebase itself is lint-clean."""

    def test_repo_is_clean(self):
        report = run()
        assert report.ok, "\n" + report.render()
        assert report.n_files > 50  # really swept the package

    def test_every_registered_rule_has_an_id_and_description(self):
        ids = rule_ids()
        assert len(ids) == len(set(ids)) == len(RULE_CLASSES)
        for cls in RULE_CLASSES:
            assert cls.id and cls.description

    def test_monotonic_regression_retry_and_async_front(self):
        """Satellite pin: the retry policy and the async front's
        window timers carry no wall-clock reads (the PR 9 audit found
        none — this keeps it that way, file-scoped so the pin names
        the two files it protects)."""
        root = default_root()
        paths = [root / "cluster" / "retry.py",
                 root / "serving" / "async_front.py"]
        for path in paths:
            assert path.is_file()
        report = lint_files(paths, package_root=root,
                            rules=[MonotonicClockRule()])
        assert report.ok, report.render()
