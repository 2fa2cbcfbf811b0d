"""Tests for repro-lint (:mod:`repro.analysis`).

Three layers, mirroring how the pass is trusted:

* **Per-rule fixtures** — every rule has a failing and a passing
  fixture under ``tests/analysis_fixtures/``; the bad one must fire
  (on the right lines, for the right reasons) and the good one must be
  silent, so a rule that rots in either direction fails here first.
* **The waiver/report machinery** — parsing, application, the
  waiver-syntax/waiver-unused meta-rules, and the JSON schema CI
  consumes.
* **The repo itself** — the pass must exit clean over ``src/repro``
  (the CI gate, asserted in-process), and the monotonic-clock rule
  doubles as the regression pin that ``retry.py`` and the async
  front's window timers stay wall-clock-free.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import (META_RULE_IDS, RULE_CLASSES, SCHEMA_VERSION,
                            default_root, lint_files, lint_sources,
                            rule_ids, run, split_fixture)
from repro.analysis.rules.async_blocking import AsyncNoBlockingRule
from repro.analysis.rules.clocks import MonotonicClockRule
from repro.analysis.rules.lazy_imports import LazyImportContractRule
from repro.analysis.rules.mmap_safety import MmapWriteSafetyRule
from repro.analysis.rules.pickle_boundary import NoPickleBoundaryRule
from repro.analysis.rules.removed_spelling import RemovedSpellingRule
from repro.analysis.rules.store_lock import StoreLockDisciplineRule
from repro.analysis.waivers import parse_waivers

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
                           "shutil.rmtree"}

    def test_store_lock_good_waiver_is_used(self):
        report = lint_fixture("store_lock_good.py",
                              StoreLockDisciplineRule())
        # The caller-locked function's finding is waived, not absent.
        assert len(report.waived) == 1
        assert report.waived[0].rule == "store-lock-discipline"

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
            (35, '"--spool"')]

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


class TestWaiverParsing:
    def test_full_form(self):
        (waiver,) = parse_waivers(
            "x = 1  # lint: waive monotonic-clock: report stamp\n",
            "<m>", "m")
        assert waiver.rules == ["monotonic-clock"]
        assert waiver.reason == "report stamp"

    def test_multi_rule(self):
        (waiver,) = parse_waivers(
            "# lint: waive async-no-blocking, monotonic-clock: "
            "teardown\n", "<m>", "m")
        assert waiver.rules == ["async-no-blocking", "monotonic-clock"]

    def test_caller_locked_shorthand(self):
        (waiver,) = parse_waivers(
            "# lint: caller-locked: flush owns the lock\n", "<m>", "m")
        assert waiver.rules == ["store-lock-discipline"]
        assert waiver.reason == "flush owns the lock"

    def test_missing_reason_is_kept_but_empty(self):
        (waiver,) = parse_waivers(
            "# lint: waive monotonic-clock\n", "<m>", "m")
        assert waiver.rules == ["monotonic-clock"]
        assert waiver.reason == ""

    def test_malformed_yields_empty_rules(self):
        (waiver,) = parse_waivers(
            "# lint: disable-everything\n", "<m>", "m")
        assert waiver.rules == []

    def test_quoted_examples_in_strings_do_not_count(self):
        source = ('DOC = """usage: # lint: waive monotonic-clock: '
                  'x"""\n')
        assert parse_waivers(source, "<m>", "m") == []

    def test_prose_mentioning_lint_does_not_count(self):
        assert parse_waivers(
            "# see '# lint: waive ...' in the docs\n", "<m>", "m") == []


class TestWaiverEnforcement:
    SOURCE_STALE = "def f():\n    return 1  # lint: waive monotonic-clock: stale\n"
    SOURCE_NO_REASON = ("import time\n\n\ndef f():\n"
                        "    return time.time()  # lint: waive monotonic-clock\n")
    SOURCE_MALFORMED = "x = 1  # lint: suppress everything\n"

    def _lint(self, source):
        return lint_sources({"repro.cluster.fixture": source},
                            rules=[MonotonicClockRule()])

    def test_unused_waiver_is_a_violation(self):
        report = self._lint(self.SOURCE_STALE)
        assert [v.rule for v in report.violations] == ["waiver-unused"]

    def test_reasonless_waiver_does_not_suppress(self):
        report = self._lint(self.SOURCE_NO_REASON)
        assert {v.rule for v in report.violations} == \
            {"monotonic-clock", "waiver-syntax"}

    def test_malformed_waiver_is_a_violation(self):
        report = self._lint(self.SOURCE_MALFORMED)
        assert [v.rule for v in report.violations] == ["waiver-syntax"]

    def test_used_waiver_moves_finding_to_waived(self):
        source = ("import time\n\n\ndef f():\n"
                  "    # lint: waive monotonic-clock: operator stamp\n"
                  "    return time.time()\n")
        report = self._lint(source)
        assert report.ok
        assert len(report.waived) == 1
        assert report.waivers[0].used


class TestReportSchema:
    def test_json_shape(self):
        report = run(rules=[MonotonicClockRule()])
        payload = json.loads(report.to_json())
        assert payload["tool"] == "repro-lint"
        assert payload["schema_version"] == SCHEMA_VERSION
        assert set(payload) >= {"root", "ok", "n_files",
                                "n_violations", "n_waived",
                                "violations_by_rule", "violations",
                                "waived", "waivers"}

    def test_by_rule_includes_zero_counts(self):
        report = run()
        by_rule = json.loads(report.to_json())["violations_by_rule"]
        for rule_id in rule_ids() + list(META_RULE_IDS):
            assert rule_id in by_rule  # proves every rule ran

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
        none — this keeps it that way, file-scoped so the pin holds
        even if the repo-wide gate gains waivers)."""
        root = default_root()
        paths = [root / "cluster" / "retry.py",
                 root / "serving" / "async_front.py"]
        for path in paths:
            assert path.is_file()
        report = lint_files(paths, package_root=root,
                            rules=[MonotonicClockRule()])
        assert report.ok, report.render()
        assert report.waivers == []  # clean outright, not waived
