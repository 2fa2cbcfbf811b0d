"""Shared benchmark fixtures.

One :class:`~repro.eval.harness.Experiment` (the paper's full pipeline on
the default synthetic profile) is simulated once per session and shared by
every table/figure bench.  Rendered tables are written to
``benchmarks/results/`` (generated, gitignored).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.eval import Experiment

from _helpers import RESULTS_DIR


@pytest.fixture(scope="session")
def experiment() -> Experiment:
    """The shared, fully-prepared default experiment."""
    return Experiment().prepare()


@pytest.fixture(scope="session")
def results_dir() -> Path:
    """Directory where benches drop their rendered outputs."""
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR
