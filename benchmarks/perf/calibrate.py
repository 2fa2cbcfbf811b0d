"""The frozen calibration kernel every timed sample is divided by.

This guest runs slower for seconds at a time (same CPU time, same
steal, longer wall), so raw wall-clock medians of identical code drift
by 10-30 % between runs.  Each timed sample is therefore bracketed by
two readings of this kernel and reported in *normalised seconds* —
seconds at the speed at which the kernel takes :data:`CALIB_REF_S`.

The kernel mixes the four kinds of work the system does, in roughly
equal parts: interpreter-bound dict updates (title interning), object
allocation and string joins (row materialisation), cache-resident
vector ops (``bincount`` / stable ``argsort``) and a cache-missing
gather over a 32 MB array (the CSR adjacency gather).  The gather is
what makes it track the slow spells: they are memory contention, and a
cache-resident kernel alone speeds up and slows down more than the
engine does (README, "Why normalise").

It is frozen with the benchmark: any edit changes every normalised
number, so it bumps :data:`BENCHMARK_VERSION`.
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np

#: Bumped whenever the kernel, a workload's shape or a metric's
#: definition changes; numbers compare only within one version.
BENCHMARK_VERSION = 1

#: Kernel time at reference speed.  A constant, never re-measured: it
#: only fixes the unit, so that normalised seconds read like wall
#: seconds on the box the benchmark was sized on.
CALIB_REF_S = 0.004

_SORT_KEYS = (np.arange(50_000, dtype=np.int64) * 7) % 4093
_GATHER_FROM = np.arange(4_000_000, dtype=np.int64)
_GATHER_AT = (np.arange(100_000, dtype=np.int64) * 2654435761) % 4_000_000
_TOKENS = [f"tok{i}" for i in range(1500)]


def calibrate(clock: Callable[[], float] = time.perf_counter) -> float:
    """Run the kernel once and return its duration in seconds."""
    start = clock()
    counts: dict = {}
    get = counts.get
    for i in range(8000):
        key = i & 1023
        counts[key] = get(key, 0) + i
    rows = [(token, i, float(i)) for i, token in enumerate(_TOKENS)]
    joined = [" ".join(pair) for pair in zip(_TOKENS, _TOKENS[1:])]
    np.bincount(_SORT_KEYS)
    np.argsort(_SORT_KEYS, kind="stable")
    _GATHER_FROM[_GATHER_AT].sum()
    del rows, joined
    return clock() - start
