"""Speed-normalised sampling and the summary statistics built on it.

A *sample* is one timed operation bracketed by calibration readings,
two on each side (adjacent readings of the 4 ms kernel differ by
+-20 % on this box; a second pair cuts the per-sample scatter of the
steadier ops by a third, a third pair adds nothing)::

    c0 = calibrate() x2; gc.collect(); t = timed(op); c1 = calibrate() x2
    factor = mean(c0 + c1) / CALIB_REF_S        # >1: box is slow now
    value  = t / factor                         # normalised seconds

Nothing is gated on "quiet" readings (that starves samples); every
sample is kept and normalised.  GC stays enabled inside the operation.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from calibrate import CALIB_REF_S, calibrate

#: Kernel readings taken on each side of a timed operation.
READINGS_PER_SIDE = 2

#: Percentiles a tail may be reported at.
TAIL_LADDER = (50, 66, 75, 80, 90, 95, 99)


@dataclass(frozen=True)
class Sample:
    """One timed operation: wall seconds and the speed factor around it."""

    wall_s: float
    factor: float

    @property
    def norm_s(self) -> float:
        return self.wall_s / self.factor


class Sampler:
    """Times operations between calibration readings.

    ``clock`` and ``calibrate`` are injectable so the tests can drive a
    fake clock through a simulated slowdown.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 calibrate: Callable[[], float] = calibrate) -> None:
        self._clock = clock
        self._calibrate = calibrate
        self.factors: List[float] = []

    def sample(self, op: Callable[[], object]):
        """Run ``op`` once; returns ``(Sample, op's return value)``."""
        readings = [self._calibrate() for _ in range(READINGS_PER_SIDE)]
        gc.collect()
        start = self._clock()
        result = op()
        wall = self._clock() - start
        readings += [self._calibrate() for _ in range(READINGS_PER_SIDE)]
        factor = statistics.fmean(readings) / CALIB_REF_S
        self.factors.append(factor)
        return Sample(wall, factor), result


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (numpy's default rule)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(n_samples: int) -> int:
    """Highest ladder percentile with at least ten samples beyond it."""
    best = TAIL_LADDER[0]
    for pct in TAIL_LADDER:
        if n_samples * (100 - pct) / 100.0 >= 10:
            best = pct
    return best


def summarise(op_samples: Sequence[Sample], units_per_op: float,
              tail_pct: int,
              latency_samples: Optional[Sequence[Sample]] = None
              ) -> Dict[str, float]:
    """End-to-end timing metrics of one workload, normalised and raw.

    ``op_samples`` give throughput (units per median normalised op
    time).  Latency comes from ``latency_samples`` when the workload
    measures it separately (the paced NRT phase), else from the same
    op samples — on a closed loop with one caller the two are the same
    measurement in two units.
    """
    latency = op_samples if latency_samples is None else latency_samples
    out: Dict[str, float] = {}
    for prefix, pick in (("", lambda s: s.norm_s),
                         ("wall.", lambda s: s.wall_s)):
        op_times = [pick(s) for s in op_samples]
        lat_times = [pick(s) for s in latency]
        out[prefix + "throughput_per_s"] = \
            units_per_op / statistics.median(op_times)
        out[prefix + "latency_p50_ms"] = \
            statistics.median(lat_times) * 1e3
        out[prefix + "latency_tail_ms"] = \
            percentile(lat_times, tail_pct) * 1e3
    return out


def median_sample(samples: Sequence[Sample]) -> Dict[str, float]:
    """Normalised and raw median seconds of repeated samples."""
    return {"norm_s": statistics.median(s.norm_s for s in samples),
            "wall_s": statistics.median(s.wall_s for s in samples)}
