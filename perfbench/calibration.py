"""Machine-speed calibration of the end-to-end times.

The benchmark runs on a few cores of a shared host whose speed changes by up
to 2.3x within an hour: the same (2,2,2) solve iteration takes 0.28 ms at one
time and 0.55-0.70 ms at another.  Process CPU time follows wall time, so the
slowdown cannot be separated from inside the process.  Ten runs of the same
code that straddle such a change spread by 100% of their median.

A fixed reference kernel, which never calls the program, is therefore timed
in the measuring process before and after every operation and set-up probe.
The kernel mixes the three kinds of work the workloads do:

* interpreted Python on tuples and dicts, as in assembly;
* many small ``eigh`` calls and array products, as in (2,2,2) projections;
* one LU factorisation with solves and one 200-row ``eigh``, as in the
  larger solves.

Every end-to-end time is reported at the reference speed, the speed at which
one kernel pass takes ``REFERENCE_S``.  The machine's speed during an
operation is pooled from the kernel samples taken within ``WINDOW_S`` of it,
and always from the sample just before and the one just after it:

    speed    = sum(kernel seconds) / sum(kernel passes) / REFERENCE_S
    reported = measured / speed

A change to the program moves the reported time exactly as it moves the
measured one; a change of the machine's speed moves both the measured time
and the kernel, and cancels.  The machine's speed drifts over seconds, so
samples near the operation follow it better than one factor for the whole
run; and a single pass is as noisy as a short operation, so the window pools
several.  Each sample runs for about ``SHARE`` of the time it follows, so
that the samples cover the run evenly in time.
"""

from __future__ import annotations

import statistics
import time
from typing import NamedTuple

import numpy as np
import scipy.linalg

# One kernel pass at the reference speed, close to its median on the
# 2-vCPU machine the bounds were set on.
REFERENCE_S = 0.040
# Kernel time per second of measured time, and the passes of one sample.
SHARE = 0.1
MIN_PASSES, MAX_PASSES = 1, 25
# Samples this close to an operation calibrate it.
WINDOW_S = 5.0


class Sample(NamedTuple):
    at: float  # perf_counter() at the middle of the sample
    seconds: float
    passes: int


def pooled_speed(samples) -> float:
    """The machine's speed over the samples relative to the reference: 2.0 on
    a machine half as fast."""
    return sum(s.seconds for s in samples) / sum(s.passes for s in samples) / REFERENCE_S


class Calibration:
    """Times the reference kernel; keeps every sample of the run."""

    def __init__(self):
        self.samples: list[Sample] = []
        rng = np.random.default_rng(0)
        small = rng.standard_normal((24, 24))
        self._small = small @ small.T
        mid = rng.standard_normal((200, 200))
        self._mid = mid @ mid.T
        self._lu = rng.standard_normal((400, 400))
        self._rhs = rng.standard_normal(400)

    def _kernel(self) -> None:
        table: dict[tuple[int, int, int], float] = {}
        for i in range(30000):
            key = (i % 97, i % 89, i % 3)
            table[key] = table.get(key, 0.0) + 0.5 * i
        for _ in range(150):
            w, v = np.linalg.eigh(self._small)
            np.maximum(w, 0.0, out=w)
            (v * w) @ v.T
        lu = scipy.linalg.lu_factor(self._lu)
        for _ in range(20):
            scipy.linalg.lu_solve(lu, self._rhs)
        np.linalg.eigh(self._mid)

    def sample(self, follows_s: float) -> None:
        """Time kernel passes for about ``SHARE`` of ``follows_s``, the
        measured time just before the sample."""
        passes = min(MAX_PASSES, max(MIN_PASSES, round(SHARE * follows_s / REFERENCE_S)))
        t0 = time.perf_counter()
        for _ in range(passes):
            self._kernel()
        t1 = time.perf_counter()
        self.samples.append(Sample(0.5 * (t0 + t1), t1 - t0, passes))

    def speed(self, start: float, end: float) -> float:
        """The machine's speed around the interval [start, end] of
        ``perf_counter()`` time.  Needs a sample before and one after it."""
        before = max((s for s in self.samples if s.at < start), key=lambda s: s.at)
        after = min((s for s in self.samples if s.at > end), key=lambda s: s.at)
        near = {before, after}
        near.update(s for s in self.samples if start - WINDOW_S <= s.at <= end + WINDOW_S)
        return pooled_speed(near)

    @property
    def median_speed(self) -> float:
        return statistics.median(pooled_speed([s]) for s in self.samples)
