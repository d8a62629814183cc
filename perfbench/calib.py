"""Reference work, timed next to each measurement to correct for host speed.

On a shared host the speed of a core drifts by up to about 2.5x, within
seconds as well as between minutes-long phases, and the two cores of a
2-vCPU host need not drift together.  A wall time measured in one such
phase says as much about the phase as about the program.  The benchmark
therefore runs on one core, times a fixed unit of reference work right
before and right after each op, and reports the op's time scaled by
``REF_S`` over the mean of the two: the time the op would take on a host
where the unit takes ``REF_S``.  A set-up probe times the unit once, right
after its timed import.  The reference is the benchmark's own code, not
the program's, so a change to the program moves the scaled time exactly as
it moves the wall time; the raw wall times stay in the run record and the
traced run.

The unit is the singular value decomposition of a fixed 100x100 matrix on
one BLAS thread followed by a pure-Python float loop of about the same
length, so that it slows with the host as both interpreted code and BLAS
do.  Units tried on a 2-vCPU Xeon host: this pair, a pure-Python loop,
a function-call-heavy Python loop, numpy elementwise work on 2000-wide
arrays, and the SVD alone.  Timing eight ops of all four workloads twelve
times each, the spread (IQR / median) of a single op's time was 0.14-0.34
unscaled, 0.09-0.26 scaled by the SVD alone, and 0.09-0.19 scaled by this
pair, the lowest mean over the eight ops.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# one unit's time at the reference speed, about the median that the
# 2-vCPU Xeon host the benchmark was tuned on gives during a run
REF_S = 0.003
REPS = 5
_MATRIX = np.random.default_rng(0).random((100, 100))


def _unit() -> float:
    np.linalg.svd(_MATRIX)
    acc = 0.0
    for i in range(6000):
        acc += math.sin(i * 1e-3) * (i % 7)
    return acc


def unit_s() -> float:
    """Median time of REPS runs of the reference unit."""
    times = []
    for _ in range(REPS):
        t0 = time.perf_counter()
        _unit()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` at the reference speed, given the unit times around it."""
    return seconds * REF_S / ((before + after) / 2.0)
