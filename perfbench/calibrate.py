"""Reference work that measures how fast the machine runs during a run.

On a shared host the speed of a vCPU drifts by 20% and more over tens of
seconds, as neighbours load the physical cores, and every request of a run
slows or speeds up with it. Two references measure that speed with fixed
work that uses no mvgear code, so no change to the program can change their
time:

- ``reference()`` does the kinds of work a request does (CSV text parsed
  cell by cell in Python, a covariance, symmetric eigendecompositions,
  floats written out as JSON) on a fixed input that does not depend on the
  seed. ``Reference`` times it between requests all through a run and
  scales each in-process timing by the reference times taken around it.
- ``process_reference()`` starts a fresh interpreter that imports the
  program's third-party dependencies, the bulk of a cold start; each cold
  start is scaled by the process references run just before and after it.
"""

from __future__ import annotations

import bisect
import csv
import io
import json
import subprocess
import sys
import threading
import time

import numpy as np

import stats

# Bound here, before a traced run patches numpy.linalg.eigh, so that the
# reference work never shows up as spans.
_EIGH = np.linalg.eigh

ROWS, COLS = 100, 60
# Eigendecompositions of a SIDE x SIDE matrix, a third or so of the kernel,
# as in the shrinkage sweeps.
SIDE, EIGHS = 160, 2
# Typical times of the two references on a quiet 2-vCPU machine with
# Python 3.11, numpy 2.4, scipy 1.17 and one OpenBLAS thread, as measured
# inside benchmark runs. They only set the scale of the reported timings;
# the steadiness comes from the ratios.
NOMINAL_S = 0.013
PROCESS_NOMINAL_S = 0.65
# What mvgear imports from outside the standard library.
PROCESS_CODE = "import numpy, scipy.linalg, scipy.optimize"

_RNG = np.random.default_rng(20210714)
_TEXT = "\n".join(",".join(format(x, ".10g") for x in row)
                  for row in _RNG.normal(0.01, 0.05, (ROWS, COLS)))
_SQUARE = np.cov(_RNG.standard_normal((2 * SIDE, SIDE)), rowvar=False)


def reference() -> float:
    """One pass of the reference work; returns a checksum of its result."""
    data = np.empty((ROWS, COLS))
    for i, row in enumerate(csv.reader(io.StringIO(_TEXT))):
        for j, cell in enumerate(row):
            data[i, j] = float(cell.strip())
    cov = np.cov(data, rowvar=False)
    values, vectors = _EIGH(cov)
    text = json.dumps({"values": values.tolist(), "cov": cov.tolist()})
    top = sum(float(_EIGH(_SQUARE)[0][-1]) for _ in range(EIGHS))
    return float(values[-1]) + len(text) + float(vectors[0, 0]) + top


def run_timed(cmd, env: dict, cwd=None, timeout: float = 120.0) -> tuple[float, int]:
    """Wall seconds and exit code of the process ``cmd``.

    ``subprocess.run(timeout=...)`` polls for the exit every 50 ms, which
    rounds a 0.7 s cold start to a multiple of 50 ms; here the wait blocks
    and a timer kills the process if it outlives ``timeout``.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.DEVNULL)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        code = proc.wait()
    finally:
        timer.cancel()
    return time.perf_counter() - t0, code


def process_reference(env: dict) -> float:
    """Seconds taken by a fresh interpreter that imports PROCESS_CODE."""
    seconds, code = run_timed([sys.executable, "-c", PROCESS_CODE], env)
    if code != 0:
        raise RuntimeError(f"process reference exited with {code}")
    return seconds


class Reference:
    """Times of the reference kernel, taken all through a run.

    A timing from ``start`` to ``end`` is scaled by ``NOMINAL_S`` over the
    median of the reference times taken from ``WINDOW_S`` before it to
    ``WINDOW_S`` after it, or, where fewer than ``NEAREST`` were taken
    there, of the ``NEAREST`` taken closest to its middle.
    """

    WINDOW_S = 2.0
    NEAREST = 15

    def __init__(self, every_s: float):
        self.every_s = every_s
        self.stamps: list[float] = []
        self.times: list[float] = []
        self.last = -float("inf")

    def run(self) -> float:
        """Time one reference call after an untimed one that warms the caches
        the program left cold; returns how long both took."""
        t0 = time.perf_counter()
        reference()
        t1 = time.perf_counter()
        reference()
        t2 = time.perf_counter()
        self.stamps.append(0.5 * (t1 + t2))
        self.times.append(t2 - t1)
        self.last = t2
        return t2 - t0

    def due(self) -> float:
        """Run the kernel if ``every_s`` has passed since it last ran;
        returns the time that took, or 0."""
        if time.perf_counter() - self.last < self.every_s:
            return 0.0
        return self.run()

    def factor(self) -> float:
        """Factor from every reference time of the run."""
        return NOMINAL_S / stats.median(self.times)

    def factor_over(self, start: float, end: float) -> float:
        lo = bisect.bisect_left(self.stamps, start - self.WINDOW_S)
        hi = bisect.bisect_right(self.stamps, end + self.WINDOW_S)
        if hi - lo >= self.NEAREST:
            times = self.times[lo:hi]
        else:
            times = nearest(self.stamps, self.times, 0.5 * (start + end), self.NEAREST)
        return NOMINAL_S / stats.median(times)

    def scale(self, start: float, duration: float) -> float:
        return duration * self.factor_over(start, start + duration)


def nearest(stamps, values, t: float, count: int) -> list[float]:
    """The ``count`` values whose (ascending) stamps are nearest to ``t``."""
    lo = hi = bisect.bisect_left(stamps, t)
    while hi - lo < count and (lo > 0 or hi < len(stamps)):
        if hi == len(stamps) or (lo > 0 and t - stamps[lo - 1] <= stamps[hi] - t):
            lo -= 1
        else:
            hi += 1
    return values[lo:hi]
