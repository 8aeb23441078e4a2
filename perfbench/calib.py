"""Fixed reference kernel that calibrates item times against host speed.

The kernel mimics the program's cost mix (9x9 matrix exponentials, small
numpy calls, a pure-Python loop) and never imports the program, so a change
to the program cannot change it.  A time measured next to the kernel is
reported as  t / t_kernel * NOMINAL_S: when the host slows down both slow
down, and the ratio stays put.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np
import scipy.linalg

# Median kernel time on the reference host (2-core x86-64 container,
# Python 3.11, numpy 2.4, scipy 1.17, one BLAS thread); see README.md.
NOMINAL_S = 0.0025

_rng = np.random.default_rng(271828)
_G = (0.6 * (_rng.standard_normal((9, 9)) + 1j * _rng.standard_normal((9, 9)))
      - 2.0 * np.eye(9))
_V0 = _rng.standard_normal(9) + 0j
_TAUS = (0.05, 0.1, 0.2, 0.4)
_FLOATS = [float(x) for x in _rng.uniform(-1.0, 1.0, 3000)]
_N_EXPM = 60


def kernel() -> float:
    v = _V0.copy()
    acc = 0.0
    for k in range(_N_EXPM):
        v = scipy.linalg.expm(_G * _TAUS[k % 4]) @ v
        v /= np.linalg.norm(v)
        acc += abs(complex(v[k % 9]))
    for x in _FLOATS:
        acc += x * x - 0.5 * x
    return acc


def timed(repeats: int = 1) -> float:
    """Mean seconds of `repeats` kernel calls; results are checked."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = kernel()
        times.append(time.perf_counter() - t0)
        if not math.isfinite(out):
            raise RuntimeError("reference kernel gave a non-finite result")
    return statistics.fmean(times)
