"""Time propagation and steady states of a model's generator.

Propagation exponentiates the full 9x9 Liouvillian (the generators here are
time independent and tiny, so exactness beats ODE stepping).  Uniform grids
reuse the exponential of the common step.
"""

from __future__ import annotations

import numpy as np

from .defaults import TRACE_DRIFT, TRACE_FLOOR
from .errors import NonUniqueSteadyStateError, PropagationError
from .linalg import hermitize, mat_exp, null_space, unvec, vec
from .systems import LindbladModel


def liouvillian(model: LindbladModel) -> np.ndarray:
    """The 9x9 generator L of ``model`` (``model.generator``), assembled
    and checked for trace preservation once per model."""
    return model.generator


def propagate_vectors(generator: np.ndarray, v0: np.ndarray,
                      times: np.ndarray) -> np.ndarray:
    """Columns exp(G t_j) v0 for an increasing grid starting at >= 0.

    Each step multiplies by the exponential of its length.  Step lengths
    that agree to a few ulps of the grid end share one cached exponential,
    so any uniform grid, ``linspace`` included, costs a single one.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("times must be a non-empty 1-D grid")
    if times[0] < 0 or np.any(np.diff(times) <= 0):
        raise ValueError("times must be strictly increasing and start at >= 0")
    # linspace rounds every point to within half an ulp of the grid end
    width = 4.0 * np.spacing(times[-1])
    dts = np.diff(times, prepend=0.0)
    keys = np.rint(dts / width).astype(np.int64)
    cache: dict[int, np.ndarray] = {}
    out = np.empty((times.size, v0.size), dtype=complex)
    v = np.asarray(v0, dtype=complex)
    for j, (dt, key) in enumerate(zip(dts.tolist(), keys.tolist())):
        if dt > 0:
            step = cache.get(key)
            if step is None:
                step = cache.get(key - 1, cache.get(key + 1))
            if step is None:
                step = cache[key] = mat_exp(generator, dt)
            v = step @ v
        out[j] = v
    return out.T


def propagate_series(l: np.ndarray, rho0: np.ndarray,
                     times: np.ndarray) -> np.ndarray:
    """(len(times), 3, 3) stack of the states at the given times
    (increasing, starting at >= 0).

    Steps share cached exponentials (see :func:`propagate_vectors`); every
    state is re-Hermitized and its trace checked.
    """
    vs = propagate_vectors(l, vec(rho0), times)
    # row k of vs.T is vec(rho_k), i.e. rho_k transposed in row-major order
    rhos = hermitize(np.swapaxes(vs.T.reshape(-1, 3, 3), -1, -2))
    drift = np.abs(np.trace(rhos, axis1=1, axis2=2).real - 1.0)
    bad = np.flatnonzero(drift > TRACE_DRIFT)
    if bad.size:
        raise PropagationError(f"trace drifted by {drift[bad[0]]:.3e}",
                               time=float(np.asarray(times)[bad[0]]))
    return rhos


def steady_state(l: np.ndarray) -> np.ndarray:
    """Unique unit-trace Hermitian null vector of the Liouvillian.

    Raises NonUniqueSteadyStateError when the null space is not
    one-dimensional, e.g. for decoupled levels or dark-state manifolds.
    """
    basis = null_space(l)
    if len(basis) != 1:
        raise NonUniqueSteadyStateError(dimension=len(basis))
    rho = hermitize(unvec(basis[0]))
    tr = float(np.trace(rho).real)
    if abs(tr) < TRACE_FLOOR:
        raise NonUniqueSteadyStateError(dimension=len(basis))
    return rho / tr
