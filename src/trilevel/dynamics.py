"""Time propagation and steady states of a model's generator.

Propagation exponentiates the full 9x9 Liouvillian (the generators here are
time independent and tiny, so exactness beats ODE stepping).  Steps whose
lengths agree to a few ulps of the grid end share one exponential E, and a
run of n such steps is filled by doubling: E^m times the first m states
E v ... E^m v gives the next m, then E^m is squared, so the run costs about
2 log2 n small matrix products.  A uniform grid is one run; a ragged grid is
runs of length one, one exponential and one product per step.
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


def _shared_keys(keys: np.ndarray) -> np.ndarray:
    """The key of the exponential each step uses, given its own key.

    Taken in grid order, a step uses the cached exponential of its key,
    else of key - 1, else of key + 1, and caches a new one under its key
    only when none of the three exists.  Only a key's first step can do
    that, so one pass over the distinct keys settles the cache; a later
    step of an uncached key then takes key - 1 once it exists, else key + 1.
    """
    distinct, first = np.unique(keys, return_index=True)
    born: dict[int, int] = {}  # cached key -> the step that cached it
    for j, key in sorted(zip(first.tolist(), distinct.tolist())):
        if key - 1 not in born and key + 1 not in born:
            born[key] = j
    if len(born) == distinct.size:
        return keys  # every key cached its own exponential
    # per distinct key: the shift its steps take from step `switch` on
    # (0 if it is cached, else -1 once key - 1 is), and +1 before that step
    switch, late = np.array([(0, 0) if key in born
                             else (born.get(key - 1, keys.size), -1)
                             for key in distinct.tolist()]).T
    index = np.searchsorted(distinct, keys)
    steps = np.arange(keys.size)
    return keys + np.where(steps >= switch[index], late[index], 1)


def _fill_powers(step: np.ndarray, v: np.ndarray, rows: np.ndarray) -> None:
    """rows[i] = step^(i+1) v, by doubling the filled rows each pass."""
    rows[0] = step @ v
    power = step.T  # rows are multiplied from the right
    done = 1
    while done < len(rows):
        k = min(done, len(rows) - done)
        np.matmul(rows[:k], power, out=rows[done:done + k])
        done += k
        if done < len(rows):
            power = power @ power


def propagate_vectors(generator: np.ndarray, v0: np.ndarray,
                      times: np.ndarray) -> np.ndarray:
    """Columns exp(G t_j) v0 for a finite, increasing grid starting at >= 0.

    Step lengths that agree to a few ulps of the grid end share one cached
    exponential, so any uniform grid, ``linspace`` included, costs a single
    one; a grid with steps a, b, a reuses exp(G a).  Each run of steps
    sharing an exponential E is filled by doubling (E^m times the first m
    columns, then E^m squared), so it costs about 2 log2 of its length in
    small products.  There is no loop over grid points.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("times must be a non-empty 1-D grid")
    if not np.isfinite(times).all():
        raise ValueError("times grid has non-finite entries: "
                         f"{times[~np.isfinite(times)][:3].tolist()}")
    dts = np.diff(times, prepend=0.0)
    if times[0] < 0 or (dts[1:] <= 0).any():
        raise ValueError("times must be strictly increasing and start at >= 0")
    v = np.asarray(v0, dtype=complex)
    out = np.empty((times.size, v.size), dtype=complex)
    lead = int(times[0] == 0.0)  # a grid from t = 0 starts with v0 itself
    out[:lead] = v
    if lead == times.size:
        return out.T
    # linspace rounds every point to within half an ulp of the grid end
    width = 4.0 * np.spacing(times[-1])
    dts = dts[lead:]
    keys = _shared_keys(np.rint(dts / width).astype(np.int64))
    bounds = [0, *(np.flatnonzero(np.diff(keys)) + 1).tolist(), keys.size]
    cache: dict[int, np.ndarray] = {}
    rows = out[lead:]
    for start, stop in zip(bounds[:-1], bounds[1:]):
        key = int(keys[start])
        step = cache.get(key)
        if step is None:
            step = cache[key] = mat_exp(generator, dts[start])
        _fill_powers(step, v, rows[start:stop])
        v = rows[stop - 1]
    return out.T


def propagate_series(l: np.ndarray, rho0: np.ndarray,
                     times: np.ndarray) -> np.ndarray:
    """(len(times), 3, 3) stack of the states at the given times
    (finite, increasing, starting at >= 0).

    The series is :func:`propagate_vectors` of vec(rho0): shared cached
    exponentials, each uniform run filled by doubling.  A rho0 whose trace
    is off 1 by more than TRACE_DRIFT is bad input (ValueError); every
    propagated state is re-Hermitized and a trace that drifts that far is
    an internal failure (PropagationError).
    """
    rho0 = np.asarray(rho0, dtype=complex)
    trace0 = float(np.trace(rho0).real)
    if abs(trace0 - 1.0) > TRACE_DRIFT:
        raise ValueError(f"rho0 has trace {trace0:.6g}, not 1")
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
