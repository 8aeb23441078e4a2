"""Time propagation and steady states of a model's generator.

Propagation exponentiates the full 9x9 Liouvillian (the generators here are
time independent and tiny, so exactness beats ODE stepping).  Steps fall
into length classes a few ulps of the grid end wide, whatever their order,
and each class shares one exponential E.  A run of n consecutive steps of
one class is filled by doubling: E^m times the first m states
E v ... E^m v gives the next m, then E^m is squared, so the run costs about
2 log2 n small matrix products.  A uniform grid is one run; a ragged grid is
runs of length one, one exponential and one product per step.  The jump
sampler's no-jump table is filled by the same doubling.
"""

from __future__ import annotations

import numpy as np

from .defaults import STEP_SHARE, TRACE_DRIFT, TRACE_FLOOR
from .errors import NonUniqueSteadyStateError, PropagationError
from .linalg import (check_density_matrix, check_grid, hermitize, mat_exp,
                     null_space, unvec, vec)
from .systems import LindbladModel


def liouvillian(model: LindbladModel) -> np.ndarray:
    """The 9x9 generator L of ``model`` (``model.generator``), assembled
    and checked for trace preservation once per model."""
    return model.generator


def _length_classes(dts: np.ndarray, width: float) -> np.ndarray:
    """The class of each step length.  In sorted order, a step opens a new
    class when it is more than ``width`` longer than its class's shortest
    step, so a class spans at most ``width``; the order of the grid does
    not matter."""
    lengths = np.sort(dts)
    opens = [0]  # sorted position of each class's shortest step
    while (stop := int(np.searchsorted(lengths, lengths[opens[-1]] + width,
                                       side="right"))) < lengths.size:
        opens.append(stop)
    return np.searchsorted(lengths[opens], dts, side="right") - 1


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

    Steps fall into length classes no wider than STEP_SHARE ulps of the
    grid end, and each class shares one exponential, taken at the length
    of its first step: any uniform grid, ``linspace`` included, costs a
    single one, and a grid with steps a, b, a, b costs two.  Each run of
    consecutive steps of one class is filled by doubling (E^m times the
    first m columns, then E^m squared), so it costs about 2 log2 of its
    length in small products.  There is no loop over grid points.
    """
    times = check_grid(times, "times")
    dts = np.diff(times, prepend=0.0)
    if times[0] < 0 or (dts[1:] <= 0).any():
        raise ValueError("times must be strictly increasing and start at >= 0")
    v = np.asarray(v0, dtype=complex)
    if v.shape != np.shape(generator)[-1:]:
        raise ValueError(f"v0 has shape {v.shape}, but the generator is "
                         f"{'x'.join(map(str, np.shape(generator)))}")
    out = np.empty((times.size, v.size), dtype=complex)
    lead = int(times[0] == 0.0)  # a grid from t = 0 starts with v0 itself
    out[:lead] = v
    if lead == times.size:
        return out.T
    dts = dts[lead:]
    classes = _length_classes(dts, STEP_SHARE * np.spacing(times[-1]))
    bounds = [0, *(np.flatnonzero(np.diff(classes)) + 1).tolist(), dts.size]
    cache: dict[int, np.ndarray] = {}
    rows = out[lead:]
    for start, stop in zip(bounds[:-1], bounds[1:]):
        # a class's first run in grid order starts at its first step
        cls = int(classes[start])
        step = cache.get(cls)
        if step is None:
            step = cache[cls] = mat_exp(generator, dts[start])
        _fill_powers(step, v, rows[start:stop])
        v = rows[stop - 1]
    return out.T


def propagate_series(l: np.ndarray, rho0: np.ndarray,
                     times: np.ndarray) -> np.ndarray:
    """(len(times), 3, 3) stack of the states at the given times
    (finite, increasing, starting at >= 0).

    The series is :func:`propagate_vectors` of vec(rho0): shared
    exponentials, each uniform run filled by doubling.  A rho0 that is not
    3x3, Hermitian, of unit trace and positive semidefinite to within
    DENSITY_SLACK is bad input (ValueError); every propagated state is
    re-Hermitized and a trace that drifts by more than TRACE_DRIFT is an
    internal failure (PropagationError).
    """
    rho0 = check_density_matrix(rho0, "rho0")
    vs = propagate_vectors(l, vec(rho0), times)
    rhos = hermitize(unvec(vs.T))  # row k of vs.T is vec(rho_k)
    drift = np.abs(np.trace(rhos, axis1=1, axis2=2).real - 1.0)
    bad = np.flatnonzero(drift > TRACE_DRIFT)
    if bad.size:
        raise PropagationError(f"trace drifted by {drift[bad[0]]:.3e}",
                               time=float(np.asarray(times)[bad[0]]))
    return rhos


def steady_state(l: np.ndarray) -> np.ndarray:
    """Unique unit-trace Hermitian null vector of the Liouvillian.

    Raises NonUniqueSteadyStateError when the null space is not
    one-dimensional, e.g. for decoupled levels or dark-state manifolds,
    and ValueError when its one (unit-norm) vector has a trace below
    TRACE_FLOOR, so that it cannot be normalized to a state.
    """
    right, _ = null_space(l)
    if right.shape[1] != 1:
        raise NonUniqueSteadyStateError(dimension=right.shape[1])
    rho = hermitize(unvec(right[:, 0]))
    tr = float(np.trace(rho).real)
    if abs(tr) < TRACE_FLOOR:
        raise ValueError(f"no steady state: the only null vector has trace "
                         f"{tr:.3e}, below TRACE_FLOOR = {TRACE_FLOOR:.0e}")
    return rho / tr
