"""Time propagation and steady states of a model's generator.

Propagation exponentiates the full 9x9 Liouvillian (the generators here are
time independent and tiny, so exactness beats ODE stepping).  Series
propagate a state's 9 real coordinates (``linalg.coords``) under the real
9x9 generator of ``linalg.similarity``, so every exponential and product is
real, each state comes back Hermitian bit for bit (``linalg.states``) and
its trace is w_1 + w_2 + w_3; the steady state is ``linalg.states`` of
the coordinates of a null vector of the complex vec form.

Steps fall into length classes a few ulps of the grid end wide, whatever
their order, and each class shares one exponential E.  A run of n
consecutive steps of one class is filled by doubling: E^m times the first
m states E v ... E^m v gives the next m, then E^m is squared, so the run
costs about 2 log2 n small matrix products.  A uniform grid is one run; a
ragged grid is runs of length one, one exponential and one product per
step.  The jump sampler's no-jump table is filled by the same doubling.

The propagators also take a stack of k generators and k start vectors (or
states) on one shared grid: the grid is checked and its classes found once,
each class takes one exponential of the stack, and each doubling pass is one
batched product.  A lone generator runs the same code without the leading
axis, and each member of a stack equals its lone call bit for bit.  A
propagated state with a non-finite entry is an internal failure
(PropagationError), so no NaN reaches an observable.
"""

from __future__ import annotations

import numpy as np

from .defaults import STEP_SHARE, TRACE_DRIFT, TRACE_FLOOR
from .errors import NonUniqueSteadyStateError, PropagationError
from .linalg import (check_density_matrix, check_grid, coords, mat_exp,
                     null_space, similarity, states, unvec)
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


def _step_runs(dts: np.ndarray, width: float) -> list[tuple[int, int, int]]:
    """(start, stop, class) of each run of consecutive steps of one length
    class (:func:`_length_classes`).  Steps that all fit one class are one
    run, found by the comparison the class search makes at its first
    class, ``max <= min + width``, with no sort or search."""
    if dts.max() <= dts.min() + width:
        return [(0, dts.size, 0)]
    classes = _length_classes(dts, width)
    bounds = [0, *(np.flatnonzero(np.diff(classes)) + 1).tolist(), dts.size]
    return [(start, stop, int(classes[start]))
            for start, stop in zip(bounds[:-1], bounds[1:])]


def _fill_powers(step: np.ndarray, v: np.ndarray, rows: np.ndarray) -> None:
    """rows[..., i, :] = step^(i+1) v, by doubling the filled rows each
    pass.  ``v`` (k, n) and ``rows`` (k, m, n) may hold k start vectors of
    one (n, n) step, or of a (k, n, n) stack, each member's rows then those
    of a lone call, bit for bit; each pass is one batched product."""
    rows[..., 0, :] = (step @ v[..., None])[..., 0]
    power = np.swapaxes(step, -1, -2)  # rows are multiplied from the right
    done, n = 1, rows.shape[-2]
    while done < n:
        k = min(done, n - done)
        np.matmul(rows[..., :k, :], power, out=rows[..., done:done + k, :])
        done += k
        if done < n:
            power = power @ power


def propagate_vectors(generator: np.ndarray, v0: np.ndarray,
                      times: np.ndarray) -> np.ndarray:
    """Columns exp(G t_j) v0 for a finite, increasing grid starting at >= 0.

    The columns are real when G and v0 both are (a generator on
    coordinates, ``linalg.similarity``), and complex otherwise.  A
    (k, 9, 9) stack of generators with a (k, 9) stack of start vectors
    gives the (k, 9, len(times)) columns of each member on the one grid;
    each member's columns equal those of a lone call bit for bit.

    Steps fall into length classes no wider than STEP_SHARE ulps of the
    grid end, and each class shares one exponential (of the whole stack),
    taken at the length of its first step: any uniform grid, ``linspace``
    included, costs a single one, and a grid with steps a, b, a, b costs
    two.  Each run of consecutive steps of one class is filled by doubling
    (E^m times the first m columns, then E^m squared), so it costs about
    2 log2 of its length in small products.  There is no loop over grid
    points, and little besides the products: steps that fit one class are
    found by one comparison (:func:`_step_runs`), and finiteness is one
    reduction over the result.  A state with a non-finite entry is an
    internal failure (PropagationError at the first such grid time, which
    only a failed call scans for).
    """
    times = check_grid(times, "times")
    dts = np.diff(times)
    if times[0] < 0 or (dts <= 0).any():
        raise ValueError("times must be strictly increasing and start at >= 0")
    real = not (np.iscomplexobj(generator) or np.iscomplexobj(v0))
    v = np.asarray(v0, dtype=float if real else complex)
    if v.shape != np.shape(generator)[:-1]:
        raise ValueError(f"v0 has shape {v.shape}, but the generator is "
                         f"{'x'.join(map(str, np.shape(generator)))}")
    out = np.empty((*v.shape[:-1], times.size, v.shape[-1]), dtype=v.dtype)
    lead = int(times[0] == 0.0)  # a grid from t = 0 starts with v0 itself
    out[..., :lead, :] = v[..., None, :]
    if not lead:  # the first step is from t = 0 to the grid's start
        dts = np.concatenate([times[:1], dts])
    if dts.size:
        cache: dict[int, np.ndarray] = {}
        rows = out[..., lead:, :]
        for start, stop, cls in _step_runs(
                dts, STEP_SHARE * np.spacing(times[-1])):
            # a class's first run in grid order starts at its first step
            step = cache.get(cls)
            if step is None:
                step = cache[cls] = mat_exp(generator, dts[start])
            _fill_powers(step, v, rows[..., start:stop, :])
            v = rows[..., stop - 1, :]
    if not np.isfinite(out.view(float)).all():
        finite = np.isfinite(out).all(axis=-1).reshape(-1, times.size).all(
            axis=0)
        raise PropagationError("a propagated state has a non-finite entry",
                               time=float(times[np.argmin(finite)]))
    return np.swapaxes(out, -1, -2)


def propagate_series(l: np.ndarray, rho0: np.ndarray,
                     times: np.ndarray) -> np.ndarray:
    """(len(times), 3, 3) stack of the states at the given times
    (finite, increasing, starting at >= 0).

    The series is :func:`propagate_vectors` of coords(rho0) under the real
    generator similarity(l), converted once: shared exponentials, each
    uniform run filled by doubling, and every state rebuilt by
    ``linalg.states``, Hermitian bit for bit.  A (k, 9, 9) stack of
    generators with a (k, 3, 3) stack of start states gives the
    (k, len(times), 3, 3) series of each member on the one grid, each
    equal to a lone call's bit for bit.  A rho0 that is not 3x3,
    Hermitian, of unit trace and positive semidefinite to within
    DENSITY_SLACK, or an l that does not map Hermitian matrices to
    Hermitian ones, is bad input (ValueError); a trace that drifts by more
    than TRACE_DRIFT is an internal failure (PropagationError).
    """
    if np.ndim(l) == 3:
        w0 = np.stack([check_density_matrix(r, "rho0") for r in rho0])
    else:
        w0 = check_density_matrix(rho0, "rho0")
    return states(_series(similarity(l, "l"), w0, times)[0])


def _series(gen: np.ndarray, w0: np.ndarray,
            times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The coordinates (..., len(times), 9) of the series under the real
    generator(s) ``gen`` (``linalg.similarity``) from checked start
    coordinates ``w0`` (``linalg.coords``), with each state's trace error
    |w_1 + w_2 + w_3 - 1| (same shape, less the last axis)."""
    # row j of each member's columns^T is w(t_j)
    ws = np.swapaxes(propagate_vectors(gen, w0, times), -1, -2)
    drift = np.abs(ws[..., :3].sum(axis=-1) - 1.0)
    bad = np.flatnonzero((drift > TRACE_DRIFT).reshape(
        -1, drift.shape[-1]).any(axis=0))
    if bad.size:
        raise PropagationError(
            f"trace drifted by {drift[..., bad[0]].max():.3e}",
            time=float(np.asarray(times)[bad[0]]))
    return ws, drift


def steady_state(l: np.ndarray, right: np.ndarray | None = None) -> np.ndarray:
    """Unique unit-trace Hermitian null vector of the Liouvillian: the
    coordinates of its Hermitian part over their trace, as a state
    Hermitian bit for bit (``linalg.states``).

    ``right`` is L's right null basis when the caller already holds it
    from ``linalg.null_space(l)``; by default it is taken here.  A null
    space of dimension 0 is a ValueError, of more than one a
    NonUniqueSteadyStateError (decoupled levels, dark-state manifolds),
    and a vector with a trace below TRACE_FLOOR, which cannot be
    normalized to a state, a ValueError.
    """
    if right is None:
        right, _ = null_space(l)
    if right.shape[1] == 0:
        raise ValueError("no steady state: L has no null vector")
    if right.shape[1] > 1:
        raise NonUniqueSteadyStateError(dimension=right.shape[1])
    w = coords(unvec(right[:, 0]))
    tr = float(w[:3].sum())
    if abs(tr) < TRACE_FLOOR:
        raise ValueError(f"no steady state: the only null vector has trace "
                         f"{tr:.3e}, below TRACE_FLOOR = {TRACE_FLOOR:.0e}")
    return states(w / tr)
