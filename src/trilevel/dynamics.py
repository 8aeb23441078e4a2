"""Liouvillian assembly, time propagation and steady states.

Propagation exponentiates the full 9x9 Liouvillian (the generators here are
time independent and tiny, so exactness beats ODE stepping).  Uniform grids
reuse the exponential of the common step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonUniqueSteadyStateError, PropagationError
from .linalg import hermitize, mat_exp, null_space, sandwich_super, unvec, vec
from .systems import LindbladModel


@dataclass(frozen=True)
class Liouvillian:
    """9x9 generator acting on column-stacked density matrices."""

    matrix: np.ndarray
    source: LindbladModel | None = None


def liouvillian(model: LindbladModel) -> Liouvillian:
    """Assemble L with L vec(rho) = vec(-i[H, rho] + dissipators)."""
    h = model.hamiltonian
    eye = np.eye(3, dtype=complex)
    l = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    r = model.rate_matrix
    ops = model.collapse_ops
    for a in range(len(ops)):
        for b in range(len(ops)):
            if r[a, b] == 0.0:
                continue
            feed = sandwich_super(ops[a], ops[b].conj().T)
            k = ops[b].conj().T @ ops[a]
            l += r[a, b] * (feed - 0.5 * (np.kron(eye, k) + np.kron(k.T, eye)))
    # trace preservation is an algebraic identity of this construction
    resid = np.linalg.norm(vec(np.eye(3)) @ l)
    if resid > 1e-12 * max(1.0, np.linalg.norm(l)):
        raise RuntimeError(f"Liouvillian is not trace preserving ({resid=})")
    return Liouvillian(matrix=l, source=model)


def feeding_superoperator(model: LindbladModel) -> np.ndarray:
    """The photon-feeding part sum_ab R[a,b] A_a rho A_b^+ as a 9x9 matrix."""
    f = np.zeros((9, 9), dtype=complex)
    r = model.rate_matrix
    ops = model.collapse_ops
    for a in range(len(ops)):
        for b in range(len(ops)):
            if r[a, b] != 0.0:
                f += r[a, b] * sandwich_super(ops[a], ops[b].conj().T)
    return f


def _check_trace(rhos: np.ndarray, times) -> np.ndarray:
    """Raise at the first of the states (a matrix or a stack) whose trace
    drifted from 1."""
    drift = np.abs(np.trace(rhos, axis1=-2, axis2=-1).real - 1.0)
    bad = np.flatnonzero(drift > 1e-6)
    if bad.size:
        raise PropagationError(f"trace drifted by {drift.flat[bad[0]]:.3e}",
                               time=float(np.ravel(times)[bad[0]]))
    return rhos


def propagate(l: Liouvillian, rho0: np.ndarray, t: float) -> np.ndarray:
    """Evolve rho0 for time t: unvec(exp(L t) vec(rho0)), re-Hermitized."""
    if not np.isfinite(t) or t < 0:
        raise ValueError(f"time must be finite and non-negative, got {t}")
    rho = hermitize(unvec(mat_exp(l.matrix, t) @ vec(rho0)))
    return _check_trace(rho, t)


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


def propagate_series(l: Liouvillian, rho0: np.ndarray,
                     times: np.ndarray) -> list[np.ndarray]:
    """States at the given times (increasing, starting at >= 0).

    Steps share cached exponentials (see :func:`propagate_vectors`); every
    state is re-Hermitized and its trace checked.
    """
    vs = propagate_vectors(l.matrix, vec(rho0), times)
    # row k of vs.T is vec(rho_k), i.e. rho_k transposed in row-major order
    rhos = hermitize(np.swapaxes(vs.T.reshape(-1, 3, 3), -1, -2))
    return list(_check_trace(rhos, times))


def steady_state(l: Liouvillian, tol: float = 1e-10) -> np.ndarray:
    """Unique unit-trace Hermitian null vector of the Liouvillian.

    Raises NonUniqueSteadyStateError when the null space (at singular-value
    threshold tol * sigma_max) is not one-dimensional, e.g. for decoupled
    levels or dark-state manifolds.
    """
    basis = null_space(l.matrix, tol)
    if len(basis) != 1:
        raise NonUniqueSteadyStateError(dimension=len(basis))
    rho = hermitize(unvec(basis[0]))
    tr = float(np.trace(rho).real)
    if abs(tr) < 1e-8:
        raise NonUniqueSteadyStateError(dimension=len(basis))
    return rho / tr


def slowest_decay_rate(l: Liouvillian | np.ndarray) -> float:
    """Smallest nonzero damping rate |Re(lambda)| of the generator.

    Eigenvalues in the stationary cluster (|lambda| below 1e-10 of the
    generator norm) are excluded.  Raises ValueError when nothing decays.
    """
    m = l.matrix if isinstance(l, Liouvillian) else np.asarray(l)
    eigs = np.linalg.eigvals(m)
    scale = max(1.0, float(np.linalg.norm(m)))
    rates = [-ev.real for ev in eigs
             if abs(ev) > 1e-10 * scale and -ev.real > 1e-12 * scale]
    if not rates:
        raise ValueError("generator has no decaying modes")
    return min(rates)
