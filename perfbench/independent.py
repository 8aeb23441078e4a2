"""The benchmark's own numerics, used to check the program's outputs.

Everything here is built from a model's Hamiltonian, rate matrix and
collapse operators alone, with none of the program's code: a kron-product
Liouvillian, direct `scipy.linalg.expm` propagation and a resolvent solved
with `numpy.linalg.solve`.  Vectorisation is column stacking, so
vec(A rho B) = kron(B.T, A) vec(rho).
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

_EYE = np.eye(3, dtype=complex)
_TRACE_ROW = _EYE.reshape(-1, order="F")


def vec(rho):
    return np.asarray(rho, dtype=complex).reshape(-1, order="F")


def unvec(v):
    return np.asarray(v).reshape((3, 3), order="F")


def feeding(rates, ops):
    """Superoperator of rho -> sum_ab R[a,b] A_a rho A_b^+."""
    f = np.zeros((9, 9), dtype=complex)
    for a, op_a in enumerate(ops):
        for b, op_b in enumerate(ops):
            f += rates[a, b] * np.kron(op_b.conj(), op_a)
    return f


def liouvillian(h, rates, ops):
    """Lindblad generator -i[H, .] + sum_ab R[a,b] D[A_a, A_b]."""
    l = -1j * (np.kron(_EYE, h) - np.kron(h.T, _EYE))
    for a, op_a in enumerate(ops):
        for b, op_b in enumerate(ops):
            k = op_b.conj().T @ op_a
            l -= 0.5 * rates[a, b] * (np.kron(_EYE, k) + np.kron(k.T, _EYE))
    return l + feeding(rates, ops)


def model_parts(model):
    """(H, R, ops) of a model object, as plain arrays."""
    return (np.asarray(model.hamiltonian, dtype=complex),
            np.asarray(model.rate_matrix, dtype=float),
            [np.asarray(a, dtype=complex) for a in model.collapse_ops])


def evolve(l, rho0, t):
    """rho(t) = exp(L t) rho0 by one direct matrix exponential."""
    return unvec(scipy.linalg.expm(l * t) @ vec(rho0))


def populations(l, rho0, times):
    """(len(times), 3) level populations, each time propagated from 0."""
    return np.array([np.diag(evolve(l, rho0, t)).real for t in times])


def steady_state(l):
    """Unit-trace null vector of l (smallest singular value)."""
    _, _, vh = np.linalg.svd(l)
    rho = unvec(vh[-1].conj())
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


def spectrum(l, detect, omegas):
    """(1/pi) Re <D| (i w - L + |rho_ss><1|)^-1 (1 - P) |D rho_ss>.

    P = |rho_ss><1| projects onto the steady state; adding it makes the
    matrix invertible at every w without changing the decaying part.
    """
    rho_ss = steady_state(l)
    p = np.outer(vec(rho_ss), _TRACE_ROW)
    x = vec(detect @ rho_ss)
    x = x - p @ x
    mats = 1j * np.asarray(omegas)[:, None, None] * np.eye(9) - l + p
    z = np.linalg.solve(mats, np.broadcast_to(x, (len(omegas), 9))[..., None])
    return (vec(detect).conj() @ z[..., 0].T).real / np.pi


def expected_jumps(l, f, rho0, t_final):
    """Mean photon count in [0, t_final]: the integral of tr(F rho(t)).

    The last row of the exponential of the bordered matrix [[L, 0], [f, 0]]
    carries the time integral of f exp(L t) exactly.
    """
    m = np.zeros((10, 10), dtype=complex)
    m[:9, :9] = l
    m[9, :9] = _TRACE_ROW @ f
    v = np.zeros(10, dtype=complex)
    v[:9] = vec(rho0)
    return float((scipy.linalg.expm(m * t_final) @ v)[9].real)
