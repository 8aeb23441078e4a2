r"""Partial dressed-state maps between the (a) and (b) configurations.

For each family the strongly coupled two-level block of the (a) system is
diagonalized by a rotation with mixing angle theta.  In the rotated basis
the master equation acquires cross-damping terms, and it coincides with the
master equation of the single-laser (b) configuration once

* the decay rates are mixed,  g'_a = g_A cos^2 + g_B sin^2  (and swapped),
  with cross rate g_x = (g_A - g_B) cos sin,
* the dipole angle satisfies  cos^2(phi) = g_x^2 / (g'_a g'_b),
* the drive splits along the rotation,  (O cos(theta), O sin(theta)),
* the detunings are shifted by the dressed eigenvalues lambda_1/2.

Both families diagonalize the same block [[0, Omega], [Omega, delta]]
(``dressed_block``), and ``map_system`` is the one map for both: only the
block's detuning and the resulting detuning shifts differ between them.

``verify_equivalence`` certifies a mapped pair numerically by integrating
both master equations in one stacked propagation and comparing the
rotated trajectories, all in the 9 real coordinates of a state
(``linalg.coords``), where rho -> U rho U^+ is a real 9x9 matrix too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .defaults import DEFAULT_TOLERANCES, EIG_SCREEN, SNAP, UNITARITY
from .dynamics import _series
from .errors import DegenerateBasisError, UndefinedAngleError
from .linalg import (SQUARES, check_density_matrix, coords, finite_number,
                     kron, similarity, states)
from .systems import _TWIN, LindbladModel, SystemParams


def _finite(**values: float) -> None:
    """Reject by name an argument that is no finite number, as
    ``linalg.finite_number`` judges it."""
    for name, value in values.items():
        if not finite_number(value):
            raise ValueError(f"{name} must be finite, got {value}")


def dressed_block(delta: float, omega: float) -> tuple[float, float, float]:
    """Mixing angle and eigenvalues of the block [[0, omega], [omega, delta]].

    The eigenvalues are l1, l2 = (delta +- sqrt(delta^2 + 4 omega^2)) / 2,
    so l1 >= 0 >= l2, and the l1 eigenvector is (cos(theta), sin(theta))
    with theta = atan2(l1, omega) in [0, pi/2].  The root of larger
    magnitude comes from the sum, where delta and the square root share a
    sign, and the other from l1 * l2 = -omega^2; the difference formula
    would cancel when omega << |delta| (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., section 1.8).  Branching on
    ``delta >= 0`` treats -0.0 like 0.0.
    """
    _finite(delta=delta, omega=omega)
    if omega < 0:
        raise ValueError(f"omega must be >= 0, got {omega}")
    if delta == 0.0 and omega == 0.0:
        raise DegenerateBasisError(
            "coupling block vanishes (delta3 = omega_b = 0); "
            "dressed basis undefined"
        )
    disc = math.hypot(delta, 2.0 * omega)
    # omega / l is at most 1 for the larger root l, so nothing overflows
    if delta >= 0:
        l1 = 0.5 * (delta + disc)
        l2 = -omega * (omega / l1)
    else:
        l2 = 0.5 * (delta - disc)
        l1 = -omega * (omega / l2)
    return math.atan2(l1, omega), l1, l2


def basis_unitary(theta: float, family: str) -> np.ndarray:
    """The 3x3 basis-change matrix of a family ("fig1" or "fig2").

    Rows hold the dressed states in the bare basis.  fig1 rotates levels
    1 and 3 (|1'> = cos|1> + sin|3>, |3'> = sin|1> - cos|3>); fig2 rotates
    levels 2 and 3 the same way.  The matrix is real, symmetric and
    orthogonal, so it is its own inverse.
    """
    _finite(theta=theta)
    c, s = math.cos(theta), math.sin(theta)
    if family == "fig1":
        return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [s, 0.0, -c]])
    if family == "fig2":
        return np.array([[1.0, 0.0, 0.0], [0.0, c, s], [0.0, s, -c]])
    raise ValueError(f"unknown family {family!r} (expected 'fig1' or 'fig2')")


def map_rates(theta: float, gamma_a: float,
              gamma_b: float) -> tuple[float, float, float]:
    """Decay rates seen in the rotated basis.

    Returns (g'_a, g'_b, g_x) with g'_a = gA c^2 + gB s^2,
    g'_b = gA s^2 + gB c^2 and cross rate g_x = (gA - gB) c s.  The total
    g'_a + g'_b = gA + gB is conserved and g_x^2 <= g'_a g'_b
    (Cauchy-Schwarz), with equality iff one input rate vanishes.
    """
    _finite(theta=theta, gamma_a=gamma_a, gamma_b=gamma_b)
    if gamma_a < 0 or gamma_b < 0:
        raise ValueError("decay rates must be >= 0")
    c, s = math.cos(theta), math.sin(theta)
    gpa = gamma_a * c * c + gamma_b * s * s
    gpb = gamma_a * s * s + gamma_b * c * c
    gx = (gamma_a - gamma_b) * c * s
    return gpa, gpb, gx


def dipole_angle(gamma_p_a: float, gamma_p_b: float, gamma_cross: float) -> float:
    """Dipole angle phi reproducing a given cross-damping rate.

    cos(phi) = gamma_cross / (sqrt(gamma_p_a) sqrt(gamma_p_b)), with the
    sign of the cross rate folded in, so phi lies in [0, pi].  Each rate
    has its own root, since their product may overflow or underflow where
    the geometric mean does not.  Ratios within SNAP of +-1 snap to
    exactly 0 or pi (a rate pattern produced by a dark input channel
    saturates Cauchy-Schwarz only up to roundoff).
    """
    _finite(gamma_p_a=gamma_p_a, gamma_p_b=gamma_p_b, gamma_cross=gamma_cross)
    if gamma_p_a < 0 or gamma_p_b < 0:
        raise ValueError("decay rates must be >= 0")
    mean = math.sqrt(gamma_p_a) * math.sqrt(gamma_p_b)
    if mean <= 0.0:
        raise UndefinedAngleError(
            "dipole angle undefined: one decay channel is dark "
            f"(gamma_p_a = {gamma_p_a}, gamma_p_b = {gamma_p_b})"
        )
    ratio = gamma_cross / mean
    if ratio >= 1.0 - SNAP:
        return 0.0
    if ratio <= -1.0 + SNAP:
        return math.pi
    return math.acos(ratio)


@dataclass(frozen=True)
class EquivalenceMap:
    """Everything derived while mapping an (a) system onto its (b) twin."""

    theta: float
    lambda1: float
    lambda2: float
    gamma_p21: float
    gamma_p23_or_31: float
    gamma_cross: float
    phi: float
    unitary: np.ndarray
    shifted_detunings: tuple[float, float]
    mapped_rabis: tuple[float, float]
    family: str


def map_system(p: SystemParams) -> tuple[SystemParams, EquivalenceMap]:
    """Map an (a)-configuration onto its single-laser (b) twin.

    fig1a rotates its 1-3 block [[0, omega_b], [omega_b, -delta3]] into
    diag(lambda1, lambda2).  After shifting the energy origin to the
    dressed level 1' this is the fig1b Hamiltonian with detunings
    delta2' = delta2 + lambda1 and delta3' = delta2 + lambda2 (shifted
    detunings D21~ = delta2 + lambda1 and D31~ = lambda1 - lambda2).
    fig2a rotates its 2-3 block [[-delta2, omega_b], [omega_b,
    delta3 - delta2]], which is -delta2 plus the block of ``dressed_block``
    at delta = delta3, into diag(lambda1, lambda2): a V system with laser
    detunings -lambda1 and -lambda2.  Either way the drive omega_a splits
    into (omega_a cos(theta), omega_a sin(theta)).
    """
    twin = _TWIN.get(p.config)
    if twin is None:
        raise ValueError(f"config {p.config.value} is not mappable "
                         "(only fig1a and fig2a are)")
    family = p.config.family()
    if family == "fig1":
        theta, lam1, lam2 = dressed_block(-p.delta3, p.omega_b)
        detunings = (p.delta2 + lam1, p.delta2 + lam2)
        shifted = (p.delta2 + lam1, lam1 - lam2)
    else:
        theta, ell1, ell2 = dressed_block(p.delta3, p.omega_b)
        lam1, lam2 = ell1 - p.delta2, ell2 - p.delta2
        detunings, shifted = (-lam1, -lam2), (lam1, lam2)
    gpa, gpb, gx = map_rates(theta, p.gamma21, p.gamma23_or_31)
    phi = dipole_angle(gpa, gpb, gx)
    rabis = (p.omega_a * math.cos(theta), p.omega_a * math.sin(theta))
    target = SystemParams(
        config=twin, gamma21=gpa, gamma23_or_31=gpb,
        omega_a=rabis[0], omega_b=rabis[1],
        delta2=detunings[0], delta3=detunings[1], phi=phi,
    )
    emap = EquivalenceMap(
        theta=theta, lambda1=lam1, lambda2=lam2,
        gamma_p21=gpa, gamma_p23_or_31=gpb, gamma_cross=gx, phi=phi,
        unitary=basis_unitary(theta, family),
        shifted_detunings=shifted, mapped_rabis=rabis, family=family,
    )
    return target, emap


def _smallest_eigenvalue_bounds(w: np.ndarray):
    """Lower and upper bounds on the smallest eigenvalue of each state of
    an (n, 9) stack of coordinates (``linalg.coords``), as
    ``np.linalg.eigvalsh`` computes it of ``linalg.states(w)``; NaN where
    a state has a non-finite coordinate.

    The trigonometric closed form (O. K. Smith, Commun. ACM 4, 168
    (1961)): with q = tr/3 and the spread p = sqrt(tr (A - q)^2 / 6), the
    smallest eigenvalue is q + p beta(r) for r = det((A - q)/p)/2, where
    beta(r) = 2 cos(acos(r)/3 + 2 pi/3) is the smallest root of beta^3 -
    3 beta = 2r and rises with r.  q, p and r are read from w: the
    diagonal is w_1..w_3, and x, y, z = A_21, A_31, A_32 have real parts
    w_4..w_6 and imaginary parts w_7..w_9.  Forming A - q errs by ulps of
    q, so the computed r is within dr = EIG_SCREEN (1 + |q|/p) of the
    exact one, and beta(r -+ dr) bound the exact root.  This interval
    widens by itself, to about sqrt(dr), near a double root, where acos is
    ill-conditioned (J. Kopp, Int. J. Mod. Phys. C 19, 523 (2008)).  The
    bounds then widen by EIG_SCREEN (|q| + 2p) for the final rounding and
    for LAPACK's own error.
    """
    d0, d1, d2, ax, ay, az, bx, by, bz = np.ascontiguousarray(w.T)
    q = (d0 + d1 + d2) / 3
    b0, b1, b2 = d0 - q, d1 - q, d2 - q
    p = np.sqrt((b0 * b0 + b1 * b1 + b2 * b2 + 2 * (
        ax * ax + ay * ay + az * az + bx * bx + by * by + bz * bz)) / 6)
    scale = np.where(p > 0, p, 1.0)  # A = q I makes B = 0, so r = 0
    b0, b1, b2, ax, ay, az, bx, by, bz = (
        np.array([b0, b1, b2, ax, ay, az, bx, by, bz]) / scale)
    sx, sy, sz = ax * ax + bx * bx, ay * ay + by * by, az * az + bz * bz
    # det(B) / 2, with 2 Re(x z conj(y)) its off-diagonal part
    r = (b0 * b1 * b2 - b0 * sz - b1 * sy - b2 * sx
         + 2 * ((ax * az - bx * bz) * ay + (ax * bz + bx * az) * by)) / 2
    dr = EIG_SCREEN * (1 + abs(q) / scale)
    slack = EIG_SCREEN * (abs(q) + 2 * p)
    finite = np.isfinite(w).all(axis=1)

    def smallest(r):
        beta = 2 * np.cos(np.arccos(np.clip(r, -1.0, 1.0)) / 3 + 2 * np.pi / 3)
        return np.where(finite, q + p * beta, np.nan)

    return smallest(r - dr) - slack, smallest(r + dr) + slack


def _min_eigenvalue(w: np.ndarray) -> float:
    """``np.linalg.eigvalsh(linalg.states(w)).min()`` of an (n, 9) stack of
    coordinates, bit for bit, with the states rebuilt and LAPACK run only
    where a state's lower bound is below the least upper bound
    (``_smallest_eigenvalue_bounds``): no other state can hold the
    minimum.  A state with a non-finite coordinate is always kept."""
    lower, upper = _smallest_eigenvalue_bounds(w)
    top = np.min(upper, initial=np.inf, where=~np.isnan(upper))
    return float(np.linalg.eigvalsh(states(w[~(lower > top)])).min())


@dataclass(frozen=True)
class EquivalenceReport:
    """Result of a numerical equivalence check."""

    max_dist: float
    passed: bool
    tol: float
    times: np.ndarray
    distances: np.ndarray
    max_trace_error: float
    min_eigenvalue: float


def verify_equivalence(
    model_a: LindbladModel,
    model_b: LindbladModel,
    unitary: np.ndarray,
    rho0: np.ndarray,
    times: np.ndarray,
    tol: float = DEFAULT_TOLERANCES["equivalence"],
) -> EquivalenceReport:
    """Integrate both master equations and compare rotated trajectories.

    model_a starts from rho0, model_b from U rho0 U^+, both in one stacked
    propagation of their states' coordinates (``linalg.coords``) under the
    models' ``generator_coords``; the report carries the maximum Frobenius
    distance max_t || U rho_a(t) U^+ - rho_b(t) ||, which is
    sqrt(sum_c tr(E_c^2) dw_c^2) for dw = S w_a - w_b and S the real matrix
    of rho -> U rho U^+, together with conservation diagnostics of both
    trajectories: the largest trace error |w_1 + w_2 + w_3 - 1| and the
    smallest eigenvalue, ``np.linalg.eigvalsh``'s over both series of
    states bit for bit (``_min_eigenvalue``).  rho0 must be a density matrix
    (``linalg.check_density_matrix``), ``unitary`` a finite 3x3 unitary to
    within UNITARITY and ``tol`` a finite number > 0 (ValueError).  Only
    rho0 is checked: U rho0 U^+ of a checked rho0 and a checked unitary
    needs no check of its own.
    """
    u = np.asarray(unitary, dtype=complex)
    if (u.shape != (3, 3) or not np.isfinite(u).all()
            or np.linalg.norm(u @ u.conj().T - np.eye(3)) > UNITARITY):
        raise ValueError("unitary must be a 3x3 unitary matrix")
    if not (finite_number(tol) and tol > 0):
        raise ValueError(f"tol must be a finite number > 0, got {tol!r}")
    times = np.asarray(times, dtype=float)
    w0 = check_density_matrix(rho0, "rho0")

    gens = np.stack([model_a.generator_coords, model_b.generator_coords])
    # the twin starts at coords(U rho0 U^+), not at S w0, which rounds
    ws, trace_err = _series(gens, np.stack([w0, coords(
        u @ np.asarray(rho0) @ u.conj().T)]), times)
    # vec(U rho U^+) = (conj(U) (x) U) vec(rho)
    dw = ws[0] @ similarity(kron(u.conj(), u)).T - ws[1]
    dists = np.sqrt((dw * dw) @ SQUARES)
    max_dist = float(dists.max())
    return EquivalenceReport(
        max_dist=max_dist,
        passed=bool(max_dist < tol),
        tol=tol,
        times=times,
        distances=dists,
        max_trace_error=float(trace_err.max()),
        min_eigenvalue=_min_eigenvalue(ws.reshape(-1, 9)),
    )
