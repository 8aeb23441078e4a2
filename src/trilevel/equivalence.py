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

``verify_equivalence`` certifies a mapped pair numerically by integrating
both master equations and comparing the rotated trajectories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import liouvillian, propagate_series
from .errors import DegenerateBasisError, UndefinedAngleError
from .linalg import hermitize
from .systems import Config, LindbladModel, SystemParams

# cos(phi) within a few ulp of +-1 counts as exactly parallel/antiparallel:
# Cauchy-Schwarz saturation up to roundoff.
_POLE_SNAP = 4 * np.finfo(float).eps


def mixing_angle_fig1(delta3: float, omega31: float) -> tuple[float, float, float]:
    """Mixing angle and dressed eigenvalues of the 1-3 block of fig1a.

    The block [[0, omega31], [omega31, -delta3]] has eigenvalues
    lambda_{1,2} = (-delta3 +- sqrt(delta3^2 + 4 omega31^2)) / 2; the
    lambda_1 eigenvector is (cos(theta), sin(theta)) with
    cos(theta) = omega31 / sqrt(lambda_1^2 + omega31^2).  theta lies in
    [0, pi/2] because lambda_1 >= 0.
    """
    if omega31 < 0:
        raise ValueError(f"omega31 must be >= 0, got {omega31}")
    if delta3 == 0.0 and omega31 == 0.0:
        raise DegenerateBasisError(
            "1-3 block vanishes (delta3 = omega31 = 0); dressed basis undefined"
        )
    disc = math.hypot(delta3, 2.0 * omega31)
    lam1 = 0.5 * (-delta3 + disc)
    lam2 = 0.5 * (-delta3 - disc)
    theta = math.atan2(lam1, omega31)
    return theta, lam1, lam2


def mixing_angle_fig2(delta2: float, delta3: float,
                      omega23: float) -> tuple[float, float, float]:
    """Mixing angle and dressed eigenvalues of the 2-3 block of fig2a.

    The block [[-delta2, omega23], [omega23, delta3 - delta2]] has
    eigenvalues lambda_{1,2} = (delta3 +- sqrt(delta3^2 + 4 omega23^2))/2
    - delta2.  The rotation angle is independent of the common -delta2
    shift, so cos(theta) uses the pre-shift eigenvalue
    ell_1 = lambda_1 + delta2 (this is what makes the rotated block
    diagonal; see the diagonalization tests).
    """
    if omega23 < 0:
        raise ValueError(f"omega23 must be >= 0, got {omega23}")
    if delta3 == 0.0 and omega23 == 0.0:
        raise DegenerateBasisError(
            "2-3 block vanishes (delta3 = omega23 = 0); dressed basis undefined"
        )
    disc = math.hypot(delta3, 2.0 * omega23)
    ell1 = 0.5 * (delta3 + disc)
    lam1 = ell1 - delta2
    lam2 = 0.5 * (delta3 - disc) - delta2
    theta = math.atan2(ell1, omega23)
    return theta, lam1, lam2


def basis_unitary(theta: float, family: str) -> np.ndarray:
    """The 3x3 basis-change matrix of a family ("fig1" or "fig2").

    Rows hold the dressed states in the bare basis.  fig1 rotates levels
    1 and 3 (|1'> = cos|1> + sin|3>, |3'> = sin|1> - cos|3>); fig2 rotates
    levels 2 and 3 the same way.  The matrix is real, symmetric and
    orthogonal, so it is its own inverse.
    """
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")
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
    if gamma_a < 0 or gamma_b < 0:
        raise ValueError("decay rates must be >= 0")
    c, s = math.cos(theta), math.sin(theta)
    gpa = gamma_a * c * c + gamma_b * s * s
    gpb = gamma_a * s * s + gamma_b * c * c
    gx = (gamma_a - gamma_b) * c * s
    return gpa, gpb, gx


def dipole_angle(gamma_p_a: float, gamma_p_b: float, gamma_cross: float) -> float:
    """Dipole angle phi reproducing a given cross-damping rate.

    cos(phi) = gamma_cross / sqrt(gamma_p_a * gamma_p_b), with the sign of
    the cross rate folded in, so phi lies in [0, pi].  Ratios within a few
    ulp of +-1 snap to exactly 0 or pi (a rate pattern produced by a dark
    input channel saturates Cauchy-Schwarz only up to roundoff).
    """
    if gamma_p_a < 0 or gamma_p_b < 0:
        raise ValueError("decay rates must be >= 0")
    prod = gamma_p_a * gamma_p_b
    if prod <= 0.0:
        raise UndefinedAngleError(
            "dipole angle undefined: one decay channel is dark "
            f"(gamma_p_a = {gamma_p_a}, gamma_p_b = {gamma_p_b})"
        )
    ratio = gamma_cross / math.sqrt(prod)
    if ratio >= 1.0 - _POLE_SNAP:
        return 0.0
    if ratio <= -1.0 + _POLE_SNAP:
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


def map_fig1a_to_fig1b(p: SystemParams) -> tuple[SystemParams, EquivalenceMap]:
    """Parameters of the Lambda system equivalent to a fig1a system.

    The rotated fig1a Hamiltonian is diag(lambda1, -delta2, lambda2)
    + omega_a (cos, sin) couplings; after shifting the energy origin to the
    dressed level 1' this is the fig1b Hamiltonian with detunings
    delta2' = delta2 + lambda1 and delta3' = delta2 + lambda2 (i.e. shifted
    detunings D21~ = delta2 + lambda1 and D31~ = lambda1 - lambda2).
    """
    if p.config is not Config.FIG1A:
        raise ValueError(f"expected fig1a params, got {p.config.value}")
    theta, lam1, lam2 = mixing_angle_fig1(p.delta3, p.omega_b)
    gpa, gpb, gx = map_rates(theta, p.gamma21, p.gamma23_or_31)
    phi = dipole_angle(gpa, gpb, gx)
    u = basis_unitary(theta, "fig1")
    c, s = math.cos(theta), math.sin(theta)
    target = SystemParams(
        config=Config.FIG1B,
        gamma21=gpa,
        gamma23_or_31=gpb,
        omega_a=p.omega_a * c,
        omega_b=p.omega_a * s,
        delta2=p.delta2 + lam1,
        delta3=p.delta2 + lam2,
        phi=phi,
    )
    emap = EquivalenceMap(
        theta=theta, lambda1=lam1, lambda2=lam2,
        gamma_p21=gpa, gamma_p23_or_31=gpb, gamma_cross=gx, phi=phi,
        unitary=u,
        shifted_detunings=(p.delta2 + lam1, lam1 - lam2),
        mapped_rabis=(p.omega_a * c, p.omega_a * s),
        family="fig1",
    )
    return target, emap


def map_fig2a_to_fig2b(p: SystemParams) -> tuple[SystemParams, EquivalenceMap]:
    """Parameters of the V system equivalent to a fig2a system.

    The rotated fig2a Hamiltonian is diag(0, lambda1, lambda2) with drive
    omega_a (cos, sin) on the two upper levels, i.e. a V system with laser
    detunings -lambda1 and -lambda2.
    """
    if p.config is not Config.FIG2A:
        raise ValueError(f"expected fig2a params, got {p.config.value}")
    theta, lam1, lam2 = mixing_angle_fig2(p.delta2, p.delta3, p.omega_b)
    gpa, gpb, gx = map_rates(theta, p.gamma21, p.gamma23_or_31)
    phi = dipole_angle(gpa, gpb, gx)
    u = basis_unitary(theta, "fig2")
    c, s = math.cos(theta), math.sin(theta)
    target = SystemParams(
        config=Config.FIG2B,
        gamma21=gpa,
        gamma23_or_31=gpb,
        omega_a=p.omega_a * c,
        omega_b=p.omega_a * s,
        delta2=-lam1,
        delta3=-lam2,
        phi=phi,
    )
    emap = EquivalenceMap(
        theta=theta, lambda1=lam1, lambda2=lam2,
        gamma_p21=gpa, gamma_p23_or_31=gpb, gamma_cross=gx, phi=phi,
        unitary=u,
        shifted_detunings=(lam1, lam2),
        mapped_rabis=(p.omega_a * c, p.omega_a * s),
        family="fig2",
    )
    return target, emap


def map_system(p: SystemParams) -> tuple[SystemParams, EquivalenceMap]:
    """Map an (a)-configuration onto its (b) twin."""
    if p.config is Config.FIG1A:
        return map_fig1a_to_fig1b(p)
    if p.config is Config.FIG2A:
        return map_fig2a_to_fig2b(p)
    raise ValueError(f"config {p.config.value} is not mappable "
                     "(only fig1a and fig2a are)")


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
    tol: float = 1e-8,
) -> EquivalenceReport:
    """Integrate both master equations and compare rotated trajectories.

    model_a starts from rho0, model_b from U rho0 U^+; the report carries
    the maximum Frobenius distance max_t || U rho_a(t) U^+ - rho_b(t) ||
    together with conservation diagnostics of both trajectories.
    """
    u = np.asarray(unitary, dtype=complex)
    if u.shape != (3, 3) or np.linalg.norm(u @ u.conj().T - np.eye(3)) > 1e-10:
        raise ValueError("unitary must be a 3x3 unitary matrix")
    times = np.asarray(times, dtype=float)

    rho0 = hermitize(rho0)
    series_a = propagate_series(liouvillian(model_a), rho0, times)
    series_b = propagate_series(liouvillian(model_b), u @ rho0 @ u.conj().T,
                                times)
    dists = np.linalg.norm(u @ series_a @ u.conj().T - series_b, axis=(1, 2))
    both = np.concatenate([series_a, series_b])
    trace_err = np.abs(np.trace(both, axis1=1, axis2=2).real - 1.0)
    max_dist = float(dists.max())
    return EquivalenceReport(
        max_dist=max_dist,
        passed=bool(max_dist < tol),
        tol=tol,
        times=times,
        distances=dists,
        max_trace_error=float(trace_err.max()),
        min_eigenvalue=float(np.linalg.eigvalsh(both).min()),
    )
