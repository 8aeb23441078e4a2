"""Dense complex linear algebra for 3x3 operators and 9x9 superoperators.

Vectorization convention, used everywhere in this package: column stacking.
vec(rho) flattens rho in Fortran order, so the superoperator of the map
rho -> A rho B is kron(B.T, A).
"""

from __future__ import annotations

import math
import numbers

import numpy as np
import scipy.linalg

from .defaults import DENSITY_SLACK, NULL_CUT


def ketbra(i: int, j: int) -> np.ndarray:
    """3x3 matrix unit |i><j| as a dense complex array."""
    m = np.zeros((3, 3), dtype=complex)
    m[i, j] = 1.0
    return m


def hermitize(a: np.ndarray) -> np.ndarray:
    """Symmetrize away accumulated floating-point non-Hermiticity.

    Acts on the last two axes, so a stack of matrices is symmetrized
    matrix by matrix.
    """
    a = np.asarray(a, dtype=complex)
    return 0.5 * (a + np.swapaxes(a.conj(), -1, -2))


def vec(rho: np.ndarray) -> np.ndarray:
    """Column-stack a matrix into a vector."""
    return np.asarray(rho, dtype=complex).reshape(-1, order="F")


def unvec(v: np.ndarray) -> np.ndarray:
    """Inverse of :func:`vec` on the last axis, so also of a stack."""
    v = np.asarray(v, dtype=complex)
    return np.swapaxes(v.reshape(*v.shape[:-1], 3, 3), -1, -2)


def finite_number(value) -> bool:
    """Whether ``value`` is a real number, not a bool, that a double holds
    finitely: true is no number, and neither NaN, an infinity nor an
    integer beyond a double's range is finite here."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large to convert to a double
        return False


def _require_finite(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def mat_exp(m: np.ndarray, t: float = 1.0) -> np.ndarray:
    """exp(m*t) via scaling-and-squaring with Pade approximation.

    Backed by scipy.linalg.expm.  Against a 30-digit mpmath.expm, the
    relative Frobenius error on the L and G0 of four built models, at
    steps with ||m*t|| (Frobenius) from 24 to 8300, is within 1e-12
    (tests/test_linalg.py).
    """
    m = _require_finite(m)
    if not np.isfinite(t) or t < 0:
        raise ValueError(f"time must be finite and non-negative, got {t}")
    return scipy.linalg.expm(m * t)


def null_space(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases of the right and the left null space of m, as the
    columns of two arrays, from one SVD.

    Singular values below NULL_CUT * sigma_max count as zero.  Both arrays
    have no columns when the matrix has full rank.
    """
    m = _require_finite(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    u, s, vh = np.linalg.svd(m)
    null = s <= NULL_CUT * (s[0] if s.size else 0.0)
    return vh[null].conj().T, u[:, null]


def check_grid(x, name: str) -> np.ndarray:
    """``x`` as a float array, which must be a non-empty 1-D grid of finite
    entries; errors call it ``name``."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-D grid")
    if not np.isfinite(x).all():
        raise ValueError(f"{name} grid has non-finite entries: "
                         f"{x[~np.isfinite(x)][:3].tolist()}")
    return x


def check_density_matrix(rho: np.ndarray,
                         name: str = "density matrix") -> np.ndarray:
    """Validate the 3x3 numeric shape, finiteness, Hermiticity, unit trace
    and positivity of a density matrix, the last three each to within
    ``DENSITY_SLACK``; errors call it ``name``."""
    try:
        rho = np.asarray(rho)
    except ValueError:  # ragged nesting
        rho = np.empty(0)
    if rho.shape != (3, 3) or rho.dtype.kind not in "biufc":
        raise ValueError(f"{name} must be a 3x3 density matrix")
    rho = _require_finite(rho, name)
    scale = max(1.0, float(np.linalg.norm(rho)))
    if np.linalg.norm(rho - rho.conj().T) > DENSITY_SLACK * scale:
        raise ValueError(f"{name} is not Hermitian within tolerance")
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > DENSITY_SLACK:
        raise ValueError(f"{name} has trace {tr:.6g}, not 1")
    wmin = float(np.linalg.eigvalsh(hermitize(rho)).min())
    if wmin < -DENSITY_SLACK:
        raise ValueError(f"{name} has negative eigenvalue {wmin:.6g}")
    return rho
