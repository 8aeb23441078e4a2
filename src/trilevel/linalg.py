"""Dense linear algebra for 3x3 operators and 9x9 superoperators, and the
real coordinates of Hermitian matrices that every propagation works in.

Vectorization convention, used everywhere in this package: column stacking.
vec(rho) flattens rho in Fortran order, so the superoperator of the map
rho -> A rho B is kron(B.T, A).

A Hermitian rho is rho = sum_c w_c E_c on the fixed Hermitian basis E_c of
``BASIS``: the |i><i|, then |i><k| + |k><i| and i (|k><i| - |i><k|) for
i < k, so its 9 reals w (``coords``) are the rho_ii, then Re and Im of the
rho_ki, and tr(rho) = w_1 + w_2 + w_3.  A superoperator G that maps
Hermitian matrices to Hermitian ones is the real 9x9 matrix
``similarity(G)`` on them: the model's L and G0 (``LindbladModel``) and
rho -> U rho U^+ for a unitary U.  ``coords`` and ``states``, each one
product, are the one bridge between a state and its w: a given state is
checked as its w (``check_density_matrix``), every propagation works on w,
and every state handed back is ``states`` of its w.
"""

from __future__ import annotations

import itertools
import math
import numbers

import numpy as np
import scipy.linalg

from .defaults import DENSITY_SLACK, NULL_CUT, ROUNDOFF


def ketbra(i: int, j: int) -> np.ndarray:
    """3x3 matrix unit |i><j| as a dense complex array."""
    m = np.zeros((3, 3), dtype=complex)
    m[i, j] = 1.0
    return m


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` of two 3x3 matrices, the same products by one broadcast:
    entry (3i + k, 3j + l) is a[i, j] b[k, l]."""
    return (np.asarray(a)[:, None, :, None]
            * np.asarray(b)[None, :, None, :]).reshape(9, 9)


def vec(rho: np.ndarray) -> np.ndarray:
    """Column-stack a matrix, or each of a stack, into a vector."""
    rho = np.asarray(rho, dtype=complex)
    return np.swapaxes(rho, -1, -2).reshape(*rho.shape[:-2], -1)


def unvec(v: np.ndarray) -> np.ndarray:
    """Inverse of :func:`vec` on the last axis, so also of a stack."""
    v = np.asarray(v, dtype=complex)
    return np.swapaxes(v.reshape(*v.shape[:-1], 3, 3), -1, -2)


# the (i, k), i < k, of the off-diagonal coordinates 3 + p and 6 + p
_PAIRS = tuple(itertools.combinations(range(3), 2))
# row c is vec(E_c); tr(E_c X) = conj(vec(E_c)) . vec(X), so vec(X) @ DUAL
# holds the tr(E_c X), and SQUARES the tr(E_c^2): 1, 1, 1, then 2s
BASIS = vec(np.array(
    [ketbra(i, i) for i in range(3)]
    + [ketbra(i, k) + ketbra(k, i) for i, k in _PAIRS]
    + [1j * (ketbra(k, i) - ketbra(i, k)) for i, k in _PAIRS]))
DUAL = BASIS.conj().T
SQUARES = (BASIS @ DUAL).real.diagonal().copy()
for _a in (BASIS, DUAL, SQUARES):
    _a.flags.writeable = False


def coords(rho: np.ndarray) -> np.ndarray:
    """The 9 reals w_c = tr(E_c rho) / tr(E_c^2) of a Hermitian matrix, or
    of each of a stack, on the last axis."""
    return (vec(rho) @ DUAL).real / SQUARES


def states(w: np.ndarray) -> np.ndarray:
    """The 3x3 matrices sum_c w_c E_c of coordinates on the last axis of
    ``w``, one product with ``BASIS``.  Each entry sums one real and at
    most one imaginary nonzero term, so it is exact: the diagonal is real
    and each off-diagonal pair is a +- i b, and each matrix is Hermitian
    bit for bit."""
    return unvec(np.asarray(w, dtype=float) @ BASIS)


def similarity(g: np.ndarray, name: str | None = None) -> np.ndarray:
    """The real 9x9 matrix of the superoperator ``g`` (vec form, or a stack
    of them) on the coordinates of :func:`coords`: coords(X) = w maps to
    coords(unvec(g vec(X))) = similarity(g) @ w.  Given a ``name``, a ``g``
    that does not map Hermitian matrices to Hermitian ones, so that the
    imaginary part of DUAL^T g BASIS^T exceeds ROUNDOFF times the largest
    of 1 and its entries, is bad input (ValueError naming it); a model's
    generators and a unitary's conjugation do so by construction."""
    s = DUAL.T @ g @ BASIS.T
    if name is not None and (np.abs(s.imag).max(axis=(-2, -1)) > ROUNDOFF * (
            np.abs(s).max(axis=(-2, -1), initial=1.0))).any():
        raise ValueError(f"{name} does not map Hermitian matrices to "
                         f"Hermitian ones")
    return s.real / SQUARES[:, None]


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
    m = np.asarray(m)
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def mat_exp(m: np.ndarray, t: float = 1.0) -> np.ndarray:
    """exp(m*t) via scaling-and-squaring with Pade approximation, real for
    a real ``m``.

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
    """w = coords(rho) of a density matrix whose 3x3 numeric shape,
    finiteness, Hermiticity, unit trace w_1 + w_2 + w_3 and positivity (the
    eigenvalues of states(w), where a propagation from w starts) are
    checked, the last three each to within ``DENSITY_SLACK``; errors call
    it ``name``."""
    try:
        rho = np.asarray(rho)
    except ValueError:  # ragged nesting
        rho = np.empty(0)
    if rho.shape != (3, 3) or rho.dtype.kind not in "biufc":
        raise ValueError(f"{name} must be a 3x3 density matrix")
    rho = _require_finite(np.asarray(rho, dtype=complex), name)
    scale = max(1.0, float(np.linalg.norm(rho)))
    if np.linalg.norm(rho - rho.conj().T) > DENSITY_SLACK * scale:
        raise ValueError(f"{name} is not Hermitian within tolerance")
    w = coords(rho)
    tr = float(w[:3].sum())
    if abs(tr - 1.0) > DENSITY_SLACK:
        raise ValueError(f"{name} has trace {tr:.6g}, not 1")
    wmin = float(np.linalg.eigvalsh(states(w)).min())
    if wmin < -DENSITY_SLACK:
        raise ValueError(f"{name} has negative eigenvalue {wmin:.6g}")
    return w
