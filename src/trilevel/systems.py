r"""Lindblad models for four driven three-level configurations.

Two families are covered.  Each has an (a) member, where two independent
lasers drive transitions sharing one level and one transition is metastable,
and a (b) member, where a single laser drives two transitions whose dipole
moments form an angle phi:

* fig1a: stable ground level 1, lasers on 1<->2 and 1<->3; level 2 decays
  to level 1 (rate 2*gamma21) and to the metastable level 3 (2*gamma23).
* fig1b: Lambda system; unstable level 2' decays into the two close-lying
  lower levels 1' and 3' (rates 2*gamma21, 2*gamma23), one laser drives
  both transitions.
* fig2a: lasers on 1<->2 and on the metastable 2<->3; levels 2 and 3 decay
  into the ground level 1 (rates 2*gamma21, 2*gamma31).
* fig2b: V system; close-lying upper levels 2' and 3' decay to the common
  ground level 1' (rates 2*gamma21, 2*gamma31), one laser drives both
  transitions.

The four differ only in where level 3 sits, which level pairs the two
drives couple and which matrix units decay.  One table, ``_LAYOUT``, holds
those three entries per configuration.  Within one configuration a model is
a point in seven real coordinates: the energies of levels 2 and 3 and the
two drives, which make H, and R[0, 0], R[0, 1] = R[1, 0] and R[1, 1].  K
and F are linear in R alone, so ``build_model`` forms both as one product
of R's three coordinates with the configuration's rate basis, which
``LindbladModel``'s own formulas form once.  It skips the checks that hold
by construction (see ``LindbladModel`` for which run on each path).

Conventions
-----------
* Array index 0, 1, 2 corresponds to atomic level 1, 2, 3.
* All rates and frequencies are dimensionless in units of a reference rate
  Gamma_ref; time is measured in 1/Gamma_ref.  A stored ``gamma`` is the
  half-width: the Einstein A coefficient of the transition is ``2*gamma``.
* Every generator has the form

      drho/dt = -i [H, rho]
                + sum_ab R[a, b] * (A_a rho A_b^+ - {A_b^+ A_a, rho} / 2)

  with matrix-unit collapse operators A and a real symmetric positive
  semidefinite rate matrix R whose entries carry the factors 2*gamma.  The
  off-diagonal entries of R encode the cross-damping interference terms of
  the single-laser configurations (proportional to cos(phi)).
* Rabi couplings enter H with a positive sign, +Omega (|upper><lower| +
  h.c.); laser phases are absorbed into the level phases.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass
from functools import cache, cached_property
from typing import NamedTuple

import numpy as np

from .defaults import CHANNEL_FLOOR, ROUNDOFF, SNAP
from .errors import ScenarioError
from .linalg import DUAL, finite_number, ketbra, kron, similarity, vec


class Config(str, enum.Enum):
    """The four supported level configurations."""

    FIG1A = "fig1a"
    FIG1B = "fig1b"
    FIG2A = "fig2a"
    FIG2B = "fig2b"

    def family(self) -> str:
        return "fig1" if self in (Config.FIG1A, Config.FIG1B) else "fig2"


# each two-laser (a) configuration and its single-laser (b) twin, the one
# that ``equivalence.map_system`` maps it onto; only the twins read phi
_TWIN = {Config.FIG1A: Config.FIG1B, Config.FIG2A: Config.FIG2B}
_NEEDS_PHI = tuple(_TWIN.values())


def _cos_dipole(phi: float) -> float:
    # a cross rate that small is roundoff: orthogonal dipoles are independent
    c = math.cos(phi)
    return 0.0 if abs(c) < SNAP else c


@dataclass(frozen=True)
class SystemParams:
    """Rates, drives and detunings of one configuration.

    Field semantics depend on ``config``:

    ===============  ==========  ==========  ==========  ==========
    field            fig1a       fig1b       fig2a       fig2b
    ===============  ==========  ==========  ==========  ==========
    gamma21          G21 (2->1)  G21 (2->1)  G21 (2->1)  G21 (2->1)
    gamma23_or_31    G23 (2->3)  G23 (2->3)  G31 (3->1)  G31 (3->1)
    omega_a          O21         O21         O21         O21
    omega_b          O31         O23         O23         O31
    delta2           D21         D2          D2          D2
    delta3           D31         D3          D3          D3
    phi              --          dipole ang  --          dipole ang
    ===============  ==========  ==========  ==========  ==========
    """

    config: Config
    gamma21: float
    gamma23_or_31: float
    omega_a: float
    omega_b: float = 0.0
    delta2: float = 0.0
    delta3: float = 0.0
    phi: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "config", Config(self.config))
        for name in ("gamma21", "gamma23_or_31", "omega_a", "omega_b",
                     "delta2", "delta3", "phi"):
            value = getattr(self, name)
            if value is None and name == "phi":
                continue
            if not finite_number(value):
                raise ScenarioError(name, f"must be finite, got {value}" if (
                    isinstance(value, numbers.Real)
                    and not isinstance(value, bool))
                    else f"must be a number, got {value!r}")
            if value < 0 and name.startswith(("gamma", "omega")):
                raise ScenarioError(name, f"must be >= 0, got {value}")
        if self.config in _NEEDS_PHI:
            if self.phi is None:
                raise ScenarioError(
                    "phi", f"required for config {self.config.value}")
            if not (0.0 <= self.phi <= math.pi):
                raise ScenarioError("phi", f"must lie in [0, pi], got {self.phi}")
        elif self.phi is not None:
            raise ScenarioError(
                "phi", f"not read by config {self.config.value}")


def _roundoff_defect(a: np.ndarray, defect) -> float | None:
    """||defect(a)|| where it exceeds ROUNDOFF * max(1, ||a||), else None
    (Frobenius norms).

    ``defect`` is linear, and both norms are taken of ``a`` divided by its
    largest |entry|, so neither overflows (or warns) at any finite scale.
    """
    scale = float(np.abs(a).max(initial=0.0))
    if scale == 0.0:
        return None
    a = a / scale
    d = defect(a)
    resid = math.sqrt(np.vdot(d, d).real)
    if resid > ROUNDOFF * max(1.0 / scale, math.sqrt(np.vdot(a, a).real)):
        return resid * scale
    return None


@dataclass(frozen=True)
class LindbladModel:
    """Hamiltonian plus dissipative channels of one master equation, and
    every operator derived from them, each formed once per model (callers
    share these arrays and must not write to them).

    ``collapse_ops`` is an (n, 3, 3) stack of bare matrix units; all rate
    information lives in ``rate_matrix``, so the generator is trace
    preserving by construction.

    A model built here is checked in full: finite arrays, a Hermitian H,
    and a symmetric R of matching shape that is PSD by its eigenvalues.
    ``build_model`` hands in K and F from its rate-basis product, bit for
    bit what the formulas below give, and checks only that H and R are
    finite: its H is Hermitian and R symmetric and PSD by construction
    (``SystemParams`` bounds |cos(phi)| by 1).  G0 keeps its Kronecker
    form on both paths (a product gives its values bit for bit, but not
    the signs of its zero entries), and L = G0 + F is checked for trace
    preservation when first read.

    ``generator_coords`` and ``no_jump_coords`` are L and G0 as real 9x9
    matrices on a state's coordinates (``linalg.similarity``), and
    ``rate_coords`` is the photon rate on them, beta(K)_c = tr(K E_c), so a
    state w emits at rate_coords @ w; each is formed on first use from the
    complex form, which the spectrum and the steady state read.

    ``jump_operators`` is the (m, 3, 3) stack c_k = sqrt(r_k) sum_a O[a, k]
    A_a from the PSD R = O diag(r) O^T: the same dissipator in single-sum
    Lindblad form, without the channels whose r_k is below CHANNEL_FLOOR
    times the largest rate (or 1).  It is formed on first use: only the
    jump sampler reads it.
    """

    hamiltonian: np.ndarray
    collapse_ops: np.ndarray
    rate_matrix: np.ndarray

    def __post_init__(self):
        h = np.asarray(self.hamiltonian, dtype=complex)
        r = np.asarray(self.rate_matrix, dtype=float)
        ops = np.asarray(self.collapse_ops, dtype=complex).reshape(-1, 3, 3)
        object.__setattr__(self, "hamiltonian", h)
        object.__setattr__(self, "rate_matrix", r)
        object.__setattr__(self, "collapse_ops", ops)
        for name, a in (("hamiltonian", h), ("rate matrix", r),
                        ("collapse operators", ops)):
            if not np.isfinite(a).all():
                raise ValueError(f"{name} must be finite")
        if _roundoff_defect(h, lambda a: a - a.conj().T) is not None:
            raise ValueError("hamiltonian must be Hermitian")
        n = len(ops)
        if r.shape != (n, n):
            raise ValueError(f"rate matrix shape {r.shape} does not match "
                             f"{n} collapse operators")
        if _roundoff_defect(r, lambda a: a - a.T) is not None:
            raise ValueError("rate matrix must be symmetric")
        wmin = float(np.linalg.eigvalsh(r).min(initial=0.0))
        if wmin < -ROUNDOFF * max(1.0, float(np.abs(r).max(initial=0.0))):
            raise ValueError(f"rate matrix is not PSD (min eigenvalue {wmin})")

    @classmethod
    def _unchecked(cls, h, ops, r, **operators) -> LindbladModel:
        """A model of arrays valid by construction, without the checks of
        ``__post_init__``, holding ``operators`` (by name) as formed."""
        model = object.__new__(cls)
        model.__dict__.update(hamiltonian=h, collapse_ops=ops, rate_matrix=r,
                              **operators)
        return model

    @cached_property
    def jump_operators(self) -> np.ndarray:
        w, o = np.linalg.eigh(self.rate_matrix)
        keep = w > CHANNEL_FLOOR * max(float(w.max(initial=0.0)), 1.0)
        return np.einsum("ak,aij->kij", o[:, keep] * np.sqrt(w[keep]),
                         self.collapse_ops)

    @cached_property
    def decay(self) -> np.ndarray:
        """K = sum_ab R[a, b] A_b^+ A_a, the operator in the anticommutator;
        tr(K rho) is the photon rate."""
        a = self.collapse_ops
        return np.einsum("ab,bji,ajk->ik", self.rate_matrix, a.conj(), a)

    @cached_property
    def effective_hamiltonian(self) -> np.ndarray:
        """H_eff = H - iK/2, the generator of the no-jump evolution."""
        return self.hamiltonian - 0.5j * self.decay

    @cached_property
    def no_jump(self) -> np.ndarray:
        """G0 = -i (I (x) H_eff - conj(H_eff) (x) I), the 9x9 no-jump part
        of L; the trace it loses is the probability of an emission."""
        h_eff, eye = self.effective_hamiltonian, np.eye(3)
        return -1j * (kron(eye, h_eff) - kron(h_eff.conj(), eye))

    @cached_property
    def feeding(self) -> np.ndarray:
        """F = sum_ab R[a, b] conj(A_b) (x) A_a, the 9x9 superoperator of
        rho -> sum_ab R[a, b] A_a rho A_b^+."""
        a = self.collapse_ops
        return np.einsum("ab,bij,akl->ikjl", self.rate_matrix, a.conj(),
                         a).reshape(9, 9)

    @cached_property
    def generator_coords(self) -> np.ndarray:
        return similarity(self.generator)

    @cached_property
    def no_jump_coords(self) -> np.ndarray:
        return similarity(self.no_jump)

    @cached_property
    def rate_coords(self) -> np.ndarray:
        return (vec(self.decay) @ DUAL).real

    @cached_property
    def generator(self) -> np.ndarray:
        """L = G0 + F, with L vec(rho) = vec(-i[H, rho] + dissipators)."""
        l = self.no_jump + self.feeding
        # trace preservation is an algebraic identity of this construction
        resid = _roundoff_defect(l, lambda a: vec(np.eye(3)) @ a)
        if resid is not None:
            raise RuntimeError(
                f"Liouvillian is not trace preserving ({resid=})")
        return l


class _Layout(NamedTuple):
    level3_bare: bool  # level 3 at -delta3, else at delta3 - delta2
    drives: tuple[tuple[int, int], ...]  # pairs driven by omega_a, omega_b
    channels: tuple[tuple[int, int], ...]  # collapse units |i><j|


# Each single-laser (b) member is its (a) partner's two-level block rotated:
# fig1 rotates levels 1 and 3, fig2 rotates levels 2 and 3.
_LAYOUT = {
    Config.FIG1A: _Layout(True, ((1, 0), (2, 0)), ((0, 1), (2, 1))),
    Config.FIG1B: _Layout(False, ((1, 0), (1, 2)), ((0, 1), (2, 1))),
    Config.FIG2A: _Layout(False, ((1, 0), (2, 1)), ((0, 1), (0, 2))),
    Config.FIG2B: _Layout(True, ((1, 0), (2, 0)), ((0, 1), (0, 2))),
}


# collapse units per configuration, shared (read-only) by every built model
_CHANNELS = {config: np.stack([ketbra(i, j) for i, j in layout.channels])
             for config, layout in _LAYOUT.items()}
for _units in _CHANNELS.values():
    _units.flags.writeable = False


@cache
def _rate_basis(config: Config) -> np.ndarray:
    """(3, 180) reals: row c is K then F of ``config``, by
    ``LindbladModel``'s formulas, at R's unit coordinate c, complex entries
    as (real, imag) pairs.  Its entries are 0 or 1, and each entry of K or
    F sums at most two coordinates, so a product with it rounds as the
    formulas do, bit for bit."""
    rows = []
    for r in ([[1.0, 0.0], [0.0, 0.0]], [[0.0, 1.0], [1.0, 0.0]],
              [[0.0, 0.0], [0.0, 1.0]]):
        m = LindbladModel._unchecked(np.zeros((3, 3), dtype=complex),
                                     _CHANNELS[config], np.array(r))
        rows.append(np.concatenate([m.decay.ravel(), m.feeding.ravel()]))
    return np.array(rows).view(float)


def build_model(p: SystemParams) -> LindbladModel:
    """The Lindblad model of ``p.config``, filled in from ``_LAYOUT``.

    H = diag(0, -delta2, E3) + omega_a (|2><1| + h.c.) + omega_b (|u><l| +
    h.c.).  E3 = -delta3 and omega_b on 1<->3 for fig1a and fig2b;
    E3 = delta3 - delta2 and omega_b on 2<->3 for fig1b and fig2a.  The
    collapse operators are |1><2|, |3><2| for fig1 (level 2 decays into 1
    and 3) and |1><2|, |1><3| for fig2 (levels 2 and 3 decay into 1), with
    R = 2 [[gamma21, x], [x, gamma23_or_31]].  The cross weight
    x = sqrt(gamma21) sqrt(gamma23_or_31) cos(phi) makes the channels of
    the single-laser members interfere; x = 0 for the two-laser members.
    It takes each rate's root, since their product may overflow or
    underflow where x does not.

    K and F are R's coordinates (2 gamma21, 2x, 2 gamma23_or_31) times
    ``_rate_basis(p.config)``.  An E3 or a rate coordinate that overflows
    is a ValueError.  R needs no PSD test: its determinant is
    4 gamma21 gamma23_or_31 sin(phi)^2 >= 0.
    """
    layout = _LAYOUT[p.config]
    h = np.zeros((3, 3), dtype=complex)
    h[1, 1] = -p.delta2
    h[2, 2] = e3 = -p.delta3 if layout.level3_bare else p.delta3 - p.delta2
    for (i, j), omega in zip(layout.drives, (p.omega_a, p.omega_b)):
        h[i, j] = h[j, i] = omega
    g21, g = p.gamma21, p.gamma23_or_31
    x = (math.sqrt(g21) * math.sqrt(g) * _cos_dipole(p.phi)
         if p.config in _NEEDS_PHI else 0.0)
    rates = (a, rx, b) = (2.0 * g21, 2.0 * x, 2.0 * g)
    if not math.isfinite(e3):
        raise ValueError("hamiltonian must be finite")
    if not all(map(math.isfinite, rates)):
        raise ValueError("rate matrix must be finite")
    parts = (np.array(rates) @ _rate_basis(p.config)).view(complex)
    return LindbladModel._unchecked(
        h, _CHANNELS[p.config], np.array([[a, rx], [rx, b]]),
        decay=parts[:9].reshape(3, 3), feeding=parts[9:].reshape(9, 9))
