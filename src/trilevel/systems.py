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
those three entries per configuration, and ``build_model`` fills every
model from it.

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
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .defaults import CHANNEL_FLOOR, ROUNDOFF, SNAP
from .errors import ScenarioError
from .linalg import finite_number, ketbra, kron, vec


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
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ScenarioError(name, f"must be a number, got {value!r}")
            if not finite_number(value):
                raise ScenarioError(name, f"must be finite, got {value}")
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


@dataclass(frozen=True)
class LindbladModel:
    """Hamiltonian plus dissipative channels of one master equation, and
    every operator derived from them, each formed once per model (callers
    share these arrays and must not write to them).

    ``collapse_ops`` is an (n, 3, 3) stack of bare matrix units; all rate
    information lives in ``rate_matrix``, so the generator is trace
    preserving by construction.

    ``jump_operators`` is the (m, 3, 3) stack c_k = sqrt(r_k) sum_a O[a, k]
    A_a from the PSD R = O diag(r) O^T: the same dissipator in single-sum
    Lindblad form, without the channels whose r_k is below CHANNEL_FLOOR
    times the largest rate (or 1).
    """

    hamiltonian: np.ndarray
    collapse_ops: np.ndarray
    rate_matrix: np.ndarray
    jump_operators: np.ndarray = field(init=False, repr=False)

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
        norm = np.linalg.norm
        if norm(h - h.conj().T) > ROUNDOFF * max(1.0, norm(h)):
            raise ValueError("hamiltonian must be Hermitian")
        n = len(ops)
        if r.shape != (n, n):
            raise ValueError(f"rate matrix shape {r.shape} does not match "
                             f"{n} collapse operators")
        if n and norm(r - r.T) > ROUNDOFF * max(1.0, norm(r)):
            raise ValueError("rate matrix must be symmetric")
        w, o = np.linalg.eigh(r)
        wmin = float(w.min(initial=0.0))
        if wmin < -ROUNDOFF * max(1.0, float(np.abs(r).max(initial=0.0))):
            raise ValueError(f"rate matrix is not PSD (min eigenvalue {wmin})")
        keep = w > CHANNEL_FLOOR * max(float(w.max(initial=0.0)), 1.0)
        object.__setattr__(self, "jump_operators", np.einsum(
            "ak,aij->kij", o[:, keep] * np.sqrt(w[keep]), ops))

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
    def generator(self) -> np.ndarray:
        """L = G0 + F, with L vec(rho) = vec(-i[H, rho] + dissipators)."""
        l = self.no_jump + self.feeding
        # trace preservation is an algebraic identity of this construction
        resid = np.linalg.norm(vec(np.eye(3)) @ l)
        if resid > ROUNDOFF * max(1.0, np.linalg.norm(l)):
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


def build_model(p: SystemParams) -> LindbladModel:
    """The Lindblad model of ``p.config``, filled in from ``_LAYOUT``.

    H = diag(0, -delta2, E3) + omega_a (|2><1| + h.c.) + omega_b (|u><l| +
    h.c.).  E3 = -delta3 and omega_b on 1<->3 for fig1a and fig2b;
    E3 = delta3 - delta2 and omega_b on 2<->3 for fig1b and fig2a.  The
    collapse operators are |1><2|, |3><2| for fig1 (level 2 decays into 1
    and 3) and |1><2|, |1><3| for fig2 (levels 2 and 3 decay into 1), with
    R = 2 [[gamma21, x], [x, gamma23_or_31]].  The cross weight
    x = sqrt(gamma21 * gamma23_or_31) cos(phi) makes the channels of the
    single-laser members interfere; x = 0 for the two-laser members.
    """
    layout = _LAYOUT[p.config]
    h = np.zeros((3, 3), dtype=complex)
    h[1, 1] = -p.delta2
    h[2, 2] = -p.delta3 if layout.level3_bare else p.delta3 - p.delta2
    for (i, j), omega in zip(layout.drives, (p.omega_a, p.omega_b)):
        h[i, j] = h[j, i] = omega
    g21, g = p.gamma21, p.gamma23_or_31
    x = (math.sqrt(g21 * g) * _cos_dipole(p.phi)
         if p.config in _NEEDS_PHI else 0.0)
    rates = 2.0 * np.array([[g21, x], [x, g]])
    return LindbladModel(h, [ketbra(i, j) for i, j in layout.channels], rates)
