"""Measurable quantities: intensity correlations, waiting times, spectra,
populations and quantum-jump trajectories.

The intensity correlation implemented here is the unnormalized detection
rate a time tau after a detection reset (the atom restarts in the ground
state); pass ``normalized=True`` to divide by its value at the last grid
point.  Spectra are the exact resolvent form of the quantum regression
theorem, with the coherent (Rayleigh) plateau split off as a scalar weight.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .defaults import (EMISSION_EXCESS, NEWTON_STEP, NULL_CUT, ROUNDOFF,
                       SURVIVAL_FLOOR, TINY)
from .errors import JumpRankError
from .linalg import (check_density_matrix, check_grid, finite_number, ketbra,
                     mat_exp, null_space, vec)
from .dynamics import (_fill_powers, propagate_series, propagate_vectors,
                       steady_state)
from .systems import LindbladModel


# frequencies per block of emission_spectrum's solve, which bounds the
# (9, n) and (n, 9) arrays a block holds at once to about 1.2 MB
_SPECTRUM_BLOCK = 1024


@dataclass(frozen=True)
class SampledFunction:
    """An observable sampled on a float grid: the result record of g2,
    waiting times, spectra and populations.

    tau grids are in 1/Gamma_ref and increase; omega grids are in
    Gamma_ref and may come in any order.  ``meta`` holds auxiliary scalars
    (coherent weight of a spectrum, emitted probability, level, ...).
    Each producer checks its output where it computes it; the record
    itself checks nothing.
    """

    grid: np.ndarray
    values: np.ndarray
    meta: dict


def _positive(value, name: str) -> None:
    """Reject a ``value`` that is no finite number > 0 (true is no
    number)."""
    if not (finite_number(value) and value > 0):
        raise ValueError(f"{name} must be finite and > 0")


def _reset_vec(reset_state: np.ndarray | None) -> np.ndarray:
    return vec(ketbra(0, 0) if reset_state is None
               else check_density_matrix(reset_state, "reset_state"))


def _photon_rates(model: LindbladModel, vs: np.ndarray,
                  what: str) -> np.ndarray:
    """tr(K rho) = vec(K^T) . vec(rho), the photon rate, of each column of
    ``vs``; below 0 by more than roundoff it is a bug."""
    raw = (vec(model.decay.T) @ vs).real
    floor = -ROUNDOFF * max(1.0, float(np.abs(raw).max()))
    if raw.min() < floor:
        raise RuntimeError(f"{what} went negative ({raw.min():.3e})")
    return np.maximum(raw, 0.0)


def g2(model: LindbladModel, taus: np.ndarray,
       reset_state: np.ndarray | None = None,
       normalized: bool = False) -> SampledFunction:
    """Intensity correlation: detection rate at tau after a reset.

    Evolves the post-detection state (ground level unless ``reset_state``
    is given) under the full master equation and applies the total photon
    rate functional, cross-damping terms included.  ``normalized=True``
    divides by the rate at the last grid point.
    """
    vs = propagate_vectors(model.generator, _reset_vec(reset_state), taus)
    values = _photon_rates(model, vs, "intensity correlation")
    meta = {}
    if normalized:
        tail = values[-1]
        if tail <= 0:
            raise ValueError(f"cannot normalize: the rate at the last grid "
                             f"point (tau = {taus[-1]:g}) is 0")
        meta["normalization"] = tail
        values = values / tail
    return SampledFunction(np.asarray(taus, dtype=float), values, meta)


def waiting_time(model: LindbladModel, taus: np.ndarray,
                 reset_state: np.ndarray | None = None) -> SampledFunction:
    """Next-photon waiting-time density after a detection reset.

    The reset state evolves under the no-jump generator (the Liouvillian
    minus all feeding terms); the density is the detection-rate functional
    of that decaying state, so it integrates to at most 1.  The exact
    probability of an emission by the last grid point, the trace the
    no-jump state has lost, is kept in meta["emitted_probability"]; above
    1 + EMISSION_EXCESS it is a ValueError.
    """
    v0 = _reset_vec(reset_state)
    vs = propagate_vectors(model.no_jump, v0, taus)
    values = _photon_rates(model, vs, "waiting-time density")
    emitted = float((vec(np.eye(3)) @ (v0 - vs[:, -1])).real)
    if emitted > 1.0 + EMISSION_EXCESS:
        raise ValueError(f"waiting-time density integrates to {emitted} > 1")
    return SampledFunction(np.asarray(taus, dtype=float), values,
                           {"emitted_probability": emitted})


def _rows_times(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """x @ m one row at a time: BLAS may round a row of a batched
    (n, 9) @ (9, 9) product with another kernel, chosen by n, than the row
    alone."""
    return (x[:, None, :] @ m)[:, 0]


def _back_substitute(t: np.ndarray, inv: np.ndarray,
                     y: np.ndarray) -> np.ndarray:
    """Solve (i omega - T) y' = y for upper-triangular T, one frequency a
    column of the (9, n) ``y`` (overwritten) with inv[k] = 1/(i omega -
    T_kk); returns y' as (n, 9) rows."""
    for k in range(8, -1, -1):
        y[k] *= inv[k]
        y[:k] += t[:k, k, None] * y[k]
    return y.T.copy()


def emission_spectrum(
    model: LindbladModel,
    detect: np.ndarray,
    omegas: np.ndarray,
    rho_ss: np.ndarray | None = None,
) -> SampledFunction:
    """Incoherent emission spectrum along a detection (lowering) operator.

    Quantum regression in resolvent form, with x = vec(detect rho_ss):
    S(omega) = (1/pi) Re <detect| (i omega - L)^-1 (1 - P0) |x>, where P0
    is the spectral projector onto the null space of L.  (1 - P0) removes
    the coherent plateau C(inf) = |<detect>_ss|^2 of the correlation
    function, which is reported in meta["coherent_weight"].  With the 1/pi
    normalization the spectrum integrates (over all omega) to the
    incoherent part of <detect^+ detect>_ss.

    The solve takes the complex Schur form L - P0 = Z T Z^+ once, solves
    (i omega - T) y = Z^+ (1 - P0) x by back substitution over a block of
    frequencies at once, and makes one pass of iterative refinement whose
    residual uses L - P0 itself.  Each frequency's value does not depend on
    the rest of the grid, bit for bit.

    ``rho_ss`` overrides the steady state for models whose null space is
    degenerate (e.g. a fully decoupled spectator level); it must be a
    density matrix stationary under L, else ValueError.  By default the
    unique steady state is computed and required.  ``detect`` must be a
    finite 3x3 matrix.  ``omegas`` must be a non-empty 1-D grid of finite
    frequencies, in any order and possibly repeated.  Both are checked
    before any solve.
    """
    omegas = check_grid(omegas, "omegas")
    detect = np.asarray(detect, dtype=complex)
    if detect.shape != (3, 3) or not np.isfinite(detect).all():
        raise ValueError("detect must be a finite 3x3 matrix")
    l = model.generator
    # one SVD gives the steady state and P0 below
    right, left = null_space(l)
    if rho_ss is None:
        rho_ss = steady_state(l, right)
    else:
        rho_ss = check_density_matrix(rho_ss, "rho_ss")
        resid = float(np.linalg.norm(l @ vec(rho_ss)))
        if resid > NULL_CUT * np.linalg.norm(l):
            raise ValueError(f"rho_ss is not stationary (|L rho_ss| = "
                             f"{resid:.3e})")
    # P0 = V (W^+ V)^-1 W^+ from L's right and left null bases V and W
    proj = right @ np.linalg.solve(left.conj().T @ right, left.conj().T)
    # adding P0 makes i omega - L + P0 invertible and leaves (1 - P0) x
    # unchanged; with A = L - P0 = Z T Z^+ it is Z (i omega - T) Z^+
    a = l - proj
    t, z = scipy.linalg.schur(a, output="complex")
    x = vec(detect @ rho_ss)
    r = x - proj @ x
    c = (z.conj().T @ r)[:, None]
    # S = <detect|z>/pi with z = Z y, so S = (Z^T conj(detect)) . y / pi
    q = (z.T @ vec(detect).conj())[:, None]
    values = np.empty(omegas.size)
    for start in range(0, omegas.size, _SPECTRUM_BLOCK):
        block = omegas[start:start + _SPECTRUM_BLOCK]
        # numpy may round a complex product of one element without the fused
        # multiply-add of its array loops, so a lone frequency goes as a pair
        iw = 1j * np.resize(block, max(block.size, 2))
        inv = 1.0 / (iw - np.diag(t)[:, None])
        y = _back_substitute(t, inv, np.repeat(c, iw.size, axis=1))
        # one refinement pass against A itself: residual r - (i omega - A) z
        zs = _rows_times(y, z.T)
        res = r - iw[:, None] * zs + _rows_times(zs, a.T)
        y += _back_substitute(t, inv, _rows_times(res, z.conj()).T.copy())
        values[start:start + block.size] = (
            _rows_times(y, q)[:block.size, 0].real / np.pi)
    coherent = complex(np.trace(detect.conj().T @ rho_ss)
                       * np.trace(detect @ rho_ss))
    return SampledFunction(omegas, values,
                           {"coherent_weight": coherent.real})


def populations(model: LindbladModel, rho0: np.ndarray,
                times: np.ndarray) -> tuple[SampledFunction, ...]:
    """Level populations along a trajectory, one SampledFunction per level."""
    series = propagate_series(model.generator, rho0, times)
    diag = np.diagonal(series, axis1=1, axis2=2).real
    grid = np.asarray(times, dtype=float)
    return tuple(SampledFunction(grid, diag[:, k], {"level": k + 1})
                 for k in range(3))


# ---------------------------------------------------------------------------
# quantum-jump (Monte Carlo wave function) unraveling


@dataclass(frozen=True)
class JumpRecord:
    """Emission times and channels of one trajectory: read-only views into
    its run's flat arrays."""

    trajectory: int
    times: np.ndarray
    channels: np.ndarray


@dataclass(frozen=True)
class McRun:
    """Trajectory ensemble plus optional sampled ensemble populations.

    The jumps are flat and trajectory-major: trajectory i emitted at
    ``times[offsets[i]:offsets[i + 1]]``, in increasing order, into the
    same slice of ``channels``.
    """

    offsets: np.ndarray                          # (n_traj + 1,)
    times: np.ndarray
    channels: np.ndarray
    t_final: float
    seed: int
    sample_times: np.ndarray | None = None
    populations: np.ndarray | None = None        # (n_samples, 3) means
    populations_stderr: np.ndarray | None = None

    def __post_init__(self):
        _positive(self.t_final, "t_final")
        for key, kind in ("offsets", int), ("times", float), ("channels", int):
            object.__setattr__(self, key,
                               np.asarray(getattr(self, key), dtype=kind))
        offsets, t, ch = self.offsets, self.times, self.channels
        if t.ndim != 1 or ch.shape != t.shape:
            raise ValueError("times and channels must have equal length")
        if (offsets.ndim != 1 or offsets.size == 0 or offsets[0] != 0
                or np.any(np.diff(offsets) < 0) or offsets[-1] != t.size):
            raise ValueError("offsets must rise from 0 to the number of jumps")
        if not (np.all(t >= 0) and np.all(t <= self.t_final) and np.all(
                np.diff(t)[np.diff(self.trajectory) == 0] > 0)):
            raise ValueError("jump times must increase within [0, t_final]")

    @functools.cached_property
    def trajectory(self) -> np.ndarray:
        """The trajectory of each jump, read-only."""
        counts = np.diff(self.offsets)
        out = np.repeat(np.arange(counts.size), counts)
        out.flags.writeable = False
        return out

    @functools.cached_property
    def records(self) -> tuple[JumpRecord, ...]:
        """One record per trajectory, built on first read."""
        times, channels = self.times.view(), self.channels.view()
        times.flags.writeable = channels.flags.writeable = False
        bounds = zip(self.offsets[:-1].tolist(), self.offsets[1:].tolist())
        return tuple(JumpRecord(i, times[a:b], channels[a:b])
                     for i, (a, b) in enumerate(bounds))


# Taylor terms of each no-jump quadratic form in the offset from a table
# point
_TERMS = 11
# <psi|B|psi> = w . beta(B) for Hermitian B: w holds the |psi_i|^2, then Re
# and Im of conj(psi_i) psi_k for i < k; beta(B) the matching entries of B
_ROW, _COL = (0, 1, 2, 0, 0, 1), (0, 1, 2, 1, 2, 2)


class _NoJumpEvolution:
    """Quadratic forms <psi(tau)|O|psi(tau)> of psi(tau) = exp(-i H_eff
    tau) psi_j for a few start states, 0 <= tau <= t_max: the survival
    (O = 1), the level populations (the projectors) and the channel rates
    (O = c_k^+ c_k of ``model.jump_operators``).

    The table holds, at multiples of h = min(t_max, 1/(8 ||H_eff||)), the
    9 reals w of psi psi^+ of each start.  From the nearest table point, a
    form is the real polynomial sum_n delta^n w . beta(B_n) of the offset
    delta, with B_0 = O and (n + 1) B_(n+1) = (i H_eff^+) B_n + B_n
    (-i H_eff), the Taylor coefficients of exp(i H_eff^+ delta) O
    exp(-i H_eff delta).  At |delta| <= h/2 the 11 terms kept leave out at
    most (2 ||H_eff|| |delta|)**11 / 11! ~ 2.9e-18 of the form at that
    point.  Each start's survival is also kept as a non-increasing search
    table.

    The table stops at the first point where every survival is below
    SURVIVAL_FLOOR, the smallest threshold a trajectory draws, so a model
    that keeps emitting needs a bounded table whatever t_max; a dark state,
    whose survival levels off above that, keeps the whole table.  Squaring
    the step's exponential to power-of-two points bounds that length; the
    table is then allocated once, and each start's states are filled by the
    series' doubling, ``dynamics._fill_powers``, and reduced to w."""

    def __init__(self, model: LindbladModel, starts: np.ndarray,
                 t_max: float):
        h_eff = model.effective_hamiltonian
        norm = np.linalg.norm(h_eff, 2)
        scale = 1.0 / norm if norm > 0 else np.inf
        self.h = min(t_max, scale / 8)
        # Newton's last step.  Where the survival is nearly flat, at the end
        # of a long dark period, the root is only good to about (roundoff of
        # the survival) / |slope|: 4.9e-11 at slope -1.3e-6, say
        self.tol = NEWTON_STEP * min(t_max, scale)
        ops = model.jump_operators
        gen = -1j * h_eff
        # B_0 = O: 1, the level projectors, the c_k^+ c_k
        terms = [np.concatenate([np.eye(3)[None],
                                 [np.diag(e) for e in np.eye(3)],
                                 ops.conj().transpose(0, 2, 1) @ ops])]
        for q in range(1, _TERMS):
            terms.append((gen.conj().T @ terms[-1] + terms[-1] @ gen) / q)
        b = np.stack(terms)[..., _ROW, _COL]  # (terms, forms, 6)
        beta = np.concatenate([b.real * [1, 1, 1, 2, 2, 2],
                               -2 * b[..., 3:].imag], axis=-1)
        # (terms, 9), (terms, 3, 9) and (terms, channels, 9)
        self.beta_survival = beta[:, 0].copy()
        self.beta_populations = beta[:, 1:4].copy()
        self.beta_rates = beta[:, 4:].copy()
        step = mat_exp(gen, self.h)
        n, power, end = int(np.ceil(t_max / self.h)), step, 1
        while end < n and (np.abs(starts @ power.T) ** 2).sum(
                axis=1).max() >= SURVIVAL_FLOOR:
            power, end = power @ power, 2 * end
        table = np.empty((len(starts), min(end, n) + 1, 9))
        psi = np.empty((table.shape[1], 3), dtype=complex)
        for j, start in enumerate(starts):
            psi[0] = start
            _fill_powers(step, start, psi[1:])
            for col, (i, k) in enumerate(zip(_ROW, _COL)):
                z = psi[:, i].conj() * psi[:, k]
                table[j, :, col] = z.real
                if i < k:
                    table[j, :, col + 3] = z.imag
        survival = table[:, :, :3].sum(axis=2)
        below = survival.max(axis=0) < SURVIVAL_FLOOR
        end = np.argmax(below) + 1 if below.any() else table.shape[1]
        # a cut table is copied, so that its unused tail is freed
        self.table = table[:, :end].copy() if end < table.shape[1] else table
        # the survival is non-increasing: clip roundoff so it can be searched
        self.survival = np.minimum.accumulate(survival[:, :end], axis=1)

    def forms(self, beta: np.ndarray, start: np.ndarray, tau: np.ndarray,
              slope: bool = False):
        """The forms of ``beta`` (one of the beta_* arrays) at rows
        (start_r, tau_r), the last axis running over rows; with ``slope``,
        also their tau derivative.  One Horner loop in the offset from the
        nearest table point."""
        m = np.rint(tau / self.h).astype(int)
        delta = tau - m * self.h
        c = beta @ self.table[start, m].T  # (terms, ..., rows)
        value, deriv = c[-1], 0.0
        for n in range(_TERMS - 2, -1, -1):
            if slope:
                deriv = deriv * delta + value
            value = value * delta + c[n]
        return (value, deriv) if slope else value

    def jump_times(self, start, u, t_left):
        """Times at which the survival ||psi(tau)||^2 falls to u, NaN where
        it stays >= u on [0, t_left]."""
        m = np.empty(u.size, dtype=int)
        for j, survival in enumerate(self.survival):
            m[start == j] = np.searchsorted(-survival, -u[start == j],
                                            side="right")
        # table point m is the first below u, so the root lies in [lo, hi]
        k = np.maximum(m - 1, 0)
        tau = np.full(u.size, np.nan)
        rows = np.flatnonzero((m < self.table.shape[1])
                              & (k * self.h < t_left))
        start, u, k, m = start[rows], u[rows], k[rows], m[rows]
        lo, hi = k * self.h, m * self.h
        # start from the root of the cubic Hermite interpolant of the
        # survival and its slope on [lo, hi], in x = (t - lo) / (hi - lo):
        # from the secant root, two Newton steps on the cubic, clipped to
        # the bracket.  The slope at a table point is w . beta(B_1) = -<K>
        s0, s1 = self.survival[start, k], self.survival[start, m]
        d0, d1 = (self.table[start, k] @ self.beta_survival[1] * (hi - lo),
                  self.table[start, m] @ self.beta_survival[1] * (hi - lo))
        c2, c3 = 3 * (s1 - s0) - 2 * d0 - d1, d0 + d1 - 2 * (s1 - s0)
        x = np.clip((s0 - u) / np.maximum(s0 - s1, TINY), 0.0, 1.0)
        for _ in range(2):
            f = s0 - u + x * (d0 + x * (c2 + x * c3))
            df = d0 + x * (2 * c2 + 3 * x * c3)
            x = np.clip(x - f / np.minimum(df, -TINY), 0.0, 1.0)
        t = lo + x * (hi - lo)
        # Newton on the survival polynomial polishes the root in [lo, hi]
        # and bisects where a step would leave it or not halve the step
        # before last (rtsafe)
        step = before = hi - lo
        for _ in range(100):  # the step halves at least every other time
            if not rows.size:
                return np.where(tau <= t_left, tau, np.nan)
            f, slope = self.forms(self.beta_survival, start, t, slope=True)
            f -= u
            lo, hi = np.where(f >= 0, t, lo), np.where(f >= 0, hi, t)
            newton = f / np.minimum(slope, -TINY)  # slope <= 0 up to roundoff
            bisect = ~((t - newton >= lo) & (t - newton <= hi)
                       & (2.0 * np.abs(newton) <= np.abs(before)))
            before, step = step, np.where(bisect, t - 0.5 * (lo + hi), newton)
            t = t - step
            done = np.abs(step) <= self.tol  # |step| <= hi - lo
            tau[rows[done]] = t[done]
            rows, start, u, lo, hi, t, step, before = (
                a[~done] for a in (rows, start, u, lo, hi, t, step, before))
        raise RuntimeError("jump-time root search did not converge")


def _round_draws(seed: int, rnd: int, n: int) -> np.ndarray:
    """Row i: the draws of trajectory i at jump round ``rnd``, a channel
    draw and the next threshold.  Row i is draws 2i and 2i + 1 of the
    round's stream, so it does not depend on n."""
    stream = np.random.SeedSequence(seed, spawn_key=(rnd,))
    return np.random.default_rng(stream).random((n, 2))


def mc_trajectories(
    model: LindbladModel,
    n_traj: int,
    t_final: float,
    seed: int,
    initial_state: np.ndarray | None = None,
    sample_times: np.ndarray | None = None,
) -> McRun:
    """Quantum-jump unraveling of the master equation as a renewal process.

    Every jump operator c_k must be rank one (else JumpRankError), so a
    jump resets the atom to the range of c_k; in between the state evolves
    under H_eff = H - i K / 2 until its survival ||psi||^2 falls to a
    uniform threshold, a root found without any time grid.  The channel
    is drawn from the rates ||c_k psi||^2 of the diagonalized dissipator
    modes at that root, so cross-damping models unravel correctly.  The
    survival, the rates and the sampled populations are each a real
    polynomial in the offset from a table point of ``_NoJumpEvolution``,
    so no state is evaluated in a round.
    Every trajectory still running jumps once per round, so the streams
    are keyed by round: at round r trajectory i reads row i of
    ``default_rng(SeedSequence(seed, spawn_key=(r,))).random((n, 2))``,
    its first threshold at r = 0 (column 1) and the channel of its jump r
    (column 0) and its next threshold at r >= 1.  A fixed seed gives the
    same jumps, and trajectory i does not depend on ``n_traj`` or on the
    other trajectories.  ``n_traj`` (>= 1) and ``seed`` must be integers
    and ``t_final`` a finite number > 0; true is neither (ValueError).
    ``initial_state`` (default |1>) must be a finite,
    nonzero 3-vector; it is normalized.  ``sample_times`` (finite, in any
    order, within [0, t_final]) requests ensemble populations with standard
    errors, for comparison against the master equation.
    """
    for name, value in ("n_traj", n_traj), ("seed", seed):
        if isinstance(value, bool):  # true is no integer
            raise ValueError(f"{name} must be an integer, got {value!r}")
    n_traj = operator.index(n_traj)
    if n_traj < 1:
        raise ValueError("n_traj must be >= 1")
    _positive(t_final, "t_final")
    ops = model.jump_operators
    ranges, sv, _ = np.linalg.svd(ops)
    bad = np.flatnonzero(sv[:, 1] > ROUNDOFF * sv[:, 0])
    if bad.size:
        raise JumpRankError(f"jump channel {bad[0]} is not rank one "
                            f"(s2/s1 = {sv[bad[0], 1] / sv[bad[0], 0]:.3e})")
    psi0 = np.asarray([1.0, 0.0, 0.0] if initial_state is None
                      else initial_state, dtype=complex)
    norm = np.linalg.norm(psi0) if psi0.shape == (3,) else np.nan
    if not 0 < norm < np.inf:
        raise ValueError("initial_state must be a finite, nonzero 3-vector")
    if sample_times is not None:
        sample_times = check_grid(sample_times, "sample_times")
        if np.any(sample_times < 0) or np.any(sample_times > t_final):
            raise ValueError("sample_times must lie within [0, t_final]")
        moments = np.zeros((sample_times.size, 2, 3))  # sums of p and p^2
    seed = operator.index(seed)  # None would draw OS entropy
    if n_traj >= 1 << 32:  # round 0 alone would draw 64 GiB
        raise ValueError("n_traj must be below 2**32")
    # thresholds lie in [SURVIVAL_FLOOR, 1]; without jump channels they are
    # 0, which no survival falls to
    thresholds = (1.0 - _round_draws(seed, 0, n_traj)[:, 1]) * bool(len(ops))
    # start state 0 is psi0, start state k + 1 the reset state of channel k
    evo = _NoJumpEvolution(model, np.vstack([psi0 / norm, ranges[:, :, 0]]),
                           t_final)

    traj, t0 = np.arange(n_traj), np.zeros(n_traj)
    start = np.zeros(n_traj, dtype=int)
    found = [(traj[:0], t0[:0], start[:0])]
    jump_round = 0  # not r: the sampling block binds r
    while traj.size:
        tau = evo.jump_times(start, thresholds[traj], t_final - t0)
        jumped = ~np.isnan(tau)
        t_end = np.where(jumped, np.minimum(t0 + tau, t_final), np.inf)
        if sample_times is not None:  # samples within each segment [t0, t_end)
            r, j = np.nonzero((t0[:, None] <= sample_times)
                              & (sample_times < t_end[:, None]))
            # a form of a PSD operator dips below 0 by roundoff at most
            p = np.maximum(evo.forms(evo.beta_populations, start[r],
                                     sample_times[j] - t0[r]).T, 0.0)
            p /= p.sum(axis=1, keepdims=True)
            np.add.at(moments, j, np.stack([p, p ** 2], axis=1))
        traj, t0 = traj[jumped], t_end[jumped]
        if not traj.size:
            break
        rates = np.maximum(evo.forms(evo.beta_rates, start[jumped],
                                     tau[jumped]).T, 0.0)
        jump_round += 1
        # traj increases: the rows past its last entry are not drawn
        draw, next_u = _round_draws(seed, jump_round, traj[-1] + 1)[traj].T
        thresholds[traj] = 1.0 - next_u
        total = rates.sum(axis=1)
        channel = (np.cumsum(rates, axis=1) <= (draw * total)[:, None]).sum(1)
        channel = np.minimum(channel, len(ops) - 1)
        # a numerically fully decayed state picks its channel uniformly
        channel = np.where(total > 0, channel, (draw * len(ops)).astype(int))
        start = channel + 1
        found.append((traj, t0, channel))

    who, when, which = (np.concatenate(x) for x in zip(*found))
    by_traj = np.argsort(who, kind="stable")  # rounds come in time order
    offsets = np.concatenate([[0], np.cumsum(np.bincount(who,
                                                         minlength=n_traj))])
    pops = stderr = None
    if sample_times is not None:
        pops, mean_sq = np.moveaxis(moments / n_traj, 1, 0)
        var = np.maximum(mean_sq - pops ** 2, 0.0)
        stderr = np.sqrt(var / n_traj)
    return McRun(offsets, when[by_traj], which[by_traj], float(t_final), seed,
                 sample_times=sample_times, populations=pops,
                 populations_stderr=stderr)


def interjump_gaps(run: McRun) -> np.ndarray:
    """Pooled gaps between consecutive jumps of each trajectory."""
    return np.diff(run.times)[np.diff(run.trajectory) == 0]


@dataclass(frozen=True)
class BrightDarkStats:
    mean_bright: float
    mean_dark: float
    n_dark_periods: int
    n_gaps: int


def bright_dark_stats(run: McRun, threshold: float) -> BrightDarkStats:
    """Classify inter-jump gaps above ``threshold`` as dark periods.

    The trailing interval after the last jump is censored and ignored.
    ``threshold`` must be a finite number > 0 (true is no number).
    """
    if run.offsets.size < 2:
        raise ValueError("empty run: no trajectories to analyze")
    _positive(threshold, "threshold")
    gaps = interjump_gaps(run)
    dark = gaps[gaps > threshold]
    bright = gaps[gaps <= threshold]
    return BrightDarkStats(
        mean_bright=float(bright.mean()) if bright.size else float("nan"),
        mean_dark=float(dark.mean()) if dark.size else float("nan"),
        n_dark_periods=int(dark.size),
        n_gaps=int(gaps.size),
    )
