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
import itertools
import numbers
import operator
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .defaults import (EMISSION_EXCESS, NEWTON_STEP, NULL_CUT, ROUNDOFF,
                       SURVIVAL_FLOOR, TINY)
from .errors import JumpRankError
from .linalg import (DUAL, check_density_matrix, check_grid, coords,
                     finite_number, ketbra, mat_exp, null_space, states, vec)
from .dynamics import _fill_powers, _series, propagate_vectors, steady_state
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


def _reset_coords(reset_state: np.ndarray | None) -> np.ndarray:
    return (coords(ketbra(0, 0)) if reset_state is None
            else check_density_matrix(reset_state, "reset_state"))


def _photon_rates(model: LindbladModel, ws: np.ndarray,
                  what: str) -> np.ndarray:
    """tr(K rho) = beta(K) . w, the photon rate, of each column of
    coordinates ``ws``, clipped at 0.  The states' roundoff reaches it
    times ||beta(K)||_1, which a stiff K makes far larger than the rates:
    below -ROUNDOFF ||beta(K)||_1 max|w| it is a bug."""
    beta = model.rate_coords
    raw = beta @ ws
    floor = -ROUNDOFF * float(np.abs(beta).sum()) * float(np.abs(ws).max())
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
    ws = propagate_vectors(model.generator_coords, _reset_coords(reset_state),
                           taus)
    values = _photon_rates(model, ws, "intensity correlation")
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
    no-jump state has lost, is kept in meta["emitted_probability"]; G0
    only loses trace, so above 1 + EMISSION_EXCESS it is a RuntimeError.
    """
    w0 = _reset_coords(reset_state)
    ws = propagate_vectors(model.no_jump_coords, w0, taus)
    values = _photon_rates(model, ws, "waiting-time density")
    emitted = float((w0 - ws[:, -1])[:3].sum())
    if emitted > 1.0 + EMISSION_EXCESS:
        raise RuntimeError(f"waiting-time density integrates to {emitted} > 1")
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
    before any solve.  A value or coherent weight that is not finite, such
    as one that overflows (both grow as |detect|^2, so past |detect| ~
    1e154), is an internal failure: a RuntimeError names the first such
    frequency of the grid, or the coherent weight.
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
        rho_ss = states(check_density_matrix(rho_ss, "rho_ss"))
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
    # S grows as |detect|^2: a value that overflows is found below, not
    # warned about
    with np.errstate(all="ignore"):
        x = vec(detect @ rho_ss)
        r = x - proj @ x
        c = (z.conj().T @ r)[:, None]
        # S = <detect|z>/pi with z = Z y, so S = (Z^T conj(detect)) . y / pi
        q = (z.T @ vec(detect).conj())[:, None]
        values = np.empty(omegas.size)
        for start in range(0, omegas.size, _SPECTRUM_BLOCK):
            block = omegas[start:start + _SPECTRUM_BLOCK]
            # numpy may round a complex product of one element without the
            # fused multiply-add of its array loops, so a lone frequency goes
            # as a pair
            iw = 1j * np.resize(block, max(block.size, 2))
            inv = 1.0 / (iw - np.diag(t)[:, None])
            y = _back_substitute(t, inv, np.repeat(c, iw.size, axis=1))
            # one refinement pass against A itself: residual
            # r - (i omega - A) z
            zs = _rows_times(y, z.T)
            res = r - iw[:, None] * zs + _rows_times(zs, a.T)
            y += _back_substitute(t, inv, _rows_times(res, z.conj()).T.copy())
            values[start:start + block.size] = (
                _rows_times(y, q)[:block.size, 0].real / np.pi)
        coherent = complex(np.trace(detect.conj().T @ rho_ss)
                           * np.trace(detect @ rho_ss))
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise RuntimeError(f"emission spectrum is not finite at omega = "
                           f"{omegas[bad[0]]:g}")
    if not np.isfinite(coherent):
        raise RuntimeError("coherent weight of the emission spectrum is not "
                           "finite")
    return SampledFunction(omegas, values,
                           {"coherent_weight": coherent.real})


def populations(model: LindbladModel, rho0: np.ndarray,
                times: np.ndarray) -> tuple[SampledFunction, ...]:
    """Level populations along a trajectory, one SampledFunction per level:
    the first three coordinates of the states ``dynamics.propagate_series``
    would give, read without rebuilding them."""
    ws, _ = _series(model.generator_coords, check_density_matrix(rho0, "rho0"),
                    times)
    grid = np.asarray(times, dtype=float)
    return tuple(SampledFunction(grid, ws[:, k], {"level": k + 1})
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


# (sample time, trajectory) pairs per forms call of the ensemble
# populations, which bounds the (27, n) product a call holds to 221 kB
_PAIR_BLOCK = 1024
# (round, trajectory, start) rows per call of the rounds solved ahead, and
# rows of each of their draws
_ROW_TARGET = 1024
# Taylor terms of each no-jump quadratic form in the offset from a table
# point
_TERMS = 11
def _powers(delta: np.ndarray) -> np.ndarray:
    """The (_TERMS, rows) powers delta**n, highest first: row _TERMS - 1 - n
    holds delta**n.  Each filled block times its last power gives the
    next."""
    p = np.empty((_TERMS, delta.size))
    q = p[::-1]
    q[0], q[1], n = 1.0, delta, 2
    while n < _TERMS:  # q[n - 1 + j] = q[j] q[n - 1]
        k = min(n - 1, _TERMS - n)
        np.multiply(q[1:k + 1], q[n - 1], out=q[n:n + k])
        n += k
    return p


class _NoJumpEvolution:
    """Quadratic forms tr(O rho(tau)) of the no-jump states rho(tau) =
    exp(G0 tau) psi_j psi_j^+ of a few start states, 0 <= tau <= t_max, for
    G0 = ``model.no_jump``, which waiting times propagate too: the survival
    (O = 1), the level populations (the projectors) and the channel rates
    (O = c_k^+ c_k of ``model.jump_operators``).

    rho is held as its 9 reals w (``linalg.coords``), where G0 is the real
    9x9 matrix gen = ``model.no_jump_coords``.  The table holds the w of
    each start at multiples of h = min(t_max, 1/(8 ||H_eff||)), stepped by
    the real exponential of gen h.  From the nearest table point, a form is
    the real polynomial sum_n delta^n w . beta_n of the offset delta, with
    beta_0 = beta(O), beta(O)_c = tr(O E_c), and beta_n = beta_(n-1) gen /
    n, the Taylor coefficients of beta(O) exp(gen delta).  At |delta|
    <= h/2 the 11 terms kept leave out at most (2 ||H_eff|| |delta|)**11 /
    11! ~ 2.9e-18 of the form at that point.  Each family of forms keeps
    these coefficients as one (forms, 9, _TERMS) array, highest power
    first: ``beta_populations`` and ``beta_rates``, and ``beta_survival``,
    the survival and then its tau derivative, whose coefficients are
    (n + 1) c_(n+1), a family of its own.  ``forms`` evaluates a family at
    any rows as one product with the powers of delta (the small terms
    summed before the large ones, as in Horner's rule), contracted with the
    9 reals each row gathers from the table.  Each start's survival is also
    kept as a non-increasing search table.

    The table stops at the first point where every survival is below
    SURVIVAL_FLOOR, the smallest threshold a trajectory draws, so a model
    that keeps emitting needs a bounded table whatever t_max; a dark state,
    whose survival levels off above that, keeps the whole table.  Squaring
    the step's exponential to power-of-two points bounds that length; the
    table is then allocated once and filled, one step and every start, by
    one call of the series' doubling, ``dynamics._fill_powers``."""

    def __init__(self, model: LindbladModel, starts: np.ndarray,
                 t_max: float):
        norm = np.linalg.norm(model.effective_hamiltonian, 2)
        scale = 1.0 / norm if norm > 0 else np.inf
        self.h = min(t_max, scale / 8)
        # Newton's last step.  Where the survival is nearly flat, at the end
        # of a long dark period, the root is only good to about (roundoff of
        # the survival) / |slope|: 4.9e-11 at slope -1.3e-6, say
        self.tol = NEWTON_STEP * min(t_max, scale)
        ops, gen = model.jump_operators, model.no_jump_coords
        # beta_0 = beta(O): 1, the level projectors, the c_k^+ c_k
        terms = [(vec(np.concatenate([
            np.eye(3)[None], [np.diag(e) for e in np.eye(3)],
            ops.conj().transpose(0, 2, 1) @ ops])) @ DUAL).real]
        # beta_10 grows as ||H_eff||^10 ||O||: the test after the block names
        # an overflow, which numpy would only warn of
        with np.errstate(over="ignore", invalid="ignore"):
            for q in range(1, _TERMS):
                terms.append(terms[-1] @ gen / q)
            beta = np.stack(terms[::-1], axis=-1)  # highest power first
            # d/dtau sum_n delta^n c_n = sum_n delta^n (n + 1) c_(n+1)
            slope = np.zeros_like(beta[0])
            slope[:, 1:] = beta[0, :, :-1] * np.arange(_TERMS - 1, 0, -1)
        if not (np.isfinite(beta).all() and np.isfinite(slope).all()):
            raise RuntimeError(f"jump sampler: the no-jump Taylor "
                               f"coefficients overflow at ||H_eff|| = "
                               f"{norm:.3g}")
        self.beta_survival = np.stack([beta[0], slope])
        self.beta_populations = beta[1:4].copy()
        self.beta_rates = beta[4:].copy()
        w0 = coords(starts[:, :, None] * starts[:, None, :].conj())
        step = mat_exp(gen, self.h)
        n, power, end = int(np.ceil(t_max / self.h)), step, 1
        while (end < n and (power[:3].sum(axis=0) @ w0.T).max()
               >= SURVIVAL_FLOOR):
            power, end = power @ power, 2 * end
        try:
            table = np.empty((len(starts), min(end, n) + 1, 9))
        except ValueError as err:  # numpy refuses the shape
            raise RuntimeError(
                f"jump sampler: a no-jump table of {min(end, n) + 1:.3g} "
                f"points (step {self.h:.3g} to t = {t_max:g}) exceeds "
                f"numpy's array size") from err
        table[:, 0] = w0
        _fill_powers(step, w0, table[:, 1:])
        survival = table[:, :, :3].sum(axis=2)
        below = survival.max(axis=0) < SURVIVAL_FLOOR
        end = np.argmax(below) + 1 if below.any() else table.shape[1]
        # a cut table is copied, so that its unused tail is freed
        self.table = table[:, :end].copy() if end < table.shape[1] else table
        # the survival is non-increasing: clip roundoff so it can be searched
        self.survival = np.minimum.accumulate(survival[:, :end], axis=1)

    def forms(self, beta: np.ndarray, start: np.ndarray,
              tau: np.ndarray) -> np.ndarray:
        """The forms of ``beta`` (one of the beta_* arrays) at rows
        (start_r, tau_r), the last axis running over rows; the survival's
        family gives the survival and its tau derivative.  One product of
        the family's coefficients with the powers of the offset from the
        nearest table point, contracted with that point's 9 reals.  BLAS
        rounds a product with one column by another kernel than one with
        more, so a lone row goes as a pair: each row's value does not
        depend on the others, bit for bit."""
        rows = tau.size
        if rows == 1:
            start, tau = np.resize(start, 2), np.resize(tau, 2)
        m = np.rint(tau / self.h).astype(int)
        c = beta.reshape(-1, _TERMS) @ _powers(tau - m * self.h)
        w = self.table.reshape(-1, 9).take(start * self.table.shape[1] + m,
                                           axis=0)
        out = np.einsum("kir,ir->kr", c.reshape(len(c) // 9, 9, -1),
                        w.T.copy())
        return out[:, :rows].reshape(beta.shape[:-2] + (rows,))

    def jump_times(self, start, u, t_left):
        """Times at which the survival ||psi(tau)||^2 falls to u, NaN where
        it does not fall to u before t_left."""
        n = self.table.shape[1]
        m, neg_u = np.empty(u.size, dtype=int), -u
        for j, survival in enumerate(self.survival):
            mine = start == j
            m[mine] = np.searchsorted(-survival, neg_u[mine], side="right")
        # table point m is the first below u, so the root lies in [lo, hi]
        k = np.maximum(m - 1, 0)
        tau = np.full(u.size, np.nan)
        rows = np.flatnonzero((m < n) & (k * self.h < t_left))
        start, u, k, m = start[rows], u[rows], k[rows], m[rows]
        lo, hi = k * self.h, m * self.h
        width = hi - lo
        # start from the root of the cubic Hermite interpolant of the
        # survival and its slope on [lo, hi], in x = (t - lo) / (hi - lo):
        # from the secant root, two Newton steps on the cubic, clipped to
        # the bracket.  The slope at a table point is w . beta(1) gen =
        # -tr(K rho), the slope family's delta^0 coefficients, summed row by
        # row: a BLAS (rows, 9) @ (9,) product rounds a row by how many there
        # are
        at_k, at_m = start * n + k, start * n + m
        s0, s1 = self.survival.take(at_k), self.survival.take(at_m)
        flat, beta_1 = self.table.reshape(-1, 9), self.beta_survival[1, :, -1]
        d0 = (flat.take(at_k, axis=0) * beta_1).sum(axis=1) * width
        d1 = (flat.take(at_m, axis=0) * beta_1).sum(axis=1) * width
        fall, f0 = s0 - s1, s0 - u
        c2, c3 = -3 * fall - 2 * d0 - d1, d0 + d1 + 2 * fall
        x = np.clip(f0 / np.maximum(fall, TINY), 0.0, 1.0)
        for _ in range(2):
            f = f0 + x * (d0 + x * (c2 + x * c3))
            df = d0 + x * (2 * c2 + 3 * x * c3)
            x = np.clip(x - f / np.minimum(df, -TINY), 0.0, 1.0)
        t = lo + x * width
        # Newton on the survival polynomial polishes the root in [lo, hi]
        # and bisects where a step would leave it or not halve the step
        # before last (rtsafe)
        step = before = width
        for _ in range(100):  # the step halves at least every other time
            if not rows.size:
                return np.where(tau < t_left, tau, np.nan)
            f, slope = self.forms(self.beta_survival, start, t)
            f -= u
            above = f >= 0
            lo, hi = np.where(above, t, lo), np.where(above, hi, t)
            newton = f / np.minimum(slope, -TINY)  # slope <= 0 up to roundoff
            t_newton = t - newton
            inside = ((t_newton >= lo) & (t_newton <= hi)
                      & (2.0 * np.abs(newton) <= np.abs(before)))
            before, step = step, np.where(inside, newton, t - 0.5 * (lo + hi))
            t = t - step
            done = np.abs(step) <= self.tol  # |step| <= hi - lo
            if done.any():
                tau[rows[done]] = t[done]
                keep = ~done
                rows, start, u, lo, hi, t, step, before = (
                    a[keep] for a in (rows, start, u, lo, hi, t, step,
                                      before))
        raise RuntimeError("jump-time root search did not converge")


def _round_draws(seed: int, rnd: int, n: int) -> np.ndarray:
    """Row i: the draws of trajectory i at jump round ``rnd``, a channel
    draw and the next threshold.  Row i is draws 2i and 2i + 1 of the
    round's stream, so it does not depend on n."""
    stream = np.random.SeedSequence(seed, spawn_key=(rnd,))
    return np.random.default_rng(stream).random((n, 2))


def _solve_ahead(evo: _NoJumpEvolution, seed: int, first: int, depth: int,
                 traj: np.ndarray, u: np.ndarray, t_left: np.ndarray,
                 starts: np.ndarray) -> list:
    """Rounds first .. first + depth - 1 of the running trajectories
    ``traj`` (thresholds ``u`` at round ``first``, at most ``t_left`` to
    go), solved before their start states are known: every trajectory from
    every one of ``starts``, in one jump_times and one forms call.  The
    draws of each round are made here, up to the last trajectory, and give
    the thresholds of the rounds after it.  Returns (traj, draws, roots,
    rates) per round: the roots (NaN where none) and the clipped channel
    rates at them, indexed by position in ``traj`` and by start."""
    drawn = [_round_draws(seed, q, traj[-1] + 1)
             for q in range(first, first + depth)]
    us = np.stack([u, *(1.0 - d[traj, 1] for d in drawn[:-1])])
    shape = (depth, traj.size, starts.size)
    start = np.broadcast_to(starts, shape).ravel()
    tau = evo.jump_times(start, np.broadcast_to(us[:, :, None], shape).ravel(),
                         np.broadcast_to(t_left[:, None], shape).ravel())
    found = np.flatnonzero(~np.isnan(tau))
    rates = np.zeros((tau.size, len(evo.beta_rates)))
    rates[found] = np.maximum(
        evo.forms(evo.beta_rates, start[found], tau[found]).T, 0.0)
    return [(traj, *r) for r in zip(drawn, tau.reshape(shape),
                                    rates.reshape(shape + (-1,)))]


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
    uniform threshold, a root found without any time grid.  A trajectory
    jumps before the horizon exactly when its survival there is below its
    threshold, so a root at ``t_final`` is censored.  The channel
    is drawn from the rates ||c_k psi||^2 of the diagonalized dissipator
    modes at that root, so cross-damping models unravel correctly.  The
    survival and the rates are each a real polynomial in the offset from a
    table point of ``_NoJumpEvolution``, so no state is evaluated in a
    round.
    Every trajectory still running jumps once per round, so the streams
    are keyed by round: at round r trajectory i reads row i of
    ``default_rng(SeedSequence(seed, spawn_key=(r,))).random((n, 2))``,
    its first threshold at r = 0 (column 1) and the channel of its jump r
    (column 0) and its next threshold at r >= 1.  A fixed seed gives the
    same jumps, and trajectory i does not depend on ``n_traj`` or on the
    other trajectories.
    A round costs numpy calls whatever its rows, so after round r a small
    ensemble solves rounds r + 1 .. r + b - 1 ahead, for every running
    trajectory from every distinct reset state (channels whose reset
    coordinates agree bit for bit share one), in one root search and one
    rate evaluation.  b = min(r + 1, _ROW_TARGET / (reset states x (last
    running trajectory + 1))), so those calls, and each round drawn ahead,
    take at most _ROW_TARGET rows, and at most r rounds are drawn that no
    trajectory reaches.  Each row is computed on its own, bit for bit, so
    the jumps do not depend on b; at b = 1 (1000 trajectories, say) each
    round is solved as it comes.
    ``n_traj`` (>= 1) and ``seed`` (>= 0) must be integers
    and ``t_final`` a finite number > 0; true is neither (ValueError).
    ``initial_state`` (default |1>) must be a finite,
    nonzero 3-vector; it is normalized.  ``sample_times`` (finite, in any
    order, within [0, t_final]) requests ensemble populations with standard
    errors, for comparison against the master equation; they are read from
    the same polynomials once, after the last round, from the finished
    record (a jump at a sample time owns it).
    """
    for name, value in ("n_traj", n_traj), ("seed", seed):
        # true is no integer, and a seed of None would draw OS entropy
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    n_traj, seed = operator.index(n_traj), operator.index(seed)
    if n_traj < 1:
        raise ValueError("n_traj must be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
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
    if n_traj >= 1 << 32:  # round 0 alone would draw 64 GiB
        raise ValueError("n_traj must be below 2**32")
    # thresholds lie in [SURVIVAL_FLOOR, 1]; without jump channels they are
    # 0, which no survival falls to
    thresholds = (1.0 - _round_draws(seed, 0, n_traj)[:, 1]) * bool(len(ops))
    # start state 0 is psi0, start state k + 1 the reset state of channel k
    evo = _NoJumpEvolution(model, np.vstack([psi0 / norm, ranges[:, :, 0]]),
                           t_final)

    # channels whose reset coordinates agree bit for bit share one slot of
    # the rounds solved ahead: their table rows, roots and rates agree too
    keys = [w.tobytes() for w in evo.table[1:, 0]]
    heads, slot = np.unique(np.array([keys.index(k) for k in keys], dtype=int),
                            return_inverse=True)

    traj, t0 = np.arange(n_traj), np.zeros(n_traj)
    start = np.zeros(n_traj, dtype=int)
    found = [(traj[:0], t0[:0], start[:0])]
    ahead = []  # the rounds solved ahead, next first
    for rnd in itertools.count(1):
        t_left = t_final - t0
        if ahead:
            solved, draws, tau, rates = ahead.pop(0)
            at = np.searchsorted(solved, traj), slot[start - 1]
            tau, rates = tau[at], rates[at]
        else:
            draws = rates = None
            tau = evo.jump_times(start, thresholds[traj], t_left)
        # a root at t_left or later is no jump, also one solved ahead with
        # the longer t_left of its block's start
        jumped = tau < t_left
        traj = traj[jumped]
        if not traj.size:
            break
        tau, start = tau[jumped], start[jumped]
        t0 = np.minimum(t0[jumped] + tau, t_final)
        if rates is None:
            # a form of a PSD operator dips below 0 by roundoff at most
            rates = np.maximum(evo.forms(evo.beta_rates, start, tau).T, 0.0)
            # traj increases: the rows past its last entry are not drawn
            draws = _round_draws(seed, rnd, traj[-1] + 1)
        else:
            rates = rates[jumped]
        draw, next_u = draws[traj].T
        thresholds[traj] = 1.0 - next_u
        total = rates.sum(axis=1)
        # the last channel takes every draw past the others
        past = np.cumsum(rates, axis=1)[:, :-1] <= (draw * total)[:, None]
        channel = past.sum(axis=1)
        # a numerically fully decayed state picks its channel uniformly
        channel = np.where(total > 0, channel, (draw * len(ops)).astype(int))
        start = channel + 1
        found.append((traj, t0, channel))
        if not ahead:
            # a block of rounds rnd .. rnd + b - 1, b at most the rounds
            # drawn so far, so at most as many are drawn past the last
            # round reached
            b = min(rnd + 1, _ROW_TARGET // (heads.size * (traj[-1] + 1)))
            if b > 1:
                ahead = _solve_ahead(evo, seed, rnd + 1, b - 1, traj,
                                     thresholds[traj], t_final - t0,
                                     heads + 1)

    who, when, which = (np.concatenate(x) for x in zip(*found))
    by_traj = np.argsort(who, kind="stable")  # rounds come in time order
    offsets = np.concatenate([[0], np.cumsum(np.bincount(who,
                                                         minlength=n_traj))])
    who, when, which = who[by_traj], when[by_traj], which[by_traj]
    pops = stderr = None
    if sample_times is not None:
        pops, stderr = _ensemble_populations(evo, offsets, who, when, which,
                                             sample_times)
    return McRun(offsets, when, which, float(t_final), seed,
                 sample_times=sample_times, populations=pops,
                 populations_stderr=stderr)


def _ensemble_populations(evo: _NoJumpEvolution, offsets: np.ndarray,
                          traj: np.ndarray, times: np.ndarray,
                          channels: np.ndarray, sample_times: np.ndarray):
    """Mean level populations at each sample time, and their standard
    errors, from a finished trajectory-major record (jump k of trajectory
    traj_k at times_k into channels_k).  Trajectory i is at time s in the
    segment of its last jump at or before s, evolving from the reset state
    of that jump's channel, else in its first segment, from psi0 at t = 0.
    ``forms`` evaluates the (sample time, trajectory) pairs in blocks."""
    n_traj = offsets.size - 1
    grid, column = np.unique(sample_times, return_inverse=True)
    # a jump counts at every grid time from the first one not below it on
    width = grid.size + 1
    first = np.searchsorted(grid, times)
    hist = np.bincount(traj * width + first, minlength=n_traj * width)
    counts = np.cumsum(hist.reshape(n_traj, width), axis=1)[:, column].T
    # segment 0 starts at t = 0 in psi0 (start state 0), segment k + 1 at
    # jump k in the reset state of its channel (start state channel + 1)
    seg = np.where(counts > 0, offsets[:-1] + counts, 0)
    tau = (sample_times[:, None] - np.concatenate([[0.0], times])[seg]).ravel()
    start = np.concatenate([[0], channels + 1])[seg].ravel()
    p = np.empty((3, tau.size))
    for a in range(0, tau.size, _PAIR_BLOCK):
        b = a + _PAIR_BLOCK
        p[:, a:b] = evo.forms(evo.beta_populations, start[a:b], tau[a:b])
    # (3, sample times, trajectories); clipped like the rates
    p = np.maximum(p, 0.0, out=p).reshape(3, *seg.shape)
    p /= p.sum(axis=0)
    # two passes: the deviations from the mean, not E[p^2] - E[p]^2, whose
    # cancellation leaves about sqrt(ulp) where every trajectory agrees
    mean = p.sum(axis=2) / n_traj
    p -= mean[:, :, None]
    var = np.square(p, out=p).sum(axis=2) / n_traj
    return mean.T, np.sqrt(var.T / n_traj)


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
