"""Measurable quantities: intensity correlations, waiting times, spectra,
populations and quantum-jump trajectories.

The intensity correlation implemented here is the unnormalized detection
rate a time tau after a detection reset (the atom restarts in the ground
state); pass ``normalized=True`` to divide by the long-time rate.  Spectra
are the exact resolvent form of the quantum regression theorem, with the
coherent (Rayleigh) plateau split off as a scalar weight.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .defaults import (EMISSION_EXCESS, NEWTON_STEP, NULL_CUT, ROUNDOFF,
                       SURVIVAL_FLOOR, TINY)
from .errors import JumpRankError
from .linalg import dagger, ketbra, mat_exp, null_space, vec
from .dynamics import propagate_series, propagate_vectors, steady_state
from .systems import LindbladModel


_trapezoid = getattr(np, "trapezoid", None) or np.trapz

# frequencies per batched resolvent solve, which bounds the (n, 9, 9) stack
# emission_spectrum holds at once to about 1.3 MB
_SPECTRUM_BLOCK = 1024

# jumps per read of a trajectory's random stream
_JUMP_BLOCK = 16

# no-jump table points per product with the step's powers
_TABLE_BLOCK = 64


class Kind(str, enum.Enum):
    G2 = "g2"
    WAITING_TIME = "waiting_time"
    SPECTRUM = "spectrum"
    POPULATION = "population"


@dataclass(frozen=True)
class SampledFunction:
    """Uniformly meaningful (grid, values) pair with a kind tag.

    tau grids are in 1/Gamma_ref, omega grids in Gamma_ref.  ``meta`` holds
    auxiliary scalars (coherent weight of a spectrum, seeds, ...).  A
    waiting-time density is judged against 1 by its exact
    ``meta["emitted_probability"]`` when present, else by the trapezoid rule.
    """

    grid: np.ndarray
    values: np.ndarray
    kind: Kind
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        if grid.ndim != 1 or grid.size == 0 or np.any(np.diff(grid) <= 0):
            raise ValueError("grid must be 1-D and strictly increasing")
        if values.shape[0] != grid.size:
            raise ValueError("values length does not match grid")
        if self.kind in (Kind.G2, Kind.WAITING_TIME):
            low = float(np.min(values.real))
            if low < -ROUNDOFF:
                raise ValueError(f"{self.kind.value} values must be >= 0 "
                                 f"(found {low})")
        if self.kind is Kind.WAITING_TIME and grid.size > 1:
            total = self.meta.get("emitted_probability")
            if total is None:
                total = float(_trapezoid(values.real, grid))
            if total > 1.0 + EMISSION_EXCESS:
                raise ValueError(f"waiting-time density integrates to {total} > 1")


def _reset_vec(reset_state: np.ndarray | None) -> np.ndarray:
    if reset_state is None:
        return vec(ketbra(0, 0))
    rho = np.asarray(reset_state, dtype=complex)
    if rho.shape != (3, 3):
        raise ValueError("reset_state must be a 3x3 density matrix")
    return vec(rho)


def _nonnegative_rates(raw: np.ndarray, what: str) -> np.ndarray:
    # rates are nonnegative up to roundoff; anything beyond the floor is a bug
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
    # vec(K^T) @ vec(rho) = tr(K rho), the photon rate
    vs = propagate_vectors(model.generator, _reset_vec(reset_state), taus)
    values = _nonnegative_rates((vec(model.decay.T) @ vs).real,
                                "intensity correlation")
    meta = {}
    if normalized:
        tail = values[-1]
        if tail <= 0:
            raise ValueError("cannot normalize: zero long-time rate")
        meta["normalization"] = tail
        values = values / tail
    return SampledFunction(np.asarray(taus, dtype=float), values, Kind.G2, meta)


def waiting_time(model: LindbladModel, taus: np.ndarray,
                 reset_state: np.ndarray | None = None) -> SampledFunction:
    """Next-photon waiting-time density after a detection reset.

    The reset state evolves under the no-jump generator (the Liouvillian
    minus all feeding terms); the density is the detection-rate functional
    of that decaying state, so it integrates to at most 1.  The exact
    probability of an emission by the last grid point, the trace the
    no-jump state has lost, is kept in meta["emitted_probability"].
    """
    v0 = _reset_vec(reset_state)
    vs = propagate_vectors(model.no_jump, v0, taus)
    values = _nonnegative_rates((vec(model.decay.T) @ vs).real,
                                "waiting-time density")
    emitted = float((vec(np.eye(3)) @ (v0 - vs[:, -1])).real)
    return SampledFunction(np.asarray(taus, dtype=float), values,
                           Kind.WAITING_TIME,
                           {"emitted_probability": emitted})


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

    ``rho_ss`` overrides the steady state for models whose null space is
    degenerate (e.g. a fully decoupled spectator level); it must be
    stationary under L, else ValueError.  By default the unique steady
    state is computed and required.
    """
    l = model.generator
    if rho_ss is None:
        rho_ss = steady_state(l)
    else:
        rho_ss = np.asarray(rho_ss, dtype=complex)
        resid = float(np.linalg.norm(l @ vec(rho_ss)))
        if resid > NULL_CUT * np.linalg.norm(l):
            raise ValueError(f"rho_ss is not stationary (|L rho_ss| = "
                             f"{resid:.3e})")
    detect = np.asarray(detect, dtype=complex)
    # P0 = V (U^+ V)^-1 U^+ from the right and left null spaces of L
    right = np.array(null_space(l)).T
    left = np.array(null_space(l.conj().T)).T
    proj = right @ np.linalg.solve(left.conj().T @ right, left.conj().T)
    x = vec(detect @ rho_ss)
    rhs = (x - proj @ x)[:, None]
    omegas = np.asarray(omegas, dtype=float)
    values = np.empty(omegas.size)
    for start in range(0, omegas.size, _SPECTRUM_BLOCK):
        block = omegas[start:start + _SPECTRUM_BLOCK, None, None]
        # adding P0 makes the matrix invertible and leaves (1 - P0) x unchanged
        mats = 1j * block * np.eye(9) - l + proj
        z = np.linalg.solve(mats, np.broadcast_to(rhs, (block.size, 9, 1)))
        values[start:start + block.size] = (
            (z[..., 0] @ vec(detect).conj()).real / np.pi)
    coherent = complex(np.trace(dagger(detect) @ rho_ss)
                       * np.trace(detect @ rho_ss))
    return SampledFunction(omegas, values, Kind.SPECTRUM,
                           meta={"coherent_weight": coherent.real})


def populations(model: LindbladModel, rho0: np.ndarray,
                times: np.ndarray) -> tuple[SampledFunction, ...]:
    """Level populations along a trajectory, one SampledFunction per level."""
    series = propagate_series(model.generator, rho0, times)
    diag = np.diagonal(series, axis1=1, axis2=2).real
    return tuple(
        SampledFunction(times, diag[:, k], Kind.POPULATION, {"level": k + 1})
        for k in range(3)
    )


# ---------------------------------------------------------------------------
# quantum-jump (Monte Carlo wave function) unraveling


@dataclass(frozen=True)
class JumpRecord:
    """Emission times and channels of one trajectory."""

    trajectory: int
    times: np.ndarray
    channels: np.ndarray
    t_final: float

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        ch = np.asarray(self.channels, dtype=int)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "channels", ch)
        if t.size != ch.size:
            raise ValueError("times and channels must have equal length")
        if t.size and (np.any(np.diff(t) <= 0) or t[0] < 0
                       or t[-1] > self.t_final):
            raise ValueError("jump times must increase within [0, t_final]")


@dataclass(frozen=True)
class McRun:
    """Trajectory ensemble plus optional sampled ensemble populations."""

    records: list[JumpRecord]
    seed: int
    sample_times: np.ndarray | None = None
    populations: np.ndarray | None = None        # (n_samples, 3) means
    populations_stderr: np.ndarray | None = None


class _NoJumpEvolution:
    """exp(-i H_eff tau) psi_j of a few start states, 0 <= tau <= t_max:
    tabulated at multiples of h = min(t_max, 1/(8 ||H_eff||)), in between
    an 11-term Taylor polynomial from the nearest table point, exact to
    about 16**-11 / 11! ~ 1e-21 at |delta| ||H_eff|| <= 1/16.  The table
    also holds each start's survival ||psi||^2 and its exact slope
    -<psi|K|psi>.  It stops at the first point where every survival is
    below SURVIVAL_FLOOR, the smallest threshold a trajectory draws, so a
    model that keeps emitting needs a bounded table whatever t_max; a dark
    state, whose survival levels off above that, keeps the whole table."""

    def __init__(self, h_eff: np.ndarray, starts: np.ndarray, t_max: float):
        norm = np.linalg.norm(h_eff, 2)
        scale = 1.0 / norm if norm > 0 else np.inf
        self.h = min(t_max, scale / 8)
        self.tol = NEWTON_STEP * min(t_max, scale)  # Newton's last step
        self.gen_t = -1j * h_eff.T  # psi @ gen_t = -i H_eff psi for rows psi
        self.decay_t = (1j * (h_eff - dagger(h_eff))).T  # K
        # the table grows _TABLE_BLOCK points at a time: the last row times
        # the step's first _TABLE_BLOCK powers
        powers = [mat_exp(-1j * h_eff, self.h).T]
        for _ in range(_TABLE_BLOCK - 1):
            powers.append(powers[-1] @ powers[0])
        n = int(np.ceil(t_max / self.h))
        blocks = [starts[:, None]]
        while ((len(blocks) - 1) * _TABLE_BLOCK < n and (np.abs(
                blocks[-1][:, -1]) ** 2).sum(axis=1).max() >= SURVIVAL_FLOOR):
            blocks.append(np.einsum("ji,bik->jbk", blocks[-1][:, -1], powers))
        table = np.concatenate(blocks, axis=1)[:, :n + 1]
        del blocks  # a dark state keeps the whole table: hold it only once
        survival = (np.abs(table) ** 2).sum(axis=2)
        below = survival.max(axis=0) < SURVIVAL_FLOOR
        end = np.argmax(below) + 1 if below.any() else table.shape[1]
        self.table = table[:, :end]
        # the survival is non-increasing: clip roundoff so it can be searched
        self.survival = np.minimum.accumulate(survival[:, :end], axis=1)
        self.slope = -np.einsum("jmi,ki,jmk->jm", self.table.conj(),
                                self.decay_t, self.table).real

    def states(self, start: np.ndarray, tau: np.ndarray) -> np.ndarray:
        """Rows exp(-i H_eff tau_r) psi_{start_r}."""
        m = np.rint(tau / self.h).astype(int)
        delta = (tau - m * self.h)[:, None]
        base = out = self.table[start, m]
        for n in range(10, 0, -1):  # Horner
            out = out @ self.gen_t
            out *= delta / n
            out += base
        return out

    def jump_times(self, start, u, t_left):
        """Times at which the survival ||psi(tau)||^2 falls to u, NaN where
        it stays >= u on [0, t_left], and the states psi(tau) there."""
        m = np.empty(u.size, dtype=int)
        for j, survival in enumerate(self.survival):
            m[start == j] = np.searchsorted(-survival, -u[start == j],
                                            side="right")
        # table point m is the first below u, so the root lies in [lo, hi]
        k = np.maximum(m - 1, 0)
        tau = np.full(u.size, np.nan)
        psi_at = np.full((u.size, 3), np.nan, dtype=complex)
        rows = np.flatnonzero((m < self.table.shape[1])
                              & (k * self.h < t_left))
        start, u, k, m = start[rows], u[rows], k[rows], m[rows]
        lo, hi = k * self.h, m * self.h
        # start from the root of the cubic Hermite interpolant of the
        # survival and its slope on [lo, hi], in x = (t - lo) / (hi - lo):
        # from the secant root, two Newton steps on the cubic, clipped to
        # the bracket
        s0, s1 = self.survival[start, k], self.survival[start, m]
        d0, d1 = (self.slope[start, k] * (hi - lo),
                  self.slope[start, m] * (hi - lo))
        c2, c3 = 3 * (s1 - s0) - 2 * d0 - d1, d0 + d1 - 2 * (s1 - s0)
        x = np.clip((s0 - u) / np.maximum(s0 - s1, TINY), 0.0, 1.0)
        for _ in range(2):
            f = s0 - u + x * (d0 + x * (c2 + x * c3))
            df = d0 + x * (2 * c2 + 3 * x * c3)
            x = np.clip(x - f / np.minimum(df, -TINY), 0.0, 1.0)
        t = lo + x * (hi - lo)
        # Newton with the exact slope -<psi|K|psi> polishes the root in
        # [lo, hi] and bisects where a step would leave it or not halve the
        # step before last (rtsafe)
        step = before = hi - lo
        for _ in range(100):  # the step halves at least every other time
            if not rows.size:
                return np.where(tau <= t_left, tau, np.nan), psi_at
            psi = self.states(start, t)
            f = (np.abs(psi) ** 2).sum(axis=1) - u
            slope = -np.einsum("ri,ri->r", psi.conj(), psi @ self.decay_t).real
            lo, hi = np.where(f >= 0, t, lo), np.where(f >= 0, hi, t)
            newton = f / np.minimum(slope, -TINY)  # slope <= 0 up to roundoff
            bisect = ~((t - newton >= lo) & (t - newton <= hi)
                       & (2.0 * np.abs(newton) <= np.abs(before)))
            before, step = step, np.where(bisect, t - 0.5 * (lo + hi), newton)
            t = t - step
            done = np.abs(step) <= self.tol  # |step| <= hi - lo
            tau[rows[done]] = t[done]
            psi_at[rows[done]] = psi[done]
            rows, start, u, lo, hi, t, step, before = (
                a[~done] for a in (rows, start, u, lo, hi, t, step, before))
        raise RuntimeError("jump-time root search did not converge")


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
    modes at that root, so cross-damping models unravel correctly.
    Trajectory i draws from its own stream spawned from (seed, i), in this
    order: a threshold, then a channel draw and the next threshold at each
    jump.  The stream is read 16 jumps at a time, which leaves the values
    and their order unchanged, so a fixed seed gives the same records and
    trajectory i does not depend on ``n_traj``.  ``sample_times`` (any
    within [0, t_final]) requests ensemble populations with standard
    errors, for comparison against the master equation.
    """
    if n_traj < 1:
        raise ValueError("n_traj must be >= 1")
    if not (t_final > 0):
        raise ValueError("t_final must be > 0")
    ops = model.jump_operators
    ranges, sv, _ = np.linalg.svd(ops)
    bad = np.flatnonzero(sv[:, 1] > ROUNDOFF * sv[:, 0])
    if bad.size:
        raise JumpRankError(f"jump channel {bad[0]} is not rank one "
                            f"(s2/s1 = {sv[bad[0], 1] / sv[bad[0], 0]:.3e})")
    psi0 = np.asarray([1.0, 0.0, 0.0] if initial_state is None
                      else initial_state, dtype=complex)
    # start state 0 is psi0, start state k + 1 the reset state of channel k
    evo = _NoJumpEvolution(model.effective_hamiltonian, np.vstack(
        [psi0 / np.linalg.norm(psi0), ranges[:, :, 0]]), t_final)
    if sample_times is not None:
        sample_times = np.asarray(sample_times, dtype=float)
        if np.any(sample_times < 0) or np.any(sample_times > t_final):
            raise ValueError("sample_times must lie within [0, t_final]")
        moments = np.zeros((sample_times.size, 2, 3))  # sums of p and p^2

    rngs = [np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
            for i in range(n_traj)]
    # a threshold, then a (channel draw, next threshold) pair per jump
    first = np.array([rng.random(1 + 2 * _JUMP_BLOCK) for rng in rngs])
    # thresholds lie in [SURVIVAL_FLOOR, 1]; without jump channels they are
    # 0, which no survival falls to
    thresholds = (1.0 - first[:, 0]) * bool(len(ops))
    draws = first[:, 1:].reshape(n_traj, _JUMP_BLOCK, 2)
    read = np.zeros(n_traj, dtype=int)  # jumps drawn from the current block
    traj, t0 = np.arange(n_traj), np.zeros(n_traj)
    start = np.zeros(n_traj, dtype=int)
    found = [(traj[:0], t0[:0], start[:0])]
    while traj.size:
        tau, psi = evo.jump_times(start, thresholds[traj], t_final - t0)
        jumped = ~np.isnan(tau)
        t_end = np.where(jumped, np.minimum(t0 + tau, t_final), np.inf)
        if sample_times is not None:  # samples within each segment [t0, t_end)
            r, j = np.nonzero((t0[:, None] <= sample_times)
                              & (sample_times < t_end[:, None]))
            p = np.abs(evo.states(start[r], sample_times[j] - t0[r])) ** 2
            p /= p.sum(axis=1, keepdims=True)
            np.add.at(moments, j, np.stack([p, p ** 2], axis=1))
        traj, t0, psi = traj[jumped], t_end[jumped], psi[jumped]
        if not traj.size:
            break
        rates = (np.abs(np.einsum("kij,rj->rki", ops, psi)) ** 2).sum(axis=2)
        spent = traj[read[traj] == _JUMP_BLOCK]
        for i in spent:
            draws[i] = rngs[i].random(2 * _JUMP_BLOCK).reshape(_JUMP_BLOCK, 2)
        read[spent] = 0
        draw, next_u = draws[traj, read[traj]].T
        read[traj] += 1
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
    bounds = np.cumsum(np.bincount(who, minlength=n_traj))[:-1]
    records = [JumpRecord(i, t, c, float(t_final)) for i, (t, c) in enumerate(
        zip(np.split(when[by_traj], bounds), np.split(which[by_traj], bounds)))]
    pops = stderr = None
    if sample_times is not None:
        pops, mean_sq = np.moveaxis(moments / n_traj, 1, 0)
        var = np.maximum(mean_sq - pops ** 2, 0.0)
        stderr = np.sqrt(var / n_traj)
    return McRun(records=records, seed=seed, sample_times=sample_times,
                 populations=pops, populations_stderr=stderr)


def interjump_gaps(records: list[JumpRecord]) -> np.ndarray:
    """Pooled gaps between consecutive jumps of each trajectory."""
    gaps = [np.diff(r.times) for r in records if r.times.size >= 2]
    if not gaps:
        return np.empty(0)
    return np.concatenate(gaps)


@dataclass(frozen=True)
class BrightDarkStats:
    mean_bright: float
    mean_dark: float
    n_dark_periods: int
    n_gaps: int


def bright_dark_stats(records: list[JumpRecord],
                      threshold: float) -> BrightDarkStats:
    """Classify inter-jump gaps above ``threshold`` as dark periods.

    The trailing interval after the last jump is censored and ignored.
    """
    if not records:
        raise ValueError("empty records: no trajectories to analyze")
    if not (threshold > 0):
        raise ValueError("threshold must be > 0")
    gaps = interjump_gaps(records)
    dark = gaps[gaps > threshold]
    bright = gaps[gaps <= threshold]
    return BrightDarkStats(
        mean_bright=float(bright.mean()) if bright.size else float("nan"),
        mean_dark=float(dark.mean()) if dark.size else float("nan"),
        n_dark_periods=int(dark.size),
        n_gaps=int(gaps.size),
    )
