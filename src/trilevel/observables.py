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

from .linalg import dagger, level_projector, null_space, vec
from .dynamics import (
    feeding_superoperator,
    liouvillian,
    propagate_series,
    propagate_vectors,
    steady_state,
)
from .systems import LindbladModel


_trapezoid = getattr(np, "trapezoid", None) or np.trapz

# frequencies per batched resolvent solve, which bounds the (n, 9, 9) stack
# emission_spectrum holds at once to about 1.3 MB
_SPECTRUM_BLOCK = 1024


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
            if low < -1e-12:
                raise ValueError(f"{self.kind.value} values must be >= 0 "
                                 f"(found {low})")
        if self.kind is Kind.WAITING_TIME and grid.size > 1:
            total = self.meta.get("emitted_probability")
            if total is None:
                total = float(_trapezoid(values.real, grid))
            if total > 1.0 + 1e-6:
                raise ValueError(f"waiting-time density integrates to {total} > 1")


def _detection_functional(model: LindbladModel) -> np.ndarray:
    # row vector f with f @ vec(rho) = tr(feeding(rho)) = photon rate
    return vec(np.eye(3)) @ feeding_superoperator(model)


def _reset_vec(reset_state: np.ndarray | None) -> np.ndarray:
    if reset_state is None:
        return vec(level_projector(0))
    rho = np.asarray(reset_state, dtype=complex)
    if rho.shape != (3, 3):
        raise ValueError("reset_state must be a 3x3 density matrix")
    return vec(rho)


def _nonnegative_rates(raw: np.ndarray, what: str) -> np.ndarray:
    # rates are nonnegative up to roundoff; anything beyond the floor is a bug
    floor = -1e-12 * max(1.0, float(np.abs(raw).max()))
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
    f = _detection_functional(model)
    vs = propagate_vectors(liouvillian(model), _reset_vec(reset_state), taus)
    values = _nonnegative_rates((f @ vs).real, "intensity correlation")
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
    feed = feeding_superoperator(model)
    one = vec(np.eye(3))
    v0 = _reset_vec(reset_state)
    vs = propagate_vectors(liouvillian(model) - feed, v0, taus)
    values = _nonnegative_rates((one @ feed @ vs).real, "waiting-time density")
    emitted = float((one @ (v0 - vs[:, -1])).real)
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
    l = liouvillian(model)
    if rho_ss is None:
        rho_ss = steady_state(l)
    else:
        rho_ss = np.asarray(rho_ss, dtype=complex)
        resid = float(np.linalg.norm(l @ vec(rho_ss)))
        if resid > 1e-10 * np.linalg.norm(l):
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
    series = propagate_series(liouvillian(model), rho0, times)
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
    dt: float
    sample_times: np.ndarray | None = None
    populations: np.ndarray | None = None        # (n_samples, 3) means
    populations_stderr: np.ndarray | None = None


class _SegmentEvolver:
    """Evaluates the no-jump evolution exp(-i H_eff dt) psi for arbitrary dt
    via the eigendecomposition of the (generically diagonalizable)
    effective Hamiltonian."""

    def __init__(self, h_eff: np.ndarray):
        mu, s = np.linalg.eig(h_eff)
        if np.linalg.cond(s) > 1e8:
            raise ValueError("effective Hamiltonian is too close to defective")
        self.mu = mu
        self.s_t = s.T
        self.sinv_t = np.linalg.inv(s).T

    def prepare(self, psis: np.ndarray) -> np.ndarray:
        """Eigenbasis amplitudes of a batch of states (rows)."""
        return psis @ self.sinv_t

    def advance(self, amps: np.ndarray, dts: np.ndarray) -> np.ndarray:
        """States after per-row time steps, from prepared amplitudes."""
        phase = np.exp(-1j * np.outer(dts, self.mu))
        return (amps * phase) @ self.s_t


def _resolve_jumps_in_step(states, thresholds, crossed, evolver, jump_ops,
                           t0, dt, rngs, jump_times, jump_channels):
    """Locate and apply every jump occurring within (t0, t0 + dt].

    ``states`` holds the segment states at t0 for the crossed rows; returns
    their states at t0 + dt.  The no-jump norm is monotone non-increasing,
    so bisection on the survival probability finds each jump time exactly.
    """
    idx = np.flatnonzero(crossed)
    psi0 = states[idx]
    offset = np.zeros(idx.size)  # segment start relative to t0
    out = states.copy()
    guard = 0
    while idx.size:
        guard += 1
        if guard > 10_000:
            raise RuntimeError("jump resolution did not terminate")
        amps = evolver.prepare(psi0)
        u = thresholds[idx]
        lo = np.zeros(idx.size)
        hi = dt - offset
        for _ in range(48):  # dt * 2**-48 is below double-precision time resolution
            mid = 0.5 * (lo + hi)
            n2 = np.abs(evolver.advance(amps, mid)) ** 2
            high = n2.sum(axis=1) >= u
            lo = np.where(high, mid, lo)
            hi = np.where(high, hi, mid)
        tj_rel = 0.5 * (lo + hi)
        psi_j = evolver.advance(amps, tj_rel)

        # candidate post-jump states and channel rates, batched over rows
        branches = np.stack([psi_j @ op.T for op in jump_ops], axis=1)
        rates = (np.abs(branches) ** 2).sum(axis=2)
        totals = rates.sum(axis=1)
        cum = np.cumsum(rates, axis=1)
        new_states = np.empty_like(psi_j)
        n_ch = len(jump_ops)
        for row, traj in enumerate(idx):
            rng = rngs[traj]
            if totals[row] > 0:
                k = int(np.searchsorted(cum[row],
                                        rng.random() * totals[row],
                                        side="right"))
                k = min(k, n_ch - 1)
            else:  # numerically fully decayed; pick uniformly
                k = int(rng.random() * n_ch)
            branch = branches[row, k]
            new_states[row] = branch / np.sqrt(rates[row, k])
            thresholds[traj] = 1.0 - rng.random()  # in (0, 1]
            jump_times[traj].append(t0 + offset[row] + tj_rel[row])
            jump_channels[traj].append(k)

        offset = offset + tj_rel
        remainder = dt - offset
        psi_end = evolver.advance(evolver.prepare(new_states), remainder)
        out[idx] = psi_end
        n2_end = (np.abs(psi_end) ** 2).sum(axis=1)
        again = n2_end < thresholds[idx]
        idx = idx[again]
        psi0 = new_states[again]
        offset = offset[again]
    return out


def mc_trajectories(
    model: LindbladModel,
    n_traj: int,
    t_final: float,
    seed: int,
    dt: float = 0.05,
    initial_state: np.ndarray | None = None,
    sample_times: np.ndarray | None = None,
) -> McRun:
    """Quantum-jump unraveling of the master equation.

    Deterministic no-jump evolution under H_eff = H - i K / 2 with the
    survival probability compared against a uniform threshold; at a jump
    the channel is chosen proportional to the instantaneous channel rates
    (channels are the diagonalized dissipator modes, so cross-damping
    models unravel correctly).  Trajectory i draws from an independent
    stream spawned from (seed, i), so results are reproducible and
    trajectory-parallel.

    ``sample_times`` (snapped to the step grid) requests ensemble-averaged
    populations with standard errors, for comparison against the master
    equation.
    """
    if n_traj < 1:
        raise ValueError("n_traj must be >= 1")
    if not (t_final > 0):
        raise ValueError("t_final must be > 0")
    jump_ops = list(model.jump_operators())
    evolver = _SegmentEvolver(model.effective_hamiltonian())

    if initial_state is None:
        psi_start = np.array([1.0, 0.0, 0.0], dtype=complex)
    else:
        psi_start = np.asarray(initial_state, dtype=complex)
        psi_start = psi_start / np.linalg.norm(psi_start)
    states = np.tile(psi_start, (n_traj, 1))

    rngs = [np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
            for i in range(n_traj)]
    thresholds = np.array([1.0 - rng.random() for rng in rngs])
    jump_times: list[list[float]] = [[] for _ in range(n_traj)]
    jump_channels: list[list[int]] = [[] for _ in range(n_traj)]

    n_steps = int(round(t_final / dt))
    if abs(n_steps * dt - t_final) > 1e-9 * max(1.0, t_final) or n_steps < 1:
        raise ValueError("t_final must be a positive multiple of dt")

    sample_idx: dict[int, int] = {}
    pops_sum = pops_sq = None
    if sample_times is not None:
        sample_times = np.asarray(sample_times, dtype=float)
        steps = np.round(sample_times / dt).astype(int)
        if np.any(np.abs(steps * dt - sample_times) > 1e-9) or \
                np.any(steps < 0) or np.any(steps > n_steps):
            raise ValueError("sample_times must be multiples of dt within "
                             "[0, t_final]")
        sample_idx = {int(s): j for j, s in enumerate(steps)}
        pops_sum = np.zeros((len(steps), 3))
        pops_sq = np.zeros((len(steps), 3))

    def record_samples(step):
        j = sample_idx.get(step)
        if j is None:
            return
        n2 = (np.abs(states) ** 2).sum(axis=1, keepdims=True)
        p = np.abs(states) ** 2 / n2
        pops_sum[j] += p.sum(axis=0)
        pops_sq[j] += (p ** 2).sum(axis=0)

    record_samples(0)
    # rows of step_prop are the evolved basis vectors, so psi @ step_prop
    # applies exp(-i H_eff dt) to every row state at once
    step_prop = evolver.advance(evolver.prepare(np.eye(3, dtype=complex)),
                                np.full(3, dt))
    for step in range(n_steps):
        prev = states
        states = states @ step_prop
        if jump_ops:
            crossed = (np.abs(states) ** 2).sum(axis=1) < thresholds
            if np.any(crossed):
                states[crossed] = prev[crossed]  # back to the step start
                states = _resolve_jumps_in_step(
                    states, thresholds, crossed, evolver, jump_ops,
                    step * dt, dt, rngs, jump_times, jump_channels)
        record_samples(step + 1)

    records = [
        JumpRecord(i, np.array(jump_times[i]), np.array(jump_channels[i]),
                   float(t_final))
        for i in range(n_traj)
    ]
    pops = stderr = None
    if pops_sum is not None:
        pops = pops_sum / n_traj
        var = np.maximum(pops_sq / n_traj - pops ** 2, 0.0)
        stderr = np.sqrt(var / n_traj)
    return McRun(records=records, seed=seed, dt=dt, sample_times=sample_times,
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
