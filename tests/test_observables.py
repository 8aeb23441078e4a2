import dataclasses
import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, strategies as st
from scipy.stats import kstest

from trilevel.dynamics import (
    liouvillian,
    propagate_series,
    propagate_vectors,
    steady_state,
)
from trilevel import observables
from trilevel.errors import JumpRankError
from trilevel.defaults import ROUNDOFF, SURVIVAL_FLOOR
from trilevel.linalg import ketbra, mat_exp, vec
from trilevel.observables import (
    BrightDarkStats,
    McRun,
    SampledFunction,
    _NoJumpEvolution,
    _SPECTRUM_BLOCK,
    _round_draws,
    bright_dark_stats,
    emission_spectrum,
    g2,
    interjump_gaps,
    mc_trajectories,
    populations,
    waiting_time,
)
from trilevel.systems import Config, LindbladModel, SystemParams, build_model

_trapezoid = getattr(np, "trapezoid", None) or np.trapz


def fig2a_params(**kw):
    base = dict(config=Config.FIG2A, gamma21=1.0, gamma23_or_31=0.1,
                omega_a=2.0, omega_b=0.6, delta2=0.9, delta3=-0.4)
    base.update(kw)
    return SystemParams(**base)


def mapped_pair(p):
    from trilevel.equivalence import map_system
    target, emap = map_system(p)
    return build_model(p), build_model(target), emap


# --------------------------------------------------------------------- g2

def test_g2_vanishes_at_zero_delay():
    m = build_model(fig2a_params())
    curve = g2(m, np.linspace(0, 5, 41))
    assert curve.values[0] == 0.0  # perfect antibunching after a reset


def test_g2_without_drive_is_identically_zero():
    m = build_model(fig2a_params(omega_a=0.0, omega_b=0.0))
    curve = g2(m, np.linspace(0, 5, 21))
    assert np.all(curve.values == 0.0)


def test_g2_without_drive_cannot_be_normalized():
    m = build_model(fig2a_params(omega_a=0.0, omega_b=0.0))
    with pytest.raises(ValueError, match=r"cannot normalize: the rate at the "
                                         r"last grid point \(tau = 5\) is 0"):
        g2(m, np.linspace(0, 5, 21), normalized=True)


def test_g2_long_time_limit_matches_steady_rate():
    p = fig2a_params()
    m = build_model(p)
    lm = liouvillian(m)
    rho_ss = steady_state(lm)
    expected = 2 * (p.gamma21 * rho_ss[1, 1].real
                    + p.gamma23_or_31 * rho_ss[2, 2].real)
    curve = g2(m, np.linspace(0, 200, 21))
    np.testing.assert_allclose(curve.values[-1], expected, atol=1e-8)


def test_g2_normalized_flag():
    m = build_model(fig2a_params())
    taus = np.linspace(0, 100, 101)
    raw = g2(m, taus)
    norm = g2(m, taus, normalized=True)
    np.testing.assert_allclose(norm.values,
                               raw.values / raw.values[-1], atol=1e-12)


def test_g2_mapped_pair_equality():
    ma, mb, _ = mapped_pair(fig2a_params())
    taus = np.linspace(0, 30, 151)
    np.testing.assert_allclose(g2(ma, taus).values, g2(mb, taus).values,
                               atol=1e-8)


# ------------------------------------------------------------ waiting time

def test_waiting_time_starts_at_zero():
    m = build_model(fig2a_params())
    w = waiting_time(m, np.linspace(0, 10, 51))
    assert w.values[0] == 0.0


def test_waiting_time_two_level_analytic():
    # undamped-drive two-level oracle: evolving under the no-jump
    # Hamiltonian from the ground state,
    #   w(tau) = 2 g (omega/nu)^2 exp(-g tau) sin^2(nu tau),
    # nu = sqrt(omega^2 - g^2/4); first maximum at arctan(2 nu / g) / nu
    g, omega = 0.4, 1.3
    p = SystemParams(Config.FIG1A, gamma21=g, gamma23_or_31=0.0,
                     omega_a=omega, omega_b=0.0)
    m = build_model(p)
    taus = np.linspace(0, 12, 2401)
    w = waiting_time(m, taus)
    nu = math.sqrt(omega ** 2 - g ** 2 / 4)
    analytic = (2 * g * (omega / nu) ** 2 * np.exp(-g * taus)
                * np.sin(nu * taus) ** 2)
    np.testing.assert_allclose(w.values, analytic, atol=1e-8)
    t_first_max = math.atan2(2 * nu, g) / nu
    grid_max = taus[np.argmax(w.values[: len(taus) // 3])]
    assert abs(grid_max - t_first_max) <= taus[1] - taus[0]


def test_waiting_time_integrates_to_one():
    m = build_model(fig2a_params())
    # ten times the slowest no-jump decay time, 1/0.2405
    taus = np.linspace(0, 42.0, 4001)
    w = waiting_time(m, taus)
    total = _trapezoid(w.values, taus)
    assert total <= 1.0 + 1e-6
    assert total > 0.999


def test_waiting_time_exact_total_accepts_quadrature_overshoot():
    # on this grid the trapezoid rule overshoots 1 by 1.5e-6; the exact
    # emitted probability is the trace lost by the no-jump state
    p = fig2a_params(gamma21=0.13, gamma23_or_31=2.6, omega_a=3.66,
                     omega_b=3.82, delta2=2.06, delta3=3.85)
    taus = np.linspace(0, 30, 301)
    w = waiting_time(build_model(p), taus)
    assert _trapezoid(w.values, taus) > 1.0 + 1e-6
    np.testing.assert_allclose(w.meta["emitted_probability"], 1.0, atol=1e-11)


def test_waiting_time_rejects_an_emitted_probability_above_one():
    # no model loses more than its whole trace; a no-jump generator that
    # rotates rho_11 into -rho_00 stands in for a defect: tr(rho(pi)) = -1
    m = build_model(fig2a_params())
    rotate = np.zeros((9, 9), dtype=complex)
    rotate[0, 4], rotate[4, 0] = -1.0, 1.0  # vec index of rho_ii is 4 i
    m.__dict__["no_jump"] = rotate
    with pytest.raises(RuntimeError, match="density integrates to 1.99"):
        waiting_time(m, np.linspace(0, math.pi, 11))


@pytest.mark.parametrize("excess, fails", [(1e-5, True), (1e-7, False)])
def test_an_emitted_probability_is_judged_against_emission_excess(excess,
                                                                  fails):
    # the rotating no-jump generator of the test above keeps tr(rho(t)) =
    # cos t + sin t, so it has lost 1 + excess at t = 3 pi / 4 +
    # asin(excess / sqrt(2)): past EMISSION_EXCESS = 1e-6 it must raise,
    # below it not
    m = build_model(fig2a_params())
    rotate = np.zeros((9, 9), dtype=complex)
    rotate[0, 4], rotate[4, 0] = -1.0, 1.0
    m.__dict__["no_jump"] = rotate
    taus = np.linspace(0, 0.75 * math.pi + math.asin(excess / math.sqrt(2)),
                       11)
    if fails:
        with pytest.raises(RuntimeError, match="density integrates to 1.00"):
            waiting_time(m, taus)
    else:
        emitted = waiting_time(m, taus).meta["emitted_probability"]
        assert abs(emitted - 1.0 - excess) < 1e-12, emitted


def test_waiting_time_mapped_pair_equality():
    ma, mb, _ = mapped_pair(fig2a_params(delta2=-1.2, delta3=2.0))
    taus = np.linspace(0, 30, 151)
    np.testing.assert_allclose(waiting_time(ma, taus).values,
                               waiting_time(mb, taus).values, atol=1e-8)


@pytest.mark.parametrize("curve", [g2, waiting_time])
def test_reset_state_must_be_a_density_matrix(curve):
    m = build_model(fig2a_params())
    taus = np.linspace(0, 5, 11)
    np.testing.assert_array_equal(
        curve(m, taus, reset_state=ketbra(0, 0)).values, curve(m, taus).values)
    for bad, reason in [(2.0 * ketbra(0, 0), "has trace 2"),
                        (np.diag([1.5, -0.5, 0.0]), "has negative eigenvalue"),
                        (ketbra(0, 0) + ketbra(0, 1), "is not Hermitian"),
                        (np.eye(2) / 2, "must be a 3x3")]:
        with pytest.raises(ValueError, match=f"reset_state {reason}"):
            curve(m, taus, reset_state=bad)


@pytest.mark.parametrize("curve, what", [
    (g2, "intensity correlation"), (waiting_time, "waiting-time density")])
def test_a_negative_photon_rate_is_an_internal_failure(curve, what):
    # L is formed from K first; a K negated after that makes every photon
    # rate tr(K rho) of the propagated states negative
    m = build_model(fig2a_params())
    m.generator, m.no_jump
    object.__setattr__(m, "decay", -m.decay)
    with pytest.raises(RuntimeError, match=f"{what} went negative"):
        curve(m, np.linspace(0.0, 5.0, 11))


@pytest.mark.parametrize("share, bug", [(0.99, False), (1.01, True)])
def test_photon_rate_floor_is_roundoff_times_beta_and_the_state(share, bug):
    # the floor is ROUNDOFF ||beta(K)||_1 max|w|: a rate 1% above it is
    # clipped to 0, one 1% below it is a bug.  Here ||beta(K)||_1 = 200.2
    # and max|w| = 1000, held in the ground population, which emits
    # nothing, so the floor is neither ROUNDOFF nor scaled by the rates
    m = build_model(fig2a_params(gamma21=100.0))
    beta = m.rate_coords
    assert beta[0] == 0.0 and np.abs(beta).sum() == 200.2
    ws = np.zeros((9, 2))
    ws[0, 0] = 1000.0
    ws[1, 1] = -share * ROUNDOFF * np.abs(beta).sum() * 1000.0 / beta[1]
    if bug:
        with pytest.raises(RuntimeError, match="rate went negative"):
            observables._photon_rates(m, ws, "rate")
    else:
        np.testing.assert_array_equal(observables._photon_rates(m, ws, "rate"),
                                      [0.0, 0.0])


def test_g2_of_a_stiff_model_is_no_failure():
    # gamma21 = Omega_b = 1e8: the rates stay below 1.7e-8, but beta(K)
    # reaches 2e8, and its product with the states' roundoff dips to
    # -2.4e-9, which the rates' own scale called a bug
    p = SystemParams(Config.FIG1A, gamma21=1e8,
                     gamma23_or_31=0.17826665991240026,
                     omega_a=1.0047684312606042, omega_b=1e8, delta2=-0.0,
                     delta3=-1.2181928323880097e-5)
    values = g2(build_model(p), np.linspace(0.0, 5.0, 21)).values
    assert values.min() >= 0.0 and values.max() < 1.7e-8


# ----------------------------------------------------------------- spectra

def test_spectrum_without_drive_is_dark():
    p = SystemParams(Config.FIG2B, gamma21=1.0, gamma23_or_31=0.3,
                     omega_a=0.0, omega_b=0.0, phi=math.pi / 2)
    m = build_model(p)
    spec = emission_spectrum(m, m.collapse_ops[0], np.linspace(-5, 5, 101))
    assert np.abs(spec.values).max() < 1e-14
    assert spec.meta["coherent_weight"] == 0.0


def test_spectrum_incoherent_part_nonnegative():
    m = build_model(fig2a_params())
    spec = emission_spectrum(m, m.collapse_ops[0], np.linspace(-8, 8, 801))
    assert spec.values.min() > -1e-8 * spec.values.max()


def test_spectrum_integral_matches_incoherent_population():
    # with the 1/pi normalization the spectrum integrates to
    # <D+ D>_ss - |<D>_ss|^2
    p = fig2a_params()
    m = build_model(p)
    lm = liouvillian(m)
    rho_ss = steady_state(lm)
    d = m.collapse_ops[0]
    expected = (np.trace(d.conj().T @ d @ rho_ss).real
                - abs(np.trace(d @ rho_ss)) ** 2)
    omegas = np.linspace(-60, 60, 12001)
    spec = emission_spectrum(m, d, omegas)
    total = _trapezoid(spec.values, omegas)
    np.testing.assert_allclose(total, expected, rtol=2e-3)


def test_spectrum_mollow_structure():
    # strong resonant drive on a two-level transition: triplet with
    # sidebands split by twice the drive amplitude
    omega = 6.0
    p = SystemParams(Config.FIG1A, gamma21=1.0, gamma23_or_31=0.0,
                     omega_a=omega, omega_b=0.0)
    m = build_model(p)
    lm = liouvillian(m)
    rho_ss = propagate_series(lm, ketbra(0, 0), np.array([60.0]))[-1]
    omegas = np.linspace(-20, 20, 257)
    spec = emission_spectrum(m, m.collapse_ops[0], omegas, rho_ss=rho_ss)
    v = spec.values
    step = omegas[1] - omegas[0]
    i_right = np.argmax(np.where(omegas > omega, v, -np.inf))
    i_left = np.argmax(np.where(omegas < -omega, v, -np.inf))
    assert abs(omegas[i_right] - 2 * omega) <= step
    assert abs(omegas[i_left] + 2 * omega) <= step
    i0 = np.argmin(np.abs(omegas))
    assert v[i0] > v[i_right] > 0


def test_spectrum_mapped_pair_equality():
    p = fig2a_params()
    ma, mb, emap = mapped_pair(p)
    det_a = ma.collapse_ops[0]
    det_b = (math.cos(emap.theta) * mb.collapse_ops[0]
             + math.sin(emap.theta) * mb.collapse_ops[1])
    omegas = np.linspace(-10, 10, 501)
    sa = emission_spectrum(ma, det_a, omegas)
    sb = emission_spectrum(mb, det_b, omegas)
    scale = np.abs(sa.values).max()
    assert np.abs(sa.values - sb.values).max() < 1e-6 * scale
    np.testing.assert_allclose(sa.meta["coherent_weight"],
                               sb.meta["coherent_weight"], atol=1e-10)


def test_spectrum_takes_one_svd_of_l(monkeypatch):
    # the steady state reads the null basis the spectrum takes for P0
    import trilevel.dynamics
    import trilevel.observables
    m = build_model(fig2a_params())
    detect, omegas = m.collapse_ops[0], np.linspace(-6.0, 6.0, 41)
    explicit = emission_spectrum(m, detect, omegas,
                                 rho_ss=steady_state(m.generator))
    calls = []
    real = trilevel.observables.null_space
    for module in (trilevel.dynamics, trilevel.observables):
        monkeypatch.setattr(module, "null_space",
                            lambda l: calls.append(l) or real(l))
    spec = emission_spectrum(m, detect, omegas)
    assert len(calls) == 1
    assert spec.values.tobytes() == explicit.values.tobytes()


def test_spectrum_rejects_nonstationary_rho_ss():
    p = SystemParams(Config.FIG1A, gamma21=1.0, gamma23_or_31=0.0,
                     omega_a=1.0, omega_b=0.0)
    m = build_model(p)
    with pytest.raises(ValueError, match="not stationary"):
        emission_spectrum(m, m.collapse_ops[0], np.linspace(-5, 5, 11),
                          rho_ss=ketbra(0, 0))


@pytest.mark.parametrize("share, stationary", [(1e-11, True),
                                               (1e-9, False)])
def test_rho_ss_stationarity_is_judged_against_null_cut(share, stationary):
    # NULL_CUT = 1e-10: the steady state plus a traceless coherence with
    # |L rho| / |L| of 1e-11 is stationary, one of 1e-9 is not
    m = build_model(fig2a_params())
    l = m.generator
    coherence = ketbra(0, 1) + ketbra(1, 0)
    eps = share * np.linalg.norm(l) / np.linalg.norm(l @ vec(coherence))
    rho = steady_state(l) + eps * coherence
    assert np.linalg.norm(l @ vec(rho)) / np.linalg.norm(l) == pytest.approx(
        share, rel=1e-3)
    omegas = np.linspace(-5, 5, 11)
    if stationary:
        emission_spectrum(m, m.collapse_ops[0], omegas, rho_ss=rho)
    else:
        with pytest.raises(ValueError, match="rho_ss is not stationary"):
            emission_spectrum(m, m.collapse_ops[0], omegas, rho_ss=rho)


def test_spectrum_rho_ss_must_be_a_density_matrix():
    # twice the steady state is stationary too, and doubled the spectrum
    m = build_model(fig2a_params())
    rho_ss = steady_state(m.generator)
    omegas = np.linspace(-5, 5, 11)
    np.testing.assert_array_equal(
        emission_spectrum(m, m.collapse_ops[0], omegas, rho_ss=rho_ss).values,
        emission_spectrum(m, m.collapse_ops[0], omegas).values)
    for bad, reason in [(2.0 * rho_ss, "has trace 2"),
                        (np.eye(2) / 2, "must be a 3x3")]:
        with pytest.raises(ValueError, match=f"rho_ss {reason}"):
            emission_spectrum(m, m.collapse_ops[0], omegas, rho_ss=bad)


@pytest.mark.parametrize("omegas", [[0.0, math.nan, 1.0],
                                    [-math.inf, 0.0, math.inf],
                                    np.ones((1, 2)), []])
def test_spectrum_rejects_a_bad_frequency_grid(omegas):
    m = build_model(fig2a_params())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="omegas"):
            emission_spectrum(m, m.collapse_ops[0], omegas)


@pytest.mark.parametrize("detect", [np.full((3, 3), math.nan), np.eye(2),
                                    np.ones(3)])
def test_spectrum_rejects_a_bad_detection_operator(detect, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("solved before detect was checked")

    m = build_model(fig2a_params())
    monkeypatch.setattr(np.linalg, "solve", refuse)
    monkeypatch.setattr(np.linalg, "svd", refuse)
    monkeypatch.setattr(scipy.linalg, "schur", refuse)
    with pytest.raises(ValueError, match="detect must be a finite 3x3"):
        emission_spectrum(m, detect, np.linspace(-5, 5, 11))


def test_spectrum_that_overflows_is_an_internal_failure():
    # S grows as |detect|^2: the first frequency of the grid whose value is
    # not finite is named, and numpy does not warn on the way
    m = build_model(fig2a_params(delta2=0.0, delta3=0.0, omega_a=1e-4))
    omegas = np.linspace(-4, 4, 41)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        emission_spectrum(m, 1e158 * m.collapse_ops[0], omegas)
        with pytest.raises(RuntimeError, match="emission spectrum is not "
                                               "finite at omega = -4$"):
            emission_spectrum(m, 1e160 * m.collapse_ops[0], omegas)
        # here only the frequencies near the line centre overflow
        with pytest.raises(RuntimeError) as err:
            emission_spectrum(m, 6.3e158 * m.collapse_ops[0], omegas)
    assert -4 < float(str(err.value).rsplit("= ", 1)[1]) < 0
    # a strong drive scatters mostly coherently: the coherent weight, 0.11
    # |w|^2, overflows while every value is still finite
    m = build_model(fig2a_params(delta2=0.0, delta3=0.0, gamma21=100.0,
                                 omega_a=100.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeError, match="coherent weight of the "
                                               "emission spectrum is not"):
            emission_spectrum(m, 1e155 * m.collapse_ops[0], omegas)


def test_spectrum_takes_frequencies_in_any_order():
    m = build_model(fig2a_params())
    d = m.collapse_ops[0]
    omegas = np.linspace(-10, 10, 1501)
    ref = emission_spectrum(m, d, omegas)
    perm = np.random.default_rng(5).permutation(omegas.size)
    perm = np.concatenate([perm, perm[:40]])  # repeated frequencies too
    spec = emission_spectrum(m, d, omegas[perm])
    assert spec.values.tobytes() == ref.values[perm].tobytes()
    assert spec.grid.tobytes() == omegas[perm].tobytes()


@pytest.mark.parametrize("params", [
    fig2a_params(),
    SystemParams(Config.FIG1A, gamma21=1.0, gamma23_or_31=0.3, omega_a=1.2,
                 omega_b=0.7, delta2=0.4, delta3=-0.6),
], ids=["fig2a", "fig1a"])
def test_spectrum_value_does_not_depend_on_the_grid(params):
    m = build_model(params)
    d = m.collapse_ops[0]
    grid = np.linspace(-10, 10, 3001)
    ref = emission_spectrum(m, d, grid).values
    alone = np.concatenate([emission_spectrum(m, d, grid[i:i + 1]).values
                            for i in range(grid.size)])
    assert alone.tobytes() == ref.tobytes()
    rng = np.random.default_rng(7)
    sizes = rng.integers(1, 3 * _SPECTRUM_BLOCK, 20)
    assert (sizes > _SPECTRUM_BLOCK).any()
    for size in sizes:
        pick = rng.integers(0, grid.size, size)  # with repeats
        spec = emission_spectrum(m, d, grid[pick])
        assert spec.values.tobytes() == ref[pick].tobytes()


def _mp_spectrum(l, d, omegas):
    """(1/pi) Re <d| (i w - L + |rho><I|)^-1 (1 - |rho><I|) |d rho> at 40
    digits from the float L, where <I| is the trace row and rho solves
    L rho = 0 with L's first row replaced by the trace row."""
    import mpmath
    with mpmath.workdps(40):
        lm = mpmath.matrix(l.tolist())
        trace = mpmath.matrix([vec(np.eye(3)).real.tolist()])
        border = lm.copy()
        for j in range(9):
            border[0, j] = trace[0, j]
        rho = mpmath.lu_solve(border, mpmath.matrix([1] + [0] * 8))
        proj = rho * trace
        x = mpmath.matrix(np.kron(np.eye(3), d).tolist()) * rho
        rhs = x - proj * x
        bra = mpmath.matrix([vec(d).conj().tolist()])
        return np.array([
            float((bra * mpmath.lu_solve(1j * w * mpmath.eye(9) - lm + proj,
                                         rhs))[0].real / mpmath.pi)
            for w in omegas])


@pytest.mark.parametrize("params, bound", [
    # near-dark, cond(L - P0) = 6.4e8: an LU solve per frequency reads 3.9e-8
    (SystemParams(Config.FIG1A, gamma21=1.0, gamma23_or_31=0.3,
                  omega_a=1e-4, omega_b=0.7, delta2=0.4, delta3=-0.6), 4e-8),
    # shelving: an LU solve per frequency reads 3.6e-15
    (SystemParams(Config.FIG2A, gamma21=1.0, gamma23_or_31=1e-3,
                  omega_a=1.0, omega_b=0.08), 1e-13),
], ids=["near-dark", "shelving"])
def test_spectrum_matches_a_40_digit_reference(params, bound):
    m = build_model(params)
    d = m.collapse_ops[0]
    omegas = np.concatenate([[0.0, 1e-3, -2e-3, 0.01],
                             np.linspace(-6, 6, 41)])
    ref = _mp_spectrum(m.generator, d, omegas)
    spec = emission_spectrum(m, d, omegas)
    assert np.abs(spec.values - ref).max() <= bound * np.abs(ref).max()


def test_spectrum_requires_unique_steady_state():
    from trilevel.errors import NonUniqueSteadyStateError
    p = SystemParams(Config.FIG1A, gamma21=1.0, gamma23_or_31=0.0,
                     omega_a=1.0, omega_b=0.0)  # level 3 decoupled
    m = build_model(p)
    with pytest.raises(NonUniqueSteadyStateError):
        emission_spectrum(m, m.collapse_ops[0], np.linspace(-5, 5, 11))


def test_spectrum_memory_is_bounded():
    import tracemalloc
    m = build_model(fig2a_params(delta2=0.4, delta3=-0.7))
    d = m.collapse_ops[0]
    # the peak must not grow with the grid: ten times the frequencies, the
    # same bound
    for size in (20_000, 200_000):
        omegas = np.linspace(-10, 10, size)
        tracemalloc.start()
        try:
            spec = emission_spectrum(m, d, omegas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6
        # a long grid, solved block by block, gives the values of a short
        # grid of the same frequencies
        coarse = emission_spectrum(m, d, omegas[::1000])
        np.testing.assert_allclose(spec.values[::1000], coarse.values,
                                   rtol=1e-12, atol=0)


# ----------------------------------------------------------- result record

def test_every_observable_returns_a_plain_float_record():
    m = build_model(fig2a_params())
    taus = [0, 1, 2]  # integers: each producer hands back a float grid
    curves = [g2(m, taus), g2(m, taus, normalized=True),
              waiting_time(m, taus),
              emission_spectrum(m, m.collapse_ops[0], [1, -1, 0]),
              *populations(m, ketbra(0, 0), taus)]
    assert [f.name for f in dataclasses.fields(SampledFunction)] == [
        "grid", "values", "meta"]
    for curve in curves:
        assert isinstance(curve, SampledFunction)
        assert curve.grid.dtype == float and curve.grid.shape == (3,)
        assert curve.values.shape == (3,)


# ------------------------------------------------------------- populations

def test_populations_sum_to_one():
    m = build_model(fig2a_params())
    times = np.linspace(0, 10, 51)
    pops = populations(m, ketbra(0, 0), times)
    total = sum(p.values for p in pops)
    np.testing.assert_allclose(total, np.ones_like(times), atol=1e-9)


def test_populations_undriven_closed_form():
    g = 0.5
    p = SystemParams(Config.FIG1A, gamma21=g, gamma23_or_31=0.0,
                     omega_a=0.0, omega_b=0.0)
    times = np.linspace(0, 6, 25)
    pops = populations(build_model(p), ketbra(1, 1), times)
    np.testing.assert_allclose(pops[1].values, np.exp(-2 * g * times),
                               atol=1e-9)


def test_populations_mapped_pair_rotate_into_each_other():
    p = fig2a_params()
    ma, mb, emap = mapped_pair(p)
    u = emap.unitary
    times = np.linspace(0, 15, 31)
    rho0 = ketbra(0, 0)
    pops_b = populations(mb, u @ rho0 @ u.conj().T, times)
    series_a = propagate_series(liouvillian(ma), rho0, times)
    rotated = np.array([np.diag(u @ r @ u.conj().T).real for r in series_a])
    for k in range(3):
        np.testing.assert_allclose(pops_b[k].values, rotated[:, k], atol=1e-9)


# ------------------------------------------------------------ trajectories

def test_mc_no_drive_means_no_jumps():
    m = build_model(fig2a_params(omega_a=0.0, omega_b=0.0))
    run = mc_trajectories(m, n_traj=20, t_final=5.0, seed=3)
    assert all(r.times.size == 0 for r in run.records)


def test_mc_without_jump_channels_follows_master_equation():
    # gamma21 = gamma31 = 0 leaves no jump channel: every trajectory is the
    # unitary evolution the master equation gives
    m = build_model(fig2a_params(gamma21=0.0, gamma23_or_31=0.0))
    assert len(m.jump_operators) == 0
    sample = np.linspace(0.0, 5.0, 11)
    run = mc_trajectories(m, n_traj=5, t_final=5.0, seed=4,
                          sample_times=sample)
    assert all(r.times.size == 0 for r in run.records)
    exact = np.column_stack([p.values for p in
                             populations(m, ketbra(0, 0), sample)])
    np.testing.assert_allclose(run.populations, exact, rtol=0, atol=1e-12)


def test_mc_reproducible_for_fixed_seed():
    m = build_model(fig2a_params())
    run1 = mc_trajectories(m, n_traj=30, t_final=6.0, seed=99)
    run2 = mc_trajectories(m, n_traj=30, t_final=6.0, seed=99)
    for a, b in zip(run1.records, run2.records):
        np.testing.assert_array_equal(a.times, b.times)
        np.testing.assert_array_equal(a.channels, b.channels)


# records of the round-keyed sampler (seed 8, t_final = 40): trajectory 0
# of the fig2a run jumps 24 times, so it reads rounds 0 to 24; the fig1b
# twin resets to two different states
_PINNED = {
    "fig2a": ((24, 23, 9), "111011111111111111100111", [
        0.629514198766, 1.356768172987, 1.472405902454, 7.874391707140,
        9.126675954450, 12.373509129067, 12.721630902171, 13.180873094280,
        13.594085835694, 14.605456335360, 15.506533647031, 17.786051826246,
        18.289288773225, 19.018757735423, 19.644581635034, 20.193595171209,
        20.736132641936, 21.527797059094, 25.937622975237, 27.651555980918,
        36.008274806321, 36.791503121238, 38.897172224525, 39.508152225529]),
    "fig1b": ((18, 18, 6), "100101011111111011", [
        2.060148194480, 3.117533162482, 3.697930462725, 12.252275717197,
        15.150501738528, 19.197258260127, 19.670688244020, 21.151091149363,
        21.718642239081, 23.427256667913, 24.815286731688, 28.685565700335,
        29.386651479948, 30.447814760181, 31.338511909362, 32.109214994983,
        33.779570462793, 34.950145386709]),
}


@pytest.mark.parametrize("name", sorted(_PINNED))
def test_mc_fixed_seed_records_are_pinned(name):
    p = SystemParams(Config.FIG1A, gamma21=1.0, gamma23_or_31=0.3,
                     omega_a=1.2, omega_b=0.7, delta2=0.4, delta3=-0.6)
    m = build_model(fig2a_params()) if name == "fig2a" else mapped_pair(p)[1]
    counts, channels, times = _PINNED[name]
    records = mc_trajectories(m, n_traj=3, t_final=40.0, seed=8).records
    assert tuple(r.times.size for r in records) == counts
    np.testing.assert_array_equal(records[0].channels,
                                  [int(c) for c in channels])
    np.testing.assert_allclose(records[0].times, times, rtol=0, atol=1e-9)


# the benchmark's two shelving ensembles, fig2a (gamma31 = 0.005) and its
# fig2b twin, 1000 trajectories to t = 20: the seed, the total jumps and
# the SHA-256 of the offsets, then the channels, as little-endian int64
_PINNED_ENSEMBLES = {
    "fig2a": (2025, 12628, "341410f151bd996b458627389b6d5e90"
                           "3988af3fe865484a2866fc09a27c0de7"),
    "fig2b": (4050, 12523, "8fbed91a2ff85671043902a96f6e477c"
                           "60c394b3da2550cb38ee92c0be14a4f1"),
}


@pytest.mark.parametrize("name", sorted(_PINNED_ENSEMBLES))
def test_mc_benchmark_ensembles_are_pinned(name):
    p = SystemParams(Config.FIG2A, gamma21=1.0, gamma23_or_31=0.005,
                     omega_a=1.0, omega_b=0.08)
    m = mapped_pair(p)[name == "fig2b"]
    seed, jumps, digest = _PINNED_ENSEMBLES[name]
    run = mc_trajectories(m, n_traj=1000, t_final=20.0, seed=seed)
    assert run.offsets[-1] == jumps
    data = b"".join(a.astype("<i8").tobytes()
                    for a in (run.offsets, run.channels))
    assert hashlib.sha256(data).hexdigest() == digest


def test_mc_trajectory_does_not_depend_on_ensemble_size():
    m = build_model(fig2a_params())
    few = mc_trajectories(m, n_traj=5, t_final=40.0, seed=8).records
    many = mc_trajectories(m, n_traj=50, t_final=40.0, seed=8).records
    for a, b in zip(few, many[:5], strict=True):
        np.testing.assert_array_equal(a.times, b.times)
        np.testing.assert_array_equal(a.channels, b.channels)


@pytest.mark.parametrize("seed", range(4))
def test_mc_first_trajectories_are_the_same_in_any_ensemble(seed):
    # late rounds and the last Newton iterations often hold one or two
    # trajectories, so no row's value may depend on how many rows go with
    # it (BLAS rounds a lone row, and a gemv row, by the row count)
    m = build_model(fig2a_params())
    runs = [mc_trajectories(m, n_traj=n, t_final=40.0, seed=seed).records
            for n in (3, 1, 2, 64)]
    for records in runs[1:]:
        for a, b in zip(runs[0], records):
            np.testing.assert_array_equal(a.times, b.times)
            np.testing.assert_array_equal(a.channels, b.channels)


# seeds of 1 to 10 32-bit words
@pytest.mark.parametrize("seed", [0, 1, 2025, 2**32 - 1, 2**32, 2**64 + 5,
                                  2**96, 2**128 - 1, 2**128, 2**130 + 11,
                                  2**160, 2**300 + 1])
def test_streams_match_numpy_generator(seed):
    # row i of a round is draws 2i and 2i + 1 of that round's stream
    n = 500
    for rnd in (0, 1, 7):
        flat = np.random.default_rng(np.random.SeedSequence(
            seed, spawn_key=(rnd,))).random(2 * n)
        np.testing.assert_array_equal(_round_draws(seed, rnd, n),
                                      flat.reshape(n, 2))


@given(seed=st.integers(0, 2**400), rnd=st.integers(0, 200),
       sizes=st.tuples(st.integers(1, 64), st.integers(1, 64)))
def test_streams_match_numpy_generator_for_any_seed(seed, rnd, sizes):
    m, n = sorted(sizes)
    ref = np.random.default_rng(np.random.SeedSequence(
        seed, spawn_key=(rnd,))).random((n, 2))
    rows = _round_draws(seed, rnd, n)
    np.testing.assert_array_equal(rows, ref)
    np.testing.assert_array_equal(_round_draws(seed, rnd, m), rows[:m])


@pytest.mark.parametrize("seed, error", [(-1, ValueError), (2.5, TypeError)])
def test_mc_rejects_seeds_that_seed_sequence_rejects(seed, error):
    with pytest.raises(error):
        np.random.SeedSequence(seed)
    with pytest.raises(error):
        mc_trajectories(build_model(fig2a_params()), n_traj=3, t_final=1.0,
                        seed=seed)


@pytest.mark.parametrize("n_traj, error", [
    (0, ValueError),        # no trajectory at all
    (2.5, TypeError),       # a count, not a float to round
    (2**32, ValueError),    # round 0 alone would draw 64 GiB
])
def test_mc_rejects_n_traj_beyond_one_word_count(n_traj, error):
    with pytest.raises(error):
        mc_trajectories(build_model(fig2a_params()), n_traj=n_traj,
                        t_final=1.0, seed=0)


@pytest.mark.parametrize("t_final", [math.inf, math.nan, 0.0, -1.0])
def test_mc_rejects_a_bad_final_time(t_final):
    with pytest.raises(ValueError, match="t_final must be finite and > 0"):
        mc_trajectories(build_model(fig2a_params()), n_traj=3,
                        t_final=t_final, seed=0)


def test_mc_builds_no_per_trajectory_generator(monkeypatch):
    # one SeedSequence and one generator per jump round, keyed by the
    # round, in round order, and none per trajectory.  Rounds solved ahead
    # draw a few rounds that no trajectory reaches, at most as many as
    # were drawn before them
    calls, rngs = [], []
    seed_sequence, default_rng = np.random.SeedSequence, np.random.default_rng

    def count(*args, **kwargs):
        calls.append((args, kwargs))
        return seed_sequence(*args, **kwargs)

    def count_rng(*args, **kwargs):
        rngs.append(args)
        return default_rng(*args, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", count)
    monkeypatch.setattr(np.random, "default_rng", count_rng)
    run = mc_trajectories(build_model(fig2a_params()), n_traj=50,
                          t_final=5.0, seed=8)
    assert run.offsets[-1] == run.times.size > 0
    rounds = 1 + np.diff(run.offsets).max()  # round 0 draws no jump
    drawn = len(calls)
    assert rounds <= drawn <= 2 * rounds < 50
    assert calls == [((8,), {"spawn_key": (r,)}) for r in range(drawn)]
    assert len(rngs) == drawn


_LOOK_AHEAD = {}
_LOOK_AHEAD["fig1a"], _LOOK_AHEAD["fig1b"], _ = mapped_pair(SystemParams(
    Config.FIG1A, gamma21=1.0, gamma23_or_31=0.3, omega_a=1.2, omega_b=0.7,
    delta2=0.4, delta3=-0.6))
_LOOK_AHEAD["fig2a"], _LOOK_AHEAD["fig2b"], _ = mapped_pair(fig2a_params())


@pytest.mark.parametrize("n_traj", [1, 7, 50])
@pytest.mark.parametrize("level", [1, 2])
@pytest.mark.parametrize("name", sorted(_LOOK_AHEAD))
def test_mc_records_do_not_depend_on_the_rounds_solved_ahead(
        monkeypatch, name, level, n_traj):
    # fig1's two channels reset to different states (two slots), fig2's
    # both to |1> (one).  A _ROW_TARGET of 1 solves every round alone, as
    # it comes; by default the ensemble ends inside a block of rounds
    # solved ahead, which drew rounds that no trajectory reaches
    m = _LOOK_AHEAD[name]
    kw = dict(n_traj=n_traj, t_final=13.0, seed=5,
              initial_state=np.eye(3)[level - 1],
              sample_times=np.linspace(0.0, 13.0, 6))
    round_draws, drawn = _round_draws, []

    def spy(seed, rnd, n):
        drawn.append(rnd)
        return round_draws(seed, rnd, n)

    monkeypatch.setattr(observables, "_round_draws", spy)
    ahead = mc_trajectories(m, **kw)
    rounds = 1 + np.diff(ahead.offsets).max()
    assert len(drawn) > rounds
    drawn.clear()
    monkeypatch.setattr(observables, "_ROW_TARGET", 1)
    alone = mc_trajectories(m, **kw)
    assert drawn == list(range(rounds))
    for key in ("offsets", "times", "channels", "populations",
                "populations_stderr"):
        assert getattr(alone, key).tobytes() == getattr(ahead, key).tobytes()


def test_mc_without_channels_solves_no_round_ahead(monkeypatch):
    m = build_model(fig2a_params(gamma21=0.0, gamma23_or_31=0.0))
    kw = dict(n_traj=7, t_final=5.0, seed=4,
              sample_times=np.linspace(0.0, 5.0, 6))
    ahead = mc_trajectories(m, **kw)
    monkeypatch.setattr(observables, "_ROW_TARGET", 1)
    alone = mc_trajectories(m, **kw)
    assert ahead.offsets[-1] == alone.offsets[-1] == 0
    assert alone.populations.tobytes() == ahead.populations.tobytes()


@pytest.mark.parametrize("rnd", [3, 4, 5, 6])
def test_mc_root_at_its_bracket_start_at_the_horizon_is_no_jump(monkeypatch,
                                                                rnd):
    # jump_times prunes a bracket that starts at t_final - t0 or later, so
    # a root exactly there is no jump.  Round rnd's threshold is set to the
    # survival at table point k, which is its root exactly, and t_final to
    # k steps after jump rnd - 1.  A block solved ahead (rounds 3-4 and 5-8
    # of one trajectory) finds that root with the longer t_left of the
    # block's start, and must reach the same verdict
    m = build_model(fig2a_params())
    ref = mc_trajectories(m, n_traj=1, t_final=40.0, seed=8)
    t0, start = ref.times[rnd - 2], ref.channels[rnd - 2] + 1
    resets = np.linalg.svd(m.jump_operators)[0][:, :, 0]
    starts = np.vstack([[1.0, 0.0, 0.0], resets])
    evo = _NoJumpEvolution(m, starts, 40.0)
    for k in range(10, 40):
        u, lo = evo.survival[start, k], k * evo.h
        t_final = t0 + lo
        root = evo.jump_times(np.array([start]), np.array([u]),
                              np.array([np.inf]))[0]
        if t_final - t0 == lo and 1.0 - (1.0 - u) == u and root == lo:
            break
    else:
        pytest.fail("no table point fits")
    evo = _NoJumpEvolution(m, starts, t_final)
    assert np.isnan(evo.jump_times(np.array([start]), np.array([u]),
                                   np.array([lo]))[0])
    round_draws = _round_draws

    def threshold_at_root(seed, r, n):
        draws = round_draws(seed, r, n)
        if r == rnd - 1:
            draws[0, 1] = 1.0 - u
        return draws

    monkeypatch.setattr(observables, "_round_draws", threshold_at_root)
    for row_target in (1024, 1):
        monkeypatch.setattr(observables, "_ROW_TARGET", row_target)
        run = mc_trajectories(m, n_traj=1, t_final=t_final, seed=8)
        np.testing.assert_array_equal(run.times, ref.times[:rnd - 1])
        np.testing.assert_array_equal(run.channels, ref.channels[:rnd - 1])


def test_mc_last_channel_takes_a_draw_past_every_cumulative_rate(monkeypatch):
    # two channel rates of 1e-310 (subnormal): the draw 1 - 2^-53 times
    # their total rounds to the total, at or past every cumulative rate.
    # fig1a's channels reset to |1> and |3>, so an index of 2 would name a
    # start state that does not exist
    m = build_model(SystemParams(Config.FIG1A, gamma21=1.0,
                                 gamma23_or_31=0.3, omega_a=1.2,
                                 omega_b=0.7, delta2=0.4, delta3=-0.6))
    forms, round_draws = _NoJumpEvolution.forms, _round_draws

    def subnormal_rates(self, beta, start, tau):
        if beta is self.beta_rates:
            return np.full((len(beta), tau.size), 1e-310)
        return forms(self, beta, start, tau)

    def top_channel_draws(seed, rnd, n):
        draws = round_draws(seed, rnd, n)
        draws[:, 0] = 1.0 - 2.0 ** -53
        return draws

    monkeypatch.setattr(_NoJumpEvolution, "forms", subnormal_rates)
    monkeypatch.setattr(observables, "_round_draws", top_channel_draws)
    run = mc_trajectories(m, n_traj=5, t_final=20.0, seed=3)
    assert run.channels.size > 0
    np.testing.assert_array_equal(run.channels, 1)


@pytest.mark.parametrize("draw, channel", [(0.3, 0), (0.7, 1)])
def test_mc_state_without_rates_picks_its_channel_uniformly(monkeypatch,
                                                            draw, channel):
    # every channel rate clips to 0, as roundoff can make it right after a
    # reset into |1> of a fig2 model with a threshold within ulps of 1:
    # the channel draw is then read as uniform over the two channels, not
    # past every cumulative rate (which would always name the last one)
    m = build_model(fig2a_params())
    forms, round_draws = _NoJumpEvolution.forms, _round_draws

    def no_rates(self, beta, start, tau):
        if beta is self.beta_rates:
            return np.zeros((len(beta), tau.size))
        return forms(self, beta, start, tau)

    def fixed_channel_draws(seed, rnd, n):
        draws = round_draws(seed, rnd, n)
        draws[:, 0] = draw
        return draws

    monkeypatch.setattr(_NoJumpEvolution, "forms", no_rates)
    monkeypatch.setattr(observables, "_round_draws", fixed_channel_draws)
    run = mc_trajectories(m, n_traj=5, t_final=10.0, seed=3)
    assert run.channels.size > 0
    np.testing.assert_array_equal(run.channels, channel)


_RANK_TWO = LindbladModel(np.zeros((3, 3)), (ketbra(0, 1) + ketbra(1, 2),),
                          np.array([[1.0]]))


@pytest.mark.parametrize("bad, message", [
    (dict(t_final=-1.0), "t_final must be finite and > 0"),
    (dict(model=_RANK_TWO), "jump channel 0 is not rank one"),
    (dict(initial_state=np.zeros(3)), "initial_state must be a finite"),
    (dict(sample_times=[0.0, 2.0]), r"sample_times must lie within"),
])
def test_mc_checks_its_inputs_before_building_streams(monkeypatch, bad,
                                                      message):
    # the streams grow with n_traj, so a bad input must not pay for them
    def refuse(*args, **kwargs):
        raise AssertionError("streams built before the input checks")

    monkeypatch.setattr("trilevel.observables._round_draws", refuse)
    kw = dict(model=build_model(fig2a_params()), n_traj=10**6, t_final=1.0,
              seed=0) | bad
    with pytest.raises(ValueError, match=message):
        mc_trajectories(**kw)


def test_mc_jump_table_is_bounded_for_emitting_models():
    # every survival falls below 2**-53 by t ~ 37, so the table stops there
    # whatever the horizon, and the jumps before a horizon do not depend on
    # how far beyond it the run goes
    m = build_model(fig2a_params(gamma23_or_31=0.5, omega_a=2.0,
                                 omega_b=0.5, delta2=0.0, delta3=0.0))
    starts = np.eye(3, dtype=complex)[[0, 0, 0]]
    tracemalloc.start()
    try:
        evo = _NoJumpEvolution(m, starts, 1e5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6
    assert evo.table.shape[1] * evo.h < 40.0
    assert evo.survival[:, -1].max() < 2.0 ** -53
    short = mc_trajectories(m, n_traj=20, t_final=10.0, seed=6).records
    long = mc_trajectories(m, n_traj=20, t_final=100.0, seed=6).records
    for a, b in zip(short, long):
        early = b.times <= 10.0
        np.testing.assert_array_equal(a.times, b.times[early])
        np.testing.assert_array_equal(a.channels, b.channels[early])


def test_a_cut_jump_table_keeps_only_its_points():
    # the table is allocated to the first power-of-two point past the floor
    # (1025 points here) and then cut; the cut copy owns just its points
    m = build_model(fig2a_params(gamma23_or_31=0.5, omega_a=2.0,
                                 omega_b=0.5, delta2=0.0, delta3=0.0))
    resets = np.linalg.svd(m.jump_operators)[0][:, :, 0]
    starts = np.vstack([[1.0, 0.0, 0.0], resets])  # the sampler's starts
    evo = _NoJumpEvolution(m, starts, 1e5)
    assert evo.table.shape == (3, 768, 9)
    assert evo.table.flags.owndata and evo.table.base is None
    assert evo.survival.shape == (3, 768)


# the emitting fig2a model of the bounded-table test; criterion 7's Lambda
# model, whose dark state never stops surviving; and an emitting model with
# a complex H, whose step exponential is not symmetric
_H = np.array([[0.3, 0.8 - 0.5j, 0.2j], [0.8 + 0.5j, -0.4, 0.6],
               [-0.2j, 0.6, 0.1]])
_TABLE_MODELS = {
    "fig2a": (build_model(fig2a_params(gamma23_or_31=0.5, omega_a=2.0,
                                       omega_b=0.5, delta2=0.0, delta3=0.0)),
              1e5),
    "lambda": (build_model(SystemParams(
        Config.FIG1B, gamma21=1.0, gamma23_or_31=0.6, omega_a=0.9,
        omega_b=0.4, delta2=0.8, delta3=0.8, phi=0.7)), 200.0),
    "complex": (LindbladModel(_H, (ketbra(0, 1), ketbra(0, 2)),
                              np.diag([1.0, 0.3])), 1e3),
}


def _outer_reals(psi):
    """The 9 reals of psi psi^+ of each row: the |psi_i|^2, then Re and Im
    of conj(psi_i) psi_k for (i, k) = (0, 1), (0, 2), (1, 2)."""
    i, k = [0, 1, 2, 0, 0, 1], [0, 1, 2, 1, 2, 2]
    z = psi[..., i].conj() * psi[..., k]
    return np.concatenate([z.real, z[..., 3:].imag], axis=-1)


@pytest.mark.parametrize("name", sorted(_TABLE_MODELS))
def test_no_jump_table_rows_are_step_powers(name):
    m, t_max = _TABLE_MODELS[name]
    starts = np.eye(3, dtype=complex)
    evo = _NoJumpEvolution(m, starts, t_max)
    n = evo.table.shape[1]
    for k in (1, n // 2, n - 1):
        ref = mat_exp(-1j * m.effective_hamiltonian, k * evo.h) @ starts.T
        np.testing.assert_allclose(evo.table[:, k], _outer_reals(ref.T),
                                   rtol=0, atol=1e-12)
    # the table ends at the first point where every survival is below the
    # floor, or at the horizon when some survival never gets there
    below = evo.table[:, :, :3].sum(axis=2).max(axis=0) < SURVIVAL_FLOOR
    assert not below[:-1].any()
    assert below[-1] or n == math.ceil(t_max / evo.h) + 1
    assert below[-1] == (name != "lambda")


@pytest.mark.parametrize("name", sorted(_TABLE_MODELS))
def test_no_jump_forms_match_mat_exp(name):
    # the survival, populations and channel rates of the polynomials against
    # the states exp(-i H_eff tau) psi of mat_exp, at table points, at
    # midpoints (the largest offset) and at random tau.  Over the first 100
    # steps, where the table's own roundoff stays far below 1e-13 of the
    # survival (the row test bounds the whole table)
    m, t_max = _TABLE_MODELS[name]
    starts = np.eye(3, dtype=complex)
    evo = _NoJumpEvolution(m, starts, t_max)
    steps = np.arange(101) * evo.h
    taus = np.concatenate([steps, steps[:-1] + evo.h / 2,
                           np.random.default_rng(1).uniform(0, steps[-1], 50)])
    ops = m.jump_operators
    for j, start in enumerate(starts):
        psi = np.stack([mat_exp(-1j * m.effective_hamiltonian, t) @ start
                        for t in taus])
        which = np.full(taus.size, j)
        survival = (np.abs(psi) ** 2).sum(axis=1)
        got = np.column_stack([
            evo.forms(evo.beta_survival, which, taus)[0],
            evo.forms(evo.beta_populations, which, taus).T,
            evo.forms(evo.beta_rates, which, taus).T])
        want = np.column_stack([
            survival, np.abs(psi) ** 2,
            (np.abs(np.einsum("kij,rj->rki", ops, psi)) ** 2).sum(2)])
        err = np.abs(got - want).max(axis=1) / survival
        assert err.max() < 1e-13, (j, err.max(), taus[np.argmax(err)])
    # the slope at a table point is -<psi|K|psi>
    psi = mat_exp(-1j * m.effective_hamiltonian, steps[7]) @ starts.T
    _, slope = evo.forms(evo.beta_survival, np.arange(3), np.full(3, steps[7]))
    np.testing.assert_allclose(
        slope, -np.einsum("ik,ij,jk->k", psi.conj(), m.decay, psi).real,
        rtol=1e-13)


def test_jump_times_match_mpmath_roots():
    # the benchmark's shelving model from |1>, |2> and |3>: 34 uniform
    # thresholds above each survival at t = 20, and u = 1 - 10^-k
    # (k = 3..8), which from |1> (zero slope at tau = 0) put the root where
    # the survival is nearly flat.  The reference is Newton at 30 digits on
    # the eigen-expansion of exp(-i H_eff tau) psi.  A root is as good as
    # the survival it solves: one ulp of u over the slope, times the table
    # steps to tau, whose roundoff adds up (measured: at most 1.02 times
    # that, plus an ulp of tau)
    import mpmath
    m = build_model(SystemParams(Config.FIG2A, gamma21=1.0,
                                 gamma23_or_31=0.005, omega_a=1.0,
                                 omega_b=0.08))
    t_final = 20.0
    evo = _NoJumpEvolution(m, np.eye(3, dtype=complex), t_final)
    rng = np.random.default_rng(5)
    last = min(evo.survival.shape[1] - 1, round(t_final / evo.h))
    u = np.concatenate([np.append(rng.uniform(evo.survival[j, last], 1, 34),
                                  1 - 10.0 ** -np.arange(3, 9))
                        for j in range(3)])
    start = np.repeat(np.arange(3), u.size // 3)
    tau = evo.jump_times(start, u, np.full(u.size, t_final))
    assert not np.isnan(tau).any()
    with mpmath.workdps(30):
        h = mpmath.matrix(m.effective_hamiltonian.tolist())
        decay = 1j * (h - h.H)  # K, from H_eff = H - i K / 2
        energies, vecs = mpmath.eig(h)
        for j, u_j, tau_j in zip(start, u, tau):
            amp = vecs ** -1 * mpmath.matrix(np.eye(3)[j].tolist())
            x = mpmath.mpf(tau_j)
            for _ in range(10):
                psi = vecs * mpmath.matrix([mpmath.exp(-1j * e * x) * a
                                            for e, a in zip(energies, amp)])
                slope = -mpmath.re((psi.H * decay * psi)[0])
                step = (mpmath.norm(psi) ** 2 - u_j) / slope
                x -= step
                if abs(step) < 1e-25:
                    break
            bound = (4 * (tau_j / evo.h + 1) * np.spacing(u_j)
                     / abs(float(slope)) + 8 * np.spacing(tau_j))
            assert abs(float(x - tau_j)) <= bound, (j, u_j, tau_j)


def test_mc_dark_state_run_memory_is_bounded():
    # criterion 7's Lambda model to t = 1e4: its dark state keeps the whole
    # table (a 47.2 MB peak at 9 reals per point and start state), so a
    # second copy of the table, or a complex state temporary of its length
    # (8.5 MB), would take the peak past the bound
    m = _TABLE_MODELS["lambda"][0]
    tracemalloc.start()
    try:
        mc_trajectories(m, n_traj=2, t_final=1e4, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 52e6, peak


def test_mc_first_jump_times_follow_exact_distribution():
    # a first jump by t has probability P(t) = 1 - tr rho_nj(t), the trace
    # the no-jump state has lost; here conditioned on a jump before t_final
    m = build_model(fig2a_params())
    t_final = 30.0
    run = mc_trajectories(m, n_traj=2000, t_final=t_final, seed=5)
    first = np.array([r.times[0] for r in run.records if r.times.size])
    assert first.size > 1900

    def cdf(t):
        grid, inverse = np.unique(np.append(t, t_final), return_inverse=True)
        vs = propagate_vectors(m.no_jump, vec(ketbra(0, 0)), grid)
        emitted = 1.0 - (vec(np.eye(3)) @ vs).real[inverse]
        return emitted[:-1] / emitted[-1]

    assert kstest(first, cdf).pvalue > 0.01


def test_mc_rejects_jump_operator_of_rank_two():
    model = LindbladModel(np.zeros((3, 3)), (ketbra(0, 1) + ketbra(1, 2),),
                          np.array([[1.0]]))
    with pytest.raises(JumpRankError):
        mc_trajectories(model, n_traj=3, t_final=1.0, seed=0)


def test_jump_rank_is_judged_against_roundoff():
    # s2/s1 = 1e-9 is a second rank, far above ROUNDOFF (1e-12); 1e-13 is
    # roundoff of a rank-one operator
    def model(s2):
        return LindbladModel(np.zeros((3, 3)),
                             (ketbra(0, 1) + s2 * ketbra(1, 2),),
                             np.array([[1.0]]))

    with pytest.raises(JumpRankError, match=r"s2/s1 = 1\.000e-09"):
        mc_trajectories(model(1e-9), n_traj=3, t_final=1.0, seed=0)
    mc_trajectories(model(1e-13), n_traj=3, t_final=1.0, seed=0)


def _ensemble_z(run, model, sample):
    exact = np.diagonal(propagate_series(liouvillian(model), ketbra(0, 0),
                                         sample), axis1=1, axis2=2).real
    return np.abs(run.populations - exact) / np.maximum(
        run.populations_stderr, 1e-12)


def test_mc_at_exceptional_point_matches_master_equation():
    # critical damping of the 1-2 block: the eigenvectors of H_eff are
    # nearly parallel (condition number ~1e8), so the no-jump evolution is
    # not diagonalizable in practice
    m = build_model(fig2a_params(gamma21=0.4, gamma23_or_31=0.1, omega_a=0.2,
                                 omega_b=0.0, delta2=0.0, delta3=0.0))
    assert np.linalg.cond(np.linalg.eig(m.effective_hamiltonian)[1]) > 1e7
    sample = np.array([0.0, 1.0, 2.5, 5.0, 10.0, 20.0])
    run = mc_trajectories(m, n_traj=2000, t_final=20.0, seed=7,
                          sample_times=sample)
    assert _ensemble_z(run, m, sample).max() < 3.0


@pytest.mark.parametrize("twin", [False, True], ids=["fig1a", "fig1b"])
def test_mc_fig1_jumps_reset_to_each_channel_state(twin):
    # fig1 channels end in different levels (fig1b: superpositions of 1'
    # and 3'), so a jump must restart the atom from its own channel's state
    p = SystemParams(Config.FIG1A, gamma21=1.0, gamma23_or_31=0.3,
                     omega_a=1.2, omega_b=0.7, delta2=0.4, delta3=-0.6)
    m = mapped_pair(p)[int(twin)]
    sample = np.array([0.0, 1.5, 4.0, 8.0])
    run = mc_trajectories(m, n_traj=2000, t_final=8.0, seed=3,
                          sample_times=sample)
    assert len({int(c) for r in run.records for c in r.channels}) == 2
    assert _ensemble_z(run, m, sample).max() < 3.0


def test_mc_samples_populations_at_any_time():
    m = build_model(fig2a_params())
    sample = np.array([0.0, 0.123, 3.3])
    run = mc_trajectories(m, n_traj=2000, t_final=10.03, seed=12,
                          sample_times=sample)
    assert _ensemble_z(run, m, sample).max() < 3.0
    for bad in ([0.0, 10.5], [-0.1, 1.0], [1.0, math.nan, 2.0],
                np.ones((1, 2)), []):
        with pytest.raises(ValueError, match="sample_times"):
            mc_trajectories(m, n_traj=3, t_final=10.03, seed=12,
                            sample_times=np.array(bad))


def test_mc_sample_times_may_come_in_any_order():
    m = build_model(fig2a_params())
    ordered = mc_trajectories(m, n_traj=50, t_final=4.0, seed=5,
                              sample_times=[0.5, 1.0, 2.0])
    shuffled = mc_trajectories(m, n_traj=50, t_final=4.0, seed=5,
                               sample_times=[2.0, 0.5, 1.0])
    np.testing.assert_array_equal(shuffled.populations,
                                  ordered.populations[[2, 0, 1]])


def _record_populations(model, run, psi0, sample_times):
    """Ensemble populations and standard errors of ``run``, one trajectory
    and sample time at a time: the normalised populations of mat_exp(-i
    H_eff (s - t0)) psi_start, with t0 the trajectory's last jump at or
    before s and psi_start the reset state of its channel, else t0 = 0 and
    psi_start = psi0."""
    resets = np.linalg.svd(model.jump_operators)[0][:, :, 0]
    p = np.empty((len(run.records), len(sample_times), 3))
    for rec in run.records:
        for j, s in enumerate(sample_times):
            k = np.searchsorted(rec.times, s, side="right") - 1
            t0, psi = ((rec.times[k], resets[rec.channels[k]]) if k >= 0
                       else (0.0, psi0))
            pops = np.abs(mat_exp(-1j * model.effective_hamiltonian, s - t0)
                          @ psi) ** 2
            p[rec.trajectory, j] = pops / pops.sum()
    mean = p.mean(axis=0)
    var = np.maximum((p ** 2).mean(axis=0) - mean ** 2, 0.0)
    return mean, np.sqrt(var / len(run.records))


@pytest.mark.parametrize("name", ["fig2a", "complex"])
def test_mc_populations_are_read_from_the_record(name):
    # sample times at 0, at t_final, at a recorded jump (the reference
    # puts it in the segment the jump starts), repeated and unsorted
    m = build_model(fig2a_params()) if name == "fig2a" \
        else _TABLE_MODELS["complex"][0]
    plain = mc_trajectories(m, n_traj=30, t_final=5.0, seed=4)
    assert plain.offsets[2] > plain.offsets[1]
    jump = float(plain.times[plain.offsets[1]])  # trajectory 1's first jump
    sample = np.array([5.0, jump, 0.0, 1.3, jump, 0.4, 1.3])
    run = mc_trajectories(m, n_traj=30, t_final=5.0, seed=4,
                          sample_times=sample)
    np.testing.assert_array_equal(run.times, plain.times)
    np.testing.assert_array_equal(run.channels, plain.channels)
    pops, stderr = _record_populations(m, run, np.eye(3)[0], sample)
    np.testing.assert_allclose(run.populations, pops, rtol=0, atol=1e-13)
    np.testing.assert_allclose(run.populations_stderr, stderr, rtol=0,
                               atol=1e-13)


def test_mc_standard_error_is_np_std_of_the_trajectories(monkeypatch):
    # criterion 7's Lambda model: by t = 200 every trajectory has reached
    # the dark state, so the level-3 population is the same in each and
    # its standard error is roundoff, where E[p^2] - E[p]^2 would leave
    # about sqrt(ulp); at t = 150 they still differ by 5e-11, an error of
    # 2.6e-13 that it would read as 7.5e-10.  Each level's error is np.std
    # over the sampler's own per-trajectory populations
    m, n = _TABLE_MODELS["lambda"][0], 200
    sample = np.arange(0.0, 201.0, 50.0)
    forms, seen = _NoJumpEvolution.forms, []

    def spy(self, beta, start, tau):
        out = forms(self, beta, start, tau)
        if beta is self.beta_populations:
            seen.append(out)
        return out

    monkeypatch.setattr(_NoJumpEvolution, "forms", spy)
    run = mc_trajectories(m, n_traj=n, t_final=200.0, seed=7,
                          sample_times=sample)
    p = np.maximum(np.concatenate(seen, axis=1), 0.0).reshape(3, -1, n)
    p /= p.sum(axis=0)
    assert np.ptp(p[2, 4]) < 1e-15  # one dark state
    assert run.populations_stderr[4, 2] <= 1e-15
    stderr = np.std(p, axis=-1).T / math.sqrt(n)
    assert stderr[1].min() > 1e-3  # at t = 50 every level is mixed
    np.testing.assert_allclose(run.populations_stderr, stderr, rtol=0,
                               atol=1e-15)


def test_mc_initial_state_must_be_a_finite_nonzero_3_vector():
    m = build_model(fig2a_params())
    run = mc_trajectories(m, n_traj=20, t_final=4.0, seed=5,
                          initial_state=[2.0, 0.0, 0.0])  # normalized
    np.testing.assert_array_equal(
        run.times, mc_trajectories(m, n_traj=20, t_final=4.0, seed=5).times)
    for bad in ([0.0, 0.0, 0.0], [1.0, 0.0], [math.nan, 0.0, 1.0],
                [[1.0, 0.0, 0.0]]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="initial_state"):
                mc_trajectories(m, n_traj=3, t_final=4.0, seed=5,
                                initial_state=bad)


def test_mc_ensemble_matches_master_equation():
    p = fig2a_params(gamma23_or_31=0.2, omega_a=1.5, omega_b=0.8,
                     delta2=0.3, delta3=-0.2)
    m = build_model(p)
    sample = np.array([0.0, 1.0, 2.0, 4.0, 8.0])
    run = mc_trajectories(m, n_traj=2000, t_final=8.0, seed=1,
                          sample_times=sample)
    lm = liouvillian(m)
    exact = np.vstack(
        [[1.0, 0.0, 0.0]]
        + [np.diag(r).real for r in propagate_series(lm, ketbra(0, 0),
                                                     sample[1:])])
    z = np.abs(run.populations - exact) / np.maximum(run.populations_stderr,
                                                     1e-12)
    assert z.max() < 3.0


def test_mc_cross_damped_model_unravels_correctly():
    # V system with strong interference: ensemble average still matches
    # the master equation because jumps use the diagonal channel basis
    p = fig2a_params(gamma23_or_31=0.05, omega_a=1.0, omega_b=0.3,
                     delta2=0.0, delta3=0.0)
    from trilevel.equivalence import map_system
    target, _ = map_system(p)
    mb = build_model(target)
    assert abs(mb.rate_matrix[0, 1]) > 0.1  # genuine cross damping
    sample = np.array([0.0, 2.0, 6.0])
    run = mc_trajectories(mb, n_traj=1500, t_final=6.0, seed=8,
                          sample_times=sample)
    lm = liouvillian(mb)
    exact = np.vstack(
        [[1.0, 0.0, 0.0]]
        + [np.diag(r).real for r in propagate_series(lm, ketbra(0, 0),
                                                     sample[1:])])
    z = np.abs(run.populations - exact) / np.maximum(run.populations_stderr,
                                                     1e-12)
    assert z.max() < 3.0


def test_mc_shelving_gaps_are_bimodal():
    p = fig2a_params(gamma23_or_31=0.01, omega_a=1.0, omega_b=0.1,
                     delta2=0.0, delta3=0.0)
    m = build_model(p)
    run = mc_trajectories(m, n_traj=120, t_final=250.0, seed=21)
    stats = bright_dark_stats(run, threshold=8.0)
    assert stats.n_dark_periods >= 20
    assert stats.mean_dark > 5 * stats.mean_bright


def test_mc_dark_period_scales_inversely_with_escape_rate():
    means = []
    for g31 in (0.003, 0.03):
        p = fig2a_params(gamma23_or_31=g31, omega_a=1.0, omega_b=0.1,
                         delta2=0.0, delta3=0.0)
        run = mc_trajectories(build_model(p), n_traj=150, t_final=300.0,
                              seed=33)
        gaps = interjump_gaps(run)
        dark = np.sort(gaps[gaps > 8.0])
        means.append(dark.mean())
        # the dark-period tail is exponential: the log-survival slope
        # matches the inverse mean excess length
        survival = 1.0 - np.arange(dark.size) / dark.size
        upper = dark < dark[0] + 4 * (dark.mean() - dark[0])
        slope = np.polyfit(dark[upper], np.log(survival[upper]), 1)[0]
        assert abs(slope * (dark.mean() - dark[0]) + 1) < 0.3
    assert means[0] > 2.0 * means[1]  # decade in rate, much shorter shelves


# -------------------------------------------------------- bright/dark stats

def _run(per_traj, t_final):
    """A run with the given per-trajectory jump times, all on channel 0."""
    counts = [len(t) for t in per_traj]
    times = np.concatenate([np.asarray(t, dtype=float) for t in per_traj]
                           + [np.empty(0)])
    return McRun(np.concatenate([[0], np.cumsum(counts, dtype=int)]), times,
                 np.zeros(times.size, dtype=int), t_final, 0)


def test_bright_dark_stats_synthetic_record():
    stats = bright_dark_stats(_run([[1.0, 2.0, 102.0, 103.0]], 200.0),
                              threshold=10.0)
    assert stats.n_dark_periods == 1
    assert stats.mean_dark == 100.0
    np.testing.assert_allclose(stats.mean_bright, 1.0)


def test_bright_dark_stats_no_dark_periods():
    stats = bright_dark_stats(_run([[1.0, 2.0, 3.0]], 5.0), threshold=10.0)
    assert stats.n_dark_periods == 0
    assert math.isnan(stats.mean_dark)


def test_bright_dark_stats_validation():
    with pytest.raises(ValueError):
        bright_dark_stats(_run([], 5.0), threshold=1.0)
    with pytest.raises(ValueError):
        bright_dark_stats(_run([[1.0]], 5.0), threshold=0.0)


def test_mc_run_validates_flat_jumps():
    for bad in ([[2.0, 1.0]], [[1.0, 7.0]], [[-1.0]], [[1.0, np.nan]]):
        with pytest.raises(ValueError, match="increase"):
            _run(bad, 5.0)
    with pytest.raises(ValueError, match="equal length"):
        McRun([0, 2], [1.0, 2.0], [0], 5.0, 0)
    for offsets in ([1, 2], [0, 2, 1], [0, 1], [0, 3], []):
        with pytest.raises(ValueError, match="offsets"):
            McRun(offsets, [1.0, 2.0], [0, 0], 5.0, 0)
    # two jumps at one time are no increase within a trajectory, but two
    # trajectories may each jump at that time
    with pytest.raises(ValueError, match="increase"):
        McRun([0, 2], [1.0, 1.0], [0, 1], 5.0, 0)
    McRun([0, 1, 2], [1.0, 1.0], [0, 1], 5.0, 0)
    # times restart at each trajectory
    run = _run([[3.0], [], [1.0, 2.0]], 5.0)
    assert [r.times.tolist() for r in run.records] == [[3.0], [], [1.0, 2.0]]
    with pytest.raises(ValueError):
        run.records[0].times[0] = 0.5  # the records are read-only views
    assert run.trajectory.tolist() == [0, 2, 2]
    with pytest.raises(ValueError):
        run.trajectory[0] = 1  # and so is the trajectory index


@pytest.mark.parametrize("call, message", [
    (lambda m: mc_trajectories(m, True, 1.0, 0), "n_traj must be an integer"),
    (lambda m: mc_trajectories(m, 3, 1.0, True), "seed must be an integer"),
    (lambda m: mc_trajectories(m, 3, True, 0), "t_final must be finite"),
    (lambda m: bright_dark_stats(_run([[1.0]], 5.0), True),
     "threshold must be finite"),
    (lambda m: _run([], math.nan), "t_final must be finite"),
    (lambda m: _run([], 0.0), "t_final must be finite"),
    (lambda m: _run([[1.0]], -1.0), "t_final must be finite"),
], ids=["true-n-traj", "true-seed", "true-t-final", "true-threshold",
        "nan-run-t-final", "zero-run-t-final", "negative-run-t-final"])
def test_true_and_bad_final_times_are_rejected(call, message):
    # as in a scenario, true is no number; a run's t_final obeys the rule
    # mc_trajectories applies
    with pytest.raises(ValueError, match=message):
        call(build_model(fig2a_params()))


def test_interjump_gaps_empty():
    assert interjump_gaps(_run([], 5.0)).size == 0


_TRAJECTORIES = st.lists(st.lists(st.floats(0.01, 50.0), max_size=5),
                         min_size=1, max_size=8)


@given(gaps=_TRAJECTORIES, threshold=st.floats(0.1, 60.0))
def test_flat_readers_match_per_trajectory_loops(gaps, threshold):
    # drawn gaps give empty, single-jump and all-empty trajectories
    per_traj = [np.cumsum(g) for g in gaps]
    run = _run(per_traj, 300.0)
    pooled = [np.diff(t) for t in per_traj if t.size >= 2]
    ref = np.concatenate(pooled) if pooled else np.empty(0)
    np.testing.assert_array_equal(interjump_gaps(run), ref)
    dark, bright = ref[ref > threshold], ref[ref <= threshold]
    expected = BrightDarkStats(
        float(bright.mean()) if bright.size else math.nan,
        float(dark.mean()) if dark.size else math.nan, dark.size, ref.size)
    np.testing.assert_equal(vars(bright_dark_stats(run, threshold)),
                            vars(expected))
    np.testing.assert_array_equal(run.trajectory, np.concatenate(
        [np.full(t.size, i) for i, t in enumerate(per_traj)]))
    for i, (r, t) in enumerate(zip(run.records, per_traj, strict=True)):
        assert r.trajectory == i
        np.testing.assert_array_equal(r.times, t)
        np.testing.assert_array_equal(run.times[run.trajectory == i], t)
