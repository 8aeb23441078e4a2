"""End-to-end acceptance suite.

Each test prints one "ACCEPTANCE n: PASS/FAIL" line (run pytest with -s to
see them live) and asserts the criterion at its pinned tolerance.  The
random-parameter protocols share module-scoped sweeps so the conservation
suite (criterion 10) can aggregate diagnostics across every run.
"""

import math

import numpy as np
import pytest
from scipy.stats import ks_2samp

import trilevel as tl
from trilevel.dynamics import (
    liouvillian,
    propagate_series,
    steady_state,
)
from trilevel.linalg import ketbra, vec
from trilevel.systems import Config, SystemParams, build_model

_trapezoid = getattr(np, "trapezoid", None) or np.trapz

N_SWEEP = 100
SWEEP_TIMES = np.linspace(0.0, 20.0, 200)
EQUIV_TOL = 1e-8
STATS_TOL = 1e-8
SPECTRUM_REL_TOL = 1e-6
TRACE_TOL = 1e-9
EIG_FLOOR = -1e-9
LEFT_NULL_TOL = 1e-12


def _report(n, ok, detail):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} -- {detail}")


def random_a_params(rng, config):
    return SystemParams(
        config=config,
        gamma21=rng.uniform(0.1, 5.0), gamma23_or_31=rng.uniform(0.1, 5.0),
        omega_a=rng.uniform(0.1, 5.0), omega_b=rng.uniform(0.1, 5.0),
        delta2=rng.uniform(-5.0, 5.0), delta3=rng.uniform(-5.0, 5.0),
    )


def random_density_matrix(rng):
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def _run_sweep(config, seed):
    rng = np.random.default_rng(seed)
    one = vec(np.eye(3))
    reports, null_residuals = [], []
    for _ in range(N_SWEEP):
        p = random_a_params(rng, config)
        target, emap = tl.map_system(p)
        model_a, model_b = build_model(p), build_model(target)
        for m in (model_a, model_b):
            null_residuals.append(
                float(np.linalg.norm(one @ liouvillian(m))))
        reports.append(tl.verify_equivalence(
            model_a, model_b, emap.unitary, random_density_matrix(rng),
            SWEEP_TIMES, tol=EQUIV_TOL))
    return reports, null_residuals


@pytest.fixture(scope="module")
def fig1_sweep():
    return _run_sweep(Config.FIG1A, seed=20240801)


@pytest.fixture(scope="module")
def fig2_sweep():
    return _run_sweep(Config.FIG2A, seed=20240802)


def test_criterion_1_fig1_equivalence_theorem(fig1_sweep):
    reports, _ = fig1_sweep
    worst = max(r.max_dist for r in reports)
    ok = all(r.passed for r in reports)
    _report(1, ok, f"{len(reports)} random fig1a maps, "
                   f"max Frobenius distance {worst:.3e} < {EQUIV_TOL:.0e}")
    assert ok, f"worst distance {worst}"


def test_criterion_2_fig2_equivalence_theorem(fig2_sweep):
    reports, _ = fig2_sweep
    worst = max(r.max_dist for r in reports)
    ok = all(r.passed for r in reports)
    _report(2, ok, f"{len(reports)} random fig2a maps, "
                   f"max Frobenius distance {worst:.3e} < {EQUIV_TOL:.0e}")
    assert ok, f"worst distance {worst}"


def test_criterion_3_parallel_dipole_special_case():
    rng = np.random.default_rng(3)
    worst = 0.0
    phis = []
    for _ in range(20):
        p = SystemParams(Config.FIG1A, gamma21=rng.uniform(0.1, 5.0),
                         gamma23_or_31=0.0, omega_a=rng.uniform(0.1, 5.0),
                         omega_b=rng.uniform(0.1, 5.0),
                         delta2=rng.uniform(-5, 5), delta3=rng.uniform(-5, 5))
        target, emap = tl.map_system(p)
        phis.append(target.phi)
        report = tl.verify_equivalence(
            build_model(p), build_model(target), emap.unitary,
            random_density_matrix(rng), SWEEP_TIMES, tol=EQUIV_TOL)
        worst = max(worst, report.max_dist)
    ok = all(phi == 0.0 for phi in phis) and worst < EQUIV_TOL
    _report(3, ok, f"gamma23 = 0 maps to phi = 0 exactly; "
                   f"max distance {worst:.3e}")
    assert all(phi == 0.0 for phi in phis)
    assert worst < EQUIV_TOL


@pytest.fixture(scope="module")
def fig2_pairs():
    rng = np.random.default_rng(20240804)
    pairs = []
    for _ in range(20):
        p = random_a_params(rng, Config.FIG2A)
        target, emap = tl.map_system(p)
        pairs.append((build_model(p), build_model(target), emap))
    return pairs


def test_criterion_4_photon_statistics_equality(fig2_pairs):
    taus = np.linspace(0.0, 30.0, 301)
    worst_g2 = worst_w = 0.0
    for model_a, model_b, _ in fig2_pairs:
        worst_g2 = max(worst_g2, float(np.max(np.abs(
            tl.g2(model_a, taus).values - tl.g2(model_b, taus).values))))
        worst_w = max(worst_w, float(np.max(np.abs(
            tl.waiting_time(model_a, taus).values
            - tl.waiting_time(model_b, taus).values))))
    ok = worst_g2 < STATS_TOL and worst_w < STATS_TOL
    _report(4, ok, f"20 mapped pairs: g2 diff {worst_g2:.3e}, "
                   f"waiting-time diff {worst_w:.3e} < {STATS_TOL:.0e}")
    assert ok


def test_criterion_5_spectrum_equality(fig2_pairs):
    omegas = np.linspace(-12.0, 12.0, 4096)
    worst = 0.0
    for model_a, model_b, emap in fig2_pairs[:10]:
        det_a = model_a.collapse_ops[0]
        det_b = (math.cos(emap.theta) * model_b.collapse_ops[0]
                 + math.sin(emap.theta) * model_b.collapse_ops[1])
        spec_a = tl.emission_spectrum(model_a, det_a, omegas)
        spec_b = tl.emission_spectrum(model_b, det_b, omegas)
        scale = float(np.max(np.abs(spec_a.values)))
        worst = max(worst, float(np.max(np.abs(
            spec_a.values - spec_b.values))) / scale)
    ok = worst < SPECTRUM_REL_TOL
    _report(5, ok, f"10 mapped pairs on a 4096-point grid: relative "
                   f"spectrum diff {worst:.3e} < {SPECTRUM_REL_TOL:.0e}")
    assert ok


def test_criterion_6_mollow_limit():
    omega = 10.0
    p = SystemParams(Config.FIG1A, gamma21=1.0, gamma23_or_31=0.0,
                     omega_a=omega, omega_b=0.0)
    model = build_model(p)
    lm = liouvillian(model)
    # level 3 is fully decoupled, so the steady state of the driven
    # two-level block is selected dynamically from the ground state
    rho_ss = propagate_series(lm, ketbra(0, 0), np.array([80.0]))[-1]
    # grid step 0.25 resolves the lines (widths 1 and 1.5) while exceeding
    # the finite-drive dispersive pull of the sideband maxima (~gamma^2 /
    # (2 Omega_R) ~ 0.1 at this drive)
    omegas = np.linspace(-32.0, 32.0, 257)
    step = omegas[1] - omegas[0]
    spec = tl.emission_spectrum(model, model.collapse_ops[0], omegas,
                                rho_ss=rho_ss)
    v = spec.values
    i_right = int(np.argmax(np.where(omegas > omega, v, -np.inf)))
    i_left = int(np.argmax(np.where(omegas < -omega, v, -np.inf)))
    i_center = int(np.argmin(np.abs(omegas)))
    loc_ok = (abs(omegas[i_right] - 2 * omega) <= step
              and abs(omegas[i_left] + 2 * omega) <= step)
    ratio = v[i_center] / v[i_right]
    ratio_ok = abs(ratio - 3.0) <= 0.05 * 3.0
    # the continuum sideband maximum itself sits within the dispersive
    # pull of +-2 Omega (fine local scan)
    fine = np.linspace(2 * omega - 1.0, 2 * omega + 1.0, 2001)
    vf = tl.emission_spectrum(model, model.collapse_ops[0], fine,
                              rho_ss=rho_ss).values
    pull = abs(fine[int(np.argmax(vf))] - 2 * omega)
    ok = loc_ok and ratio_ok and pull < 0.15
    _report(6, ok, f"sidebands at {omegas[i_left]:.2f}/{omegas[i_right]:.2f} "
                   f"(expected +-{2 * omega:.0f}, step {step:.2f}), "
                   f"central/sideband ratio {ratio:.3f}")
    assert loc_ok, (omegas[i_left], omegas[i_right])
    assert ratio_ok, ratio
    assert pull < 0.15, pull


def test_criterion_7_lambda_dark_state():
    p = SystemParams(Config.FIG1B, gamma21=1.0, gamma23_or_31=0.6,
                     omega_a=0.9, omega_b=0.4, delta2=0.8, delta3=0.8,
                     phi=0.7)
    model = build_model(p)
    lm = liouvillian(model)
    rho_ss = steady_state(lm)
    excited = rho_ss[1, 1].real
    rate = float((vec(np.eye(3)) @ model.feeding
                  @ vec(rho_ss)).real)
    ok = excited < 1e-10 and rate < 1e-10
    _report(7, ok, f"two-photon resonance: excited population "
                   f"{excited:.2e}, emission rate {rate:.2e} < 1e-10")
    assert ok


def _narrow_peak_fwhm(gamma31):
    p = SystemParams(Config.FIG2A, gamma21=1.0, gamma23_or_31=gamma31,
                     omega_a=1.0, omega_b=0.08)
    model = build_model(p)
    omegas = np.linspace(-0.6, 0.6, 3001)
    spec = tl.emission_spectrum(model, model.collapse_ops[0], omegas)
    v = spec.values
    i_peak = int(np.argmax(v))
    base = 0.5 * (v[0] + v[-1])
    half = base + 0.5 * (v[i_peak] - base)
    above = np.flatnonzero(v >= half)
    lo, hi = above[0], above[-1]
    assert 0 < lo and hi < len(v) - 1, "half-maximum crossing left the window"

    def crossing(i, j):
        return omegas[i] + (half - v[i]) * (omegas[j] - omegas[i]) \
            / (v[j] - v[i])

    return crossing(hi, hi + 1) - crossing(lo - 1, lo)


def test_criterion_8_narrow_peak_width_monotonic():
    gammas = [0.001, 0.003, 0.01, 0.03]
    widths = [_narrow_peak_fwhm(g) for g in gammas]
    ok = all(w1 < w2 for w1, w2 in zip(widths, widths[1:]))
    detail = ", ".join(f"G31={g:g}: FWHM={w:.4f}"
                       for g, w in zip(gammas, widths))
    _report(8, ok, f"shelving-regime narrow peak strictly widens ({detail})")
    assert ok, widths


@pytest.fixture(scope="module")
def telegraph_runs():
    p = SystemParams(Config.FIG2A, gamma21=1.0, gamma23_or_31=0.005,
                     omega_a=1.0, omega_b=0.08)
    target, _ = tl.map_system(p)
    model_a, model_b = build_model(p), build_model(target)
    sample = np.array([0.0, 100.0, 200.0, 300.0, 400.0])
    run_a = tl.mc_trajectories(model_a, n_traj=10_000, t_final=400.0,
                               seed=2025, sample_times=sample)
    run_b = tl.mc_trajectories(model_b, n_traj=10_000, t_final=400.0,
                               seed=4050, sample_times=sample)
    return p, model_a, model_b, sample, run_a, run_b


def test_criterion_9_shelving_telegraph(telegraph_runs):
    _, model_a, model_b, sample, run_a, run_b = telegraph_runs
    threshold = 10.0

    # bimodal inter-jump gaps with well separated time scales
    stats_a = tl.bright_dark_stats(run_a, threshold)
    bimodal = (stats_a.n_dark_periods > 1000
               and stats_a.mean_dark > 20 * stats_a.mean_bright)

    # ensemble populations against the master equation, both systems
    worst_z = 0.0
    for model, run in ((model_a, run_a), (model_b, run_b)):
        lm = liouvillian(model)
        exact = np.vstack(
            [[1.0, 0.0, 0.0]]
            + [np.diag(r).real
               for r in propagate_series(lm, ketbra(0, 0), sample[1:])])
        z = np.abs(run.populations - exact) / np.maximum(
            run.populations_stderr, 1e-12)
        worst_z = max(worst_z, float(z.max()))
    pops_ok = worst_z < 3.0

    # mapped pair dark-period statistics indistinguishable at the 1% level
    gaps_a = tl.interjump_gaps(run_a)
    gaps_b = tl.interjump_gaps(run_b)
    dark_a = gaps_a[gaps_a > threshold]
    dark_b = gaps_b[gaps_b > threshold]
    ks = ks_2samp(dark_a, dark_b)
    ks_ok = ks.pvalue > 0.01

    ok = bimodal and pops_ok and ks_ok
    _report(9, ok, f"2x10^4 trajectories: {stats_a.n_dark_periods} dark "
                   f"periods (mean {stats_a.mean_dark:.1f} vs bright gap "
                   f"{stats_a.mean_bright:.2f}), ensemble max|z| = "
                   f"{worst_z:.2f}, KS p = {ks.pvalue:.3f}")
    assert bimodal, stats_a
    assert pops_ok, worst_z
    assert ks_ok, ks


def test_criterion_10_conservation_suite(fig1_sweep, fig2_sweep):
    reports = fig1_sweep[0] + fig2_sweep[0]
    residuals = fig1_sweep[1] + fig2_sweep[1]
    worst_trace = max(r.max_trace_error for r in reports)
    worst_eig = min(r.min_eigenvalue for r in reports)
    worst_null = max(residuals)
    ok = (worst_trace < TRACE_TOL and worst_eig > EIG_FLOOR
          and worst_null < LEFT_NULL_TOL)
    _report(10, ok, f"across {len(reports)} mapped-pair integrations: "
                    f"trace error {worst_trace:.2e} < {TRACE_TOL:.0e}, "
                    f"min eigenvalue {worst_eig:.2e} > {EIG_FLOOR:.0e}, "
                    f"left-null residual {worst_null:.2e} "
                    f"< {LEFT_NULL_TOL:.0e}")
    assert ok
