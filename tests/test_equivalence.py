import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trilevel import dynamics, equivalence, linalg, observables
from trilevel.defaults import DEFAULT_TOLERANCES, DENSITY_SLACK
from trilevel.dynamics import liouvillian, propagate_series
from trilevel.equivalence import (
    _min_eigenvalue,
    _smallest_eigenvalue_bounds,
    basis_unitary,
    dipole_angle,
    dressed_block,
    map_rates,
    map_system,
    verify_equivalence,
)
from trilevel.errors import DegenerateBasisError, UndefinedAngleError
from trilevel.linalg import ketbra
from trilevel.observables import g2, waiting_time
from trilevel.systems import Config, LindbladModel, SystemParams, build_model


def random_density_matrix(rng):
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def random_fig1a(rng):
    return SystemParams(
        Config.FIG1A,
        gamma21=rng.uniform(0.1, 5.0), gamma23_or_31=rng.uniform(0.1, 5.0),
        omega_a=rng.uniform(0.1, 5.0), omega_b=rng.uniform(0.1, 5.0),
        delta2=rng.uniform(-5, 5), delta3=rng.uniform(-5, 5),
    )


def random_fig2a(rng):
    return SystemParams(
        Config.FIG2A,
        gamma21=rng.uniform(0.1, 5.0), gamma23_or_31=rng.uniform(0.1, 5.0),
        omega_a=rng.uniform(0.1, 5.0), omega_b=rng.uniform(0.1, 5.0),
        delta2=rng.uniform(-5, 5), delta3=rng.uniform(-5, 5),
    )


# -------------------------------------------------------- mixing angles

def test_mixing_angle_fig1_resonant():
    theta, l1, l2 = dressed_block(-0.0, 1.0)
    # block [[0, 1], [1, 0]]: eigenvalues +-1, equal-weight mixing
    assert abs(theta - math.pi / 4) < 1e-15
    assert abs(l1 - 1.0) < 1e-15 and abs(l2 + 1.0) < 1e-15


def test_mixing_angle_fig1_weak_drive_limit():
    # with delta3 < 0 the upper dressed state turns into bare level 3
    theta, l1, _ = dressed_block(2.0, 1e-8)
    assert abs(theta - math.pi / 2) < 1e-7
    assert abs(l1 - 2.0) < 1e-7
    theta0, _, _ = dressed_block(-2.0, 1e-8)
    assert theta0 < 1e-7


def test_mixing_angle_fig1_degenerate_raises():
    with pytest.raises(DegenerateBasisError):
        dressed_block(-0.0, 0.0)


def test_mixing_angle_fig1_diagonalizes_block():
    rng = np.random.default_rng(31)
    for _ in range(100):
        delta3 = rng.uniform(-5, 5)
        omega31 = rng.uniform(0.1, 5)
        theta, l1, l2 = dressed_block(-delta3, omega31)
        h13 = np.zeros((3, 3))
        h13[2, 2] = -delta3
        h13[0, 2] = h13[2, 0] = omega31
        u = basis_unitary(theta, "fig1")
        d = u @ h13 @ u.T
        off = d - np.diag(np.diag(d))
        assert np.abs(off).max() < 1e-12
        np.testing.assert_allclose(np.diag(d), [l1, 0.0, l2], atol=1e-12)


def test_mixing_angle_fig2_resonant():
    theta, l1, l2 = dressed_block(0.0, 1.0)
    assert abs(theta - math.pi / 4) < 1e-15
    assert abs(l1 - 1.0) < 1e-15 and abs(l2 + 1.0) < 1e-15


def test_mixing_angle_fig2_no_coupling_relabels():
    theta_hi, _, _ = dressed_block(2.0, 0.0)
    assert theta_hi == math.pi / 2
    theta_lo, _, _ = dressed_block(-2.0, 0.0)
    assert theta_lo == 0.0
    with pytest.raises(DegenerateBasisError):
        dressed_block(0.0, 0.0)


def test_mixing_angle_fig2_diagonalizes_block():
    # the rotation must diagonalize the 2-3 block including the -delta2
    # shift; this pins the pre-shift eigenvalue in the cos(theta) formula
    rng = np.random.default_rng(32)
    for _ in range(100):
        delta2, delta3 = rng.uniform(-5, 5, size=2)
        omega23 = rng.uniform(0.1, 5)
        theta, e1, e2 = dressed_block(delta3, omega23)
        l1, l2 = e1 - delta2, e2 - delta2
        block = np.array([[-delta2, omega23], [omega23, delta3 - delta2]])
        c, s = math.cos(theta), math.sin(theta)
        r = np.array([[c, s], [s, -c]])
        d = r @ block @ r.T
        assert abs(d[0, 1]) < 1e-12 and abs(d[1, 0]) < 1e-12
        np.testing.assert_allclose(np.diag(d), [l1, l2], atol=1e-12)


# -------------------------------------------------------- basis unitary

def test_basis_unitary_limits():
    np.testing.assert_allclose(basis_unitary(0.0, "fig1"),
                               np.diag([1.0, 1.0, -1.0]), atol=0)
    swap = basis_unitary(math.pi / 2, "fig1")
    expected = np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]], dtype=float)
    np.testing.assert_allclose(swap, expected, atol=1e-16)


def test_basis_unitary_orthogonal():
    rng = np.random.default_rng(4)
    for family in ("fig1", "fig2"):
        for _ in range(20):
            u = basis_unitary(rng.uniform(-math.pi, math.pi), family)
            assert np.linalg.norm(u @ u.T - np.eye(3)) < 1e-15
            assert np.array_equal(u, u.T)  # symmetric involution


def test_basis_unitary_rejects_unknown_family():
    with pytest.raises(ValueError):
        basis_unitary(0.3, "fig3")


# ------------------------------------------------------------ map_rates

def test_map_rates_identity_at_theta_zero():
    assert map_rates(0.0, 1.7, 0.3) == (1.7, 0.3, 0.0)


def test_map_rates_symmetric_case():
    gpa, gpb, gx = map_rates(0.7, 2.0, 2.0)
    assert abs(gpa - 2.0) < 1e-15 and abs(gpb - 2.0) < 1e-15
    assert gx == 0.0


def test_map_rates_dark_channel_saturates_cauchy_schwarz():
    gpa, gpb, gx = map_rates(0.9, 3.0, 0.0)
    assert abs(gx * gx - gpa * gpb) < 1e-13 * gpa * gpb
    assert dipole_angle(gpa, gpb, gx) == 0.0  # parallel dipoles, exactly


def test_map_rates_conservation_and_cauchy_schwarz():
    rng = np.random.default_rng(8)
    for _ in range(100):
        ga, gb = rng.uniform(0, 5, size=2)
        theta = rng.uniform(0, math.pi / 2)
        gpa, gpb, gx = map_rates(theta, ga, gb)
        assert abs((gpa + gpb) - (ga + gb)) < 1e-13 * max(1.0, ga + gb)
        assert gx * gx <= gpa * gpb * (1 + 1e-13) + 1e-300


def test_map_rates_rejects_negative():
    with pytest.raises(ValueError):
        map_rates(0.3, -1.0, 1.0)


@pytest.mark.parametrize("step, args, message", [
    (dressed_block, (0.0, -1.0), "omega must be >= 0, got -1.0"),
    (dipole_angle, (-1.0, 1.0, 0.0), "decay rates must be >= 0"),
])
def test_map_steps_reject_negative_input_by_name(step, args, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        step(*args)


@pytest.mark.parametrize("step, args, name", [
    (dressed_block, (math.nan, 1.0), "delta"),
    (dressed_block, (1.0, math.inf), "omega"),
    (map_rates, (math.nan, 1.0, 1.0), "theta"),
    (map_rates, (0.3, 1.0, math.nan), "gamma_b"),
    (dipole_angle, (math.nan, 1.0, 0.1), "gamma_p_a"),
    (dipole_angle, (1.0, 1.0, math.inf), "gamma_cross"),
    (basis_unitary, (math.inf, "fig1"), "theta"),
])
def test_map_steps_reject_non_finite_input_by_name(step, args, name):
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        step(*args)


def test_map_steps_reject_an_int_beyond_a_double():
    # math.isfinite(10**400) overflows; the step names its argument instead
    with pytest.raises(ValueError, match="^delta must be finite"):
        dressed_block(10**400, 1.0)


# --------------------------------------------------------- dipole angle

def test_dipole_angle_orthogonal():
    assert dipole_angle(1.0, 2.0, 0.0) == math.pi / 2


def test_dipole_angle_hand_example():
    # gamma_A = 2, gamma_B = 1 at theta = pi/4: mapped rates (1.5, 1.5, 0.5),
    # cos^2(phi) = 0.25 / 2.25 = 1/9, phi = arccos(1/3)
    gpa, gpb, gx = map_rates(math.pi / 4, 2.0, 1.0)
    np.testing.assert_allclose([gpa, gpb, gx], [1.5, 1.5, 0.5], atol=1e-15)
    assert abs(dipole_angle(gpa, gpb, gx) - 1.2309594173407747) < 1e-12


def test_dipole_angle_negative_cross_is_obtuse():
    phi = dipole_angle(1.0, 1.0, -0.5)
    assert abs(math.cos(phi) + 0.5) < 1e-15
    assert phi > math.pi / 2


def test_dipole_angle_saturated_negative_is_pi():
    assert dipole_angle(1.0, 1.0, -1.0) == math.pi


def test_dipole_angle_dark_channel_raises():
    with pytest.raises(UndefinedAngleError):
        dipole_angle(0.0, 1.0, 0.0)


# ------------------------------------------------------------- full maps

def test_map_fig1a_parallel_dipole_special_case():
    # gamma23 = 0 maps onto a Lambda system with parallel dipole moments
    rng = np.random.default_rng(9)
    for _ in range(10):
        p = SystemParams(Config.FIG1A, gamma21=rng.uniform(0.1, 5),
                         gamma23_or_31=0.0, omega_a=rng.uniform(0.1, 5),
                         omega_b=rng.uniform(0.1, 5),
                         delta2=rng.uniform(-5, 5), delta3=rng.uniform(-5, 5))
        target, emap = map_system(p)
        assert target.phi == 0.0
        assert emap.phi == 0.0


@pytest.mark.parametrize("sampler", [random_fig1a, random_fig2a])
def test_mapped_pair_dynamics_agree(sampler):
    rng = np.random.default_rng(10)
    times = np.linspace(0.0, 20.0, 80)
    for _ in range(10):
        p = sampler(rng)
        target, emap = map_system(p)
        report = verify_equivalence(
            build_model(p), build_model(target), emap.unitary,
            random_density_matrix(rng), times, tol=1e-8)
        assert report.passed, report


def test_map_fig1a_relabeling_limit():
    # omega31 = 0 with delta3 < 0 gives theta = pi/2, a pure relabeling
    p = SystemParams(Config.FIG1A, gamma21=1.0, gamma23_or_31=0.5,
                     omega_a=1.2, omega_b=0.0, delta2=0.4, delta3=-1.0)
    target, emap = map_system(p)
    assert emap.theta == math.pi / 2
    report = verify_equivalence(build_model(p), build_model(target),
                                emap.unitary, ketbra(0, 0),
                                np.linspace(0, 10, 40), tol=1e-8)
    assert report.passed


def test_map_fig2a_symmetric_rates_give_orthogonal_dipoles():
    p = SystemParams(Config.FIG2A, gamma21=0.8, gamma23_or_31=0.8,
                     omega_a=1.0, omega_b=0.7, delta2=0.2, delta3=0.5)
    target, emap = map_system(p)
    assert emap.gamma_cross == 0.0
    assert target.phi == math.pi / 2


def test_map_fig2a_dark_shelf_gives_parallel_dipoles():
    p = SystemParams(Config.FIG2A, gamma21=1.0, gamma23_or_31=0.0,
                     omega_a=1.0, omega_b=0.1)
    target, _ = map_system(p)
    assert target.phi == 0.0


def test_map_rejects_unmappable_config():
    p = SystemParams(Config.FIG1B, gamma21=1.0, gamma23_or_31=1.0,
                     omega_a=1.0, phi=0.5)
    with pytest.raises(ValueError):
        map_system(p)


def test_equivalence_map_invariants():
    rng = np.random.default_rng(12)
    for sampler in (random_fig1a, random_fig2a):
        for _ in range(50):
            _, emap = map_system(sampler(rng))
            u = emap.unitary
            assert np.linalg.norm(u @ u.conj().T - np.eye(3)) < 1e-12
            prod = emap.gamma_p21 * emap.gamma_p23_or_31
            # cos^2(phi) * g'_a * g'_b = g_x^2 (the angle correspondence)
            assert abs(math.cos(emap.phi) ** 2 * prod
                       - emap.gamma_cross ** 2) < 1e-12 * max(1.0, prod)
            assert emap.gamma_cross ** 2 <= prod * (1 + 1e-13)


# -------------------------------------------------------------- verifier

def test_verify_equivalence_identity():
    p = random_fig1a(np.random.default_rng(14))
    m = build_model(p)
    report = verify_equivalence(m, m, np.eye(3), ketbra(0, 0),
                                np.linspace(0, 5, 20), tol=1e-8)
    assert report.max_dist == 0.0


def test_verify_equivalence_detects_broken_map():
    p = random_fig1a(np.random.default_rng(15))
    target, emap = map_system(p)
    broken = SystemParams(
        Config.FIG1B, gamma21=target.gamma21,
        gamma23_or_31=target.gamma23_or_31, omega_a=target.omega_a,
        omega_b=target.omega_b, delta2=target.delta2, delta3=target.delta3,
        phi=min(target.phi + 0.1, math.pi))
    report = verify_equivalence(build_model(p), build_model(broken),
                                emap.unitary, ketbra(0, 0),
                                np.linspace(0, 10, 50), tol=1e-8)
    assert not report.passed
    assert report.max_dist > 1e-3


def test_verify_equivalence_rejects_bad_unitary():
    p = random_fig1a(np.random.default_rng(16))
    m = build_model(p)
    with pytest.raises(ValueError):
        verify_equivalence(m, m, 2 * np.eye(3), ketbra(0, 0),
                           np.linspace(0, 1, 5))


@pytest.mark.parametrize("family", ["fig1", "fig2"])
def test_verify_equivalence_rejects_a_unitary_off_by_1e_6(family):
    # U rho0 U^+ is not checked as a state, so the unitarity check must
    # hold to UNITARITY, not to some looser bound
    m = build_model(random_fig1a(np.random.default_rng(16)))
    u = basis_unitary(0.4, family)
    verify_equivalence(m, m, u, ketbra(0, 0), np.linspace(0, 1, 5))
    off = u.copy()
    off[0, 0] += 1e-6  # |U U^+ - 1| is about 2e-6
    with pytest.raises(ValueError, match="unitary must be a 3x3 unitary"):
        verify_equivalence(m, m, off, ketbra(0, 0), np.linspace(0, 1, 5))


def test_an_equivalence_item_checks_each_given_state_once(monkeypatch):
    # verify_equivalence checks rho0 but not U rho0 U^+, and g2 and
    # waiting_time check the twin's reset state: three checks, not five
    names = []

    def counted(rho, name="density matrix"):
        names.append(name)
        return linalg.check_density_matrix(rho, name)

    for module in (dynamics, equivalence, observables):
        monkeypatch.setattr(module, "check_density_matrix", counted)
    rng = np.random.default_rng(21)
    p = random_fig1a(rng)
    target, emap = map_system(p)
    model_a, model_b = build_model(p), build_model(target)
    u = emap.unitary
    verify_equivalence(model_a, model_b, u, random_density_matrix(rng),
                       np.linspace(0.0, 5.0, 20))
    reset = u @ ketbra(0, 0) @ u.conj().T
    for curve in (g2, waiting_time):
        curve(model_a, np.linspace(0.0, 5.0, 20))
        curve(model_b, np.linspace(0.0, 5.0, 20), reset_state=reset)
    assert names == ["rho0", "reset_state", "reset_state"]


def test_verify_equivalence_rejects_a_non_finite_unitary():
    m = build_model(random_fig1a(np.random.default_rng(16)))
    for bad in (np.full((3, 3), np.nan), np.diag([1.0, 1.0, np.inf])):
        with pytest.raises(ValueError,
                           match="unitary must be a 3x3 unitary matrix"):
            verify_equivalence(m, m, bad, ketbra(0, 0), np.linspace(0, 1, 5))


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-8, True, "1e-8",
                                 None])
def test_verify_equivalence_rejects_a_bad_tolerance(tol):
    m = build_model(random_fig1a(np.random.default_rng(16)))
    with pytest.raises(ValueError, match="tol must be a finite number > 0"):
        verify_equivalence(m, m, np.eye(3), ketbra(0, 0),
                           np.linspace(0, 1, 5), tol=tol)


# ------------------------------------------- screened minimum eigenvalue

def _bits(x):
    return struct.pack("<d", x)


def _screened_equals_lapack(w):
    ref = float(np.linalg.eigvalsh(linalg.states(w)).min())
    assert _bits(_min_eigenvalue(w)) == _bits(ref)


@settings(max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), pure=st.booleans(),
       n=st.integers(1, 200))
def test_screened_minimum_is_lapack_minimum_on_box_trajectories(seed, pure,
                                                                 n):
    # both trajectories of a mapped box pair, from a mixed or a pure start,
    # as verify_equivalence screens them
    rng = np.random.default_rng(seed)
    p = (random_fig1a if seed % 2 else random_fig2a)(rng)
    target, emap = map_system(p)
    if pure:
        psi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        rho0 = np.outer(psi, psi.conj()) / np.vdot(psi, psi).real
    else:
        rho0 = random_density_matrix(rng)
    u = emap.unitary
    gens = np.stack([build_model(p).generator, build_model(target).generator])
    series = propagate_series(gens, [rho0, u @ rho0 @ u.conj().T],
                              np.linspace(0.0, 20.0, n))
    stack = series.reshape(-1, 3, 3)
    _screened_equals_lapack(linalg.coords(stack))
    report = verify_equivalence(build_model(p), build_model(target), u, rho0,
                                np.linspace(0.0, 20.0, n))
    assert _bits(report.min_eigenvalue) == _bits(
        float(np.linalg.eigvalsh(stack).min()))


def _random_unitary(rng):
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    return np.linalg.qr(a)[0]


def _mixed_state(u, eigenvalues):
    """The Hermitian U diag(eigenvalues) U^+."""
    rho = (u * eigenvalues) @ u.conj().T
    return 0.5 * (rho + rho.conj().T)


# eigenvalue triples where the closed form is least accurate or the minima
# of many states nearly tie: pure states, I/3, double roots at either end
# and smallest eigenvalues a few ulps around -DENSITY_SLACK
def _spectrum(kind, rng):
    tiny = rng.integers(-4, 5) * 2.0 ** -60
    a = rng.uniform(0.0, 0.5)
    spread = 2.0 ** -rng.integers(1, 50)
    return {
        "pure": [1.0, tiny, 0.0],
        "third": [1 / 3, 1 / 3 + tiny, 1 / 3],
        "low double": [a, a + tiny, 1.0 - 2 * a],
        "high double": [1.0 - 2 * a, a, a + tiny],
        "slack": [-DENSITY_SLACK * (1 + 4 * tiny), 0.5, 0.5 + DENSITY_SLACK],
        # a double root just below I/3: A - q I is formed with errors of
        # ulps of q, large against the spread
        "near third": [1 / 3 - spread, 1 / 3 - spread * (1 + tiny), 1 / 3],
    }[kind]


_KINDS = st.sampled_from(["pure", "third", "low double", "high double",
                          "slack", "near third", "exact third"])


@settings(max_examples=200)
@given(states=st.lists(st.tuples(_KINDS, st.integers(0, 2**32 - 1)),
                       min_size=1, max_size=40))
def test_screened_minimum_is_lapack_minimum_on_adversarial_stacks(states):
    stack = []
    for kind, seed in states:
        rng = np.random.default_rng(seed)
        if kind == "exact third":
            stack.append(np.eye(3, dtype=complex) / 3)
            continue
        stack.append(_mixed_state(_random_unitary(rng), _spectrum(kind, rng)))
    w = linalg.coords(np.array(stack))
    lower, upper = _smallest_eigenvalue_bounds(w)
    smallest = np.linalg.eigvalsh(linalg.states(w))[:, 0]
    assert (lower <= smallest).all() and (smallest <= upper).all()
    _screened_equals_lapack(w)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_non_finite_state_is_never_screened_out(monkeypatch):
    rng = np.random.default_rng(21)
    w = linalg.coords(np.array([_mixed_state(_random_unitary(rng), p)
                                for p in rng.dirichlet([1.0, 1.0, 1.0], 50)]))
    seen = []
    real_eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda a: seen.append(a) or real_eigvalsh(a))
    _min_eigenvalue(w)
    assert len(seen[-1]) < 10  # the screen leaves LAPACK few states
    far = int(np.argmax(_smallest_eigenvalue_bounds(w)[0]))
    def outcome(call, a):
        try:
            value = float(call(a))
        except np.linalg.LinAlgError:
            return "LinAlgError"
        return "nan" if math.isnan(value) else _bits(value)

    for value in (np.nan, np.inf, -np.inf):
        for where in range(9):
            bad = w.copy()
            bad[far, where] = value
            seen.clear()
            # the same value, or the same error, as LAPACK on every state
            assert outcome(_min_eigenvalue, bad) == outcome(
                lambda a: real_eigvalsh(linalg.states(a)).min(), bad)
            assert any(np.array_equal(a, linalg.states(bad[far]),
                                      equal_nan=True)
                       for a in seen[0]), (value, where)


def test_branch_independence_of_dressed_root():
    # choosing the minus root relabels the dressed levels; building the
    # rotated-frame model by hand from that branch must also certify
    rng = np.random.default_rng(17)
    p = random_fig1a(rng)
    theta, l1, l2 = dressed_block(-p.delta3, p.omega_b)
    # minus-branch eigenvector (omega, lambda2) gives a negative angle
    theta_alt = math.atan2(l2, p.omega_b)
    c, s = math.cos(theta_alt), math.sin(theta_alt)
    h = np.zeros((3, 3), dtype=complex)
    h[1, 1] = -(p.delta2 + l2)
    h[2, 2] = l1 - l2
    h[1, 0] = h[0, 1] = p.omega_a * c
    h[1, 2] = h[2, 1] = p.omega_a * s
    gpa, gpb, gx = map_rates(theta_alt, p.gamma21, p.gamma23_or_31)
    model_alt = LindbladModel(
        h, (ketbra(0, 1), ketbra(2, 1)),
        2.0 * np.array([[gpa, gx], [gx, gpb]]))
    report = verify_equivalence(build_model(p), model_alt,
                                basis_unitary(theta_alt, "fig1"),
                                random_density_matrix(rng),
                                np.linspace(0, 15, 60), tol=1e-8)
    assert report.passed


# ------------------------------------------- generator identity of the map

def generator_distance(p):
    """||S L_a S^+ - L_b|| / ||L_a|| with S = kron(conj(U), U): the mapped
    pair has identical dynamics iff this vanishes."""
    target, emap = map_system(p)
    la = liouvillian(build_model(p))
    lb = liouvillian(build_model(target))
    s = np.kron(emap.unitary.conj(), emap.unitary)
    return np.linalg.norm(s @ la @ s.conj().T - lb) / np.linalg.norm(la)


# the cli_verbs fig1a numbers as a fig2a system: its twin has cos(phi) =
# 0.506, whatever the common scale of rates, drives and detunings
_SCALABLE = (1.0, 0.3, 1.2, 0.7, 0.4, -0.6)


def test_map_and_twin_at_1e160():
    # products of two rates overflow at this scale, their roots do not:
    # the map keeps phi, the twin is built, and the generator identity holds
    phi = map_system(SystemParams(Config.FIG2A, *_SCALABLE))[0].phi
    p = SystemParams(Config.FIG2A, *(1e160 * v for v in _SCALABLE))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        target, emap = map_system(p)
        assert abs(target.phi - phi) <= 1e-15 * phi
        assert abs(math.cos(target.phi) - 0.506) < 1e-3
        # norms at this scale overflow, so compare L / 1e160
        la, lb = (liouvillian(build_model(q)) / 1e160 for q in (p, target))
    s = np.kron(emap.unitary.conj(), emap.unitary)
    assert (np.linalg.norm(s @ la @ s.conj().T - lb)
            <= 1e-14 * np.linalg.norm(la))


@pytest.mark.parametrize("config", [Config.FIG1A, Config.FIG2A])
def test_map_of_rates_whose_product_underflows(config):
    # gamma'_a gamma'_b underflows to 0 here, but neither channel is dark;
    # phi is that of rates scaled up by 1e170
    drive = (1.2, 0.7, 0.4, -0.6)
    target, _ = map_system(SystemParams(config, 1e-170, 3e-170, *drive))
    ref, _ = map_system(SystemParams(config, 1.0, 3.0, *drive))
    assert abs(target.phi - ref.phi) <= 1e-15 * ref.phi


# omega_b << |delta3| with the sign at which (delta -+ disc)/2 cancels,
# where theta = omega_b / |delta3|; and delta3 = +-0.0, where one family
# hands the block delta = -0.0 and it must still mix equally
_CANCELLING = [(config, delta3, omega_b, omega_b / 5.0)
               for config, delta3 in ((Config.FIG1A, 5.0),
                                      (Config.FIG2A, -5.0))
               for omega_b in (1e-7, 3.2e-8, 1e-8)]
_RESONANT = [(config, delta3, 1.0, math.pi / 4)
             for config in (Config.FIG1A, Config.FIG2A)
             for delta3 in (0.0, -0.0)]


@pytest.mark.parametrize("config, delta3, omega_b, theta",
                         _CANCELLING + _RESONANT)
def test_map_angle_keeps_full_precision(config, delta3, omega_b, theta):
    p = SystemParams(config, gamma21=1.0, gamma23_or_31=0.5, omega_a=1.0,
                     omega_b=omega_b, delta2=0.3, delta3=delta3)
    _, emap = map_system(p)
    assert abs(emap.theta - theta) <= 1e-12 * theta
    assert generator_distance(p) <= 1e-14


# rates and drives in {0} u [1e-6, 10], log-uniform; detunings of either
# sign, including both zeros
_RATES = st.one_of(st.just(0.0),
                   st.floats(-6.0, 1.0).map(lambda e: 10.0 ** e))
_DETUNINGS = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(-6.0, 1.0))
    .map(lambda se: se[0] * 10.0 ** se[1]),
)


@given(delta=_DETUNINGS, omega=_RATES)
def test_dressed_block_diagonalizes_over_the_box(delta, omega):
    if delta == 0.0 and omega == 0.0:
        with pytest.raises(DegenerateBasisError):
            dressed_block(delta, omega)
        return
    theta, l1, l2 = dressed_block(delta, omega)
    assert 0.0 <= theta <= math.pi / 2 and l2 <= 0.0 <= l1
    c, s = math.cos(theta), math.sin(theta)
    r = np.array([[c, s], [s, -c]])
    d = r @ np.array([[0.0, omega], [omega, delta]]) @ r.T
    scale = math.hypot(delta, 2.0 * omega)
    assert abs(d[0, 1]) <= 1e-15 * scale
    assert abs(d[0, 0] - l1) <= 1e-15 * scale
    assert abs(d[1, 1] - l2) <= 1e-15 * scale


@given(config=st.sampled_from([Config.FIG1A, Config.FIG2A]),
       gamma21=_RATES, gamma=_RATES, omega_a=_RATES, omega_b=_RATES,
       delta2=_DETUNINGS, delta3=_DETUNINGS)
def test_map_over_the_whole_box(config, gamma21, gamma, omega_a, omega_b,
                                delta2, delta3):
    p = SystemParams(config, gamma21=gamma21, gamma23_or_31=gamma,
                     omega_a=omega_a, omega_b=omega_b, delta2=delta2,
                     delta3=delta3)
    try:
        target, emap = map_system(p)
    except DegenerateBasisError:
        assert delta3 == 0.0 and omega_b == 0.0
        return
    except UndefinedAngleError:
        theta, _, _ = dressed_block(
            -delta3 if config is Config.FIG1A else delta3, omega_b)
        gpa, gpb, _ = map_rates(theta, gamma21, gamma)
        assert gpa * gpb == 0.0
        return
    assert generator_distance(p) <= 1e-14
    total = gamma21 + gamma
    assert abs(emap.gamma_p21 + emap.gamma_p23_or_31 - total) <= 1e-15 * total
    assert emap.gamma_cross ** 2 <= (emap.gamma_p21 * emap.gamma_p23_or_31
                                     * (1 + 1e-13))


_BOX_TAUS = np.linspace(0.0, 30.0, 301)


# Spectra stay out of this property: above SPECTRUM_FLOOR a mapped pair can
# still miss spectrum_rel from the roundoff of a badly conditioned
# resolvent alone (ROADMAP item 8), so no outcome could be asserted there.
@given(config=st.sampled_from([Config.FIG1A, Config.FIG2A]),
       gamma21=_RATES, gamma=_RATES, omega_a=_RATES, omega_b=_RATES,
       delta2=_DETUNINGS, delta3=_DETUNINGS)
def test_mapped_photon_statistics_agree_over_the_whole_box(
        config, gamma21, gamma, omega_a, omega_b, delta2, delta3):
    # a point either has no map, by a named error, or its mapped pair
    # passes the CLI's photon_statistics check, the twin reset to U|1><1|U^+
    p = SystemParams(config, gamma21=gamma21, gamma23_or_31=gamma,
                     omega_a=omega_a, omega_b=omega_b, delta2=delta2,
                     delta3=delta3)
    try:
        target, emap = map_system(p)
    except (DegenerateBasisError, UndefinedAngleError):
        return
    model_a, model_b = build_model(p), build_model(target)
    u = emap.unitary
    reset = u @ ketbra(0, 0) @ u.conj().T
    for curve in (g2, waiting_time):
        diff = np.abs(curve(model_a, _BOX_TAUS).values
                      - curve(model_b, _BOX_TAUS, reset_state=reset).values)
        assert diff.max() < DEFAULT_TOLERANCES["photon_statistics"], curve
