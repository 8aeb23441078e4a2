import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from trilevel.defaults import CHANNEL_FLOOR, ROUNDOFF, SNAP
from trilevel.dynamics import liouvillian, propagate_series
from trilevel.equivalence import map_system
from trilevel.errors import DegenerateBasisError, UndefinedAngleError
from trilevel.linalg import ketbra, vec
from trilevel.systems import (
    Config,
    LindbladModel,
    SystemParams,
    build_model,
)

RNG = np.random.default_rng(2024)


def random_params(config, rng=RNG, with_detuning=True):
    phi = rng.uniform(0, math.pi) if config in (Config.FIG1B, Config.FIG2B) \
        else None
    return SystemParams(
        config=config,
        gamma21=rng.uniform(0.1, 5.0),
        gamma23_or_31=rng.uniform(0.1, 5.0),
        omega_a=rng.uniform(0.1, 5.0),
        omega_b=rng.uniform(0.1, 5.0),
        delta2=rng.uniform(-5, 5) if with_detuning else 0.0,
        delta3=rng.uniform(-5, 5) if with_detuning else 0.0,
        phi=phi,
    )


# ----------------------------------------------------------- validation

def test_params_reject_negative_rate():
    with pytest.raises(ValueError, match="gamma21"):
        SystemParams(Config.FIG1A, gamma21=-1.0, gamma23_or_31=0.0, omega_a=1.0)


def test_params_require_phi_for_single_laser_configs():
    with pytest.raises(ValueError, match="phi"):
        SystemParams(Config.FIG1B, gamma21=1.0, gamma23_or_31=1.0, omega_a=1.0)
    with pytest.raises(ValueError, match="phi"):
        SystemParams(Config.FIG2B, gamma21=1.0, gamma23_or_31=1.0, omega_a=1.0,
                     phi=4.0)


_CHANNELS = np.stack([ketbra(0, 1), ketbra(2, 1)])


@pytest.mark.parametrize("make, message", [
    (lambda: LindbladModel(ketbra(0, 1), _CHANNELS, np.eye(2)),
     "hamiltonian must be Hermitian"),
    (lambda: LindbladModel(np.full((3, 3), np.nan), _CHANNELS, np.eye(2)),
     "hamiltonian must be finite"),
    (lambda: LindbladModel(np.zeros((3, 3)), _CHANNELS,
                           np.full((2, 2), np.nan)),
     "rate matrix must be finite"),
    (lambda: LindbladModel(np.zeros((3, 3)), _CHANNELS,
                           np.diag([1.0, np.inf])),
     "rate matrix must be finite"),
    (lambda: LindbladModel(np.zeros((3, 3)), _CHANNELS * np.nan, np.eye(2)),
     "collapse operators must be finite"),
    (lambda: LindbladModel(np.zeros((3, 3)), _CHANNELS, np.eye(3)),
     r"rate matrix shape \(3, 3\) does not match 2 collapse operators"),
    (lambda: LindbladModel(np.zeros((3, 3)), _CHANNELS,
                           np.array([[1.0, 0.5], [0.0, 1.0]])),
     "rate matrix must be symmetric"),
    (lambda: LindbladModel(np.zeros((3, 3)), _CHANNELS,
                           np.array([[1.0, 2.0], [2.0, 1.0]])),
     "rate matrix is not PSD"),
    (lambda: SystemParams(Config.FIG1A, gamma21=math.inf, gamma23_or_31=0.0,
                          omega_a=1.0),
     "gamma21: must be finite"),
    (lambda: SystemParams(Config.FIG1A, gamma21=1.0, gamma23_or_31=0.0,
                          omega_a=math.nan),
     "omega_a: must be finite"),
    (lambda: SystemParams(Config.FIG1A, gamma21=1.0, gamma23_or_31=0.0,
                          omega_a=1.0, delta3=-math.inf),
     "delta3: must be finite"),
    (lambda: SystemParams(Config.FIG1A, 1.0, 0.3, 1.2, 0.7, 0.4, -0.6,
                          phi=0.3),
     "phi: not read by config fig1a"),
])
def test_models_and_params_reject_bad_input_by_name(make, message):
    with pytest.raises(ValueError, match=message):
        make()


# build_model's own sums that overflow a double are rejected input: here
# E3 = delta3 - delta2 and the rate coordinate 2 gamma21 are each 2e308
@pytest.mark.parametrize("change, message", [
    ({"delta2": -1e308, "delta3": 1e308}, "hamiltonian must be finite"),
    ({"gamma21": 1e308}, "rate matrix must be finite"),
], ids=["energy", "rate"])
def test_build_model_rejects_an_energy_or_rate_that_overflows(change,
                                                              message):
    p = dict(config=Config.FIG2A, gamma21=1.0, gamma23_or_31=0.1,
             omega_a=2.0, omega_b=0.6) | change
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            build_model(SystemParams(**p))


# rates and drive whose squares overflow: the Hermitian, symmetric and
# trace-preservation checks compare norms of their operands divided by the
# largest |entry|, so they neither warn nor go blind at this scale
_HUGE = SystemParams(Config.FIG2A, gamma21=1e200, gamma23_or_31=0.1,
                     omega_a=1e200, omega_b=0.6)
# and a single-laser model whose cross rate 2 sqrt(gamma21) sqrt(gamma31)
# is finite although gamma21 * gamma31 is not
_HUGE_B = SystemParams(Config.FIG2B, gamma21=1e200, gamma23_or_31=1e200,
                       omega_a=1e200, omega_b=0.6, phi=0.0)


def test_roundoff_checks_do_not_overflow():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p in (_HUGE, _HUGE_B):
            m = build_model(p)
            assert np.isfinite(m.generator).all()
            assert np.abs(m.generator).max() > 1e200
        assert m.rate_matrix[0, 1] == 2e200
        assert np.isfinite(m.jump_operators).all()


def test_roundoff_checks_fire_at_any_scale():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scale in (1.0, 1e200):
            with pytest.raises(ValueError, match="must be Hermitian"):
                LindbladModel(scale * (ketbra(0, 1) + 0.9 * ketbra(1, 0)),
                              _CHANNELS, np.eye(2))
            with pytest.raises(ValueError, match="must be symmetric"):
                LindbladModel(np.zeros((3, 3)), _CHANNELS,
                              scale * np.array([[1.0, 0.5], [0.4, 1.0]]))
            # a defect within roundoff of the operand's size is accepted
            h = scale * (ketbra(0, 1) + (1 + 1e-15) * ketbra(1, 0))
            LindbladModel(h, _CHANNELS, np.eye(2))
        # a generator that loses trace at that scale: half the feeding
        # does not give back what the no-jump part loses
        m = build_model(_HUGE)
        m.__dict__["feeding"] = 0.5 * m.feeding
        with pytest.raises(RuntimeError, match="not trace preserving"):
            m.generator


# ROUNDOFF = 1e-12 of H's size: a relative Hermiticity defect of 1e-14 is
# roundoff, one of 1e-10 is not; and an H of size 1e-6 is judged against
# ROUNDOFF in absolute terms, so a defect of 1e-14, 1e-8 of H, passes and
# one of 1e-11 does not
@pytest.mark.parametrize("scale, defect, hermitian", [
    (1.0, 1e-14, True), (1.0, 1e-10, False),
    (1e-6, 1e-14, True), (1e-6, 1e-11, False),
])
def test_hermiticity_is_judged_against_roundoff(scale, defect, hermitian):
    coherence = ketbra(0, 1) + ketbra(1, 0)
    h = (scale * (coherence + np.diag([0.0, 0.5, 1.0]))
         + 1j * defect * coherence)  # an anti-Hermitian defect
    if hermitian:
        LindbladModel(h, _CHANNELS, np.eye(2))
    else:
        with pytest.raises(ValueError, match="must be Hermitian"):
            LindbladModel(h, _CHANNELS, np.eye(2))


@pytest.mark.parametrize("weak, channels", [(1e-8, 2), (1e-16, 1)])
def test_a_jump_channel_is_dropped_only_below_channel_floor(weak, channels):
    # CHANNEL_FLOOR = 1e-14 of the largest rate: a rate share of 1e-8 is a
    # channel, one of 1e-16 is not
    m = LindbladModel(np.zeros((3, 3)), _CHANNELS, np.diag([1.0, weak]))
    jumps = m.jump_operators
    assert len(jumps) == channels
    np.testing.assert_array_equal(jumps[-1], _CHANNELS[0])


# ---------------------------------------------------------------- fig1a

def test_fig1a_printed_structure():
    p = SystemParams(Config.FIG1A, gamma21=1.2, gamma23_or_31=0.7,
                     omega_a=0.9, omega_b=0.4, delta2=0.3, delta3=-1.1)
    m = build_model(p)
    h = m.hamiltonian
    np.testing.assert_allclose(np.diag(h), [0.0, -0.3, 1.1], atol=0)
    # drive sign: the 2<->1 coupling enters with +omega
    assert h[1, 0] == p.omega_a
    assert h[0, 1] == p.omega_a
    assert h[2, 0] == p.omega_b
    assert h[1, 2] == 0.0
    assert np.array_equal(m.collapse_ops[0], ketbra(0, 1))
    assert np.array_equal(m.collapse_ops[1], ketbra(2, 1))
    np.testing.assert_allclose(m.rate_matrix, np.diag([2.4, 1.4]), atol=0)


def test_fig1a_decoupling_limit():
    p = SystemParams(Config.FIG1A, gamma21=1.0, gamma23_or_31=0.0,
                     omega_a=1.0, omega_b=0.0)
    m = build_model(p)
    assert m.hamiltonian[0, 2] == 0.0 and m.hamiltonian[1, 2] == 0.0
    assert m.rate_matrix[1, 1] == 0.0  # nothing feeds level 3


def test_fig1a_undriven_decay_closed_form():
    # rate equations with all drives off: level 2 empties at the total rate
    # 2(g21+g23) and branches g21:g23 into levels 1 and 3
    g21, g23 = 0.8, 0.3
    p = SystemParams(Config.FIG1A, gamma21=g21, gamma23_or_31=g23,
                     omega_a=0.0, omega_b=0.0)
    lm = liouvillian(build_model(p))
    total = 2 * (g21 + g23)
    for t in (0.0, 0.1, 0.5, 2.0):
        rho = propagate_series(lm, ketbra(1, 1), [t])[-1]
        decay = math.exp(-total * t)
        np.testing.assert_allclose(rho[1, 1].real, decay, atol=1e-8)
        np.testing.assert_allclose(
            rho[0, 0].real, g21 / (g21 + g23) * (1 - decay), atol=1e-8)
        np.testing.assert_allclose(
            rho[2, 2].real, g23 / (g21 + g23) * (1 - decay), atol=1e-8)


# ---------------------------------------------------------------- fig1b

def test_fig1b_orthogonal_dipoles_no_cross_damping():
    p = SystemParams(Config.FIG1B, gamma21=1.0, gamma23_or_31=0.5,
                     omega_a=1.0, omega_b=0.5, phi=math.pi / 2)
    m = build_model(p)
    assert m.rate_matrix[0, 1] == 0.0


def test_fig1b_parallel_dipoles_maximal_interference():
    g = 0.7
    p = SystemParams(Config.FIG1B, gamma21=g, gamma23_or_31=g,
                     omega_a=1.0, omega_b=0.5, phi=0.0)
    m = build_model(p)
    # cross weight equals the diagonal weight, 2*sqrt(g*g)*cos(0) = 2g
    np.testing.assert_allclose(m.rate_matrix,
                               2 * g * np.ones((2, 2)), atol=1e-15)


def test_fig1b_hamiltonian_structure():
    p = SystemParams(Config.FIG1B, gamma21=1.0, gamma23_or_31=0.5,
                     omega_a=0.8, omega_b=0.6, delta2=0.4, delta3=-0.9,
                     phi=1.0)
    h = build_model(p).hamiltonian
    np.testing.assert_allclose(np.diag(h), [0.0, -0.4, -1.3], atol=1e-15)
    assert h[1, 0] == p.omega_a and h[1, 2] == p.omega_b
    assert h[2, 0] == 0.0  # no 1'<->3' coupling in a Lambda system


# ---------------------------------------------------------------- fig2a

def test_fig2a_printed_structure():
    # a two-laser system has no dipole angle: its channels do not interfere
    p = SystemParams(Config.FIG2A, gamma21=1.0, gamma23_or_31=0.2,
                     omega_a=1.5, omega_b=0.3, delta2=0.7, delta3=-0.5)
    m = build_model(p)
    h = m.hamiltonian
    assert h[1, 1] == -0.7
    assert h[2, 2] == p.delta3 - p.delta2  # detuning placement
    assert h[1, 0] == p.omega_a and h[2, 1] == p.omega_b
    assert h[2, 0] == 0.0
    assert np.array_equal(m.collapse_ops[1], ketbra(0, 2))
    np.testing.assert_allclose(m.rate_matrix, np.diag([2.0, 0.4]), atol=0)


def test_fig2a_two_level_reduction():
    p = SystemParams(Config.FIG2A, gamma21=1.0, gamma23_or_31=0.0,
                     omega_a=1.0, omega_b=0.0)
    m = build_model(p)
    assert m.hamiltonian[2, 1] == 0.0 and m.rate_matrix[1, 1] == 0.0


def test_fig2a_undriven_level3_decay():
    g31 = 0.45
    p = SystemParams(Config.FIG2A, gamma21=1.0, gamma23_or_31=g31,
                     omega_a=0.0, omega_b=0.0)
    lm = liouvillian(build_model(p))
    for t in (0.2, 1.0, 3.0):
        rho = propagate_series(lm, ketbra(2, 2), [t])[-1]
        np.testing.assert_allclose(rho[2, 2].real, math.exp(-2 * g31 * t),
                                   atol=1e-8)


# ---------------------------------------------------------------- fig2b

def test_fig2b_orthogonal_dipoles_independent_channels():
    p = SystemParams(Config.FIG2B, gamma21=1.0, gamma23_or_31=0.4,
                     omega_a=1.0, omega_b=0.5, phi=math.pi / 2)
    assert build_model(p).rate_matrix[0, 1] == 0.0


def test_fig2b_dark_channel_kills_cross_terms():
    p = SystemParams(Config.FIG2B, gamma21=1.0, gamma23_or_31=0.0,
                     omega_a=1.0, omega_b=0.5, phi=0.3)
    assert build_model(p).rate_matrix[0, 1] == 0.0


def test_fig2b_hamiltonian_structure():
    p = SystemParams(Config.FIG2B, gamma21=1.0, gamma23_or_31=0.4,
                     omega_a=0.9, omega_b=0.2, delta2=1.1, delta3=0.9,
                     phi=0.5)
    h = build_model(p).hamiltonian
    np.testing.assert_allclose(np.diag(h), [0.0, -1.1, -0.9], atol=0)
    assert h[1, 0] == p.omega_a and h[2, 0] == p.omega_b
    assert h[2, 1] == 0.0  # no 2'<->3' coupling in a V system


# ------------------------------------------------------------ invariants

@pytest.mark.parametrize("config", list(Config))
def test_hamiltonian_exactly_hermitian(config):
    for _ in range(20):
        m = build_model(random_params(config))
        assert np.linalg.norm(m.hamiltonian - m.hamiltonian.conj().T) < 1e-15


@pytest.mark.parametrize("config", list(Config))
def test_liouvillian_annihilates_trace(config):
    one = vec(np.eye(3))
    for _ in range(100):
        lm = liouvillian(build_model(random_params(config)))
        assert np.linalg.norm(one @ lm) < 1e-12


@pytest.mark.parametrize("config", list(Config))
def test_rate_matrix_psd(config):
    for _ in range(50):
        m = build_model(random_params(config))
        wmin = np.linalg.eigvalsh(m.rate_matrix).min()
        assert wmin > -1e-12 * max(1.0, np.abs(m.rate_matrix).max())


def test_jump_operators_reproduce_dissipator():
    # diagonalized channels must rebuild the same Liouvillian
    for config in (Config.FIG1B, Config.FIG2B):
        p = random_params(config)
        m = build_model(p)
        jumps = m.jump_operators
        rebuilt = LindbladModel(m.hamiltonian, jumps, np.eye(len(jumps)))
        assert np.linalg.norm(liouvillian(m) - liouvillian(rebuilt)) < 1e-12


def test_jump_operators_match_the_channel_loop():
    # reference: each kept channel summed one collapse operator at a time
    rng = np.random.default_rng(77)
    for config in Config:
        for dark in (False, True):
            p = random_params(config, rng)
            if dark:
                p = SystemParams(config, p.gamma21, 0.0, p.omega_a,
                                 p.omega_b, p.delta2, p.delta3, p.phi)
            m = build_model(p)
            w, o = np.linalg.eigh(m.rate_matrix)
            expected = []
            for k in range(len(w)):
                if w[k] > 1e-14 * max(float(w.max()), 1.0):
                    c = np.zeros((3, 3), dtype=complex)
                    for a, op in enumerate(m.collapse_ops):
                        c += o[a, k] * op
                    expected.append(np.sqrt(w[k]) * c)
            jumps = m.jump_operators
            assert len(jumps) == len(expected) == 2 - dark
            assert all(np.array_equal(j, e) for j, e in zip(jumps, expected))


def test_effective_hamiltonian_consistent_with_jumps():
    p = random_params(Config.FIG2B)
    m = build_model(p)
    k = sum(c.conj().T @ c for c in m.jump_operators)
    np.testing.assert_allclose(m.decay, k, atol=1e-12)


# ------------------------------------------------ assembly by the rate basis

def _bits(a):
    return np.ascontiguousarray(a).tobytes()


def _einsum_operators(m):
    """K, G0, F and L of a model's H, collapse units A and rate matrix R by
    the einsum and Kronecker formulas, written out as the reference."""
    a, r = m.collapse_ops, m.rate_matrix
    k = np.einsum("ab,bji,ajk->ik", r, a.conj(), a)
    h_eff, eye = m.hamiltonian - 0.5j * k, np.eye(3)
    g0 = -1j * (np.kron(eye, h_eff) - np.kron(h_eff.conj(), eye))
    f = np.einsum("ab,bij,akl->ikjl", r, a.conj(), a).reshape(9, 9)
    return k, g0, f, g0 + f


def _box_params(config, rng):
    """A point of the parameter box: rates and drives 0 or log-uniform on
    [1e-6, 10], detunings +-0.0 or log-uniform of either sign."""
    def rate():
        return 0.0 if rng.random() < 0.15 else 10.0 ** rng.uniform(-6, 1)

    def detuning():
        if rng.random() < 0.1:
            return float(rng.choice([0.0, -0.0]))
        return float(rng.choice([-1.0, 1.0])) * 10.0 ** rng.uniform(-6, 1)

    return SystemParams(config, rate(), rate(), rate(), rate(), detuning(),
                        detuning())


# the two systems that all 14 scenarios of the benchmark's cli_verbs
# workload run on, each verb on both, with compare_mapped on their twins
_CLI_SYSTEMS = (SystemParams(Config.FIG1A, 1.0, 0.3, 1.2, 0.7, 0.4, -0.6),
                SystemParams(Config.FIG2A, 1.0, 0.1, 2.0, 0.6, 0.4, -0.7))


def _with_twins(params):
    for p in params:
        yield p
        try:
            yield map_system(p)[0]
        except (DegenerateBasisError, UndefinedAngleError):
            pass


def test_rate_basis_assembly_is_the_einsum_assembly_bit_for_bit():
    # K and F from the rate-basis product, G0 and L from them, equal the
    # einsum and Kronecker formulas byte for byte (signed zeros included)
    rng = np.random.default_rng(2026)
    box = [_box_params(config, rng)
           for config in (Config.FIG1A, Config.FIG2A) for _ in range(1000)]
    models = 0
    for p in _with_twins(_CLI_SYSTEMS + tuple(box)):
        m = build_model(p)
        got = (m.decay, m.no_jump, m.feeding, m.generator)
        for name, a, b in zip(("K", "G0", "F", "L"), got,
                              _einsum_operators(m), strict=True):
            assert _bits(a) == _bits(b), (name, p)
        models += 1
    assert models > 3900  # a few box points have no twin


def _eigh_reference(r, channels):
    """The PSD test and jump operators of a rate matrix on the collapse
    units ``channels`` by its eigendecomposition, as LindbladModel forms
    them: None if R is rejected."""
    if not np.isfinite(r).all():
        return None
    w, o = np.linalg.eigh(r)
    if w.min() < -ROUNDOFF * max(1.0, float(np.abs(r).max())):
        return None
    keep = w > CHANNEL_FLOOR * max(float(w.max()), 1.0)
    return np.einsum("ak,aij->kij", o[:, keep] * np.sqrt(w[keep]),
                     np.stack([ketbra(i, j) for i, j in channels]))


# rates from 0 through every scale a double holds, up to where 2 gamma
# overflows; dipole angles with the endpoints and values that snap to them
_ANY_RATE = st.one_of(st.just(0.0),
                      st.floats(-320.0, 308.25).map(lambda e: 10.0 ** e))
_PHI = st.one_of(st.sampled_from([0.0, math.pi / 2, math.pi, 1e-9,
                                  math.pi - 1e-9]),
                 st.floats(0.0, math.pi))


@given(config=st.sampled_from([Config.FIG1B, Config.FIG2B]),
       gamma21=_ANY_RATE, gamma=_ANY_RATE, phi=_PHI)
def test_closed_form_psd_test_accepts_where_the_eigh_test_does(
        config, gamma21, gamma, phi):
    p = SystemParams(config, gamma21=gamma21, gamma23_or_31=gamma,
                     omega_a=1.0, omega_b=0.5, phi=phi)
    c = math.cos(phi)
    x = math.sqrt(gamma21) * math.sqrt(gamma) * (0.0 if abs(c) < SNAP else c)
    r = np.array([[2.0 * gamma21, 2.0 * x], [2.0 * x, 2.0 * gamma]])
    channels = ((0, 1), (2, 1)) if config is Config.FIG1B else ((0, 1),
                                                                 (0, 2))
    expected = _eigh_reference(r, channels)
    try:
        m = build_model(p)
    except ValueError as err:
        assert expected is None, err
        assert "rate matrix must be finite" in str(err)
        return
    assert expected is not None
    assert _bits(m.rate_matrix) == _bits(r)
    assert _bits(m.jump_operators) == _bits(expected)
