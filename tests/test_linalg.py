import numpy as np
import pytest

from trilevel.linalg import (
    BASIS,
    SQUARES,
    check_density_matrix,
    coords,
    ketbra,
    mat_exp,
    null_space,
    similarity,
    states,
    unvec,
    vec,
)
from trilevel.systems import Config, SystemParams, build_model


def random_complex(rng, shape, scale=1.0):
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def random_hermitian(rng, dim=3, scale=1.0):
    a = random_complex(rng, (dim, dim), scale)
    return 0.5 * (a + a.conj().T)


# ---------------------------------------------------------------- mat_exp

def test_mat_exp_zero_generator_is_identity():
    assert np.array_equal(mat_exp(np.zeros((3, 3)), 7.3), np.eye(3))


def test_mat_exp_diagonal_case():
    d = np.diag([0.3 - 1.0j, -2.0, 1.5j])
    expected = np.diag(np.exp(np.diag(d)))
    assert np.linalg.norm(mat_exp(d, 1.0) - expected) < 1e-12


def test_mat_exp_semigroup_property():
    # oracle: exp(M (t1+t2)) = exp(M t1) exp(M t2) for any square M
    rng = np.random.default_rng(101)
    for _ in range(20):
        m = random_complex(rng, (3, 3))
        t1, t2 = rng.uniform(0, 2, size=2)
        lhs = mat_exp(m, t1 + t2)
        rhs = mat_exp(m, t1) @ mat_exp(m, t2)
        assert np.linalg.norm(lhs - rhs) < 1e-9 * max(1.0, np.linalg.norm(lhs))


def test_mat_exp_antihermitian_gives_unitary():
    rng = np.random.default_rng(5)
    for _ in range(10):
        u = mat_exp(-1j * random_hermitian(rng, scale=3.0), rng.uniform(0, 5))
        assert np.linalg.norm(u @ u.conj().T - np.eye(3)) < 1e-9


def test_mat_exp_rejects_bad_input():
    with pytest.raises(ValueError):
        mat_exp(np.array([[np.nan, 0], [0, 0]]), 1.0)
    with pytest.raises(ValueError):
        mat_exp(np.eye(3), -1.0)


# built models and the times at which the reference test exponentiates
# their Liouvillian L and no-jump part G0: long steps, ||G t|| from 450 to
# 8300 (Frobenius), and for fig2b also a medium one, ||G t|| about 24
_REFERENCE_MODELS = {
    "fig1a": (SystemParams(Config.FIG1A, 1.0, 0.3, omega_a=1.2, omega_b=0.7,
                           delta2=0.4, delta3=-0.6), (100.0,)),
    "fig1a-strong": (SystemParams(Config.FIG1A, 10.0, 10.0, omega_a=10.0,
                                  omega_b=10.0, delta2=-5.0, delta3=7.0),
                     (100.0,)),
    "fig2a-shelving": (SystemParams(Config.FIG2A, 1.0, 1e-3, omega_a=1.0,
                                    omega_b=0.08), (100.0,)),
    "fig2b": (SystemParams(Config.FIG2B, 0.93, 0.17, omega_a=1.9,
                           omega_b=0.62, delta2=-0.8, delta3=0.9, phi=1.1),
              (3.0, 100.0)),
}


@pytest.mark.parametrize("name", list(_REFERENCE_MODELS))
def test_mat_exp_matches_a_30_digit_reference(name):
    # mpmath's expm of the same float generator at 30 digits; measured
    # errors are at most 1.8e-13 (fig1a-strong's G0 at t = 100)
    import mpmath
    p, times = _REFERENCE_MODELS[name]
    model = build_model(p)
    with mpmath.workdps(30):
        for g in (model.generator, model.no_jump):
            for t in times:
                ref = mpmath.expm(mpmath.matrix(g.tolist()) * mpmath.mpf(t))
                ref = np.array(ref.tolist(), dtype=complex)
                err = np.linalg.norm(mat_exp(g, t) - ref)
                assert err <= 1e-12 * np.linalg.norm(ref), (t, err)


# ------------------------------------------------------------- null_space

def test_null_space_identity_is_empty():
    right, left = null_space(np.eye(3))
    assert right.shape == left.shape == (3, 0)


def test_null_space_zero_matrix_is_full_basis():
    for basis in null_space(np.zeros((4, 4))):
        assert basis.shape == (4, 4)
        assert np.linalg.norm(basis.conj().T @ basis - np.eye(4)) < 1e-12


def test_null_space_damped_system_steady_state():
    # two decay channels into the ground level; the unique stationary state
    # is |1><1|, i.e. the null vector is vec(E00) up to phase
    eye = np.eye(3, dtype=complex)
    l = np.zeros((9, 9), dtype=complex)
    for (i, j, rate) in [(0, 1, 2.0), (0, 2, 0.8)]:
        a = ketbra(i, j)
        k = a.conj().T @ a
        l += rate * (np.kron(a.conj(), a)
                     - 0.5 * (np.kron(eye, k) + np.kron(k.T, eye)))
    right, _ = null_space(l)
    assert right.shape == (9, 1)
    rho = unvec(right[:, 0])
    rho = rho / np.trace(rho)
    assert np.linalg.norm(rho - ketbra(0, 0)) < 1e-10


def test_null_space_left_basis_of_a_generator_is_the_trace():
    # trace preservation, vec(I)^+ L = 0, makes vec(I) L's one left null
    # vector
    p = SystemParams(Config.FIG2A, 1.0, 0.1, omega_a=2.0, omega_b=0.6,
                     delta2=0.4, delta3=-0.7)
    right, left = null_space(build_model(p).generator)
    assert right.shape == left.shape == (9, 1)
    trace = vec(np.eye(3)) / np.sqrt(3.0)
    assert abs(abs(np.vdot(trace, left[:, 0])) - 1.0) < 1e-12


def test_null_space_rejects_non_square():
    with pytest.raises(ValueError):
        null_space(np.zeros((2, 3)))


# ----------------------------------------------- vectorization convention

def test_column_stacking_convention():
    # kron(B.T, A) vec(rho) must equal vec(A rho B)
    rng = np.random.default_rng(21)
    a, b, rho = (random_complex(rng, (3, 3)) for _ in range(3))
    lhs = np.kron(b.T, a) @ vec(rho)
    np.testing.assert_allclose(lhs, vec(a @ rho @ b), atol=1e-12)
    np.testing.assert_allclose(unvec(vec(rho)), rho, atol=0)


def test_check_density_matrix():
    check_density_matrix(np.diag([0.2, 0.3, 0.5]).astype(complex))
    with pytest.raises(ValueError):
        check_density_matrix(np.diag([0.5, 0.5, 0.5]).astype(complex))
    with pytest.raises(ValueError):
        check_density_matrix(np.diag([1.5, -0.5, 0.0]).astype(complex))
    bad = np.diag([0.5, 0.5, 0.0]).astype(complex)
    bad[0, 1] = 0.3  # not Hermitian
    with pytest.raises(ValueError):
        check_density_matrix(bad)


def test_a_checked_density_matrix_is_its_coordinates():
    rng = np.random.default_rng(8)
    a = random_complex(rng, (3, 3))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    for given in (rho, rho.tolist(), np.diag([0.2, 0.3, 0.5])):
        w = check_density_matrix(given)
        assert w.dtype == float and w.shape == (9,)
        assert w.tobytes() == coords(np.asarray(given)).tobytes()



@pytest.mark.parametrize("shift, reason", [
    # trace 1 + 1e-8, or an eigenvalue of -1e-8, is past DENSITY_SLACK
    (np.diag([1e-8, 0.0, 0.0]), "has trace"),
    (np.diag([1e-8, 0.0, -1e-8]), "negative eigenvalue"),
    (1e-8 * ketbra(0, 1), "not Hermitian"),
])
def test_check_density_matrix_slack_is_density_slack(shift, reason):
    # DENSITY_SLACK = 1e-9: a defect of 1e-10 is accepted, 1e-8 is not
    rho = np.diag([0.5, 0.5, 0.0]).astype(complex)
    check_density_matrix(rho + 1e-2 * shift)
    with pytest.raises(ValueError, match=reason):
        check_density_matrix(rho + shift)


# ---------------------------------------------------- Hermitian coordinates

def test_coordinates_of_the_basis_are_unit_vectors():
    basis = unvec(BASIS)
    np.testing.assert_array_equal(coords(basis), np.eye(9))
    np.testing.assert_array_equal(states(np.eye(9)), basis)
    np.testing.assert_array_equal(SQUARES, [1, 1, 1, 2, 2, 2, 2, 2, 2])
    # w holds the rho_ii, then Re and Im of rho_ki for (i, k) = (0, 1),
    # (0, 2), (1, 2)
    rho = random_hermitian(np.random.default_rng(4))
    w = coords(rho)
    np.testing.assert_array_equal(w[:3], rho.diagonal().real)
    np.testing.assert_array_equal(w[3:], np.concatenate([
        rho[[1, 2, 2], [0, 0, 1]].real, rho[[1, 2, 2], [0, 0, 1]].imag]))


def test_states_are_hermitian_bit_for_bit_and_invert_coords():
    rng = np.random.default_rng(5)
    w = rng.standard_normal((4, 7, 9))
    rho = states(w)
    assert rho.shape == (4, 7, 3, 3)
    assert np.array_equal(rho, np.swapaxes(rho.conj(), -1, -2))
    np.testing.assert_array_equal(coords(rho), w)
    np.testing.assert_allclose(np.trace(rho, axis1=-2, axis2=-1).real,
                               w[..., :3].sum(axis=-1), rtol=0, atol=1e-15)


def test_similarity_is_the_superoperator_on_coordinates():
    rng = np.random.default_rng(6)
    model = build_model(SystemParams(Config.FIG2B, gamma21=1.0,
                                     gamma23_or_31=0.4, omega_a=1.0,
                                     omega_b=0.5, delta2=0.3, delta3=-0.2,
                                     phi=1.0))
    u = np.linalg.qr(random_complex(rng, (3, 3)))[0]
    rho = random_hermitian(rng)
    for g in (model.generator, model.no_jump, model.feeding,
              np.kron(u.conj(), u)):
        s = similarity(g, "g")
        assert s.dtype == float
        np.testing.assert_allclose(s @ coords(rho),
                                   coords(unvec(g @ vec(rho))), atol=1e-13)
    np.testing.assert_array_equal(model.generator_coords,
                                  similarity(model.generator))
    np.testing.assert_allclose(model.rate_coords @ coords(rho),
                               np.trace(model.decay @ rho).real, atol=1e-14)


def test_similarity_rejects_by_name_what_breaks_hermiticity():
    # rho -> i rho and rho -> |1><2| rho are no maps of Hermitian matrices;
    # a defect of roundoff size is not judged
    for g in (1j * np.eye(9), np.kron(np.eye(3), ketbra(0, 1))):
        with pytest.raises(ValueError, match="^l does not map Hermitian"):
            similarity(g, "l")
        similarity(g)  # unnamed, nothing is checked
    similarity(np.eye(9) + 1e-14j * np.eye(9), "l")


def test_mat_exp_keeps_a_real_matrix_real():
    g = np.array([[-1.0, 2.0], [0.5, -3.0]])
    e = mat_exp(g, 0.7)
    assert e.dtype == float
    np.testing.assert_allclose(e, mat_exp(g.astype(complex), 0.7).real,
                               rtol=0, atol=1e-15)
