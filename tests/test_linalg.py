import numpy as np
import pytest

from trilevel.linalg import (
    check_density_matrix,
    ketbra,
    mat_exp,
    null_space,
    unvec,
    vec,
)


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


# ------------------------------------------------------------- null_space

def test_null_space_identity_is_empty():
    assert null_space(np.eye(3)) == []


def test_null_space_zero_matrix_is_full_basis():
    basis = null_space(np.zeros((4, 4)))
    assert len(basis) == 4
    g = np.array([[np.vdot(a, b) for b in basis] for a in basis])
    assert np.linalg.norm(g - np.eye(4)) < 1e-12


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
    basis = null_space(l)
    assert len(basis) == 1
    rho = unvec(basis[0])
    rho = rho / np.trace(rho)
    assert np.linalg.norm(rho - ketbra(0, 0)) < 1e-10


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

