"""Tests for the dense linear-algebra primitives, and for the explicit
Kronecker product and vec/unvec pair the oracles build on."""

import numpy as np
import pytest

from kfeprune import oracle
from kfeprune import tensormath as tm
from kfeprune.errors import (
    DimensionError,
    SingularityError,
    SizeError,
    ValidationError,
)


def test_as_matrix_converts_and_validates():
    out = tm.as_matrix([[1, 2], [3, 4]])
    assert out.dtype == np.float64
    np.testing.assert_array_equal(out, [[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(DimensionError):
        tm.as_matrix(np.zeros(3))
    with pytest.raises(ValidationError):
        tm.as_matrix([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(ValidationError):
        tm.as_matrix([[np.inf, 0.0], [0.0, 1.0]])


def test_vec_stacks_columns():
    np.testing.assert_array_equal(oracle.vec([[1.0, 3.0], [2.0, 4.0]]), [1, 2, 3, 4])


def test_unvec_roundtrip_and_length_check():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((5, 7))
    np.testing.assert_array_equal(oracle.unvec(oracle.vec(m), 5, 7), m)
    with pytest.raises(DimensionError):
        oracle.unvec(np.zeros(7), 2, 3)


def test_kron_identity_blocks():
    np.testing.assert_array_equal(oracle.kron(np.eye(2), np.eye(3)), np.eye(6))


def test_kron_matches_elementwise_loop():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([[0.0, 1.0], [1.0, 0.0]])
    out = oracle.kron(a, b)
    ref = np.zeros((4, 4))
    for i in range(2):
        for j in range(2):
            ref[2 * i : 2 * i + 2, 2 * j : 2 * j + 2] = a[i, j] * b
    np.testing.assert_array_equal(out, ref)


def test_kron_vec_identity():
    """kron(s, a) @ vec(x) must equal vec(a @ x @ s.T)."""
    rng = np.random.default_rng(1)
    for _ in range(3):
        a = rng.standard_normal((3, 3))
        s = rng.standard_normal((3, 3))
        x = rng.standard_normal((3, 3))
        lhs = oracle.kron(s, a) @ oracle.vec(x)
        np.testing.assert_allclose(lhs, oracle.vec(a @ x @ s.T), atol=1e-12)
    # rectangular case
    a = rng.standard_normal((4, 3))
    s = rng.standard_normal((5, 6))
    x = rng.standard_normal((3, 6))
    np.testing.assert_allclose(
        oracle.kron(s, a) @ oracle.vec(x), oracle.vec(a @ x @ s.T), atol=1e-12
    )


def test_kron_size_guard():
    big = np.zeros((2 ** 14, 1))
    with pytest.raises(SizeError):
        oracle.kron(big, big)


def test_khatri_rao_scalar_columns():
    a = np.array([[2.0, 3.0, 4.0]])
    b = np.array([[5.0, 6.0, 7.0]])
    np.testing.assert_array_equal(tm.khatri_rao(a, b), [[10.0, 18.0, 28.0]])


def test_khatri_rao_identity_columns():
    out = tm.khatri_rao(np.eye(2), np.eye(2))
    expected = np.column_stack(
        [np.kron(np.eye(2)[:, j], np.eye(2)[:, j]) for j in range(2)]
    )
    np.testing.assert_array_equal(out, expected)


def test_khatri_rao_entry_pattern():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((3, 2))
    b = rng.standard_normal((4, 2))
    out = tm.khatri_rao(a, b)
    assert out.shape == (12, 2)
    for j in range(2):
        for i in range(3):
            for k in range(4):
                assert out[i * 4 + k, j] == a[i, j] * b[k, j]
    with pytest.raises(DimensionError):
        tm.khatri_rao(a, rng.standard_normal((4, 3)))


def test_sym_eig_identity():
    values, vectors = tm.sym_eig(np.eye(3))
    np.testing.assert_allclose(values, [1.0, 1.0, 1.0], atol=1e-14)
    np.testing.assert_allclose(vectors @ vectors.T, np.eye(3), atol=1e-12)


def test_sym_eig_diagonal_sorted():
    values, vectors = tm.sym_eig(np.diag([1.0, 4.0]))
    np.testing.assert_allclose(values, [4.0, 1.0], atol=1e-14)
    # eigenvectors are signed standard basis vectors
    np.testing.assert_allclose(np.abs(vectors), [[0.0, 1.0], [1.0, 0.0]], atol=1e-14)


def test_sym_eig_reconstructs_random():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((8, 8))
    sym = m @ m.T
    values, vectors = tm.sym_eig(sym)
    assert np.all(np.diff(values) <= 1e-12)
    # C-ordered, as the basis GEMMs were measured with: their rounding
    # follows operand layout
    assert vectors.flags.c_contiguous
    recon = vectors @ np.diag(values) @ vectors.T
    np.testing.assert_allclose(recon, sym, atol=1e-8 * np.linalg.norm(sym))
    np.testing.assert_allclose(vectors.T @ vectors, np.eye(8), atol=1e-10)


def test_sym_eig_rejects_bad_input():
    with pytest.raises(ValidationError):
        tm.sym_eig([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(DimensionError):
        tm.sym_eig(np.zeros((2, 3)))


def test_lstsq_identity_system():
    b = np.array([1.0, 2.0, 3.0])
    np.testing.assert_allclose(oracle.lstsq(np.eye(3), b), b, atol=1e-12)


def test_lstsq_overdetermined_residual_orthogonal():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((10, 4))
    b = rng.standard_normal(10)
    x = oracle.lstsq(a, b)
    resid = b - a @ x
    np.testing.assert_allclose(a.T @ resid, np.zeros(4), atol=1e-8)


def test_lstsq_matches_pseudo_inverse():
    rng = np.random.default_rng(5)
    z = rng.standard_normal((9, 4))
    b = rng.standard_normal((9, 3))
    pinv = np.linalg.inv(z.T @ z) @ z.T
    np.testing.assert_allclose(oracle.lstsq(z, b), pinv @ b, atol=1e-8)


def test_lstsq_shapes_and_singularity():
    assert oracle.lstsq(np.eye(3), np.ones(3)).ndim == 1
    assert oracle.lstsq(np.eye(3), np.ones((3, 2))).shape == (3, 2)
    with pytest.raises(DimensionError):
        oracle.lstsq(np.eye(3), np.ones(4))
    with pytest.raises(SingularityError):
        oracle.lstsq(np.zeros((4, 3)), np.ones(4))



def test_ridge_solve_is_bitwise_the_checked_lstsq():
    rng = np.random.default_rng(6)
    for rows, cols, rhs in ((10, 4, 3), (9, 1, 2), (27, 6, 9)):
        a = rng.standard_normal((rows, cols))
        b = rng.standard_normal((rows, rhs))
        got = tm.ridge_solve(a, b, np.eye(cols))
        assert got.tobytes() == oracle.lstsq(a, b).tobytes()
    with pytest.raises(SingularityError):
        tm.ridge_solve(np.zeros((4, 3)), np.ones((4, 1)), np.eye(3))
