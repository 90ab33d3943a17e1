import numpy as np
import pytest

from craft.errors import RankError, ValidationError
from craft.linalg import symmetric_eig, truncated_svd


def test_svd_diagonal():
    res = truncated_svd(np.diag([3.0, 2.0, 1.0]), 2)
    np.testing.assert_allclose(res.singular_values, [3.0, 2.0], atol=1e-14)
    # sign convention makes these exactly the canonical basis vectors
    np.testing.assert_allclose(res.left_vectors, np.eye(3)[:, :2], atol=1e-14)


def test_svd_rank_one_outer_product():
    rng = np.random.default_rng(0)
    a = rng.standard_normal(5)
    b = rng.standard_normal(7)
    res = truncated_svd(np.outer(a, b), 1)
    sigma = np.linalg.norm(a) * np.linalg.norm(b)
    assert abs(res.singular_values[0] - sigma) <= 1e-12 * sigma
    u = res.left_vectors[:, 0]
    unit = a / np.linalg.norm(a)
    assert min(np.linalg.norm(u - unit), np.linalg.norm(u + unit)) <= 1e-12


def test_svd_random_6x9_against_lapack_oracle():
    rng = np.random.default_rng(1)
    m = rng.standard_normal((6, 9))
    res = truncated_svd(m, 3)
    oracle = np.linalg.svd(m, compute_uv=False)[:3]
    np.testing.assert_allclose(res.singular_values, oracle, rtol=1e-8)


def test_svd_orthonormal_columns():
    rng = np.random.default_rng(2)
    for _ in range(20):
        rows = int(rng.integers(1, 10))
        cols = int(rng.integers(1, 14))
        m = rng.standard_normal((rows, cols))
        r = int(rng.integers(1, rows + 1))
        u = truncated_svd(m, r).left_vectors
        gram = u.T @ u
        assert np.sqrt(np.sum((gram - np.eye(r)) ** 2)) <= 1e-10


def test_svd_full_rank_captures_row_space():
    rng = np.random.default_rng(3)
    for _ in range(10):
        rows = int(rng.integers(2, 7))
        cols = rows + int(rng.integers(0, 6))  # rows <= cols
        m = rng.standard_normal((rows, cols))
        u = truncated_svd(m, rows).left_vectors
        err = np.linalg.norm(u @ (u.T @ m) - m)
        assert err <= 1e-8 * np.linalg.norm(m)


def test_svd_beats_random_projections():
    # rank-r projection from the SVD is at least as good as any random
    # orthonormal competitor
    rng = np.random.default_rng(4)
    for _ in range(5):
        m = rng.standard_normal((8, 12))
        r = int(rng.integers(1, 7))
        u = truncated_svd(m, r).left_vectors
        best = np.linalg.norm(u @ (u.T @ m) - m)
        for _ in range(50):
            q, _ = np.linalg.qr(rng.standard_normal((8, r)))
            competitor = np.linalg.norm(q @ (q.T @ m) - m)
            assert best <= competitor + 1e-10


def test_svd_deterministic_bitwise():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((7, 11))
    a = truncated_svd(m, 4)
    b = truncated_svd(m.copy(), 4)
    assert np.array_equal(a.left_vectors, b.left_vectors)
    assert np.array_equal(a.singular_values, b.singular_values)


def test_svd_sign_convention():
    rng = np.random.default_rng(6)
    m = rng.standard_normal((6, 10))
    u = truncated_svd(m, 6).left_vectors
    for j in range(u.shape[1]):
        col = u[:, j]
        assert col[int(np.argmax(np.abs(col)))] >= 0.0


def test_svd_zero_matrix():
    res = truncated_svd(np.zeros((4, 6)), 2)
    np.testing.assert_array_equal(res.singular_values, np.zeros(2))
    gram = res.left_vectors.T @ res.left_vectors
    np.testing.assert_allclose(gram, np.eye(2), atol=1e-15)


def test_svd_r_beyond_numerical_rank_completes_basis():
    # tall rank-1 input: extra requested vectors come back orthonormal with
    # zero singular values
    a = np.outer(np.arange(1.0, 6.0), np.ones(1))
    res = truncated_svd(a, 5)
    assert res.singular_values[0] > 0
    np.testing.assert_allclose(res.singular_values[1:], 0.0, atol=1e-12)
    gram = res.left_vectors.T @ res.left_vectors
    np.testing.assert_allclose(gram, np.eye(5), atol=1e-12)


@pytest.mark.parametrize("r", [0, -1, 5, 2.5, True, 2.0, np.float64(2.0), np.nan])
def test_svd_rejects_r_out_of_range(r):
    with pytest.raises(RankError):
        truncated_svd(np.zeros((4, 6)), r)


def test_eig_identity():
    res = symmetric_eig(np.eye(3))
    np.testing.assert_array_equal(res.eigenvalues, np.ones(3))
    np.testing.assert_allclose(res.eigenvectors, np.eye(3), atol=1e-15)


def test_eig_diagonal():
    res = symmetric_eig(np.diag([5.0, 2.0]))
    np.testing.assert_array_equal(res.eigenvalues, [5.0, 2.0])
    np.testing.assert_allclose(np.abs(res.eigenvectors), np.eye(2), atol=1e-15)


def test_eig_random_symmetric_residual_and_trace():
    rng = np.random.default_rng(7)
    for _ in range(15):
        n = int(rng.integers(1, 9))
        b = rng.standard_normal((n, n))
        a = b + b.T
        res = symmetric_eig(a)
        scale = np.linalg.norm(a)
        for i in range(n):
            resid = np.linalg.norm(a @ res.eigenvectors[:, i]
                                   - res.eigenvalues[i] * res.eigenvectors[:, i])
            assert resid <= 1e-8 * max(scale, 1.0)
        assert abs(np.trace(a) - np.sum(res.eigenvalues)) <= 1e-10 * max(scale, 1.0)
        assert np.all(np.diff(res.eigenvalues) <= 1e-12)


def test_eig_matches_lapack_oracle():
    rng = np.random.default_rng(8)
    b = rng.standard_normal((5, 5))
    a = b + b.T
    res = symmetric_eig(a)
    oracle = np.linalg.eigvalsh(a)[::-1]
    np.testing.assert_allclose(res.eigenvalues, oracle, rtol=1e-10, atol=1e-12)


def test_eig_rejects_asymmetric():
    a = np.array([[1.0, 2.0], [2.1, 1.0]])
    with pytest.raises(ValidationError):
        symmetric_eig(a)


def test_eig_rejects_nonsquare():
    with pytest.raises(ValidationError):
        symmetric_eig(np.zeros((2, 3)))


def test_eig_deterministic_bitwise():
    rng = np.random.default_rng(9)
    b = rng.standard_normal((6, 6))
    a = b + b.T
    r1 = symmetric_eig(a)
    r2 = symmetric_eig(a.copy())
    assert np.array_equal(r1.eigenvalues, r2.eigenvalues)
    assert np.array_equal(r1.eigenvectors, r2.eigenvectors)
