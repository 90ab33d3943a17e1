import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from craft import linalg
from craft.errors import ConvergenceError, RankError
from craft.linalg import (OFF_TOL, _circle_shift, _fix_signs, _pair_rotations,
                          _rotation_indices, truncated_svd)
from jacobi_reference import reference_pair_rotations


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
    assert res.sweeps == 0
    assert res.residual == 0.0


def test_svd_reports_sweeps_and_residual():
    res = truncated_svd(np.random.default_rng(8).standard_normal((9, 13)), 4)
    assert res.sweeps >= 1
    assert 0.0 <= res.residual <= OFF_TOL


@pytest.mark.parametrize("k", [100, -100, 300, -300, 600, -600, 1000, -1000])
def test_svd_at_any_power_of_two_scale_is_the_unscaled_one(k):
    """The stopping rule sees fourth powers of the input, which overflow above
    about 1e77 and underflow below 1e-77; the solve scales such input into
    range by a power of two, so only the singular values change, exactly."""
    m = np.random.default_rng(10).standard_normal((10, 20))
    ref = truncated_svd(m, 10)
    with np.errstate(all="raise"):
        res = truncated_svd(np.ldexp(m, k), 10)
    assert res.left_vectors.tobytes() == ref.left_vectors.tobytes()
    assert res.singular_values.tobytes() == np.ldexp(ref.singular_values, k).tobytes()
    assert (res.sweeps, res.residual) == (ref.sweeps, ref.residual)


def test_svd_r_beyond_numerical_rank_completes_basis():
    # tall rank-1 input: extra requested vectors come back orthonormal with
    # zero singular values; 130 rows take several column blocks, the last
    # one padded
    for rows in (5, 130):
        a = np.outer(np.arange(1.0, rows + 1.0), np.ones(1))
        res = truncated_svd(a, rows)
        assert res.singular_values[0] > 0
        np.testing.assert_allclose(res.singular_values[1:], 0.0, atol=1e-12)
        gram = res.left_vectors.T @ res.left_vectors
        np.testing.assert_allclose(gram, np.eye(rows), atol=1e-12)


def _orthonormal(rng, n, k):
    q, _ = np.linalg.qr(rng.standard_normal((n, k)))
    return q


@settings(max_examples=80, deadline=None)
@given(
    rows=st.integers(1, 40),
    cols=st.integers(1, 40),
    rank=st.integers(0, 40),
    repeated=st.booleans(),
    max_block=st.sampled_from([1, 2, 3, 5, linalg.MAX_BLOCK]),
    seed=st.integers(0, 2**32 - 1),
)
@example(rows=33, cols=7, rank=3, repeated=True, max_block=linalg.MAX_BLOCK, seed=0)
@example(rows=40, cols=40, rank=40, repeated=False, max_block=3, seed=1)
# rank-deficient draws whose zero singular values an absolute stopping rule
# alone left at 1.0-2.3e-12 times the largest
@example(rows=40, cols=28, rank=27, repeated=True, max_block=linalg.MAX_BLOCK, seed=25)
@example(rows=35, cols=18, rank=18, repeated=True, max_block=5, seed=4)
@example(rows=36, cols=37, rank=27, repeated=True, max_block=5, seed=25)
@example(rows=24, cols=23, rank=18, repeated=True, max_block=1, seed=24)
def test_svd_matches_lapack_oracle(rows, cols, rank, repeated, max_block, seed):
    # np.linalg.svd serves only as the oracle.  Narrow blocks give small
    # inputs several blocks and rounds per sweep, and padding where the block
    # width does not divide the row count.
    rng = np.random.default_rng(seed)
    full = min(rows, cols)
    rank = min(rank, full)
    if repeated:
        spectrum = rng.choice([1.0, 2.5, 4.0], size=rank)
    else:
        spectrum = rng.uniform(0.1, 10.0, size=rank)
    m = (_orthonormal(rng, rows, rank) * spectrum) @ _orthonormal(rng, cols, rank).T
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "MAX_BLOCK", max_block)
        res = truncated_svd(m, rows)
        again = truncated_svd(m.copy(), rows)

    oracle = np.zeros(rows)
    oracle[:full] = np.linalg.svd(m, compute_uv=False)
    assert np.max(np.abs(res.singular_values - oracle)) <= 1e-12 * oracle[0]
    u = res.left_vectors
    assert u.shape == (rows, rows)
    # a padding column (zero) among the returned vectors would break this
    assert np.max(np.abs(u.T @ u - np.eye(rows))) <= 1e-12
    peaks = u[np.argmax(np.abs(u), axis=0), np.arange(rows)]
    assert np.all(peaks >= 0.0)
    assert np.array_equal(res.left_vectors, again.left_vectors)
    assert np.array_equal(res.singular_values, again.singular_values)
    assert (res.sweeps, res.residual) == (again.sweeps, again.residual)


@pytest.mark.parametrize("rows, rank", [(130, 130), (130, 90)])
def test_svd_several_rounds_match_lapack_oracle(rows, rank):
    # 130 rows take six blocks of 22 at the default MAX_BLOCK: five rounds
    # per sweep, two zero padding rows, three block pairs per round
    rng = np.random.default_rng(rank)
    spectrum = rng.uniform(0.1, 10.0, size=rank)
    m = (_orthonormal(rng, rows, rank) * spectrum) @ _orthonormal(rng, 200, rank).T
    res = truncated_svd(m, rows)
    oracle = np.linalg.svd(m, compute_uv=False)
    assert np.max(np.abs(res.singular_values - oracle)) <= 1e-12 * oracle[0]
    u = res.left_vectors
    assert np.max(np.abs(u.T @ u - np.eye(rows))) <= 1e-12
    assert np.all(u[np.argmax(np.abs(u), axis=0), np.arange(rows)] >= 0.0)


@pytest.mark.parametrize("rows", [5, 130])
def test_svd_converged_input_is_not_rotated(rows):
    # rows orthogonal to about 1e-13 relative: inside the stopping rule, but
    # well above the 1e-16 cosine from which the inner sweep rotates a pair
    rng = np.random.default_rng(rows)
    cols = rows + 3
    m = np.linspace(1.0, 2.0, rows)[:, None] * (
        np.eye(rows, cols) + 1e-13 * rng.standard_normal((rows, cols)))
    res = truncated_svd(m, rows)
    assert res.sweeps == 1
    assert 0.0 < res.residual <= OFF_TOL
    u = res.left_vectors
    assert np.all((u == 0.0) | (np.abs(u) == 1.0))
    assert np.array_equal(np.abs(u).sum(axis=0), np.ones(rows))


def _pair_grams(rng, batch, n2):
    """Gram stacks of every kind the inner sweep must treat alike."""
    x = rng.standard_normal((batch, n2, n2 + 3))
    yield x @ x.transpose(0, 2, 1)
    # zero padding rows give zero Gram rows and columns
    x[:, n2 // 2 + n2 // 4:] = 0.0
    yield x @ x.transpose(0, 2, 1)
    # exactly diagonal: nothing to rotate
    yield np.stack([np.diag(rng.uniform(0.5, 2.0, n2)) for _ in range(batch)])
    # tied diagonals: tau = 0 for every seat pair of the first step; raising
    # each diagonal entry to the largest keeps the Gram positive semidefinite
    g = x @ x.transpose(0, 2, 1)
    diag = np.arange(n2)
    g[:, diag, diag] = np.max(g[:, diag, diag])
    yield g


@pytest.mark.parametrize("n2", [2, 4, 12, 32, 64])
@pytest.mark.parametrize("batch", [1, 3])
def test_pair_rotations_match_reference_bitwise(n2, batch):
    rng = np.random.default_rng(100 * n2 + batch)
    indices = _rotation_indices(batch, n2)
    for g in _pair_grams(rng, batch, n2):
        want = reference_pair_rotations(g.copy(), _circle_shift(n2))
        got = _pair_rotations(g.copy(), indices)
        assert got.shape == (batch, n2, n2)
        # bytes, so signed zeros count too
        assert got.tobytes() == want.tobytes()


def test_svd_exhausted_sweep_budget_raises_with_residual(monkeypatch):
    # the first sweep always runs, so a factor of 0 leaves a budget of one
    monkeypatch.setattr(linalg, "SWEEP_CAP_FACTOR", 0)
    with pytest.raises(ConvergenceError) as info:
        truncated_svd(np.random.default_rng(9).standard_normal((24, 40)), 3)
    assert info.value.residual > OFF_TOL
    assert info.value.mode is None


@pytest.mark.parametrize("n", [2, 4, 6, 10, 64])
def test_circle_shift_pairs_every_two_items_once(n):
    shift = _circle_shift(n)
    seats = np.arange(n)
    met = set()
    for _ in range(n - 1):
        met.update(frozenset(pair) for pair in seats.reshape(-1, 2).tolist())
        seats = seats[shift]
    assert len(met) == n * (n - 1) // 2
    assert np.array_equal(seats, np.arange(n))


def _fix_signs_per_column(vectors):
    """Reference: flip each column whose first largest-magnitude entry is negative."""
    out = vectors.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        idx = int(np.argmax(np.abs(col)))
        if col[idx] < 0:
            out[:, j] = -col
    return out


def test_fix_signs_matches_per_column_reference():
    # columns 0 and 1 tie in magnitude; the lowest index decides the sign
    tied = np.array([
        [0.5, -0.5, 0.0, -0.0],
        [-0.5, 0.5, -0.0, 0.0],
        [0.25, -0.0, 0.0, -3.0],
    ])
    expected = np.array([
        [0.5, 0.5, 0.0, 0.0],
        [-0.5, -0.5, -0.0, -0.0],
        [0.25, 0.0, 0.0, 3.0],
    ])
    rng = np.random.default_rng(10)
    for vectors, want in [(tied, expected), (rng.standard_normal((7, 5)), None)]:
        out = _fix_signs(vectors)
        reference = _fix_signs_per_column(vectors)
        # bytes, so signed zeros count too
        assert out.tobytes() == reference.tobytes()
        if want is not None:
            assert out.tobytes() == want.tobytes()


@pytest.mark.parametrize("r", [0, -1, 5, 2.5, True, 2.0, np.float64(2.0), np.nan])
def test_svd_rejects_r_out_of_range(r):
    with pytest.raises(RankError):
        truncated_svd(np.zeros((4, 6)), r)

