import dataclasses

import numpy as np
import pytest

from craft import linalg
from craft.errors import ConvergenceError, RankError, ValidationError
from craft.tensor import frobenius_norm, unfold
from craft.tucker import (
    TuckerFactors,
    TuckerRanks,
    approximation_error,
    compression_counts,
    hosvd,
    reconstruct,
)


def discarded_spectrum_bound(w, ranks):
    """Oracle: sum of squared discarded singular values over all three unfoldings."""
    total = 0.0
    for mode, r in zip((1, 2, 3), ranks.as_tuple()):
        s = np.linalg.svd(unfold(w, mode), compute_uv=False)
        total += float(np.sum(s[r:] ** 2))
    return total


def test_rank_one_tensor_exact_at_111():
    rng = np.random.default_rng(0)
    a, b, c = rng.standard_normal(4), rng.standard_normal(5), rng.standard_normal(6)
    w = np.einsum("i,j,k->ijk", a, b, c)
    f = hosvd(w, TuckerRanks(1, 1, 1))
    _, rel = approximation_error(w, f)
    assert rel <= 1e-10


def test_full_rank_exact_reconstruction():
    rng = np.random.default_rng(1)
    w = rng.standard_normal((4, 5, 6))
    f = hosvd(w, TuckerRanks(4, 5, 6))
    _, rel = approximation_error(w, f)
    assert rel <= 1e-10


def test_truncation_error_bounded_by_discarded_spectrum():
    rng = np.random.default_rng(2)
    for _ in range(50):
        dims = tuple(int(d) for d in rng.integers(2, 9, size=3))
        w = rng.standard_normal(dims)
        ranks = TuckerRanks(*(int(rng.integers(1, d + 1)) for d in dims))
        if ranks.as_tuple() == dims:
            ranks = TuckerRanks(max(1, dims[0] - 1), ranks.r2, ranks.r3)
        f = hosvd(w, ranks)
        absolute, _ = approximation_error(w, f)
        bound = discarded_spectrum_bound(w, ranks)
        assert absolute ** 2 <= bound * (1.0 + 1e-8) + 1e-12


def test_hosvd_factor_orthonormality():
    rng = np.random.default_rng(3)
    w = rng.standard_normal((6, 8, 8))
    f = hosvd(w, TuckerRanks(2, 3, 3))
    for u in f.factor_matrices:
        gram = u.T @ u
        assert np.sqrt(np.sum((gram - np.eye(u.shape[1])) ** 2)) <= 1e-10


def test_hosvd_factors_match_unfolding_svd():
    rng = np.random.default_rng(4)
    w = rng.standard_normal((4, 6, 5))
    ranks = TuckerRanks(2, 3, 3)
    f = hosvd(w, ranks)
    for mode, (u, r) in enumerate(zip(f.factor_matrices, ranks.as_tuple()), start=1):
        # leading subspace must agree with an independent SVD of the unfolding
        u_np, _, _ = np.linalg.svd(unfold(w, mode), full_matrices=False)
        ref = u_np[:, :r]
        # compare projectors: invariant to sign and basis rotation
        np.testing.assert_allclose(u @ u.T, ref @ ref.T, atol=1e-9)


def test_reconstruct_zero_core():
    ranks = TuckerRanks(1, 1, 1)
    core = np.zeros((1, 1, 1))
    u1 = np.ones((3, 1)) / np.sqrt(3.0)
    u2 = np.ones((4, 1)) / 2.0
    u3 = np.ones((1, 1))
    f = TuckerFactors(core, u1, u2, u3, ranks)
    assert np.array_equal(reconstruct(f), np.zeros((3, 4, 1)))


def test_reconstruct_norm_equals_core_norm():
    rng = np.random.default_rng(5)
    w = rng.standard_normal((5, 6, 7))
    f = hosvd(w, TuckerRanks(3, 4, 4))
    core_norm = frobenius_norm(f.core)
    recon_norm = frobenius_norm(reconstruct(f))
    assert abs(core_norm - recon_norm) <= 1e-12 * core_norm
    # projection contracts the norm, strictly under real truncation
    assert core_norm < frobenius_norm(w)


def test_hosvd_idempotent_on_reconstruction():
    rng = np.random.default_rng(6)
    w = rng.standard_normal((5, 6, 7))
    ranks = TuckerRanks(2, 3, 3)
    first = reconstruct(hosvd(w, ranks))
    second = reconstruct(hosvd(first, ranks))
    denom = max(frobenius_norm(first), 1e-300)
    assert frobenius_norm(second - first) / denom <= 1e-8


def test_factors_are_structurally_frozen():
    rng = np.random.default_rng(7)
    f = hosvd(rng.standard_normal((3, 4, 5)), TuckerRanks(2, 2, 2))
    with pytest.raises(ValueError):
        f.core[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        f.u1[0, 0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        f.core = np.zeros((2, 2, 2))


def test_tucker_factors_reject_non_orthonormal():
    core = np.zeros((1, 1, 1))
    u_bad = np.full((3, 1), 1.0)  # norm sqrt(3), not unit
    u_ok = np.ones((2, 1)) / np.sqrt(2.0)
    with pytest.raises(ValidationError):
        TuckerFactors(core, u_bad, u_ok, u_ok, TuckerRanks(1, 1, 1))


def test_approximation_error_zero_tensor():
    core = np.zeros((1, 1, 1))
    u1 = np.ones((2, 1)) / np.sqrt(2.0)
    zero_f = TuckerFactors(core, u1, u1, u1, TuckerRanks(1, 1, 1))
    absolute, relative = approximation_error(np.zeros((2, 2, 2)), zero_f)
    assert absolute == 0.0 and relative == 0.0


def test_hosvd_names_the_mode_whose_svd_ran_out_of_sweeps(monkeypatch):
    # the first sweep always runs, so a factor of 0 leaves a budget of one;
    # the single-row mode-1 unfolding converges within it, mode 2 does not
    monkeypatch.setattr(linalg, "SWEEP_CAP_FACTOR", 0)
    w = np.random.default_rng(11).standard_normal((1, 8, 9))
    with pytest.raises(ConvergenceError) as info:
        hosvd(w, TuckerRanks(1, 2, 2))
    assert info.value.mode == 2
    assert info.value.residual > linalg.OFF_TOL
    assert "mode 2" in str(info.value)


def test_hosvd_rejects_invalid_ranks():
    w = np.zeros((2, 3, 4)) + 1.0
    with pytest.raises(RankError, match="mode 3"):
        hosvd(w, TuckerRanks(1, 1, 5))
    with pytest.raises(RankError):
        TuckerRanks(0, 1, 1)


@pytest.mark.parametrize("ranks", [(2.0, 2, 2), (True, 2, 2), (2, 2, np.float64(2.0)),
                                   (2, np.bool_(True), 2), (2, 2.5, 2)])
def test_ranks_must_be_integers_not_bools(ranks):
    with pytest.raises(RankError):
        TuckerRanks(*ranks)


def test_ranks_accept_numpy_integers():
    assert TuckerRanks(np.int64(2), np.int32(3), np.uint8(4)).as_tuple() == (2, 3, 4)


def test_compression_counts_reference_point():
    dense, factor = compression_counts((24, 1024, 1024), TuckerRanks(24, 100, 100))
    assert dense == 24 * 1024 * 1024 == 25_165_824
    itemized = 24 * 24 + 1024 * 100 + 1024 * 100 + 24 * 100 * 100 \
        + (24 * 24 + 100 * 100 + 100 * 100)
    assert factor == itemized == 465_952
    assert 53.0 <= dense / factor <= 55.0


def test_compression_counts_full_rank_no_savings():
    dense, factor = compression_counts((3, 4, 5), TuckerRanks(3, 4, 5))
    assert factor > dense


def test_compression_counts_trivial():
    dense, factor = compression_counts((1, 1, 1), TuckerRanks(1, 1, 1))
    assert dense == 1
    assert factor == 1 + 1 + 1 + 1 + 3 == 7


@pytest.mark.parametrize("dims", [(2.0, 2, 2), (True, 2, 2), (2, 2, np.nan), (2, 0, 2), (2, 2)])
def test_compression_counts_rejects_non_integer_dims(dims):
    with pytest.raises(ValidationError):
        compression_counts(dims, TuckerRanks(1, 1, 1))


def test_compression_counts_rejects_bad_ranks():
    with pytest.raises(RankError):
        compression_counts((2, 2, 2), TuckerRanks(3, 1, 1))
