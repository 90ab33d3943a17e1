import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from craft.analysis import (
    dispersion,
    method_param_count,
    param_scaling,
)
from craft.errors import ValidationError
from craft.tucker import TuckerRanks
from helpers import radius_construction


def brute_force_sigma(weights, basis, mean):
    """Eq oracle: project every centered row explicitly, average squared norms."""
    total = 0.0
    for row in weights:
        coords = basis.T @ (row - mean)
        total += float(coords @ coords)
    return np.sqrt(total / weights.shape[0])


def test_identical_rows_give_zero_dispersion():
    row = np.arange(6.0)
    mats = {name: np.tile(row, (4, 1)) for name in ("Q", "K", "V")}
    report = dispersion([mats], k=2)
    layer = report[0]
    assert all(layer.sigma[a] == 0.0 for a in ("Q", "K", "V"))
    assert layer.explained_variance_ratio == 0.0


def test_radius_construction_orders_projections():
    report = dispersion([radius_construction()], k=2)
    layer = report[0]
    assert layer.sigma["Q"] > layer.sigma["K"]
    assert layer.sigma["Q"] > layer.sigma["V"]


def test_sigma_matches_per_row_oracle():
    rng = np.random.default_rng(1)
    mats = {name: rng.standard_normal((7, 6)) for name in ("Q", "K", "V")}
    report = dispersion([mats], k=3)
    layer = report[0]
    for name in ("Q", "K", "V"):
        oracle = brute_force_sigma(mats[name], layer.basis, layer.pooled_mean)
        assert abs(layer.sigma[name] - oracle) <= 1e-10 * max(oracle, 1.0)


def test_full_path_matches_independent_eigensolver():
    # gap-protected construction, so the top-2 eigenspace is unique and an
    # independent covariance eigendecomposition must give the same sigmas
    mats = radius_construction()
    report = dispersion([mats], k=2)
    layer = report[0]

    pooled = np.vstack([mats[n] for n in ("Q", "K", "V")])
    mean = pooled.mean(axis=0)
    cov = (pooled - mean).T @ (pooled - mean) / (pooled.shape[0] - 1)
    vals, vecs = np.linalg.eigh(cov)
    basis = vecs[:, ::-1][:, :2]
    assert vals[::-1][1] - vals[::-1][2] > 1e-6  # spectral gap
    for name in ("Q", "K", "V"):
        oracle = brute_force_sigma(mats[name], basis, mean)
        assert abs(layer.sigma[name] - oracle) <= 1e-10 * max(oracle, 1.0)


@given(d_out=st.integers(1, 6), d_in=st.integers(1, 20), k=st.integers(1, 20),
       seed=st.integers(0, 2**32 - 1))
@example(d_out=1, d_in=9, k=9, seed=0)
@settings(max_examples=60, deadline=None)
def test_dispersion_matches_covariance_oracle(d_out, d_in, k, seed):
    # k is clipped to d_in, so k == d_in (full rank) is drawn often; d_in > 3 * d_out
    # gives tall, rank-deficient pooled samples
    k = min(k, d_in)
    rng = np.random.default_rng(seed)
    mats = {name: rng.standard_normal((d_out, d_in)) for name in ("Q", "K", "V")}
    layer = dispersion([mats], k=k)[0]

    pooled = np.vstack([mats[n] for n in ("Q", "K", "V")])
    centered = pooled - pooled.mean(axis=0)
    cov = centered.T @ centered / (pooled.shape[0] - 1)
    vals = np.maximum(np.linalg.eigvalsh(cov)[::-1], 0.0)
    oracle_ratio = float(np.sum(vals[:k]) / np.sum(vals)) if np.sum(vals) > 0 else 0.0
    assert abs(layer.explained_variance_ratio - oracle_ratio) <= 1e-10
    gram = layer.basis.T @ layer.basis
    assert np.max(np.abs(gram - np.eye(k))) <= 1e-10
    for name in ("Q", "K", "V"):
        oracle = brute_force_sigma(mats[name], layer.basis, layer.pooled_mean)
        assert abs(layer.sigma[name] - oracle) <= 1e-10 * max(oracle, 1.0)


def test_dispersion_invariant_to_common_shift():
    rng = np.random.default_rng(2)
    mats = {name: rng.standard_normal((5, 6)) for name in ("Q", "K", "V")}
    shift = rng.standard_normal(6)
    shifted = {name: mats[name] + shift for name in mats}
    r1 = dispersion([mats], k=2)[0]
    r2 = dispersion([shifted], k=2)[0]
    for name in ("Q", "K", "V"):
        assert abs(r1.sigma[name] - r2.sigma[name]) <= 1e-10 * max(r1.sigma[name], 1.0)


def test_explained_variance_ratio_nondecreasing_in_k():
    rng = np.random.default_rng(3)
    mats = {name: rng.standard_normal((6, 5)) for name in ("Q", "K", "V")}
    ratios = [dispersion([mats], k=k)[0].explained_variance_ratio
              for k in range(1, 6)]
    assert all(b >= a - 1e-12 for a, b in zip(ratios, ratios[1:]))
    assert abs(ratios[-1] - 1.0) <= 1e-10


def test_basis_columns_orthonormal():
    rng = np.random.default_rng(4)
    mats = {name: rng.standard_normal((6, 7)) for name in ("Q", "K", "V")}
    layer = dispersion([mats], k=3)[0]
    gram = layer.basis.T @ layer.basis
    assert np.sqrt(np.sum((gram - np.eye(3)) ** 2)) <= 1e-10


def test_dispersion_validates_inputs():
    mats = {name: np.zeros((3, 4)) for name in ("Q", "K", "V")}
    with pytest.raises(ValidationError):
        dispersion([mats], k=5)
    with pytest.raises(ValidationError):
        dispersion([], k=1)
    with pytest.raises(ValidationError):
        dispersion([{"Q": np.zeros((3, 4)), "K": np.zeros((3, 4))}], k=1)
    uneven = {"Q": np.zeros((3, 4)), "K": np.zeros((3, 5)), "V": np.zeros((3, 4))}
    with pytest.raises(ValidationError):
        dispersion([uneven], k=1)


@pytest.mark.parametrize("bad", [True, 2.0, np.nan, 0])
@pytest.mark.parametrize("call", [
    lambda bad: dispersion([{n: np.eye(3) for n in ("Q", "K", "V")}], k=bad),
    lambda bad: param_scaling(["craft"], [12], bad, TuckerRanks(1, 1, 1)),
    lambda bad: param_scaling(["lora"], [12], 8, TuckerRanks(1, 1, 1), lora_rank=bad),
    lambda bad: param_scaling(["lora"], [12], 8, TuckerRanks(1, 1, 1), n_projections=bad),
    lambda bad: param_scaling(["lora"], [bad], 8, TuckerRanks(1, 1, 1)),
    lambda bad: method_param_count("lora", bad, 8, TuckerRanks(1, 1, 1), 2, 2),
    lambda bad: method_param_count("lora", 2, bad, TuckerRanks(1, 1, 1), 2, 2),
    lambda bad: method_param_count("lora", 2, 8, TuckerRanks(1, 1, 1), bad, 2),
    lambda bad: method_param_count("lora", 2, 8, TuckerRanks(1, 1, 1), 2, bad),
], ids=["dispersion.k", "scaling.d", "scaling.lora_rank", "scaling.n_projections",
        "scaling.layer_count", "count.n_layers", "count.d",
        "count.lora_rank", "count.n_projections"])
def test_integer_arguments_reject_bools_floats_and_nan(call, bad):
    with pytest.raises(ValidationError):
        call(bad)


def test_method_param_count_rejects_fractional_d():
    """A fractional ``d`` used to come back as a float count (20.0)."""
    with pytest.raises(ValidationError, match="^d must be an integer"):
        method_param_count("lora", 2, 2.5, TuckerRanks(1, 1, 1), True, 2)


def test_method_param_count_rejects_an_unknown_method():
    with pytest.raises(ValidationError, match="^unknown method 'bogus'$"):
        method_param_count("bogus", 2, 8, TuckerRanks(1, 1, 1), 2, 2)


def test_lora_reference_count():
    assert method_param_count("lora", 12, 1024, TuckerRanks(24, 100, 100),
                              lora_rank=8, n_projections=1) == 12 * 8 * 2048 == 196_608


def test_craft_reference_count_constant_over_grid():
    ranks = TuckerRanks(24, 100, 100)
    for d in (768, 1024, 4096):
        table = param_scaling(["craft"], [12, 24, 48, 72, 96], d, ranks)
        counts = {row.params for row in table}
        assert counts == {41_152}


def test_lora_rows_grow_linearly():
    table = param_scaling(["lora"], [12, 24, 48, 72, 96], 1024,
                          TuckerRanks(24, 100, 100), lora_rank=8, n_projections=2)
    by_layers = {row.n_layers: row.params for row in table}
    per_layer = by_layers[12] // 12
    for n_layers, params in by_layers.items():
        assert params == per_layer * n_layers


def test_scaling_rejects_unknown_method():
    with pytest.raises(ValidationError):
        param_scaling(["magic"], [12], 768, TuckerRanks(1, 1, 1))
