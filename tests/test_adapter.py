import dataclasses
import hashlib
import inspect

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from craft import tensor
from craft.adapter import (
    CraftAdapter,
    InitConfig,
    adapted_tensor,
    extract_layer,
    grad_j,
    init_adapter,
    sgd_step,
    trainable_param_count,
)
from craft.errors import DivergenceError, ValidationError
from craft.tensor import frobenius_norm, stack_layers
from craft.tucker import TuckerRanks, expand, reconstruct
from helpers import traced_peak


def random_adapter(rng, dims=(3, 6, 6), ranks=(2, 3, 3), epsilon=0.01, sigma=0.02):
    w = rng.standard_normal(dims)
    seed = int(rng.integers(0, 2**31))
    return init_adapter(w, TuckerRanks(*ranks), InitConfig(epsilon, sigma, seed)), w


def fd_grad(a, upstream, n, h=1e-5):
    """Central finite differences of <upstream, adapted_tensor> in j_n."""
    j = a.j_matrices[n - 1]
    g = np.zeros_like(j)
    for i in range(j.shape[0]):
        for k in range(j.shape[1]):
            plus = np.array(j)
            plus[i, k] += h
            minus = np.array(j)
            minus[i, k] -= h
            a_plus = dataclasses.replace(a, **{f"j{n}": plus})
            a_minus = dataclasses.replace(a, **{f"j{n}": minus})
            g[i, k] = (np.sum(upstream * adapted_tensor(a_plus))
                       - np.sum(upstream * adapted_tensor(a_minus))) / (2 * h)
    return g


def frozen_digest(a):
    h = hashlib.sha256()
    for arr in (a.w_original, a.factors.core,
                a.factors.u1, a.factors.u2, a.factors.u3):
        h.update(arr.tobytes())
    return h.hexdigest()


def test_epsilon_zero_gives_identity_and_exact_preservation():
    rng = np.random.default_rng(0)
    w = rng.standard_normal((4, 8, 8))
    a = init_adapter(w, TuckerRanks(1, 1, 1), InitConfig(epsilon=0.0, seed=9))
    for j, r in zip(a.j_matrices, (1, 1, 1)):
        assert np.array_equal(j, np.eye(r))
    # aggressive truncation: reconstruction alone is far from w
    assert frobenius_norm(a.r_initial - w) > 0.1 * frobenius_norm(w)
    diff = frobenius_norm(adapted_tensor(a) - w)
    assert diff <= 1e-12 * frobenius_norm(w)


@given(dims=st.tuples(*[st.integers(1, 6)] * 3), data=st.data())
@settings(max_examples=40, deadline=None)
def test_identity_j_reproduces_w_bitwise(dims, data):
    ranks = tuple(data.draw(st.integers(1, d)) for d in dims)
    seed = data.draw(st.integers(0, 2**31))
    w = np.random.default_rng(seed).standard_normal(dims)
    a = init_adapter(w, TuckerRanks(*ranks), InitConfig(epsilon=0.0, seed=seed))
    assert adapted_tensor(a).tobytes() == a.w_original.tobytes() == w.tobytes()


def test_adapter_stores_no_initial_reconstruction():
    rng = np.random.default_rng(19)
    a, _ = random_adapter(rng)
    assert "r_initial" not in {f.name for f in dataclasses.fields(CraftAdapter)}
    assert np.array_equal(a.r_initial, reconstruct(a.factors))


def test_adapted_tensor_matches_expanded_difference():
    rng = np.random.default_rng(20)
    for dims, ranks in (((3, 6, 6), (2, 3, 3)), ((12, 16, 16), (4, 8, 8))):
        a, w = random_adapter(rng, dims=dims, ranks=ranks)
        f = a.factors
        reference = w + (expand(f.core, f.u1 @ a.j1, f.u2 @ a.j2, f.u3 @ a.j3)
                         - reconstruct(f))
        assert np.abs(adapted_tensor(a) - reference).max() <= 1e-14


def test_default_init_statistics():
    # off-diagonal magnitudes average well below 5 * epsilon * sigma
    eps, sig = 0.01, 0.02
    rng = np.random.default_rng(1)
    w = rng.standard_normal((3, 6, 6))
    means = []
    for seed in range(30):
        a = init_adapter(w, TuckerRanks(3, 4, 4), InitConfig(eps, sig, seed))
        for j in a.j_matrices:
            off = j - np.diag(np.diag(j))
            means.append(np.abs(off[off != 0.0]).mean() if np.any(off != 0.0) else 0.0)
    assert np.mean(means) <= 5 * eps * sig


def test_fixed_seed_is_bitwise_deterministic():
    rng = np.random.default_rng(2)
    w = rng.standard_normal((3, 5, 5))
    cfg = InitConfig(seed=1234)
    a = init_adapter(w, TuckerRanks(2, 3, 3), cfg)
    b = init_adapter(w, TuckerRanks(2, 3, 3), cfg)
    for x, y in zip(a.j_matrices, b.j_matrices):
        assert np.array_equal(x, y)
    assert np.array_equal(a.r_initial, b.r_initial)


def test_zero_j_gives_w_minus_r():
    rng = np.random.default_rng(3)
    a, w = random_adapter(rng)
    zeroed = dataclasses.replace(
        a, j1=np.zeros_like(a.j1), j2=np.zeros_like(a.j2), j3=np.zeros_like(a.j3))
    expected = w - a.r_initial
    np.testing.assert_allclose(adapted_tensor(zeroed), expected, atol=1e-12)


def test_doubling_one_j_adds_reconstruction():
    # with j = I everywhere except j1 = 2I: expanded term doubles, so the
    # adapted tensor exceeds w by exactly the initial reconstruction
    rng = np.random.default_rng(4)
    w = rng.standard_normal((3, 6, 6))
    a = init_adapter(w, TuckerRanks(2, 3, 3), InitConfig(epsilon=0.0, seed=0))
    doubled = dataclasses.replace(a, j1=2.0 * np.eye(2))
    diff = adapted_tensor(doubled) - w
    np.testing.assert_allclose(diff, a.r_initial, atol=1e-10)


def test_adapted_tensor_affine_in_each_mode():
    rng = np.random.default_rng(5)
    a, w = random_adapter(rng)
    for n in (1, 2, 3):
        r = a.ranks.as_tuple()[n - 1]
        j_a = rng.standard_normal((r, r))
        j_b = rng.standard_normal((r, r))
        alpha, beta = 0.3, 1.4
        mix = dataclasses.replace(a, **{f"j{n}": alpha * j_a + beta * j_b})
        at_a = adapted_tensor(dataclasses.replace(a, **{f"j{n}": j_a}))
        at_b = adapted_tensor(dataclasses.replace(a, **{f"j{n}": j_b}))
        base = a.w_original - a.r_initial
        expected = alpha * at_a + beta * at_b + (1 - alpha - beta) * base
        np.testing.assert_allclose(adapted_tensor(mix), expected, atol=1e-10)


def test_extract_layer_identity_returns_original_rows():
    rng = np.random.default_rng(6)
    mats = [rng.standard_normal((5, 5)) for _ in range(3)]
    w = stack_layers(mats)
    a = init_adapter(w, TuckerRanks(2, 3, 3), InitConfig(epsilon=0.0, seed=0))
    for layer in range(1, 4):
        np.testing.assert_allclose(extract_layer(a, layer), mats[layer - 1],
                                   atol=1e-12)


def test_extract_layer_single_layer_tensor():
    rng = np.random.default_rng(7)
    w = rng.standard_normal((1, 4, 4))
    a = init_adapter(w, TuckerRanks(1, 2, 2), InitConfig(seed=0))
    np.testing.assert_array_equal(extract_layer(a, 1), adapted_tensor(a)[0])


def test_extract_layers_stack_back_to_adapted_tensor():
    rng = np.random.default_rng(8)
    a, _ = random_adapter(rng, dims=(4, 5, 5), ranks=(2, 2, 2))
    stacked = stack_layers([extract_layer(a, l) for l in range(1, 5)])
    np.testing.assert_array_equal(stacked, adapted_tensor(a))


@pytest.mark.parametrize("layer", [0, 4, -1, 1.5, True, 2.0, np.float64(1.0), np.nan])
def test_extract_layer_rejects_out_of_range(layer):
    rng = np.random.default_rng(9)
    a, _ = random_adapter(rng)
    with pytest.raises(ValidationError):
        extract_layer(a, layer)


def test_extract_layer_does_not_build_the_full_tensor():
    rng = np.random.default_rng(21)
    a, w = random_adapter(rng, dims=(32, 24, 24), ranks=(2, 4, 4))
    assert extract_layer(a, 7).shape == (24, 24)
    assert traced_peak(lambda: extract_layer(a, 7)) < w.nbytes // 4


@st.composite
def dims_and_ranks(draw):
    dims = draw(st.tuples(*[st.integers(1, 6)] * 3))
    return dims, tuple(draw(st.integers(1, d)) for d in dims)


@given(shape=dims_and_ranks(), seed=st.integers(0, 2**31))
@example(shape=((1, 4, 5), (1, 2, 3)), seed=0)
@example(shape=((3, 4, 5), (1, 1, 1)), seed=1)
@example(shape=((1, 1, 1), (1, 1, 1)), seed=2)
@settings(max_examples=60, deadline=None)
def test_grad_matches_einsum_contraction(shape, seed):
    dims, ranks = shape
    rng = np.random.default_rng(seed)
    a = init_adapter(rng.standard_normal(dims), TuckerRanks(*ranks),
                     InitConfig(epsilon=0.3, sigma=1.0, seed=seed))
    upstream = rng.standard_normal(dims)
    f = a.factors
    a1, a2, a3 = (u @ j for u, j in zip(f.factor_matrices, a.j_matrices))
    # d<upstream, core x1 u1 j1 x2 u2 j2 x3 u3 j3>/dj_n, summed over every index
    reference = (
        np.einsum("ijk,abc,jb,kc,ix->xa", upstream, f.core, a2, a3, f.u1),
        np.einsum("ijk,abc,ia,kc,jy->yb", upstream, f.core, a1, a3, f.u2),
        np.einsum("ijk,abc,ia,jb,kz->zc", upstream, f.core, a1, a2, f.u3),
    )
    scale = max(np.abs(r).max() for r in reference)
    for g, r in zip(grad_j(a, upstream), reference):
        assert g.shape == r.shape
        assert np.abs(g - r).max() <= 1e-12 * scale


def test_grad_zero_upstream():
    rng = np.random.default_rng(10)
    a, _ = random_adapter(rng)
    g1, g2, g3 = grad_j(a, np.zeros(a.dims))
    assert not g1.any() and not g2.any() and not g3.any()


def test_grad_matches_finite_differences():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a, _ = random_adapter(rng)
        upstream = rng.standard_normal(a.dims)
        grads = grad_j(a, upstream)
        for n in (1, 2, 3):
            numeric = fd_grad(a, upstream, n)
            scale = np.abs(numeric).max()
            rel = np.abs(grads[n - 1] - numeric) / (np.abs(numeric) + 1e-8 * scale)
            assert rel.max() <= 1e-5


def test_grad_linear_in_upstream():
    rng = np.random.default_rng(12)
    a, _ = random_adapter(rng)
    u1 = rng.standard_normal(a.dims)
    u2 = rng.standard_normal(a.dims)
    g_sum = grad_j(a, u1 + u2)
    g1 = grad_j(a, u1)
    g2 = grad_j(a, u2)
    for gs, ga, gb in zip(g_sum, g1, g2):
        scale = max(np.abs(gs).max(), 1.0)
        assert np.abs(gs - (ga + gb)).max() <= 1e-12 * scale


def test_grad_rejects_dim_mismatch():
    rng = np.random.default_rng(13)
    a, _ = random_adapter(rng)
    with pytest.raises(ValidationError):
        grad_j(a, np.zeros((2, 2, 2)))


def test_sgd_step_eta_zero_is_identity():
    rng = np.random.default_rng(14)
    a, _ = random_adapter(rng)
    grads = grad_j(a, rng.standard_normal(a.dims))
    b = sgd_step(a, grads, 0.0)
    for x, y in zip(a.j_matrices, b.j_matrices):
        assert np.array_equal(x, y)


def test_sgd_step_descends_quadratic_loss():
    rng = np.random.default_rng(15)
    a, w = random_adapter(rng)
    target = w + 0.1 * rng.standard_normal(w.shape)

    def loss(ad):
        return 0.5 * frobenius_norm(adapted_tensor(ad) - target) ** 2

    upstream = adapted_tensor(a) - target  # dL/d(adapted)
    stepped = sgd_step(a, grad_j(a, upstream), 1e-3)
    assert loss(stepped) < loss(a)


def test_sgd_step_preserves_frozen_buffers():
    rng = np.random.default_rng(16)
    a, _ = random_adapter(rng)
    before = frozen_digest(a)
    current = a
    for _ in range(100):
        grads = grad_j(current, rng.standard_normal(a.dims))
        current = sgd_step(current, grads, 0.01)
    assert frozen_digest(current) == before
    # buffers are shared by reference, not copied
    assert current.w_original is a.w_original
    assert current.factors is a.factors


def test_frozen_w_does_not_follow_a_writable_base():
    rng = np.random.default_rng(20)
    a, w = random_adapter(rng)
    base = np.array(w)
    view = base.view()
    view.setflags(write=False)
    b = CraftAdapter(view, a.factors, *a.j_matrices)
    base += 1.0
    assert b.w_original.tobytes() == w.tobytes()
    assert not np.shares_memory(b.w_original, base)


def test_sgd_step_checks_only_the_new_js(monkeypatch):
    rng = np.random.default_rng(23)
    a, _ = random_adapter(rng)
    # a transposed gradient still gives a C-contiguous J
    g1, g2, g3 = grad_j(a, rng.standard_normal(a.dims))
    grads = (g1, np.asfortranarray(g2), g3)
    calls = []
    real = tensor.check_array
    monkeypatch.setattr(tensor, "check_array",
                        lambda *args: calls.append(args[1]) or real(*args))
    stepped = sgd_step(a, grads, 0.1)
    assert calls == []
    assert stepped.w_original is a.w_original
    assert stepped.factors is a.factors
    for j, old, g in zip(stepped.j_matrices, a.j_matrices, grads):
        assert not j.flags.writeable and j.flags["C_CONTIGUOUS"]
        assert np.array_equal(j, old - 0.1 * g)


def test_sgd_step_rejects_non_finite_gradients():
    rng = np.random.default_rng(17)
    a, _ = random_adapter(rng)
    g1, g2, g3 = grad_j(a, rng.standard_normal(a.dims))
    bad = np.array(g1)
    bad[0, 0] = np.nan
    with pytest.raises(DivergenceError):
        sgd_step(a, (bad, g2, g3), 0.1)
    # a finite gradient whose step overflows diverges too
    with np.errstate(over="ignore"), pytest.raises(DivergenceError):
        sgd_step(a, grad_j(a, np.ones(a.dims)), 1e308)
    with pytest.raises(ValidationError):
        sgd_step(a, (g1, g2, g3), np.inf)


def test_sgd_step_rejects_a_gradient_count_other_than_three():
    rng = np.random.default_rng(25)
    a, _ = random_adapter(rng)
    g1, g2, _ = grad_j(a, rng.standard_normal(a.dims))
    with pytest.raises(ValidationError, match="^expected three gradient matrices, got 2$"):
        sgd_step(a, (g1, g2), 0.1)


@pytest.mark.parametrize("make", [
    lambda g: g * 1j, lambda g: g > 0, lambda g: g.astype(str), lambda g: [[0.0], [0.0, 0.0]],
], ids=["complex", "bool", "str", "ragged"])
def test_sgd_step_rejects_gradients_that_are_not_real(make):
    """A complex gradient would step by its real part, a bool or string one
    by 0/1 or parsed numbers; each is refused, naming the gradient."""
    rng = np.random.default_rng(24)
    a, _ = random_adapter(rng)
    g1, g2, g3 = grad_j(a, rng.standard_normal(a.dims))
    with pytest.raises(ValidationError, match="^gradient 2 must be an array of real numbers"):
        sgd_step(a, (g1, make(g2), g3), 0.1)


@pytest.mark.parametrize("eta", [None, True, "0.1", np.nan, -np.inf])
def test_sgd_step_rejects_bad_eta(eta):
    rng = np.random.default_rng(22)
    a, _ = random_adapter(rng)
    with pytest.raises(ValidationError, match="eta"):
        sgd_step(a, grad_j(a, rng.standard_normal(a.dims)), eta)


def test_trainable_param_count_values():
    assert trainable_param_count(TuckerRanks(24, 100, 100), 2) == 41_152
    assert trainable_param_count(TuckerRanks(1, 1, 1), 1) == 3
    assert trainable_param_count(TuckerRanks(8, 8, 8), 2) == 384


@pytest.mark.parametrize("n_projections", [0, True, 2.0, np.nan])
def test_trainable_param_count_rejects_non_integer_projections(n_projections):
    with pytest.raises(ValidationError):
        trainable_param_count(TuckerRanks(1, 1, 1), n_projections)


@pytest.mark.parametrize("seed", [-1, True, 2.0, np.nan])
def test_init_config_rejects_non_integer_seed(seed):
    with pytest.raises(ValidationError):
        InitConfig(seed=seed)


@pytest.mark.parametrize("field,value", [
    ("epsilon", None), ("epsilon", True), ("epsilon", "0.01"), ("epsilon", np.inf),
    ("epsilon", -0.1), ("sigma", "x"), ("sigma", None), ("sigma", np.nan),
    ("sigma", np.bool_(True)),
])
def test_init_config_rejects_bad_reals(field, value):
    with pytest.raises(ValidationError, match=field):
        InitConfig(**{field: value})


def test_init_config_accepts_integer_and_numpy_reals():
    cfg = InitConfig(epsilon=0, sigma=np.float32(0.5))
    assert (cfg.epsilon, cfg.sigma) == (0, 0.5)


def test_trainable_param_count_reads_neither_depth_nor_width():
    params = inspect.signature(trainable_param_count).parameters
    assert set(params) == {"ranks", "n_projections"}


def test_adapter_rejects_mismatched_j_shape():
    rng = np.random.default_rng(18)
    a, _ = random_adapter(rng)
    with pytest.raises(ValidationError):
        CraftAdapter(a.w_original, a.factors, np.eye(5), a.j2, a.j3)
