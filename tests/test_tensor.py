import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from craft.errors import ValidationError
from craft.linalg import truncated_svd
from craft.tensor import (
    fold,
    frobenius_norm,
    is_immutable,
    mode_n_product,
    stack_layers,
    unfold,
)


def brute_force_unfold(t, mode):
    """Independent oracle: list the mode-n fibers explicitly, one per column.

    Columns run over the non-mode indices in ascending mode order with the
    highest-numbered varying fastest, matching the documented convention.
    """
    t = np.asarray(t, dtype=float)
    i1, i2, i3 = t.shape
    if mode == 1:
        cols = [t[:, a, b] for a in range(i2) for b in range(i3)]
    elif mode == 2:
        cols = [t[a, :, b] for a in range(i1) for b in range(i3)]
    else:
        cols = [t[a, b, :] for a in range(i1) for b in range(i2)]
    return np.stack(cols, axis=1)


def test_stack_two_2x2():
    w = stack_layers([np.array([[1.0, 2.0], [3.0, 4.0]]),
                      np.array([[5.0, 6.0], [7.0, 8.0]])])
    assert w.shape == (2, 2, 2)
    assert w[1, 0, 1] == 6.0
    for l, mat in enumerate(([[1, 2], [3, 4]], [[5, 6], [7, 8]])):
        assert np.array_equal(w[l], np.asarray(mat, dtype=float))


def test_stack_single_1x1():
    w = stack_layers([np.array([[3.5]])])
    assert w.shape == (1, 1, 1)
    assert w[0, 0, 0] == 3.5


def test_stack_twelve_64x64_round_trip():
    rng = np.random.default_rng(0)
    mats = [rng.standard_normal((64, 64)) for _ in range(12)]
    w = stack_layers(mats)
    assert w.shape == (12, 64, 64)
    for l in range(12):
        assert np.array_equal(w[l], mats[l])


def test_stack_rejects_mismatch_with_offending_index():
    mats = [np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 3))]
    with pytest.raises(ValidationError, match="index 2"):
        stack_layers(mats)


def test_stack_rejects_empty():
    with pytest.raises(ValidationError):
        stack_layers([])


@pytest.mark.parametrize("mode,shape", [(1, (2, 12)), (2, (3, 8)), (3, (4, 6))])
def test_unfold_shapes(mode, shape):
    t = np.zeros((2, 3, 4))
    assert unfold(t, mode).shape == shape


def test_unfold_zero_tensor():
    assert np.array_equal(unfold(np.zeros((2, 3, 4)), 2), np.zeros((3, 8)))


@pytest.mark.parametrize("mode", [1, 2, 3])
def test_unfold_matches_fiber_enumeration(mode):
    t = np.arange(1.0, 9.0).reshape(2, 2, 2)
    assert np.array_equal(unfold(t, mode), brute_force_unfold(t, mode))


def test_unfold_fiber_enumeration_random():
    rng = np.random.default_rng(1)
    t = rng.standard_normal((3, 4, 5))
    for mode in (1, 2, 3):
        assert np.array_equal(unfold(t, mode), brute_force_unfold(t, mode))


@pytest.mark.parametrize("mode", [0, 4, -1, True, 1.0])
def test_unfold_invalid_mode(mode):
    with pytest.raises(ValidationError):
        unfold(np.zeros((2, 2, 2)), mode)


@pytest.mark.parametrize("call", [
    lambda: fold(np.zeros((3, 8)), 2.0, (2, 3, 4)),
    lambda: mode_n_product(np.zeros((2, 2, 2)), np.eye(2), True),
], ids=["fold", "mode_n_product"])
def test_non_integer_mode_is_rejected(call):
    with pytest.raises(ValidationError, match="^mode "):
        call()


def test_fold_inverts_unfold_exactly():
    rng = np.random.default_rng(2)
    t = rng.standard_normal((3, 4, 5))
    for mode in (1, 2, 3):
        assert np.array_equal(fold(unfold(t, mode), mode, t.shape), t)


def test_fold_unfold_randomized_dims():
    rng = np.random.default_rng(3)
    for _ in range(120):
        dims = tuple(int(d) for d in rng.integers(1, 9, size=3))
        t = rng.standard_normal(dims)
        mode = int(rng.integers(1, 4))
        assert np.array_equal(fold(unfold(t, mode), mode, dims), t)


@given(
    t=arrays(np.float64, st.tuples(*[st.integers(1, 6)] * 3),
             elements=st.floats(allow_nan=False, allow_infinity=False)),
    mode=st.sampled_from([1, 2, 3]),
)
@settings(max_examples=60, deadline=None)
def test_fold_unfold_is_bitwise_identity(t, mode):
    out = fold(unfold(t, mode), mode, t.shape)
    assert out.shape == t.shape
    assert out.tobytes() == t.tobytes()


def test_fold_zero_matrix():
    assert np.array_equal(fold(np.zeros((3, 8)), 2, (2, 3, 4)), np.zeros((2, 3, 4)))


def test_fold_hand_enumerated_mode3():
    t = np.arange(1.0, 9.0).reshape(2, 2, 2)
    m = brute_force_unfold(t, 3)
    assert np.array_equal(fold(m, 3, (2, 2, 2)), t)


def test_fold_rejects_inconsistent_dims():
    with pytest.raises(ValidationError):
        fold(np.zeros((3, 9)), 2, (2, 3, 4))


@pytest.mark.parametrize("dims", [(True, 2, 2), (1.0, 2, 2), (1, 2, np.float64(2.0)),
                                  (np.nan, 2, 2), (0, 2, 2), (1, 2), None, 4])
def test_fold_rejects_non_integer_dims(dims):
    with pytest.raises(ValidationError):
        fold(np.zeros((1, 4)), 1, dims)


def test_mode_product_identity_exact():
    rng = np.random.default_rng(4)
    t = rng.standard_normal((3, 4, 5))
    for mode, n in ((1, 3), (2, 4), (3, 5)):
        assert np.array_equal(mode_n_product(t, np.eye(n), mode), t)


def test_mode_product_row_sum():
    t = np.ones((2, 2, 2))
    out = mode_n_product(t, np.array([[1.0, 1.0]]), 2)
    assert out.shape == (2, 1, 2)
    assert np.all(out == 2.0)


def test_mode_product_elementwise_formula():
    # (W x_2 U)(i1, j, i3) = sum_i2 W(i1, i2, i3) U(j, i2)
    rng = np.random.default_rng(5)
    t = rng.standard_normal((2, 3, 4))
    u = rng.standard_normal((5, 3))
    out = mode_n_product(t, u, 2)
    expected = np.einsum("abc,jb->ajc", t, u)
    np.testing.assert_allclose(out, expected, rtol=1e-13, atol=1e-13)


def test_mode_products_on_distinct_modes_commute():
    rng = np.random.default_rng(6)
    for _ in range(10):
        t = rng.standard_normal((3, 4, 5))
        a = rng.standard_normal((2, 3))
        b = rng.standard_normal((6, 4))
        left = mode_n_product(mode_n_product(t, a, 1), b, 2)
        right = mode_n_product(mode_n_product(t, b, 2), a, 1)
        np.testing.assert_allclose(left, right, rtol=1e-12, atol=1e-13)


def test_mode_product_rejects_inner_mismatch():
    with pytest.raises(ValidationError):
        mode_n_product(np.zeros((2, 3, 4)), np.zeros((5, 4)), 2)


def test_unfold_of_mode_product_is_matrix_product():
    rng = np.random.default_rng(7)
    for _ in range(20):
        dims = tuple(int(d) for d in rng.integers(2, 7, size=3))
        t = rng.standard_normal(dims)
        mode = int(rng.integers(1, 4))
        u = rng.standard_normal((int(rng.integers(1, 7)), dims[mode - 1]))
        left = unfold(mode_n_product(t, u, mode), mode)
        right = u @ unfold(t, mode)
        denom = max(np.linalg.norm(right), 1e-300)
        assert np.linalg.norm(left - right) / denom <= 1e-12


def test_square_orthogonal_mode_product_preserves_norm():
    rng = np.random.default_rng(8)
    for _ in range(10):
        dims = tuple(int(d) for d in rng.integers(2, 7, size=3))
        t = rng.standard_normal(dims)
        mode = int(rng.integers(1, 4))
        q, _ = np.linalg.qr(rng.standard_normal((dims[mode - 1], dims[mode - 1])))
        before = frobenius_norm(t)
        after = frobenius_norm(mode_n_product(t, q, mode))
        assert abs(after - before) <= 1e-12 * before


def test_frobenius_norm_values():
    assert frobenius_norm(np.zeros((2, 3, 4))) == 0.0
    assert frobenius_norm(np.array([[[3.0]]])) == 3.0
    t = np.arange(1.0, 9.0).reshape(2, 2, 2)
    assert abs(frobenius_norm(t) - np.sqrt(204.0)) <= 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_array_boundaries_reject_non_finite(bad):
    t = np.zeros((2, 2, 2))
    t[0, 1, 0] = bad
    with pytest.raises(ValidationError):
        unfold(t, 1)
    m = np.zeros((2, 2))
    m[1, 1] = bad
    with pytest.raises(ValidationError):
        truncated_svd(m, 1)


def test_array_boundaries_reject_wrong_ndim():
    with pytest.raises(ValidationError):
        unfold(np.zeros((2, 2)), 1)
    with pytest.raises(ValidationError):
        truncated_svd(np.zeros(3), 1)


def test_array_boundaries_reject_zero_extent():
    with pytest.raises(ValidationError):
        frobenius_norm(np.zeros((2, 0, 2)))


def _frozen(arr):
    arr.setflags(write=False)
    return arr


@pytest.mark.parametrize("make,immutable", [
    (lambda: _frozen(np.zeros(4)), True),
    (lambda: _frozen(np.zeros(4))[1:].reshape(3, 1), True),
    (lambda: np.frombuffer(bytes(32)), True),
    (lambda: np.frombuffer(memoryview(bytes(40))[8:]), True),
    (lambda: np.zeros(4), False),
    (lambda: _frozen(np.zeros(4)[1:]), False),
    (lambda: _frozen(np.frombuffer(bytearray(32))), False),
    (lambda: np.frombuffer(memoryview(bytearray(32)).toreadonly()), False),
], ids=["owner", "view-of-owner", "bytes", "memoryview-of-bytes", "writable",
        "view-of-writable", "bytearray", "memoryview-of-bytearray"])
def test_is_immutable_needs_read_only_memory_at_the_root(make, immutable):
    assert is_immutable(make()) is immutable
