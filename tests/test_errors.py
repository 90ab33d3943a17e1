import dataclasses

import numpy as np
import pytest

from craft.adapter import (InitConfig, extract_layer, grad_j, init_adapter, sgd_step,
                           trainable_param_count)
from craft.analysis import compression_counts, dispersion, param_scaling
from craft.errors import RankError, ValidationError, check_int, check_real
from craft.linalg import truncated_svd
from craft.serialization import write_matrix, write_tensor3
from craft.tensor import fold, frobenius_norm, mode_n_product, stack_layers, unfold
from craft.toy import (SyntheticTask, ToyConfig, ToyModel, build_adapters, craft_finetune,
                       evaluate, forward, head_only_finetune, loss_and_grads)
from craft.tucker import TuckerRanks, approximation_error, hosvd
from helpers import radius_construction

RANKS = TuckerRanks(2, 2, 2)
ADAPTER = init_adapter(np.random.default_rng(0).standard_normal((3, 4, 5)), RANKS, InitConfig())
ZEROS = np.zeros((2, 3, 4))


def _fields(base, names, error=ValidationError):
    """Cases that rebuild the dataclass ``base`` with one field replaced."""
    return [(f"{type(base).__name__}.{n}", lambda v, n=n: dataclasses.replace(base, **{n: v}),
             n, error) for n in names]


# (id, call with the value under test, parameter name, documented error);
# 2 is a valid value of every parameter
INTEGER_PARAMS = [
    *_fields(ToyConfig(), ("n_layers", "d_model", "vocab_size", "seq_len", "n_classes", "seed")),
    *_fields(SyntheticTask(), ("seed", "train_size", "eval_size")),
    *_fields(InitConfig(), ("seed",)),
    *_fields(RANKS, ("r1", "r2", "r3"), RankError),
    ("truncated_svd.r", lambda v: truncated_svd(np.eye(3), v), "r", RankError),
    ("extract_layer.layer", lambda v: extract_layer(ADAPTER, v), "layer", ValidationError),
    ("trainable_param_count.n_projections", lambda v: trainable_param_count(RANKS, v),
     "n_projections", ValidationError),
    ("param_scaling.d", lambda v: param_scaling(["lora"], [2], v, RANKS), "d", ValidationError),
    ("param_scaling.layer_counts", lambda v: param_scaling(["lora"], [v], 4, RANKS),
     "layer_counts", ValidationError),
    ("param_scaling.lora_rank", lambda v: param_scaling(["lora"], [2], 4, RANKS, lora_rank=v),
     "lora_rank", ValidationError),
    ("param_scaling.n_projections",
     lambda v: param_scaling(["lora"], [2], 4, RANKS, n_projections=v),
     "n_projections", ValidationError),
    ("dispersion.k", lambda v: dispersion([radius_construction()], v), "k", ValidationError),
    ("fold.dims", lambda v: fold(np.zeros((2, 12)), 1, (v, 3, 4)), "dims", ValidationError),
    ("compression_counts.dims", lambda v: compression_counts((4, 4, v), RANKS), "dims",
     ValidationError),
    ("unfold.mode", lambda v: unfold(ZEROS, v), "mode", ValidationError),
    ("fold.mode", lambda v: fold(np.zeros((3, 8)), v, (2, 3, 4)), "mode", ValidationError),
    ("mode_n_product.mode", lambda v: mode_n_product(ZEROS, np.eye(3), v), "mode",
     ValidationError),
]

# (id, call with the array under test, parameter name, a valid shape)
ARRAY_PARAMS = [
    *[(pid, call, n, getattr(ADAPTER, n).shape)
      for pid, call, n, _ in _fields(ADAPTER, ("w_original", "j1", "j2", "j3"))],
    *[(pid, call, n, getattr(ADAPTER.factors, n).shape)
      for pid, call, n, _ in _fields(ADAPTER.factors, ("core", "u1", "u2", "u3"))],
    ("grad_j.upstream", lambda v: grad_j(ADAPTER, v), "upstream", ADAPTER.dims),
    ("approximation_error.w", lambda v: approximation_error(v, ADAPTER.factors), "w",
     ADAPTER.dims),
    ("mode_n_product.u", lambda v: mode_n_product(ZEROS, v, 2), "u", (2, 3)),
    ("fold.m", lambda v: fold(v, 1, (2, 3, 4)), "m", (2, 12)),
    ("stack_layers.mats", lambda v: stack_layers([np.zeros((2, 3)), np.zeros((2, 3)), v]),
     "matrix at index 2", (2, 3)),
    *[(f"dispersion.{p}", lambda v, p=p: dispersion([{"Q": np.eye(3), "K": np.eye(3),
                                                      "V": np.eye(3), p: v}], 1),
       f"layer 1 projection {p}", (3, 3)) for p in ("K", "V")],
]

# (id, call with an output directory and the array under test, parameter
# name, ndim) for arrays whose every extent may be any value >= 1
ANY_EXTENT_ARRAY_PARAMS = [
    ("hosvd.w", lambda d, v: hosvd(v, TuckerRanks(1, 1, 1)), "w", 3),
    ("truncated_svd.m", lambda d, v: truncated_svd(v, 1), "m", 2),
    ("mode_n_product.t", lambda d, v: mode_n_product(v, np.eye(2), 1), "t", 3),
    ("unfold.t", lambda d, v: unfold(v, 1), "t", 3),
    ("frobenius_norm.t", lambda d, v: frobenius_norm(v), "t", 3),
    ("write_tensor3.t", lambda d, v: write_tensor3(d / "t.crft", v), "t", 3),
    ("write_matrix.m", lambda d, v: write_matrix(d / "m.crft", v), "m", 2),
]

TOY_CFG = ToyConfig(n_layers=2, d_model=4, vocab_size=5, seq_len=3, n_classes=2)
TOY = ToyModel(TOY_CFG, np.random.default_rng(0))
TOY_ADAPTERS = build_adapters(TOY, RANKS)
TOKENS, LABELS = np.zeros((2, TOY_CFG.seq_len), dtype=np.int64), np.zeros(2, dtype=np.int64)
_TRAINING = {
    "evaluate": lambda t, l: evaluate(TOY, t, l),
    "loss_and_grads": lambda t, l: loss_and_grads(TOY, t, l),
    "craft_finetune": lambda t, l: craft_finetune(TOY, TOY_ADAPTERS, t, l, 0.1, 0),
    "head_only_finetune": lambda t, l: head_only_finetune(TOY, t, l, 0.1, 0),
}

# (id, call with the ids under test, parameter name, a valid shape, bound on the ids)
ID_PARAMS = [
    ("forward.tokens", lambda v: forward(TOY, v), "tokens", TOKENS.shape, TOY_CFG.vocab_size),
    *[(f"{fn}.tokens", lambda v, call=call: call(v, LABELS), "tokens", TOKENS.shape,
       TOY_CFG.vocab_size) for fn, call in _TRAINING.items()],
    *[(f"{fn}.labels", lambda v, call=call: call(TOKENS, v), "labels", LABELS.shape,
       TOY_CFG.n_classes) for fn, call in _TRAINING.items()],
]

REAL_PARAMS = [
    *_fields(InitConfig(), ("epsilon", "sigma")),
    ("sgd_step.eta", lambda v: sgd_step(ADAPTER, [np.zeros((2, 2))] * 3, v), "eta",
     ValidationError),
]


def _not_real(shape):
    """Arrays of ``shape`` that are no real numbers, and inputs numpy cannot
    convert to an array at all; none may be cast to float64."""
    zeros = np.zeros(shape)
    return [zeros * 1j, zeros.astype(bool), zeros.astype(str), zeros.astype(bytes), "abc",
            [[0.0], [0.0, 0.0]]]


def _cases(params, bad_values):
    return [pytest.param(call, name, error, bad, id=f"{pid}-{bad!r}")
            for pid, call, name, error in params for bad in bad_values]


@pytest.mark.parametrize("call,name,error,bad", [
    *_cases(INTEGER_PARAMS, (True, 2.5, "3", None)),
    *_cases(REAL_PARAMS, (True, "3", None, np.nan)),
])
def test_bad_argument_raises_the_documented_error_naming_it(call, name, error, bad):
    with pytest.raises(error) as info:
        call(bad)
    assert str(info.value).startswith(f"{name} ")


@pytest.mark.parametrize("call,name,shape", [
    pytest.param(call, name, shape, id=pid) for pid, call, name, shape in ARRAY_PARAMS
])
def test_bad_array_raises_validation_error_naming_it(call, name, shape):
    with pytest.raises(ValidationError, match=rf"^{name} must have shape "):
        call(np.zeros(tuple(n + 1 for n in shape)))
    with pytest.raises(ValidationError, match=rf"^{name} must have shape "):
        call(np.zeros(shape[:-1]))
    bad = np.zeros(shape)
    bad.flat[-1] = np.nan
    with pytest.raises(ValidationError, match=rf"^{name} contains non-finite values$"):
        call(bad)
    for bad in _not_real(shape):
        with pytest.raises(ValidationError, match=rf"^{name} must be an array of real numbers"):
            call(bad)


def _bad_ids(shape, high):
    """(case, ids that ``shape`` and ``high`` refuse, start of the message after the name)."""
    wrong = "must have shape "
    return [
        ("ragged", [[0], [0, 0]], "must be an array of integers"),
        *[(dtype.__name__, np.zeros(shape, dtype=dtype), "must be an array of integers: got dtype")
          for dtype in (bool, float, complex, str)],
        ("string", "abc", "must be an array of integers: got dtype"),
        ("wrong_shape", np.zeros(shape[:-1] + (shape[-1] + 1,), dtype=np.int64), wrong),
        ("no_axis", np.int64(0), wrong),
        ("empty_batch", np.zeros((0,) + shape[1:], dtype=np.int64), wrong),
        ("below_0", np.full(shape, -1), f"must lie in [0, {high}), got range [-1, -1]"),
        ("at_high", np.full(shape, high), f"must lie in [0, {high}), got range [{high}, {high}]"),
        ("uint64_past_int64", np.full(shape, 2**63, dtype=np.uint64),
         f"must lie in [0, {high}), got range [{2**63}, {2**63}]"),
    ]


@pytest.mark.parametrize("call,name,bad,message", [
    pytest.param(call, name, bad, message, id=f"{pid}-{case}")
    for pid, call, name, shape, high in ID_PARAMS
    for case, bad, message in _bad_ids(shape, high)
])
def test_bad_ids_raise_validation_error_naming_them(call, name, bad, message):
    with pytest.raises(ValidationError) as info:
        call(bad)
    assert str(info.value).startswith(f"{name} {message}")


@pytest.mark.parametrize("call,shape,high", [
    pytest.param(call, shape, high, id=pid) for pid, call, _, shape, high in ID_PARAMS
])
@pytest.mark.parametrize("dtype", [np.uint8, np.int32])
def test_ids_of_any_integer_dtype_up_to_the_bound_are_accepted(call, shape, high, dtype):
    call(np.full(shape, high - 1, dtype=dtype))


@pytest.mark.parametrize("call,name,ndim", [
    pytest.param(call, name, ndim, id=pid) for pid, call, name, ndim in ANY_EXTENT_ARRAY_PARAMS
])
def test_bad_any_extent_array_raises_validation_error_naming_it(tmp_path, call, name, ndim):
    with pytest.raises(ValidationError, match=rf"^{name} must have shape "):
        call(tmp_path, np.zeros((2,) * (ndim - 1)))
    bad = np.zeros((2,) * ndim)
    bad.flat[-1] = np.nan
    with pytest.raises(ValidationError, match=rf"^{name} contains non-finite values$"):
        call(tmp_path, bad)
    for bad in _not_real((2,) * ndim):
        with pytest.raises(ValidationError, match=rf"^{name} must be an array of real numbers"):
            call(tmp_path, bad)
    assert list(tmp_path.iterdir()) == []  # no file, no leftover *.tmp


@pytest.mark.parametrize("call", [
    pytest.param(call, id=pid) for pid, call, _, _ in INTEGER_PARAMS + REAL_PARAMS
])
def test_numpy_integer_argument_is_accepted(call):
    call(np.int64(2))


def test_checks_return_builtin_values_and_honour_bounds():
    assert type(check_int(np.int64(3), "n")) is int
    assert type(check_real(np.float32(0.5), "x")) is float
    assert check_int(0, "n", low=0) == 0
    with pytest.raises(ValidationError, match=r"^n must be an integer in \[1, 3\], got 4$"):
        check_int(4, "n", high=3)
    with pytest.raises(RankError, match=r"^x must be a finite real >= 0, got -1$"):
        check_real(-1, "x", low=0, error=RankError)
