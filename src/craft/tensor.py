"""Dense third-order tensor primitives: stacking, matricization, mode products.

Canonical layouts
-----------------
A ``Tensor3`` is a C-contiguous float64 array of shape ``(I1, I2, I3)``,
row-major over ``(i1, i2, i3)``.  A ``Matrix`` is a float64 array of shape
``(rows, cols)``.

Array validation has one policy, :func:`check_array`: every array argument
is checked once, where it enters the API, for its shape (exact extents, or
any extent >= 1) and for NaN/Inf, and comes back C-contiguous float64; the
message starts with the argument's name.  Public entry points call it
(``frozen_array`` through it) under their own argument names, so non-finite
values and mismatched shapes never propagate past the API boundary.

Unfolding convention (the single convention used everywhere in this
package): the mode-n unfolding puts index ``i_n`` on the rows; the columns
run over the remaining indices in ascending mode order, with the
highest-numbered index varying fastest::

    unfold(t, 1)[i1, i2 * I3 + i3] == t[i1, i2, i3]
    unfold(t, 2)[i2, i1 * I3 + i3] == t[i1, i2, i3]
    unfold(t, 3)[i3, i1 * I2 + i2] == t[i1, i2, i3]

Any consistent column ordering yields identical reconstructions and mode
products; this one is the cheapest to realize on row-major storage.
``fold`` is the exact inverse of ``unfold`` under the same convention.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import ValidationError, check_int

# axis permutation placing mode n first, remaining axes in ascending order
_MODE_AXES = {1: (0, 1, 2), 2: (1, 0, 2), 3: (2, 0, 1)}
# sums of squares first scale an array's largest magnitude into [2**-BAND, 2**BAND]
BAND = 100


def check_array(data, name: str, shape) -> np.ndarray:
    """``data`` as a C-contiguous float64 array of ``shape``, else ``ValidationError`` naming it.

    ``shape`` has one entry per axis: an exact extent, or ``None`` for any
    extent >= 1.
    """
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim != len(shape) or not all(
            n >= 1 if want is None else n == want for n, want in zip(arr.shape, shape)):
        expected = ", ".join("*" if want is None else str(want) for want in shape)
        raise ValidationError(f"{name} must have shape ({expected}), got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValidationError(f"{name} contains non-finite values")
    return np.ascontiguousarray(arr)


def is_immutable(arr: np.ndarray) -> bool:
    """Whether no reference can write the memory of ``arr``.

    ``arr`` and every array on its ``.base`` chain are read-only, and the
    memory belongs to the last of them or to ``bytes`` (directly or through
    a ``memoryview``).  A writable view taken before the owner was frozen,
    or a write flag set again, goes unseen and breaks the contract.
    """
    while isinstance(arr, np.ndarray):
        if arr.flags.writeable:
            return False
        arr = arr.base
    if isinstance(arr, memoryview):
        arr = arr.obj
    return arr is None or isinstance(arr, bytes)


def frozen_array(data, name: str, shape) -> np.ndarray:
    """``check_array(data, name, shape)`` as a read-only array.

    A C-contiguous float64 ``data`` that passes :func:`is_immutable` is shared, so update
    steps keep the frozen buffers by reference; anything else, a read-only
    view of a writable array included, is copied.
    """
    shareable = (
        isinstance(data, np.ndarray)
        and data.dtype == np.float64
        and data.flags["C_CONTIGUOUS"]
        and is_immutable(data)
    )
    arr = data if shareable else np.array(data, dtype=np.float64, order="C")
    arr = check_array(arr, name, shape)
    arr.setflags(write=False)
    return arr


def check_dims(dims) -> tuple[int, int, int]:
    """``dims`` as three positive ``int`` extents of a Tensor3."""
    if not hasattr(dims, "__len__") or len(dims) != 3:
        raise ValidationError(f"dims must be three positive integers, got {dims!r}")
    return tuple(check_int(d, "dims") for d in dims)


def stack_layers(mats: Sequence) -> np.ndarray:
    """Stack per-layer weight matrices into a ``(n_layers, d_out, d_in)`` tensor.

    ``result[l, i, j] == mats[l][i, j]`` for every index.
    """
    if len(mats) == 0:
        raise ValidationError("stack_layers requires at least one matrix")
    arrs = [check_array(mats[0], "matrix at index 0", (None, None))]
    arrs += [check_array(m, f"matrix at index {i}", arrs[0].shape)
             for i, m in enumerate(mats[1:], start=1)]
    return np.stack(arrs, axis=0)


def unfold(t, mode: int) -> np.ndarray:
    """Mode-n unfolding of a Tensor3 (see module docstring for the layout)."""
    arr = check_array(t, "t", (None, None, None))
    mode = check_int(mode, "mode", 1, 3)
    axes = _MODE_AXES[mode]
    out = np.transpose(arr, axes).reshape(arr.shape[mode - 1], -1)
    if np.shares_memory(out, arr):
        out = out.copy()
    return out


def fold(m, mode: int, dims) -> np.ndarray:
    """Inverse of :func:`unfold`: rebuild the tensor of shape ``dims``."""
    mode = check_int(mode, "mode", 1, 3)
    dims = check_dims(dims)
    axes = _MODE_AXES[mode]
    arr = check_array(m, "m", (dims[mode - 1], dims[axes[1]] * dims[axes[2]]))
    permuted = tuple(dims[a] for a in axes)
    inverse = tuple(np.argsort(axes))
    out = np.ascontiguousarray(arr.reshape(permuted).transpose(inverse))
    if np.shares_memory(out, arr):
        out = out.copy()
    return out


def mode_n_product(t, u, mode: int) -> np.ndarray:
    """Multiply a Tensor3 by matrix ``u`` along ``mode``.

    ``u`` has shape ``(J, I_n)``; the result keeps the other extents and has
    extent ``J`` along ``mode``, and ``unfold(result, n) == u @ unfold(t, n)``
    up to rounding.  The inputs are validated once; the product is then one
    GEMM on a row-major view of ``t`` (modes 1 and 3) or a batched GEMM over
    its leading axis (mode 2), so no unfolding is copied or folded back.
    """
    arr = check_array(t, "t", (None, None, None))
    mode = check_int(mode, "mode", 1, 3)
    mat = check_array(u, "u", (None, arr.shape[mode - 1]))
    i1, i2, i3 = arr.shape
    if mode == 1:
        return (mat @ arr.reshape(i1, i2 * i3)).reshape(-1, i2, i3)
    if mode == 2:
        return mat @ arr
    return (arr.reshape(i1 * i2, i3) @ mat.T).reshape(i1, i2, -1)


def into_band(a: np.ndarray) -> tuple[np.ndarray, int]:
    """``(a * 2**shift, shift)`` for the power of two that brings the largest
    magnitude of ``a`` into ``[2**-BAND, 2**BAND]``; ``(a, 0)`` if it lies there
    or ``a`` is zero.  The largest square then neither overflows nor vanishes."""
    peak = max(a.max(), -a.min())  # max |a| without an |a| temporary
    shift = 0 if peak == 0.0 or 2.0**-BAND <= peak <= 2.0**BAND else -math.frexp(peak)[1]
    return (np.ldexp(a, shift) if shift else a), shift


def frobenius_norm(t) -> float:
    """Square root of the sum of squared entries of a Tensor3, at any scale (:func:`into_band`)."""
    arr, shift = into_band(check_array(t, "t", (None, None, None)))
    return math.ldexp(float(np.sqrt(np.sum(arr * arr))), -shift)
