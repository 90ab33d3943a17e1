"""Dense third-order tensor primitives: stacking, matricization, mode products.

Canonical layouts
-----------------
A ``Tensor3`` is a C-contiguous float64 array of shape ``(I1, I2, I3)``,
row-major over ``(i1, i2, i3)``.  A ``Matrix`` is a float64 array of shape
``(rows, cols)``.  Constructors reject NaN/Inf and empty extents so that
non-finite values never propagate past the API boundary.

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

from typing import Sequence

import numpy as np

from .errors import ValidationError, is_integer

# axis permutation placing mode n first, remaining axes in ascending order
_MODE_AXES = {1: (0, 1, 2), 2: (1, 0, 2), 3: (2, 0, 1)}


def _as_finite_float(data, ndim: int, what: str) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim != ndim:
        raise ValidationError(f"{what} must have {ndim} dimensions, got {arr.ndim}")
    if arr.size == 0:
        raise ValidationError(f"{what} must have all extents >= 1, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValidationError(f"{what} contains non-finite values")
    return np.ascontiguousarray(arr)


def tensor3(data) -> np.ndarray:
    """Validate ``data`` as a Tensor3 and return it as C-contiguous float64."""
    return _as_finite_float(data, 3, "tensor3")


def matrix(data) -> np.ndarray:
    """Validate ``data`` as a Matrix and return it as C-contiguous float64."""
    return _as_finite_float(data, 2, "matrix")


def frozen_array(data, ndim: int, what: str) -> np.ndarray:
    """Validated float64 array with the write flag cleared; shares already-frozen input."""
    already_frozen = (
        isinstance(data, np.ndarray)
        and data.dtype == np.float64
        and data.flags["C_CONTIGUOUS"]
        and not data.flags.writeable
    )
    # share already-frozen buffers so update steps keep the originals by reference
    arr = data if already_frozen else np.array(data, dtype=np.float64, order="C")
    arr = _as_finite_float(arr, ndim, what)
    arr.setflags(write=False)
    return arr


def _check_mode(mode: int) -> None:
    if mode not in (1, 2, 3):
        raise ValidationError(f"mode must be 1, 2 or 3, got {mode!r}")


def stack_layers(mats: Sequence) -> np.ndarray:
    """Stack per-layer weight matrices into a ``(n_layers, d_out, d_in)`` tensor.

    ``result[l, i, j] == mats[l][i, j]`` for every index.
    """
    if len(mats) == 0:
        raise ValidationError("stack_layers requires at least one matrix")
    arrs = [matrix(m) for m in mats]
    shape = arrs[0].shape
    for idx, m in enumerate(arrs[1:], start=1):
        if m.shape != shape:
            raise ValidationError(
                f"matrix at index {idx} has shape {m.shape}, expected {shape}"
            )
    return np.ascontiguousarray(np.stack(arrs, axis=0))


def unfold(t, mode: int) -> np.ndarray:
    """Mode-n unfolding of a Tensor3 (see module docstring for the layout)."""
    arr = tensor3(t)
    _check_mode(mode)
    axes = _MODE_AXES[mode]
    out = np.transpose(arr, axes).reshape(arr.shape[mode - 1], -1)
    if np.shares_memory(out, arr):
        out = out.copy()
    return out


def fold(m, mode: int, dims) -> np.ndarray:
    """Inverse of :func:`unfold`: rebuild the tensor of shape ``dims``."""
    arr = matrix(m)
    _check_mode(mode)
    if len(dims) != 3 or not all(is_integer(d) and d >= 1 for d in dims):
        raise ValidationError(f"dims must be three positive integers, got {dims!r}")
    dims = tuple(int(d) for d in dims)
    axes = _MODE_AXES[mode]
    expected = (dims[mode - 1], dims[axes[1]] * dims[axes[2]])
    if arr.shape != expected:
        raise ValidationError(
            f"mode-{mode} matrix of shape {arr.shape} inconsistent with dims "
            f"{dims} (expected {expected})"
        )
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
    arr = tensor3(t)
    mat = matrix(u)
    _check_mode(mode)
    if mat.shape[1] != arr.shape[mode - 1]:
        raise ValidationError(
            f"mode-{mode} product needs u with {arr.shape[mode - 1]} columns, "
            f"got shape {mat.shape}"
        )
    i1, i2, i3 = arr.shape
    if mode == 1:
        return (mat @ arr.reshape(i1, i2 * i3)).reshape(-1, i2, i3)
    if mode == 2:
        return mat @ arr
    return (arr.reshape(i1 * i2, i3) @ mat.T).reshape(i1, i2, -1)


def frobenius_norm(t) -> float:
    """Square root of the sum of squared entries of a Tensor3."""
    arr = tensor3(t)
    return float(np.sqrt(np.sum(arr * arr)))
