"""HOSVD (Tucker-3) decomposition with structurally frozen factors.

The decomposition is single-pass: one truncated SVD per mode-n unfolding,
then the core is the triple mode product with the transposed factors.  No
alternating refinement is performed.  ``TuckerFactors`` freezes its arrays
(read-only buffers inside a frozen dataclass) because an adapter applies its
trained delta to exactly these factors for the rest of training.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, RankError, ValidationError, is_integer
from .linalg import truncated_svd
from .tensor import frobenius_norm, frozen_array, mode_n_product, tensor3, unfold

ORTHONORMALITY_TOL = 1e-10


def _check_orthonormal(u: np.ndarray, what: str) -> None:
    gram = u.T @ u
    err = float(np.sqrt(np.sum((gram - np.eye(u.shape[1])) ** 2)))
    if err > ORTHONORMALITY_TOL:
        raise ValidationError(
            f"{what} columns are not orthonormal (deviation {err:.3e})"
        )


@dataclass(frozen=True)
class TuckerRanks:
    """Multilinear rank ``(r1, r2, r3)`` of a Tucker-3 decomposition."""

    r1: int
    r2: int
    r3: int

    def __post_init__(self):
        for name, r in zip(("r1", "r2", "r3"), self.as_tuple()):
            if not is_integer(r) or r < 1:
                raise RankError(f"{name} must be a positive integer, got {r!r}")

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.r1, self.r2, self.r3)

    def validate_for(self, dims) -> None:
        for mode, (r, extent) in enumerate(zip(self.as_tuple(), dims), start=1):
            if r > extent:
                raise RankError(
                    f"mode {mode}: rank {r} exceeds tensor extent {extent}"
                )


@dataclass(frozen=True, eq=False)
class TuckerFactors:
    """Core tensor plus the three orthonormal factor matrices, all frozen."""

    core: np.ndarray
    u1: np.ndarray
    u2: np.ndarray
    u3: np.ndarray
    ranks: TuckerRanks

    def __post_init__(self):
        object.__setattr__(self, "core", frozen_array(self.core, 3, "core"))
        for name in ("u1", "u2", "u3"):
            object.__setattr__(self, name, frozen_array(getattr(self, name), 2, name))
        r = self.ranks.as_tuple()
        if self.core.shape != r:
            raise ValidationError(f"core shape {self.core.shape} != ranks {r}")
        for n, u in enumerate(self.factor_matrices, start=1):
            if u.shape[1] != r[n - 1]:
                raise ValidationError(
                    f"u{n} has {u.shape[1]} columns, expected rank {r[n - 1]}"
                )
            if u.shape[0] < u.shape[1]:
                raise ValidationError(f"u{n} shape {u.shape} has more columns than rows")
            _check_orthonormal(u, f"u{n}")

    @property
    def factor_matrices(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (self.u1, self.u2, self.u3)

    @property
    def dims(self) -> tuple[int, int, int]:
        """Extents of the tensor this decomposition reconstructs to."""
        return (self.u1.shape[0], self.u2.shape[0], self.u3.shape[0])

    @property
    def frozen(self) -> bool:
        return True


def expand(core, a1, a2, a3) -> np.ndarray:
    """Multiply ``core`` by a matrix along every mode, in mode order 1, 2, 3.

    Used by the decomposition (with the transposed factors) and by
    reconstruction.
    """
    out = mode_n_product(core, a1, 1)
    out = mode_n_product(out, a2, 2)
    return mode_n_product(out, a3, 3)


def hosvd(w, ranks: TuckerRanks) -> TuckerFactors:
    """Tucker-3 decomposition of ``w`` at the given multilinear rank."""
    arr = tensor3(w)
    ranks.validate_for(arr.shape)
    factors = []
    for mode, r in enumerate(ranks.as_tuple(), start=1):
        try:
            factors.append(truncated_svd(unfold(arr, mode), r).left_vectors)
        except ConvergenceError as err:
            raise ConvergenceError(
                "SVD of unfolding failed to converge", err.residual, mode=mode
            ) from err
    core = expand(arr, factors[0].T, factors[1].T, factors[2].T)
    return TuckerFactors(core, factors[0], factors[1], factors[2], ranks)


def reconstruct(f: TuckerFactors) -> np.ndarray:
    """Tensor rebuilt from the decomposition; shape equals the original dims."""
    return expand(f.core, f.u1, f.u2, f.u3)


def approximation_error(w, f: TuckerFactors) -> tuple[float, float]:
    """``(absolute, relative)`` Frobenius reconstruction error of ``f`` against ``w``."""
    arr = tensor3(w)
    if arr.shape != f.dims:
        raise ValidationError(f"tensor dims {arr.shape} != factor dims {f.dims}")
    absolute = frobenius_norm(arr - reconstruct(f))
    denom = frobenius_norm(arr)
    return absolute, (absolute / denom if denom > 0.0 else 0.0)


def compression_counts(dims, ranks: TuckerRanks) -> tuple[int, int]:
    """Scalar counts for dense storage vs. the decomposition-plus-adaptation bundle.

    The factor side counts the three factor matrices, the core tensor, and
    the three square adaptation matrices that ride along with a deployed
    decomposition.
    """
    if len(dims) != 3 or not all(is_integer(d) and d >= 1 for d in dims):
        raise ValidationError(f"dims must be three positive integers, got {dims!r}")
    dims = tuple(int(d) for d in dims)
    ranks.validate_for(dims)
    r1, r2, r3 = ranks.as_tuple()
    dense = dims[0] * dims[1] * dims[2]
    factor = (
        dims[0] * r1
        + dims[1] * r2
        + dims[2] * r3
        + r1 * r2 * r3
        + (r1 * r1 + r2 * r2 + r3 * r3)
    )
    return dense, factor
