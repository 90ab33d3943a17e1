"""HOSVD (Tucker-3) decomposition with structurally frozen factors.

The decomposition is single-pass: one truncated SVD per mode-n unfolding,
then the core is the triple mode product with the transposed factors.  No
alternating refinement is performed.  The three SVDs are independent and
the solver holds the GIL, so above ``FORK_ABOVE_ROWS`` rows a forked child
(:func:`craft.parallel.forked`, under the package's parallelism policy)
solves the mode-3 unfolding while this process solves modes 1 and 2 (see
:func:`hosvd`); the results are the same bytes.
``TuckerFactors`` freezes its arrays (read-only buffers inside a frozen
dataclass) because an adapter applies its trained delta to exactly these
factors for the rest of training.  Parameter counts live in
:mod:`craft.analysis`.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field

import numpy as np

from . import parallel
from .errors import ConvergenceError, RankError, ValidationError, check_int
from .linalg import TruncatedSVD, truncated_svd
from .tensor import check_array, frobenius_norm, frozen_array, mode_n_product, unfold

ORTHONORMALITY_TOL = 1e-10
# a child solves the mode-3 unfolding only above this many rows.  On a 2-CPU
# host, hosvd with a child took 16.4 ms against 13.6 ms without at 4x32x32,
# and 20.9 ms against 23.3 ms at 4x40x40
FORK_ABOVE_ROWS = 32


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
        for name in ("r1", "r2", "r3"):
            object.__setattr__(self, name, check_int(getattr(self, name), name, error=RankError))

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
    """Core tensor plus the three orthonormal factor matrices, all frozen.

    ``convergence`` holds, per mode, the ``(sweeps, residual)`` of the
    truncated SVD that produced the factor.  It is telemetry: files do not
    store it, so factors read from a file have it empty.
    """

    core: np.ndarray
    u1: np.ndarray
    u2: np.ndarray
    u3: np.ndarray
    ranks: TuckerRanks
    convergence: tuple[tuple[int, float], ...] = field(default=(), compare=False, repr=False)

    def __post_init__(self):
        r = self.ranks.as_tuple()
        object.__setattr__(self, "core", frozen_array(self.core, "core", r))
        for name, rank in zip(("u1", "u2", "u3"), r):
            u = frozen_array(getattr(self, name), name, (None, rank))
            _check_orthonormal(u, name)
            object.__setattr__(self, name, u)

    @property
    def factor_matrices(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (self.u1, self.u2, self.u3)

    @property
    def dims(self) -> tuple[int, int, int]:
        """Extents of the tensor this decomposition reconstructs to."""
        return (self.u1.shape[0], self.u2.shape[0], self.u3.shape[0])


def expand(core, a1, a2, a3) -> np.ndarray:
    """Multiply ``core`` by a matrix along every mode, in mode order 1, 2, 3.

    Used by the decomposition (with the transposed factors) and by
    reconstruction.
    """
    out = mode_n_product(core, a1, 1)
    out = mode_n_product(out, a2, 2)
    return mode_n_product(out, a3, 3)


def _solve(arr: np.ndarray, mode: int, r: int) -> TruncatedSVD:
    try:
        return truncated_svd(unfold(arr, mode), r)
    except ConvergenceError as err:
        raise ConvergenceError(
            "SVD of unfolding failed to converge", err.residual, mode=mode
        ) from err


def hosvd(w, ranks: TuckerRanks) -> TuckerFactors:
    """Tucker-3 decomposition of ``w`` at the given multilinear rank.

    When the mode-3 unfolding has more than ``FORK_ABOVE_ROWS`` rows, a
    child (:func:`craft.parallel.forked`, which decides whether one may run)
    solves it while this process solves modes 1 and 2.  Mode 3 is the
    largest, or tied with mode 2, in an ``(L, d_out, d_in)`` stack of
    square or GQA K/V projections; only a tensor whose mode 3 is not its
    largest loses balance.  The child only saves time: if it gives nothing
    (no fork, or it died or ran out of sweeps), this process solves mode 3
    itself.  So factors, sweeps, residuals and errors are the same bytes
    as when all three run here, and the modes are solved in order, so a
    ``ConvergenceError`` names the lowest failing mode.
    """
    arr = check_array(w, "w", (None, None, None))
    ranks.validate_for(arr.shape)
    r1, r2, r3 = ranks.as_tuple()
    child = (parallel.forked(lambda: truncated_svd(unfold(arr, 3), r3))
             if arr.shape[2] > FORK_ABOVE_ROWS else contextlib.nullcontext(lambda: None))
    with child as result:
        svds = (_solve(arr, 1, r1), _solve(arr, 2, r2), result() or _solve(arr, 3, r3))
    u1, u2, u3 = (s.left_vectors for s in svds)
    core = expand(arr, u1.T, u2.T, u3.T)
    return TuckerFactors(core, u1, u2, u3, ranks,
                         convergence=tuple((s.sweeps, s.residual) for s in svds))


def reconstruct(f: TuckerFactors) -> np.ndarray:
    """Tensor rebuilt from the decomposition; shape equals the original dims."""
    return expand(f.core, f.u1, f.u2, f.u3)


def approximation_error(w, f: TuckerFactors) -> tuple[float, float]:
    """``(absolute, relative)`` Frobenius reconstruction error of ``f`` against ``w``."""
    arr = check_array(w, "w", f.dims)
    absolute = frobenius_norm(arr - reconstruct(f))
    denom = frobenius_norm(arr)
    return absolute, (absolute / denom if denom > 0.0 else 0.0)

