"""Self-contained truncated SVD, the package's one spectral solver.

It is a cyclic Jacobi method written directly on numpy arrays; no
LAPACK-backed factorization routines are called, so results are bitwise
deterministic for identical input and carry an explicit convergence error
when the sweep budget runs out.  HOSVD applies it to each unfolding, and the
dispersion analysis to the transposed centered rows of each layer.

``truncated_svd`` only needs left singular vectors (the matrices it serves
are mostly short and fat), so it runs one-sided Jacobi rotations on the
columns of ``m.T``: the accumulated rotations form an exactly orthogonal
basis of the row space whose columns, sorted by the orthogonalized column
norms, are the left singular vectors.  The Gram matrix ``m @ m.T`` is never formed.

Sign convention for every returned vector: the entry of largest magnitude is
nonnegative (ties broken by lowest index), so repeated runs and serialized
results are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, RankError, is_integer
from .tensor import matrix

# off-diagonal mass must shrink below OFF_TOL relative to the invariant scale
OFF_TOL = 1e-12
SWEEP_CAP_FACTOR = 100


@dataclass(frozen=True)
class TruncatedSVD:
    """Leading left singular vectors (columns) and singular values."""

    left_vectors: np.ndarray
    singular_values: np.ndarray


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip each column so its largest-magnitude entry is nonnegative."""
    out = vectors.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        idx = int(np.argmax(np.abs(col)))
        if col[idx] < 0:
            out[:, j] = -col
    return out


def _rotation(zeta: float) -> tuple[float, float]:
    # smaller root of t^2 + 2*zeta*t - 1 = 0 keeps the rotation angle <= pi/4
    t = 1.0 / (zeta + math.copysign(math.sqrt(1.0 + zeta * zeta), zeta))
    c = 1.0 / math.sqrt(1.0 + t * t)
    return c, c * t


def truncated_svd(m, r: int) -> TruncatedSVD:
    """Leading ``r`` left singular vectors and singular values of ``m``.

    ``r`` may run up to the row count; columns beyond the numerical rank are
    an orthonormal completion (zero singular values).
    """
    a = matrix(m)
    rows, cols = a.shape
    if not is_integer(r) or not 1 <= r <= rows:
        raise RankError(f"r must be in [1, {rows}] for a {rows}x{cols} matrix, got {r!r}")

    # columns of b are the rows of a; rotations accumulate into u
    b = np.array(a.T, order="F")
    u = np.eye(rows)
    scale = float(np.sum(b * b))  # == ||a||_F^2, invariant under the rotations
    if scale == 0.0:
        return TruncatedSVD(u[:, :r].copy(), np.zeros(r))

    converged = False
    off = 0.0
    for _ in range(SWEEP_CAP_FACTOR * rows):
        off = 0.0
        for p in range(rows - 1):
            for q in range(p + 1, rows):
                bp = b[:, p]
                bq = b[:, q]
                gamma = float(bp @ bq)
                off += gamma * gamma
                if gamma == 0.0:
                    continue
                alpha = float(bp @ bp)
                beta = float(bq @ bq)
                if gamma * gamma <= 1e-32 * alpha * beta:
                    continue
                c, s = _rotation((beta - alpha) / (2.0 * gamma))
                b_p_new = c * bp - s * bq
                b[:, q] = s * bp + c * bq
                b[:, p] = b_p_new
                up = u[:, p].copy()
                u[:, p] = c * up - s * u[:, q]
                u[:, q] = s * up + c * u[:, q]
        if math.sqrt(off) <= OFF_TOL * scale:
            converged = True
            break
    if not converged:
        raise ConvergenceError(
            "one-sided Jacobi SVD exhausted its sweep budget",
            residual=math.sqrt(off) / scale,
        )

    norms = np.sqrt(np.sum(b * b, axis=0))
    order = np.argsort(-norms, kind="stable")[:r]
    return TruncatedSVD(_fix_signs(u[:, order]), norms[order].copy())

