"""Self-contained truncated SVD, the package's one spectral solver.

It is a block one-sided Jacobi method (Bečka, Okša & Vajteršic, Parallel
Computing 2002; Hari, SIMAX 2007) written directly on numpy arrays; no
LAPACK-backed factorization routines are called, so results are bitwise
deterministic for identical input and carry an explicit convergence error
when the sweep budget runs out.  HOSVD applies it to each unfolding, and the
dispersion analysis to the transposed centered rows of each layer.

``truncated_svd`` only needs left singular vectors (the matrices it serves
are mostly short and fat), so it orthogonalizes the columns of ``m.T`` by
plane rotations and accumulates the same rotations into ``u``, which stays an
exactly orthogonal basis of the row space; sorted by the orthogonalized
column norms, its columns are the left singular vectors.  The columns are
split into an even number of equal-width blocks (zero columns pad the
end), and each round of an outer sweep rotates disjoint block pairs.  For
every pair a local Gram matrix of its 2k columns is formed and one vectorized
round-robin sweep of two-sided Jacobi on it yields the pair's accumulated
rotation, which batched matrix products then apply to the columns and to
``u``.  That block Gram only steers the rotations; the global Gram
``m @ m.T`` is never formed.  A zero padding column has a zero Gram row, so
it is never rotated and never returned.

Sign convention for every returned vector: the entry of largest magnitude is
nonnegative (ties broken by lowest index), so repeated runs and serialized
results are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, RankError, check_int
from .tensor import check_array

# off-diagonal mass must shrink below OFF_TOL relative to the invariant scale,
# and every pair's squared cosine below REL_TOL (see TruncatedSVD)
OFF_TOL = 1e-12
REL_TOL = 1e-10
# budget in outer sweeps, per row of the input
SWEEP_CAP_FACTOR = 100
# widest column block: wider blocks mean fewer, larger matrix products per
# sweep but more elementwise work in each pair's inner sweep
MAX_BLOCK = 32


@dataclass(frozen=True)
class TruncatedSVD:
    """Leading left singular vectors (columns) and singular values.

    ``sweeps`` counts the outer Jacobi sweeps run and ``residual`` is the
    absolute off-diagonal measure of the last one, ``sqrt(off) / ||m||_F^2``,
    at most ``OFF_TOL`` (both 0 for the zero matrix).  The last sweep also saw
    every pair of nonzero rows at a squared cosine ``g_pq^2 / (g_pp g_qq)`` of
    at most ``REL_TOL`` (Demmel & Veselić, SIMAX 1992), which the absolute
    measure cannot see for rows near ``OFF_TOL`` times the largest.
    """

    left_vectors: np.ndarray
    singular_values: np.ndarray
    sweeps: int
    residual: float


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip each column so its largest-magnitude entry is nonnegative."""
    # argmax returns the first maximum, so ties go to the lowest index
    peaks = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(vectors.shape[1])]
    return vectors * np.where(peaks < 0, -1.0, 1.0)


def _circle_shift(n: int) -> np.ndarray:
    """Gather that moves ``n`` (even) items one round on in a round-robin.

    Seats ``(0, 1), (2, 3), ...`` are paired.  Circle method: the item in seat
    0 stays and every other item moves one place along the ring of seats
    2, 4, ..., n-2, n-1, n-3, ..., 1.  Applying the gather ``n - 1`` times
    pairs every two items exactly once and restores the original order.
    """
    ring = np.concatenate([np.arange(2, n, 2), np.arange(n - 1, 0, -2)])
    shift = np.arange(n)
    shift[ring] = np.roll(ring, 1)
    return shift


def _pair_rotations(g: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """One round-robin sweep of two-sided Jacobi on each Gram in ``g``.

    ``g`` is a stack of symmetric ``2k x 2k`` matrices and is consumed.
    Returns the accumulated rotations, one orthogonal ``2k x 2k`` matrix per
    Gram.  Each step rotates the ``k`` disjoint seat pairs ``(2i, 2i+1)`` of
    every Gram at once and then moves the items on by ``shift``.
    """
    batch, n2, _ = g.shape
    flat_shift = (shift[:, None] * n2 + shift).ravel()
    v = np.broadcast_to(np.eye(n2), g.shape).copy()
    for _ in range(n2 - 1):
        diag = np.diagonal(g, axis1=1, axis2=2)
        alpha = diag[:, 0::2]
        beta = diag[:, 1::2]
        gamma = np.diagonal(g[:, 0::2, 1::2], axis1=1, axis2=2)
        tau = 0.5 * (beta - alpha)
        rotate = (gamma != 0.0) & (gamma * gamma > 1e-32 * alpha * beta)
        # t = tan of the rotation angle: the root of t^2 + (2 tau / gamma) t = 1
        # of smaller magnitude, so the angle is at most pi/4; 0 where skipped
        t = np.divide(gamma, tau + np.copysign(np.hypot(tau, gamma), tau),
                      out=np.zeros_like(gamma), where=rotate)
        # the rotation of columns (p, q) = (2i, 2i+1) by (c, s) is the complex
        # product (col_p + i col_q) * (c + i s); t = 0 makes it exactly 1
        rot = ((1.0 + 1j * t) / np.hypot(1.0, t))[:, None, :]
        v.view(np.complex128).__imul__(rot)
        g.view(np.complex128).__imul__(rot)
        # g is symmetric, so (g J)^T = J^T g: rotating its columns gives J^T g J
        g = np.ascontiguousarray(g.transpose(0, 2, 1))
        g.view(np.complex128).__imul__(rot)
        g = np.take(g.reshape(batch, -1), flat_shift, axis=1).reshape(batch, n2, n2)
        v = np.take(v, shift, axis=2)
    return v


def _sweep_indices(blocks: int, k: int) -> tuple[np.ndarray, ...]:
    """Index arrays every :func:`_sweep` over ``blocks`` blocks of ``k`` rows
    reads: the row gather of one round, the seat gather of each pair Gram's
    round-robin, and the rows and columns of a Gram's upper triangle."""
    row_shift = (_circle_shift(blocks)[:, None] * k + np.arange(k)).ravel()
    p, q = np.nonzero(np.arange(2 * k)[:, None] < np.arange(2 * k))
    return row_shift, _circle_shift(2 * k), p, q


def _sweep(b: np.ndarray, u: np.ndarray, blocks: int,
           indices: tuple[np.ndarray, ...]) -> tuple[float, float]:
    """One outer sweep over the block pairs of the rows of ``b``, in place.

    Rotates the rows of ``b`` and ``u`` alike; ``indices`` comes from
    :func:`_sweep_indices`.  Returns the off-diagonal mass, the sum of squared
    off-diagonal entries of every pair Gram as it stood before that pair's
    rotations, and the largest squared cosine ``g_pq^2 / (g_pp g_qq)`` among
    those entries, pairs with a zero diagonal entry skipped.
    """
    row_shift, pair_shift, p, q = indices
    k = b.shape[0] // blocks
    off = cosine = 0.0
    # blocks - 1 rounds bring the rows back to their original order
    for _ in range(blocks - 1):
        xb = b[row_shift].reshape(blocks // 2, 2 * k, -1)
        xu = u[row_shift].reshape(blocks // 2, 2 * k, -1)
        g = xb @ xb.transpose(0, 2, 1)
        # masked sum: ||g||^2 - sum(diag^2) would cancel to rounding level
        pairs = np.square(g[:, p, q])
        off += float(np.sum(pairs))
        diag = np.diagonal(g, axis1=1, axis2=2)
        norms = diag[:, p] * diag[:, q]
        cosine = max(cosine, float(np.max(pairs / np.where(norms > 0.0, norms, np.inf))))
        vt = _pair_rotations(g, pair_shift).transpose(0, 2, 1)
        np.matmul(vt, xb, out=b.reshape(xb.shape))
        np.matmul(vt, xu, out=u.reshape(xu.shape))
        del xb, xu  # the next round's gathers reuse their memory
    return off, cosine


def truncated_svd(m, r: int) -> TruncatedSVD:
    """Leading ``r`` left singular vectors and singular values of ``m``.

    ``r`` may run up to the row count; columns beyond the numerical rank are
    an orthonormal completion (zero singular values).
    """
    a = check_array(m, "m", (None, None))
    rows, cols = a.shape
    r = check_int(r, "r", 1, rows, RankError)

    scale = float(np.sum(a * a))  # == ||a||_F^2, invariant under the rotations
    if scale == 0.0:
        return TruncatedSVD(np.eye(rows, r), np.zeros(r), sweeps=0, residual=0.0)

    # an even number of blocks, at least two, of equal width k <= MAX_BLOCK
    blocks = 2 * math.ceil(rows / (2 * MAX_BLOCK))
    k = math.ceil(rows / blocks)
    # row j of b is column j of a.T and row j of u is column j of the
    # accumulated rotation; rows past the row count are the zero padding
    b = np.zeros((blocks * k, cols))
    b[:rows] = a
    u = np.eye(blocks * k, rows)
    indices = _sweep_indices(blocks, k)

    sweeps = 0
    while True:
        sweeps += 1
        off, cosine = _sweep(b, u, blocks, indices)
        residual = math.sqrt(off) / scale
        if residual <= OFF_TOL and cosine <= REL_TOL:
            break
        if sweeps >= SWEEP_CAP_FACTOR * rows:
            raise ConvergenceError(
                "block one-sided Jacobi SVD exhausted its sweep budget",
                residual=residual,
            )

    norms = np.sqrt(np.sum(np.square(b[:rows]), axis=1))
    order = np.argsort(-norms, kind="stable")[:r]
    left = _fix_signs(np.ascontiguousarray(u[order].T))
    return TruncatedSVD(left, norms[order], sweeps=sweeps, residual=residual)
