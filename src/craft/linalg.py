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
it is never rotated and never returned.  A round whose pair Grams already
meet the stopping rule on their own (their share of the off-diagonal bound,
and every squared cosine) is not rotated: its columns only move on to the
next round's pairs.  So the sweep that finds a solve converged rotates
nothing when the columns fit one block pair.

The stopping rule sees fourth powers of the input (squared Gram entries),
so an input whose largest magnitude lies outside ``[2**-BAND, 2**BAND]`` is
first scaled into that band by a power of two (``tensor.into_band``) and
its singular values are scaled back.  That is exact: vectors, sweeps and
residual are the same at any scale.

Sign convention for every returned vector: the entry of largest magnitude is
nonnegative (ties broken by lowest index), so repeated runs and serialized
results are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, RankError, check_int
from .tensor import check_array, into_band

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
    measure cannot see for rows near ``OFF_TOL`` times the largest.  Rounds
    whose pair Grams already meet both bounds (the off-diagonal one split
    evenly over a sweep's rounds) are not rotated.  A sweep that rotates
    nothing ends the solve, its ``residual`` within rounding of ``OFF_TOL``,
    and the vectors are then exactly the state it measured.
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


def _rotation_indices(batch: int, n2: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices into one work buffer of :func:`_pair_rotations`.

    The buffer, shape ``(3, batch, n2, n2)``, holds the Grams, the
    accumulated rotations and the transposed Grams.  Returns the positions of
    each seat pair's ``(g_pp, g_qq, g_pq)``, shape ``(3, batch, n2 // 2)``,
    and the gather that moves the items on one round (:func:`_circle_shift`)
    in the rows and columns of the transposed Grams and in the columns of
    the rotations, shape ``(2, batch, n2, n2)``.
    """
    size = n2 * n2
    at = np.arange(batch)[:, None] * size
    p = np.arange(0, n2, 2) * (n2 + 1)
    seats = np.stack([p, p + n2 + 1, p + 1])[:, None, :] + at
    shift = _circle_shift(n2)
    grams = 2 * batch * size + at[:, :, None] + shift[:, None] * n2 + shift
    rotations = batch * size + at[:, :, None] + np.arange(0, size, n2)[:, None] + shift
    return seats, np.stack([grams, rotations])


def _pair_rotations(g: np.ndarray, indices: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """One round-robin sweep of two-sided Jacobi on each Gram in ``g``.

    ``g`` is a stack of ``batch`` symmetric ``n2 x n2`` matrices, ``n2``
    even, and ``indices`` comes from :func:`_rotation_indices`.  Returns the
    accumulated rotations, one orthogonal ``n2 x n2`` matrix per Gram.  Each
    step rotates the ``n2 / 2`` disjoint seat pairs ``(2i, 2i+1)`` of every
    Gram at once and then moves the items on one round.
    """
    seats, gather = indices
    batch, n2, _ = g.shape
    work = np.empty((2, 3, batch, n2, n2))
    work[0, 0] = g
    work[0, 1] = np.eye(n2)
    # two work buffers in turn: a step rotates in one and gathers into the
    # other.  Per buffer: itself, its Grams and rotations (also as complex
    # column pairs) and its transposed Grams as complex column pairs.
    cur, nxt = [(w, w[:2], w[:2].view(np.complex128), w[2].view(np.complex128))
                for w in work]
    t = np.empty((batch, n2 // 2))
    rot = np.empty((batch, 1, n2 // 2), np.complex128)
    c, s = rot.real[:, 0], rot.imag[:, 0]
    for _ in range(n2 - 1):
        w, _, pairs, turned = cur
        alpha, beta, gamma = w.take(seats)
        tau = 0.5 * (beta - alpha)
        rotate = (gamma != 0.0) & (gamma * gamma > 1e-32 * alpha * beta)
        # t = tan of the rotation angle: the root of t^2 + (2 tau / gamma) t = 1
        # of smaller magnitude, so the angle is at most pi/4; 0 where skipped
        t.fill(0.0)
        np.divide(gamma, tau + np.copysign(np.hypot(tau, gamma), tau), out=t, where=rotate)
        # c + i s = (1 + i t) / hypot(1, t), rounded as numpy's complex division
        # rounds it.  The rotation of columns (p, q) = (2i, 2i+1) by (c, s) is
        # the complex product (col_p + i col_q) * (c + i s); t = 0 makes it 1
        np.divide(1.0, np.hypot(1.0, t), out=c)
        np.multiply(t, c, out=s)
        pairs *= rot
        # g is symmetric, so (g J)^T = J^T g: rotating its columns gives J^T g J
        np.copyto(w[2], w[0].transpose(0, 2, 1))
        turned *= rot
        w.take(gather, out=nxt[1], mode="clip")
        cur, nxt = nxt, cur
    return cur[0][1]


def _sweep_indices(blocks: int, k: int) -> tuple:
    """Index arrays every :func:`_sweep` over ``blocks`` blocks of ``k`` rows
    reads: the row gather of one round (``None`` for one block pair, whose
    round leaves the rows where they are), the rows and columns of a pair
    Gram's upper triangle, and the indices of :func:`_pair_rotations`."""
    row_shift = None if blocks == 2 else (_circle_shift(blocks)[:, None] * k + np.arange(k)).ravel()
    p, q = np.nonzero(np.arange(2 * k)[:, None] < np.arange(2 * k))
    return row_shift, p, q, _rotation_indices(blocks // 2, 2 * k)


def _sweep(b: np.ndarray, u: np.ndarray, blocks: int, indices: tuple,
           scale: float) -> tuple[float, float, bool]:
    """One outer sweep over the block pairs of the rows of ``b``, in place.

    Rotates the rows of ``b`` and ``u`` alike; ``indices`` comes from
    :func:`_sweep_indices` and ``scale`` is ``||b||_F^2``.  Returns the
    off-diagonal mass, the sum of squared off-diagonal entries of every pair
    Gram as it stood before that pair's rotations, the largest squared cosine
    ``g_pq^2 / (g_pp g_qq)`` among those entries, pairs with a zero diagonal
    entry skipped, and whether any round rotated.  A round whose Grams meet
    the stopping rule on their own, with the off-diagonal bound shared
    equally among the ``blocks - 1`` rounds, only moves its rows on.
    """
    row_shift, p, q, rotation_indices = indices
    k = b.shape[0] // blocks
    off = cosine = 0.0
    rotated = False
    # blocks - 1 rounds bring the rows back to their original order
    for _ in range(blocks - 1):
        xb = (b if row_shift is None else b[row_shift]).reshape(blocks // 2, 2 * k, -1)
        xu = (u if row_shift is None else u[row_shift]).reshape(blocks // 2, 2 * k, -1)
        g = xb @ xb.transpose(0, 2, 1)
        # masked sum: ||g||^2 - sum(diag^2) would cancel to rounding level
        pairs = np.square(g[:, p, q])
        round_off = float(np.sum(pairs))
        diag = np.diagonal(g, axis1=1, axis2=2)
        norms = diag[:, p] * diag[:, q]
        round_cosine = float(np.max(pairs / np.where(norms > 0.0, norms, np.inf)))
        off += round_off
        cosine = max(cosine, round_cosine)
        # the stopping rule's own form: with one block pair a round is skipped
        # exactly when the sweep meets the rule
        if math.sqrt(round_off * (blocks - 1)) / scale <= OFF_TOL and round_cosine <= REL_TOL:
            if row_shift is not None:
                b[...] = xb.reshape(b.shape)
                u[...] = xu.reshape(u.shape)
        else:
            vt = _pair_rotations(g, rotation_indices).transpose(0, 2, 1)
            # with one block pair xb is a view of b: matmul copies an input
            # that overlaps its output before writing
            np.matmul(vt, xb, out=b.reshape(xb.shape))
            np.matmul(vt, xu, out=u.reshape(xu.shape))
            rotated = True
        del xb, xu  # the next round's gathers reuse their memory
    return off, cosine, rotated


def truncated_svd(m, r: int) -> TruncatedSVD:
    """Leading ``r`` left singular vectors and singular values of ``m``.

    ``r`` may run up to the row count; columns beyond the numerical rank are
    an orthonormal completion (zero singular values).
    """
    a = check_array(m, "m", (None, None))
    rows, cols = a.shape
    r = check_int(r, "r", 1, rows, RankError)
    a, shift = into_band(a)

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
        off, cosine, rotated = _sweep(b, u, blocks, indices, scale)
        residual = math.sqrt(off) / scale
        # a sweep that rotated nothing would repeat itself exactly
        if (residual <= OFF_TOL and cosine <= REL_TOL) or not rotated:
            break
        if sweeps >= SWEEP_CAP_FACTOR * rows:
            raise ConvergenceError(
                "block one-sided Jacobi SVD exhausted its sweep budget",
                residual=residual,
            )

    norms = np.sqrt(np.sum(np.square(b[:rows]), axis=1))
    order = np.argsort(-norms, kind="stable")[:r]
    left = _fix_signs(np.ascontiguousarray(u[order].T))
    return TruncatedSVD(left, np.ldexp(norms[order], -shift), sweeps=sweeps, residual=residual)
