"""HOSVD (Tucker-3) decomposition with structurally frozen factors.

The decomposition is single-pass: one truncated SVD per mode-n unfolding,
then the core is the triple mode product with the transposed factors.  No
alternating refinement is performed.  The three SVDs are independent and
the solver holds the GIL, so above ``FORK_ABOVE_ROWS`` rows a forked child
solves the largest unfolding while this process solves the other two (see
:func:`hosvd` and :mod:`craft.parallel`); the results are the same bytes.
``TuckerFactors`` freezes its arrays (read-only buffers inside a frozen
dataclass) because an adapter applies its trained delta to exactly these
factors for the rest of training.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import signal
import sys
import threading
from dataclasses import dataclass, field

import numpy as np

from . import parallel
from .errors import ConvergenceError, RankError, ValidationError, check_int
from .linalg import TruncatedSVD, truncated_svd
from .tensor import check_array, check_dims, frobenius_norm, frozen_array, mode_n_product, unfold

ORTHONORMALITY_TOL = 1e-10
# a child solves an unfolding only above this many rows.  On a 2-CPU host,
# hosvd with a child took 16.4 ms against 13.6 ms without at 4x32x32, and
# 20.9 ms against 23.3 ms at 4x40x40
FORK_ABOVE_ROWS = 32
if sys.platform == "linux":
    # prctl(PR_SET_PDEATHSIG, SIGKILL): the kernel kills the child with its parent
    _PR_SET_PDEATHSIG = 1
    _prctl = ctypes.CDLL(None).prctl
    _prctl.argtypes = (ctypes.c_int, ctypes.c_ulong)
    _prctl.restype = ctypes.c_int


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


def _child_mode(dims) -> int | None:
    """The mode a forked child solves for a tensor of ``dims``, else ``None``.

    The unfolding with the most rows (the lower mode on a tie), when it has
    more than ``FORK_ABOVE_ROWS``.  A process with another thread is never
    forked: the child would inherit locks that thread may hold.
    """
    mode = int(np.argmax(dims)) + 1
    if (sys.platform == "linux" and dims[mode - 1] > FORK_ABOVE_ROWS
            and threading.active_count() == 1 and parallel.WORKERS >= 2):
        return mode
    return None


class _Child:
    """A forked child that solves the mode-``mode`` unfolding of ``arr``.

    It writes sweeps, residual, vectors and values to a pipe as float64, and
    nothing unless it solved the unfolding; it always leaves through
    ``os._exit``.  It dies with this process (``PR_SET_PDEATHSIG``), and
    quits at once if this process died before that took hold.
    """

    def __init__(self, arr: np.ndarray, mode: int, r: int):
        self.arr, self.mode, self.r = arr, mode, r
        self.pid = self.read_fd = None
        self.done = False  # the pipe was read to its end: the child has left
        parent = os.getpid()
        try:
            self.read_fd, write_fd = os.pipe()
            self.pid = os.fork()
        except OSError:
            pass  # result() solves the unfolding here
        if self.pid == 0:
            status = 1
            try:
                os.close(self.read_fd)
                if _prctl(_PR_SET_PDEATHSIG, signal.SIGKILL) == 0 and os.getppid() == parent:
                    svd = truncated_svd(unfold(arr, mode), r)
                    with open(write_fd, "wb") as out:
                        out.write(np.array([svd.sweeps, svd.residual]))
                        out.write(svd.left_vectors)
                        out.write(svd.singular_values)
                    status = 0
            finally:
                os._exit(status)
        if self.read_fd is not None:
            os.close(write_fd)

    def result(self) -> TruncatedSVD:
        """The child's result; this process solves the unfolding itself if
        the fork failed or the child wrote less than a whole result."""
        if self.pid is not None:
            rows, r = self.arr.shape[self.mode - 1], self.r
            size = 8 * (2 + r * (rows + 1))
            with open(self.read_fd, "rb", closefd=False) as pipe:
                data = pipe.read(size)
            self.done = True
            if len(data) == size:
                head, left, values = np.split(np.frombuffer(data), [2, 2 + rows * r])
                return TruncatedSVD(left.reshape(rows, r), values, int(head[0]), float(head[1]))
        return _solve(self.arr, self.mode, self.r)

    def close(self) -> None:
        """Close the pipe; kill the child unless its result was read, and reap it."""
        if self.read_fd is not None:
            os.close(self.read_fd)
        if self.pid is None:
            return
        if not self.done:
            os.kill(self.pid, signal.SIGKILL)
        try:
            os.waitpid(self.pid, 0)
        except ChildProcessError:
            pass  # SIGCHLD is ignored, so the kernel reaped it


def hosvd(w, ranks: TuckerRanks) -> TuckerFactors:
    """Tucker-3 decomposition of ``w`` at the given multilinear rank.

    On Linux with ``parallel.WORKERS >= 2`` and no other Python thread
    alive, a forked child solves the unfolding with the most rows when that
    has more than ``FORK_ABOVE_ROWS`` (mode 2 of an L x d x d stack) and
    sends the result back through a pipe, while this process solves the
    other two; OpenBLAS is held at one thread until the child is reaped.
    The child only saves time: if the fork fails, or the child dies or runs
    out of sweeps, this process solves that unfolding itself.  So factors,
    sweeps, residuals and errors are the same bytes as when all three run
    here, a ``ConvergenceError`` naming the lowest failing mode.  No child
    outlives the call: an exception here kills and reaps it.
    """
    arr = check_array(w, "w", (None, None, None))
    ranks.validate_for(arr.shape)
    rs = ranks.as_tuple()
    child_mode = _child_mode(arr.shape)
    svds = [None, None, None]
    with parallel.one_blas_thread() if child_mode else contextlib.nullcontext():
        child = None if child_mode is None else _Child(arr, child_mode, rs[child_mode - 1])
        try:
            for mode, r in enumerate(rs, start=1):
                if mode == child_mode:
                    continue
                try:
                    svds[mode - 1] = _solve(arr, mode, r)
                except ConvergenceError:
                    if child and mode > child_mode:
                        child.result()  # raises first if the lower child mode fails too
                    raise
            if child:
                svds[child_mode - 1] = child.result()
        finally:
            if child:
                child.close()
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


def compression_counts(dims, ranks: TuckerRanks) -> tuple[int, int]:
    """Scalar counts for dense storage vs. the decomposition-plus-adaptation bundle.

    The factor side counts the three factor matrices, the core tensor, and
    the three square adaptation matrices that ride along with a deployed
    decomposition.
    """
    dims = check_dims(dims)
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
