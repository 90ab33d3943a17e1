import dataclasses
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from craft import linalg, parallel, tucker
from craft.errors import ConvergenceError, RankError, ValidationError
from craft.tensor import frobenius_norm, unfold
from craft.tucker import (
    TuckerFactors,
    TuckerRanks,
    approximation_error,
    compression_counts,
    hosvd,
    reconstruct,
)


def discarded_spectrum_bound(w, ranks):
    """Oracle: sum of squared discarded singular values over all three unfoldings."""
    total = 0.0
    for mode, r in zip((1, 2, 3), ranks.as_tuple()):
        s = np.linalg.svd(unfold(w, mode), compute_uv=False)
        total += float(np.sum(s[r:] ** 2))
    return total


def test_rank_one_tensor_exact_at_111():
    rng = np.random.default_rng(0)
    a, b, c = rng.standard_normal(4), rng.standard_normal(5), rng.standard_normal(6)
    w = np.einsum("i,j,k->ijk", a, b, c)
    f = hosvd(w, TuckerRanks(1, 1, 1))
    _, rel = approximation_error(w, f)
    assert rel <= 1e-10


def test_full_rank_exact_reconstruction():
    rng = np.random.default_rng(1)
    w = rng.standard_normal((4, 5, 6))
    f = hosvd(w, TuckerRanks(4, 5, 6))
    _, rel = approximation_error(w, f)
    assert rel <= 1e-10


def test_truncation_error_bounded_by_discarded_spectrum():
    rng = np.random.default_rng(2)
    for _ in range(50):
        dims = tuple(int(d) for d in rng.integers(2, 9, size=3))
        w = rng.standard_normal(dims)
        ranks = TuckerRanks(*(int(rng.integers(1, d + 1)) for d in dims))
        if ranks.as_tuple() == dims:
            ranks = TuckerRanks(max(1, dims[0] - 1), ranks.r2, ranks.r3)
        f = hosvd(w, ranks)
        absolute, _ = approximation_error(w, f)
        bound = discarded_spectrum_bound(w, ranks)
        assert absolute ** 2 <= bound * (1.0 + 1e-8) + 1e-12


def test_hosvd_factor_orthonormality():
    rng = np.random.default_rng(3)
    w = rng.standard_normal((6, 8, 8))
    f = hosvd(w, TuckerRanks(2, 3, 3))
    for u in f.factor_matrices:
        gram = u.T @ u
        assert np.sqrt(np.sum((gram - np.eye(u.shape[1])) ** 2)) <= 1e-10


def test_hosvd_factors_match_unfolding_svd():
    rng = np.random.default_rng(4)
    w = rng.standard_normal((4, 6, 5))
    ranks = TuckerRanks(2, 3, 3)
    f = hosvd(w, ranks)
    for mode, (u, r) in enumerate(zip(f.factor_matrices, ranks.as_tuple()), start=1):
        # leading subspace must agree with an independent SVD of the unfolding
        u_np, _, _ = np.linalg.svd(unfold(w, mode), full_matrices=False)
        ref = u_np[:, :r]
        # compare projectors: invariant to sign and basis rotation
        np.testing.assert_allclose(u @ u.T, ref @ ref.T, atol=1e-9)


def test_reconstruct_zero_core():
    ranks = TuckerRanks(1, 1, 1)
    core = np.zeros((1, 1, 1))
    u1 = np.ones((3, 1)) / np.sqrt(3.0)
    u2 = np.ones((4, 1)) / 2.0
    u3 = np.ones((1, 1))
    f = TuckerFactors(core, u1, u2, u3, ranks)
    assert np.array_equal(reconstruct(f), np.zeros((3, 4, 1)))


def test_reconstruct_norm_equals_core_norm():
    rng = np.random.default_rng(5)
    w = rng.standard_normal((5, 6, 7))
    f = hosvd(w, TuckerRanks(3, 4, 4))
    core_norm = frobenius_norm(f.core)
    recon_norm = frobenius_norm(reconstruct(f))
    assert abs(core_norm - recon_norm) <= 1e-12 * core_norm
    # projection contracts the norm, strictly under real truncation
    assert core_norm < frobenius_norm(w)


def test_hosvd_of_a_tiny_scaled_tensor_is_the_unscaled_one_scaled():
    """At 2**-600 every Gram entry of an unfolding squares to below the
    smallest double; the factors must still be those of the unscaled tensor."""
    w = np.random.default_rng(11).standard_normal((4, 8, 8))
    ranks = TuckerRanks(2, 4, 4)
    ref, tiny = hosvd(w, ranks), hosvd(np.ldexp(w, -600), ranks)
    for name in ("u1", "u2", "u3"):
        assert getattr(tiny, name).tobytes() == getattr(ref, name).tobytes(), name
    assert tiny.core.tobytes() == np.ldexp(ref.core, -600).tobytes()
    assert tiny.convergence == ref.convergence


@pytest.mark.parametrize("k", [-1000, -570, 520, 1000])
def test_approximation_error_at_any_power_of_two_scale(k):
    """Squared entries of ``w * 2**k`` vanish or overflow at these scales;
    the errors must still be those of ``w``, the absolute one scaled."""
    w = np.random.default_rng(11).standard_normal((4, 8, 8))
    ranks = TuckerRanks(2, 4, 4)
    absolute, relative = approximation_error(w, hosvd(w, ranks))
    scaled = np.ldexp(w, k)
    with np.errstate(all="raise"):
        got = approximation_error(scaled, hosvd(scaled, ranks))
    assert np.float64(got[1]).tobytes() == np.float64(relative).tobytes()
    assert np.float64(got[0]).tobytes() == np.ldexp(absolute, k).tobytes()


def test_hosvd_idempotent_on_reconstruction():
    rng = np.random.default_rng(6)
    w = rng.standard_normal((5, 6, 7))
    ranks = TuckerRanks(2, 3, 3)
    first = reconstruct(hosvd(w, ranks))
    second = reconstruct(hosvd(first, ranks))
    denom = max(frobenius_norm(first), 1e-300)
    assert frobenius_norm(second - first) / denom <= 1e-8


def test_factors_are_structurally_frozen():
    rng = np.random.default_rng(7)
    f = hosvd(rng.standard_normal((3, 4, 5)), TuckerRanks(2, 2, 2))
    with pytest.raises(ValueError):
        f.core[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        f.u1[0, 0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        f.core = np.zeros((2, 2, 2))


def test_tucker_factors_reject_non_orthonormal():
    core = np.zeros((1, 1, 1))
    u_bad = np.full((3, 1), 1.0)  # norm sqrt(3), not unit
    u_ok = np.ones((2, 1)) / np.sqrt(2.0)
    with pytest.raises(ValidationError):
        TuckerFactors(core, u_bad, u_ok, u_ok, TuckerRanks(1, 1, 1))


def test_approximation_error_zero_tensor():
    core = np.zeros((1, 1, 1))
    u1 = np.ones((2, 1)) / np.sqrt(2.0)
    zero_f = TuckerFactors(core, u1, u1, u1, TuckerRanks(1, 1, 1))
    absolute, relative = approximation_error(np.zeros((2, 2, 2)), zero_f)
    assert absolute == 0.0 and relative == 0.0


@pytest.fixture
def forks(monkeypatch):
    """Records every ``os.fork`` in the test; the parent sees the child's pid."""
    pids = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def force_fork(monkeypatch, fork=True):
    """Make every ``hosvd`` solve its largest unfolding in a child, or none."""
    monkeypatch.setattr(tucker, "FORK_ABOVE_ROWS", 0 if fork else sys.maxsize)
    monkeypatch.setattr(parallel, "WORKERS", 2)


def assert_same_factors(f, g):
    for name in ("core", "u1", "u2", "u3"):
        a, b = getattr(f, name), getattr(g, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
    assert f.convergence == g.convergence


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("dims,ranks", [((12, 64, 64), (4, 16, 16)),
                                        ((6, 40, 56), (3, 10, 12)),
                                        ((5, 12, 9), (5, 12, 9))],
                         ids=["12x64x64", "6x40x56", "full-ranks"])
def test_forked_hosvd_is_bitwise_the_serial_one(monkeypatch, forks, dims, ranks):
    w = np.random.default_rng(12).standard_normal(dims) * np.linspace(0.2, 2.0, dims[2])
    force_fork(monkeypatch, False)
    serial = hosvd(w, TuckerRanks(*ranks))
    assert forks == []
    force_fork(monkeypatch)
    assert_same_factors(hosvd(w, TuckerRanks(*ranks)), serial)
    assert len(forks) == 1
    assert_no_child_left()


def _fork_that_fails():
    raise OSError("fork refused")


def _fork_whose_child_dies(real_fork=os.fork):
    pid = real_fork()
    if pid == 0:
        os._exit(0)
    return pid


@pytest.mark.parametrize("fork", [_fork_that_fails, _fork_whose_child_dies],
                         ids=["fork-fails", "child-dies"])
def test_hosvd_solves_the_child_mode_itself_when_the_child_gives_nothing(monkeypatch, fork):
    w = np.random.default_rng(13).standard_normal((4, 40, 40))
    ranks = TuckerRanks(2, 8, 8)
    force_fork(monkeypatch, False)
    serial = hosvd(w, ranks)
    force_fork(monkeypatch)
    monkeypatch.setattr(os, "fork", fork)
    assert_same_factors(hosvd(w, ranks), serial)
    assert_no_child_left()


@pytest.mark.parametrize("fork", [False, True], ids=["serial", "fork"])
@pytest.mark.parametrize("dims", [(1, 8, 9), (1, 9, 9)], ids=["1x8x9", "1x9x9"])
def test_hosvd_names_the_mode_whose_svd_ran_out_of_sweeps(monkeypatch, forks, dims, fork):
    # the first sweep always runs, so a factor of 0 leaves a budget of one;
    # the single-row mode-1 unfolding converges within it, modes 2 and 3 do
    # not.  A child solves mode 3 of (1, 8, 9) and mode 2 of (1, 9, 9), so
    # the lowest failing mode must be named whichever process found it.
    monkeypatch.setattr(linalg, "SWEEP_CAP_FACTOR", 0)
    force_fork(monkeypatch, fork)
    w = np.random.default_rng(11).standard_normal(dims)
    with pytest.raises(ConvergenceError) as info:
        hosvd(w, TuckerRanks(1, 2, 2))
    assert info.value.mode == 2
    assert info.value.residual > linalg.OFF_TOL
    assert "mode 2" in str(info.value)
    assert len(forks) == fork
    assert_no_child_left()


def test_an_interrupt_in_the_parent_kills_and_reaps_the_child(monkeypatch, forks):
    def interrupted(arr, mode, r):
        raise KeyboardInterrupt

    force_fork(monkeypatch)
    # the child calls truncated_svd and would sleep on; this process solves
    # its own modes through _solve and is interrupted in the first
    monkeypatch.setattr(tucker, "truncated_svd", lambda m, r: time.sleep(60.0))
    monkeypatch.setattr(tucker, "_solve", interrupted)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        hosvd(np.random.default_rng(14).standard_normal((4, 40, 40)), TuckerRanks(2, 8, 8))
    assert time.monotonic() - start < 30.0
    assert len(forks) == 1
    assert_no_child_left()


def test_forked_hosvd_solves_on_one_blas_thread_in_both_processes(monkeypatch, forks, blas_at_two):
    """With OpenBLAS at two threads, this process solves its two modes at
    one, and so does the child: a child that saw another count would give
    nothing and leave its mode to this process.  The count reads two again
    afterwards, and a serial ``hosvd`` solves at two."""
    parent, solved = os.getpid(), []
    real_solve, real_svd = tucker._solve, tucker.truncated_svd

    def solve(arr, mode, r):
        solved.append((mode, blas_at_two()))
        return real_solve(arr, mode, r)

    def svd(m, r):
        if os.getpid() != parent and blas_at_two() != 1:
            os._exit(1)
        return real_svd(m, r)

    monkeypatch.setattr(tucker, "_solve", solve)
    monkeypatch.setattr(tucker, "truncated_svd", svd)
    w = np.random.default_rng(13).standard_normal((4, 40, 40))
    ranks = TuckerRanks(2, 8, 8)
    force_fork(monkeypatch, False)
    serial = hosvd(w, ranks)
    assert solved == [(1, 2), (2, 2), (3, 2)]
    solved.clear()
    force_fork(monkeypatch)
    assert_same_factors(hosvd(w, ranks), serial)
    assert len(forks) == 1
    assert solved == [(1, 1), (3, 1)]  # mode 2 came from the child
    assert blas_at_two() == 2
    assert_no_child_left()


@pytest.mark.parametrize("failure", [ConvergenceError, KeyboardInterrupt],
                         ids=["convergence", "interrupt"])
def test_blas_count_is_restored_when_forked_hosvd_raises(monkeypatch, forks, blas_at_two,
                                                         failure):
    """A ``ConvergenceError`` (the child's mode 2 and this process's mode 3
    run out of sweeps) or a ``KeyboardInterrupt`` in this process's mode 3
    leaves ``hosvd`` with the child reaped and the count at two again."""
    real_solve = tucker._solve

    def solve(arr, mode, r):
        if mode == 3:
            raise KeyboardInterrupt
        return real_solve(arr, mode, r)

    force_fork(monkeypatch)
    if failure is ConvergenceError:
        monkeypatch.setattr(linalg, "SWEEP_CAP_FACTOR", 0)
        w, ranks = np.random.default_rng(11).standard_normal((1, 9, 9)), TuckerRanks(1, 2, 2)
    else:
        monkeypatch.setattr(tucker, "_solve", solve)
        w, ranks = np.random.default_rng(14).standard_normal((4, 40, 40)), TuckerRanks(2, 8, 8)
    with pytest.raises(failure):
        hosvd(w, ranks)
    assert len(forks) == 1
    assert blas_at_two() == 2
    assert_no_child_left()


KILLED_PARENT = """
import os, time
import numpy as np
from craft import parallel, tucker

tucker.FORK_ABOVE_ROWS = 0
parallel.WORKERS = 2
# both processes sleep inside hosvd: the child in truncated_svd, this one in _solve
tucker.truncated_svd = lambda m, r: time.sleep(60.0)
tucker._solve = lambda arr, mode, r: time.sleep(60.0)
real_fork = os.fork

def fork():
    pid = real_fork()
    if pid:
        print(pid, flush=True)
    return pid

os.fork = fork
tucker.hosvd(np.ones((2, 4, 4)), tucker.TuckerRanks(1, 1, 1))
"""


def _running(pid):
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs /proc and fork")
def test_a_killed_parent_takes_its_child_along():
    src = str(Path(tucker.__file__).parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    parent = subprocess.Popen([sys.executable, "-c", KILLED_PARENT], env=env,
                              stdout=subprocess.PIPE, text=True)
    try:
        child = int(parent.stdout.readline())
        time.sleep(0.2)  # let the child reach its sleep
        assert _running(child)
    finally:
        parent.kill()
        parent.wait(10.0)
        parent.stdout.close()
    deadline = time.monotonic() + 5.0
    while _running(child) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not _running(child)


def test_hosvd_forks_only_above_the_row_threshold(monkeypatch, forks):
    monkeypatch.setattr(parallel, "WORKERS", 2)
    rows = tucker.FORK_ABOVE_ROWS
    rng = np.random.default_rng(15)
    hosvd(rng.standard_normal((2, 3, rows)), TuckerRanks(1, 2, 2))
    assert forks == []
    hosvd(rng.standard_normal((2, 3, rows + 1)), TuckerRanks(1, 2, 2))
    assert len(forks) == 1


def test_hosvd_stays_serial_with_another_thread_alive(monkeypatch, forks):
    force_fork(monkeypatch)
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(10.0,))
    thread.start()
    try:
        hosvd(np.random.default_rng(16).standard_normal((2, 40, 40)), TuckerRanks(1, 4, 4))
    finally:
        release.set()
        thread.join(10.0)
    assert not thread.is_alive()
    assert forks == []


@pytest.mark.parametrize("platform,cpus", [("darwin", 2), ("win32", 2), ("linux", 1)])
def test_hosvd_stays_serial_off_linux_or_on_one_cpu(monkeypatch, forks, platform, cpus):
    force_fork(monkeypatch)
    monkeypatch.setattr(sys, "platform", platform)
    monkeypatch.setattr(parallel, "WORKERS", cpus)
    hosvd(np.random.default_rng(17).standard_normal((2, 40, 40)), TuckerRanks(1, 4, 4))
    assert forks == []


def test_hosvd_rejects_invalid_ranks():
    w = np.zeros((2, 3, 4)) + 1.0
    with pytest.raises(RankError, match="mode 3"):
        hosvd(w, TuckerRanks(1, 1, 5))
    with pytest.raises(RankError):
        TuckerRanks(0, 1, 1)


@pytest.mark.parametrize("ranks", [(2.0, 2, 2), (True, 2, 2), (2, 2, np.float64(2.0)),
                                   (2, np.bool_(True), 2), (2, 2.5, 2)])
def test_ranks_must_be_integers_not_bools(ranks):
    with pytest.raises(RankError):
        TuckerRanks(*ranks)


def test_ranks_accept_numpy_integers():
    assert TuckerRanks(np.int64(2), np.int32(3), np.uint8(4)).as_tuple() == (2, 3, 4)


def test_compression_counts_reference_point():
    dense, factor = compression_counts((24, 1024, 1024), TuckerRanks(24, 100, 100))
    assert dense == 24 * 1024 * 1024 == 25_165_824
    itemized = 24 * 24 + 1024 * 100 + 1024 * 100 + 24 * 100 * 100 \
        + (24 * 24 + 100 * 100 + 100 * 100)
    assert factor == itemized == 465_952
    assert 53.0 <= dense / factor <= 55.0


def test_compression_counts_full_rank_no_savings():
    dense, factor = compression_counts((3, 4, 5), TuckerRanks(3, 4, 5))
    assert factor > dense


def test_compression_counts_trivial():
    dense, factor = compression_counts((1, 1, 1), TuckerRanks(1, 1, 1))
    assert dense == 1
    assert factor == 1 + 1 + 1 + 1 + 3 == 7


@pytest.mark.parametrize("dims", [(2.0, 2, 2), (True, 2, 2), (2, 2, np.nan), (2, 0, 2), (2, 2)])
def test_compression_counts_rejects_non_integer_dims(dims):
    with pytest.raises(ValidationError):
        compression_counts(dims, TuckerRanks(1, 1, 1))


def test_compression_counts_rejects_bad_ranks():
    with pytest.raises(RankError):
        compression_counts((2, 2, 2), TuckerRanks(3, 1, 1))
