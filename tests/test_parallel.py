import ast
import contextlib
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from craft import parallel, toy
from craft.toy import CHUNK
from helpers import assert_no_child_left, open_fds

linux_only = pytest.mark.skipif(not sys.platform.startswith("linux"),
                                reason="needs fork and /proc")


@pytest.fixture
def two_workers(monkeypatch):
    monkeypatch.setattr(parallel, "WORKERS", 2)


@linux_only
def test_forked_returns_the_value_work_gave_in_the_child(forks, two_workers):
    with parallel.forked(lambda: (os.getpid(), np.arange(5.0))) as result:
        pid, values = result()
    assert [pid] == forks and pid != os.getpid()
    assert values.tobytes() == np.arange(5.0).tobytes()
    assert_no_child_left()


@pytest.mark.parametrize("case", ["linux", "darwin", "one-worker", "thread"])
def test_forked_gives_none_and_holds_no_blas_count_without_a_child(monkeypatch, forks,
                                                                    two_workers, case):
    """Off Linux, at one worker or with another thread alive, ``forked``
    neither forks nor sets the BLAS count.  The ``linux`` case shows that
    the fake binding sees the hold when a child does run."""
    if case == "linux" and not sys.platform.startswith("linux"):
        pytest.skip("forks only on Linux")
    puts = []
    monkeypatch.setattr(parallel, "OPENBLAS", (lambda: 2, puts.append))
    if case == "darwin":
        monkeypatch.setattr(sys, "platform", "darwin")
    if case == "one-worker":
        monkeypatch.setattr(parallel, "WORKERS", 1)
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(10.0,))
    if case == "thread":
        thread.start()
    try:
        with parallel.forked(lambda: 7) as result:
            value = result()
    finally:
        release.set()
        if case == "thread":
            thread.join(10.0)
    assert not thread.is_alive()
    if case == "linux":
        assert (value, len(forks), puts) == (7, 1, [1, 2])
    else:
        assert (value, forks, puts) == (None, [], [])


@linux_only
def test_an_exception_in_the_block_kills_and_reaps_the_child(forks, two_workers):
    fds, start = open_fds(), time.monotonic()
    with pytest.raises(RuntimeError):
        with parallel.forked(lambda: time.sleep(60.0)):
            raise RuntimeError("the caller failed")
    assert time.monotonic() - start < 30.0
    assert len(forks) == 1
    assert open_fds() == fds
    assert_no_child_left()


def test_chunks_run_on_separate_workers_in_order(monkeypatch):
    """Each chunk of ``CHUNK`` sequences (the last partial) runs once, the
    calling thread among the workers; results come back in chunk order and
    every worker thread is joined.  Chunk ``i`` runs on worker ``i % 3``,
    each worker index on one thread, the calling thread's being 0: the toy
    gives each index its own rows of scratch."""
    monkeypatch.setattr(parallel, "WORKERS", 3)
    threads = threading.active_count()
    ran = {}

    def work(worker, start, stop):
        # an ident can be reused, a Thread is not
        ran[start // CHUNK] = worker, threading.current_thread()
        return start, stop

    assert parallel.chunked(4 * CHUNK + 1, CHUNK, work) == [
        (0, CHUNK), (CHUNK, 2 * CHUNK), (2 * CHUNK, 3 * CHUNK), (3 * CHUNK, 4 * CHUNK),
        (4 * CHUNK, 4 * CHUNK + 1)]
    assert [ran[i][0] for i in range(5)] == [0, 1, 2, 0, 1]
    assert len(set(ran.values())) == 3 and ran[0][1] is threading.current_thread()
    assert threading.active_count() == threads
    ran.clear()
    assert parallel.chunked(CHUNK, CHUNK, work) == [(0, CHUNK)]
    assert ran == {0: (0, threading.current_thread())}  # one chunk starts no thread


def test_chunk_workers_run_under_the_callers_errstate(monkeypatch):
    """numpy's error state is per thread, so a worker would otherwise warn
    where its caller ignores or raises."""
    monkeypatch.setattr(parallel, "WORKERS", 2)
    with np.errstate(over="raise", invalid="ignore"):
        states = parallel.chunked(3 * CHUNK, CHUNK, lambda worker, start, stop: np.geterr())
        assert states == [np.geterr()] * 3
        with pytest.raises(FloatingPointError):
            parallel.chunked(2 * CHUNK, CHUNK,
                             lambda worker, start, stop: np.float64(1e308) * (10.0 + start))


def test_the_first_failing_chunk_raises_in_the_caller(monkeypatch):
    """Chunks 1 to 3 fail, chunk 2 on the calling thread itself; the caller
    raises chunk 1's exception, after every worker has been joined."""
    monkeypatch.setattr(parallel, "WORKERS", 2)
    threads = threading.active_count()

    def work(worker, start, stop):
        if start:
            raise ValueError(f"chunk {start // CHUNK}")

    with pytest.raises(ValueError, match="^chunk 1$"):
        parallel.chunked(4 * CHUNK, CHUNK, work)
    assert threading.active_count() == threads


@pytest.mark.parametrize("workers", [1, 2])
def test_an_interrupted_chunk_stops_its_thread_and_raises_first(monkeypatch, workers):
    """A KeyboardInterrupt in the calling thread's chunk 2 ends that thread's
    loop and is raised ahead of chunk 1's earlier error; with one worker,
    chunk 1's error already ended the loop and is raised."""
    monkeypatch.setattr(parallel, "WORKERS", workers)
    threads = threading.active_count()
    ran = []

    def work(worker, start, stop):
        chunk = start // CHUNK
        ran.append(chunk)
        if chunk == 1:
            raise ValueError("chunk 1")
        if chunk == 2:
            raise KeyboardInterrupt

    with pytest.raises(BaseException) as raised:  # a stray interrupt must not end the session
        parallel.chunked(6 * CHUNK, CHUNK, work)
    assert raised.type is (KeyboardInterrupt if workers == 2 else ValueError)
    assert sorted(ran) == ([0, 1, 2] if workers == 2 else [0, 1])
    assert threading.active_count() == threads


@pytest.mark.parametrize("failure", [None, ValueError, KeyboardInterrupt],
                         ids=["returns", "exception", "interrupt"])
def test_chunks_run_on_one_blas_thread_and_restore_the_count(monkeypatch, blas_at_two, failure):
    """Every chunk on two workers sees one OpenBLAS thread, and the count
    reads two again after the call, also when a chunk raises."""
    monkeypatch.setattr(parallel, "WORKERS", 2)
    seen = []

    def work(worker, start, stop):
        seen.append(blas_at_two())
        if failure and start == CHUNK:  # chunk 1, on the worker thread
            raise failure("chunk 1")

    with pytest.raises(failure) if failure else contextlib.nullcontext():
        parallel.chunked(3 * CHUNK, CHUNK, work)
    assert seen == [1, 1, 1]
    assert blas_at_two() == 2
    # one chunk starts no worker
    assert parallel.chunked(CHUNK, CHUNK, lambda worker, start, stop: blas_at_two()) == [2]


def test_blas_count_is_restored_when_the_caller_is_interrupted(monkeypatch, blas_at_two):
    """A KeyboardInterrupt that reaches the calling thread while it waits for
    a worker, after that worker is done, still restores the count."""
    monkeypatch.setattr(parallel, "WORKERS", 2)
    join = threading.Thread.join

    def interrupted(thread, timeout=None):
        join(thread)
        raise KeyboardInterrupt

    monkeypatch.setattr(threading.Thread, "join", interrupted)
    with pytest.raises(KeyboardInterrupt):
        parallel.chunked(2 * CHUNK, CHUNK, lambda worker, start, stop: None)
    assert blas_at_two() == 2


def test_an_interrupted_join_still_joins_every_worker(monkeypatch, blas_at_two):
    """A KeyboardInterrupt that cuts the calling thread's first join short,
    while the worker is still busy, reaches the caller only after that worker
    is joined; its chunk ran under one OpenBLAS thread and the count is put
    back after it."""
    monkeypatch.setattr(parallel, "WORKERS", 2)
    before = set(threading.enumerate())
    join, joins, release, seen = threading.Thread.join, [], threading.Event(), []

    def interrupted_once(thread, timeout=None):
        joins.append(thread)
        if len(joins) == 1:
            raise KeyboardInterrupt  # neither waits nor joins
        release.set()
        join(thread, timeout)

    def work(worker, start, stop):
        if start:  # chunk 1, on the worker: busy until the second join
            release.wait(10.0)
        seen.append(blas_at_two())

    monkeypatch.setattr(threading.Thread, "join", interrupted_once)
    try:
        with pytest.raises(KeyboardInterrupt):
            parallel.chunked(2 * CHUNK, CHUNK, work)
        left = set(threading.enumerate()) - before
    finally:
        release.set()
        for thread in set(threading.enumerate()) - before:
            join(thread, 10.0)
    assert left == set()
    assert seen == [1, 1]
    assert blas_at_two() == 2


def test_without_openblas_one_worker_runs_and_blas_is_left_alone(monkeypatch):
    """Where numpy's BLAS exports no OpenBLAS thread calls (MKL, BLIS,
    Accelerate) the toy imports with one worker and ``hosvd`` forks no child
    even above its row threshold; forced to two workers, the toy's chunks
    run at whatever count BLAS had."""
    probe = ("import ctypes, os\n"
             "import numpy as np\n"
             "from numpy._core import _multiarray_umath\n"
             "cdll = ctypes.CDLL\n"
             "ctypes.CDLL = lambda name, *a, **kw: (\n"
             "    object() if name == _multiarray_umath.__file__ else cdll(name, *a, **kw))\n"
             "from craft import parallel, toy, tucker\n"
             "forks, fork = [], os.fork\n"
             "os.fork = lambda: forks.append(1) or fork()\n"
             "tucker.FORK_ABOVE_ROWS = 0\n"
             "w = np.random.default_rng(18).standard_normal((2, 40, 40))\n"
             "tucker.hosvd(w, tucker.TuckerRanks(1, 4, 4))\n"
             "print(parallel.OPENBLAS, parallel.WORKERS, len(forks))\n")
    src = str(Path(toy.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "None 1 0\n", "")
    read = parallel.OPENBLAS[0] if parallel.OPENBLAS else lambda: None
    monkeypatch.setattr(parallel, "OPENBLAS", None)
    monkeypatch.setattr(parallel, "WORKERS", 2)
    assert parallel.chunked(3 * CHUNK, CHUNK, lambda worker, start, stop: read()) == [read()] * 3


def test_a_worker_that_fails_to_start_leaves_no_thread_running(monkeypatch, blas_at_two):
    """When the second of two worker threads cannot start, the first is
    joined, still under one OpenBLAS thread, before the start's error
    reaches the caller; the count is put back after it."""
    monkeypatch.setattr(parallel, "WORKERS", 3)
    threads = threading.active_count()
    start, starts, seen = threading.Thread.start, [], []

    def start_once(thread):
        starts.append(thread)
        if len(starts) == 2:
            raise RuntimeError("can't start new thread")
        start(thread)

    def work(worker, begin, stop):
        time.sleep(0.05)  # the started worker is still busy when the next start fails
        seen.append(blas_at_two())

    monkeypatch.setattr(threading.Thread, "start", start_once)
    with pytest.raises(RuntimeError, match="^can't start new thread$"):
        parallel.chunked(6 * CHUNK, CHUNK, work)
    assert threading.active_count() == threads
    assert seen == [1, 1]  # the started worker's chunks 1 and 4
    assert blas_at_two() == 2


def test_chunked_only_carries_a_chunks_error_back_to_the_caller():
    """``chunked`` has two handlers, neither of which itself calls or raises
    anything.  The worker's keeps what a chunk raised for the calling
    thread, which raises it again (the tests above check which).  The join's,
    in the loop over the threads, keeps an interrupt that the loop's end raises."""
    tree = ast.parse(Path(parallel.__file__).read_text(encoding="utf-8"))
    chunked = next(fn for fn in ast.walk(tree)
                   if isinstance(fn, ast.FunctionDef) and fn.name == "chunked")
    handlers = [node for node in ast.walk(chunked) if isinstance(node, ast.ExceptHandler)]
    assert [ast.unparse(handler.type) for handler in handlers] == ["BaseException"] * 2
    assert not [node for handler in handlers for stmt in handler.body for node in ast.walk(stmt)
                if isinstance(node, (ast.Call, ast.Raise))]
    *_, loop, last = next(node.finalbody for node in ast.walk(chunked)
                          if isinstance(node, ast.Try) and node.finalbody)
    joins = [handler for handler in handlers if handler in list(ast.walk(loop))]
    assert isinstance(loop, ast.For) and len(joins) == 1
    kept = ast.unparse(joins[0].body[0].targets[0])
    assert ast.unparse(last) == f"if {kept}:\n    raise {kept}"
