"""The package's one parallelism policy, and the one place it starts a
thread or a process.

Work runs in parallel only where ``WORKERS >= 2``: numpy's BLAS is OpenBLAS
(MKL, BLIS and Accelerate builds stay serial) and two CPUs are usable.
While it runs, OpenBLAS is held at one thread per call, process-wide, so
workers do not wait on each other's BLAS threads; the count it found is put
back however the work ends.  ``chunked`` runs a function over fixed chunks
of a range on worker threads, telling it which worker runs each;
``forked`` runs one in a forked child and brings back its pickled value,
and the child cannot outlive the caller.
"""

import contextlib
import ctypes
import os
import pickle
import signal
import sys
import threading

import numpy as np
from numpy._core import _multiarray_umath

if sys.platform == "linux":
    # prctl(PR_SET_PDEATHSIG, SIGKILL): the kernel kills the child with its parent
    _PR_SET_PDEATHSIG = 1
    _prctl = ctypes.CDLL(None).prctl
    _prctl.argtypes = (ctypes.c_int, ctypes.c_ulong)
    _prctl.restype = ctypes.c_int


def _bind_openblas():
    """OpenBLAS's ``(get, set)`` of its thread count, from the libraries numpy's
    core extension links (numpy's bundled names first); ``None`` for another BLAS."""
    lib = ctypes.CDLL(_multiarray_umath.__file__)  # loaded already, so it opens
    for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
        get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
        put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
        if get and put:
            get.argtypes, get.restype = (), ctypes.c_int
            put.argtypes, put.restype = (ctypes.c_int,), None
            return get, put
    return None


OPENBLAS = _bind_openblas()
# one worker per CPU this process may run on (its affinity mask where the OS has one)
WORKERS = ((len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1) if OPENBLAS else 1)


@contextlib.contextmanager
def _one_blas_thread():
    """The OpenBLAS hold (see the module docstring); a count of 1 is left alone."""
    blas = OPENBLAS[0]() if OPENBLAS else 1
    if blas != 1:
        OPENBLAS[1](1)
    try:
        yield
    finally:
        if blas != 1:
            OPENBLAS[1](blas)


def chunked(n: int, size: int, work) -> list:
    """``[work(worker, start, stop) for each chunk of range(n)]``, run on worker threads.

    The chunks are ``size`` long, the last one partial.  The calling thread
    is worker 0, so ``min(chunks, WORKERS) - 1`` threads start, under the
    OpenBLAS hold.  Chunk ``i`` runs on worker ``i % workers``, after that
    worker's earlier chunks, so ``work`` may give each worker index its own
    scratch.  Each thread that started is joined before this returns or
    raises, also when an interrupt cuts a join short.  Each worker runs
    under the caller's numpy error state and stops at its first failing
    chunk.  An interrupt (a ``BaseException`` that is no ``Exception``) is
    raised here first, else the first failing chunk's.
    """
    bounds = [(start, min(start + size, n)) for start in range(0, n, size)]
    results, errors = [None] * len(bounds), [None] * len(bounds)
    workers, errstate = min(len(bounds), WORKERS), np.geterr()

    def run(worker: int):
        with np.errstate(**errstate):
            for i in range(worker, len(bounds), workers):
                try:
                    results[i] = work(worker, *bounds[i])
                except BaseException as err:
                    errors[i] = err
                    break  # the chunks this thread skips all come after this one

    threads = []
    with _one_blas_thread() if workers > 1 else contextlib.nullcontext():
        try:
            for worker in range(1, workers):
                thread = threading.Thread(target=run, args=(worker,))
                thread.start()
                threads.append(thread)
            run(0)
        finally:
            interrupt = None
            for thread in threads:
                alive = True
                while alive:
                    try:
                        thread.join()
                    except BaseException as err:  # join every thread, then raise it
                        interrupt = interrupt or err
                    alive = thread.is_alive()
            if interrupt:
                raise interrupt
    failed = [err for err in errors if err is not None]
    if failed:
        raise next((err for err in failed if not isinstance(err, Exception)), failed[0])
    return results


@contextlib.contextmanager
def forked(work):
    """Run ``work()`` in a forked child while the block runs.

    Yields ``result``, which waits for the child and returns ``work()``'s
    value, or ``None`` when the child gave nothing whole: the fork failed,
    or the child raised, died or was cut off mid-write; the caller then does
    the work itself.  A child runs only on Linux, with ``WORKERS >= 2`` and
    no other Python thread alive (the child would inherit locks that thread
    may hold); otherwise ``result`` is ``lambda: None`` and nothing else
    happens.  The child dies with this process (``PR_SET_PDEATHSIG``, or at
    once if this process died first), and leaving the block kills it unless
    ``result`` read it to its end, then reaps it.
    """
    if sys.platform != "linux" or WORKERS < 2 or threading.active_count() > 1:
        yield lambda: None
        return
    with _one_blas_thread():
        parent, pid, fds, done = os.getpid(), None, [], False
        try:
            try:
                fds = list(os.pipe())
                pid = os.fork()
            except OSError:
                pass  # no child: result() gives None
            if pid == 0:  # the child writes work's value or nothing, and leaves
                status = 1
                try:
                    os.close(fds[0])
                    if _prctl(_PR_SET_PDEATHSIG, signal.SIGKILL) == 0 and os.getppid() == parent:
                        with open(fds[1], "wb") as out:
                            out.write(pickle.dumps(work()))
                        status = 0
                finally:
                    os._exit(status)
            if pid:
                os.close(fds.pop())  # the child's end

            def result():
                nonlocal done
                if not pid:
                    return None
                with open(fds[0], "rb", closefd=False) as pipe:
                    data = pipe.read()
                done = True  # at EOF the child has closed its end and is leaving
                try:
                    return pickle.loads(data)
                except (EOFError, pickle.UnpicklingError):
                    return None

            yield result
        finally:
            for fd in fds:
                os.close(fd)
            if pid:
                if not done:
                    with contextlib.suppress(ProcessLookupError):  # already reaped
                        os.kill(pid, signal.SIGKILL)
                with contextlib.suppress(ChildProcessError):  # SIGCHLD is ignored
                    os.waitpid(pid, 0)
