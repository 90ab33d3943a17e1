"""The package's one parallelism policy: how many workers, at what BLAS count.

The toy's chunk threads and ``hosvd``'s forked child run only where
``WORKERS >= 2``: numpy's BLAS is OpenBLAS (MKL, BLIS and Accelerate builds
stay serial) and two CPUs are usable.  While they run, both hold OpenBLAS at
one thread per call (``one_blas_thread``), so they do not wait on each
other's BLAS threads.  The count is process-wide: other threads get it too.
"""

import contextlib
import ctypes
import os

from numpy._core import _multiarray_umath


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


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
WORKERS = usable_cpus() if OPENBLAS else 1


@contextlib.contextmanager
def one_blas_thread():
    """Hold OpenBLAS at one thread per call, process-wide, and put back the
    count it found however the block ends; a count of 1 is left alone."""
    blas = OPENBLAS[0]() if OPENBLAS else 1
    if blas != 1:
        OPENBLAS[1](1)
    try:
        yield
    finally:
        if blas != 1:
            OPENBLAS[1](blas)
