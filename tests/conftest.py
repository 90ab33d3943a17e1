import os

import pytest

from craft.parallel import OPENBLAS


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail the test that leaves a child of this process, running or exited."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process ({'still running' if pid == 0 else f'pid {pid}'})")


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


@pytest.fixture(autouse=True)
def blas_threads_restored():
    """Fail the test that leaves OpenBLAS's thread count other than it found it."""
    if OPENBLAS is None:
        yield
        return
    get, put = OPENBLAS
    before = get()
    yield
    after = get()
    if after != before:
        put(before)  # so that later tests start from the count this one found
        pytest.fail(f"the test left OpenBLAS at {after} threads, not {before}")


@pytest.fixture
def blas_at_two():
    """OpenBLAS's ``get`` with its thread count set to 2, put back afterwards."""
    if OPENBLAS is None:
        pytest.skip("numpy's BLAS is not OpenBLAS")
    get, put = OPENBLAS
    before = get()
    put(2)
    yield get
    put(before)
