import os
import sys
import threading
import time

import numpy as np
import pytest

from craft import parallel
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
