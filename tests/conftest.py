import os

import pytest


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail the test that leaves a child of this process, running or exited."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process ({'still running' if pid == 0 else f'pid {pid}'})")
