"""Shared test constructions."""

import os
import sys
import tracemalloc

import numpy as np
import pytest


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def open_fds():
    """The file descriptors this process has open (``/dev/fd`` off Linux)."""
    return sorted(os.listdir("/proc/self/fd" if sys.platform.startswith("linux") else "/dev/fd"))


def traced_peak(fn):
    """The ``tracemalloc`` peak, in bytes, of calling ``fn()``."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def radius_construction(d_in=8, d_out=10, r_q=10.0, r_kv=1.0, seed=0):
    """Rows of Q on a circle of radius r_q inside a fixed 2-plane, K and V on
    radius r_kv in the same plane, plus a small spectral-gap-preserving
    off-plane component."""
    rng = np.random.default_rng(seed)
    angles = 2 * np.pi * np.arange(d_out) / d_out
    out = {}
    for name, radius, phase in (("Q", r_q, 0.1), ("K", r_kv, 0.7), ("V", r_kv, 1.3)):
        rows = np.zeros((d_out, d_in))
        rows[:, 0] = radius * np.cos(angles + phase)
        rows[:, 1] = radius * np.sin(angles + phase)
        rows[:, 2:] = 0.01 * rng.standard_normal((d_out, d_in - 2))
        out[name] = rows
    return out
