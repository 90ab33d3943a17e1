"""Reference pair-Gram Jacobi sweep, kept as a test oracle.

This is the original ``linalg._pair_rotations``: it reads each step's
diagonals through strided views, builds the rotation as a complex quotient,
and transposes and shifts ``g`` and ``v`` with fresh arrays every step.
"""

import numpy as np


def reference_pair_rotations(g: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """One round-robin sweep of two-sided Jacobi on each Gram in ``g``.

    ``g`` is a stack of symmetric ``2k x 2k`` matrices and is consumed;
    ``shift`` is ``linalg._circle_shift(2k)``.  Returns the accumulated
    rotations, one orthogonal ``2k x 2k`` matrix per Gram.
    """
    batch, n2, _ = g.shape
    flat_shift = (shift[:, None] * n2 + shift).ravel()
    v = np.broadcast_to(np.eye(n2), g.shape).copy()
    for _ in range(n2 - 1):
        diag = np.diagonal(g, axis1=1, axis2=2)
        alpha = diag[:, 0::2]
        beta = diag[:, 1::2]
        gamma = np.diagonal(g[:, 0::2, 1::2], axis1=1, axis2=2)
        tau = 0.5 * (beta - alpha)
        rotate = (gamma != 0.0) & (gamma * gamma > 1e-32 * alpha * beta)
        t = np.divide(gamma, tau + np.copysign(np.hypot(tau, gamma), tau),
                      out=np.zeros_like(gamma), where=rotate)
        rot = ((1.0 + 1j * t) / np.hypot(1.0, t))[:, None, :]
        v.view(np.complex128).__imul__(rot)
        g.view(np.complex128).__imul__(rot)
        g = np.ascontiguousarray(g.transpose(0, 2, 1))
        g.view(np.complex128).__imul__(rot)
        g = np.take(g.reshape(batch, -1), flat_shift, axis=1).reshape(batch, n2, n2)
        v = np.take(v, shift, axis=2)
    return v
