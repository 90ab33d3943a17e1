"""Residual-preserving cross-layer adapters.

An adapter bundles a stacked weight tensor ``w``, its frozen Tucker
decomposition ``(core, u1, u2, u3)`` and three small square trainable
matrices ``j1, j2, j3``.  The adapted tensor ``w + core x1 u1 j1 x2 u2 j2
x3 u3 j3 - core x1 u1 x2 u2 x3 u3`` is applied through one per-layer core::

    m = core x1 u1 j1,  m0 = core x1 u1          (both L x r2 x r3)
    k[l] = j2 @ m[l] @ j3.T - m0[l]
    adapted[l] = w[l] + u2 @ k[l] @ u3.T

At ``jN = I`` the products ``u1 @ I`` and ``I @ m[l] @ I`` are exact in
floating point, so ``k`` is exactly zero and the adapted tensor is ``w`` bit
for bit however lossy the truncation was; no dense reconstruction is kept.
Only the ``jN`` matrices ever change; updates return a new adapter that
shares the frozen (read-only) buffers of the old one.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, ValidationError, check_int, check_real
from .tucker import TuckerFactors, TuckerRanks, expand, hosvd, reconstruct
from .tensor import _array, check_array, frozen_array, mode_n_product


@dataclass(frozen=True)
class InitConfig:
    """Near-identity initialization: ``jN = I + epsilon * E``, ``E_ij ~ N(0, sigma^2)``."""

    epsilon: float = 0.01
    sigma: float = 0.02
    seed: int = 0

    def __post_init__(self):
        for name in ("epsilon", "sigma"):
            check_real(getattr(self, name), name, low=0)
        check_int(self.seed, "seed", low=0)


@dataclass(frozen=True, eq=False)
class CraftAdapter:
    """Frozen decomposition bundle plus the three trainable square matrices."""

    w_original: np.ndarray
    factors: TuckerFactors
    j1: np.ndarray
    j2: np.ndarray
    j3: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "w_original",
                           frozen_array(self.w_original, "w_original", self.factors.dims))
        for n, r in enumerate(self.ranks.as_tuple(), start=1):
            name = f"j{n}"
            object.__setattr__(self, name, frozen_array(getattr(self, name), name, (r, r)))

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.w_original.shape

    @property
    def ranks(self) -> TuckerRanks:
        return self.factors.ranks

    @property
    def j_matrices(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (self.j1, self.j2, self.j3)

    @property
    def r_initial(self) -> np.ndarray:
        """Initial reconstruction ``expand(core, u1, u2, u3)``, recomputed on each access."""
        return reconstruct(self.factors)


def init_adapter(w, ranks: TuckerRanks, cfg: InitConfig) -> CraftAdapter:
    """Decompose ``w``, freeze everything, and draw near-identity ``jN``.

    The generator is PCG64 seeded from ``cfg.seed``; ``j1`` is drawn first,
    then ``j2``, ``j3``.  With ``cfg.epsilon == 0`` every ``jN`` is exactly
    the identity.
    """
    factors = hosvd(w, ranks)
    rng = np.random.default_rng(cfg.seed)
    js = []
    for r in ranks.as_tuple():
        noise = cfg.sigma * rng.standard_normal((r, r))
        js.append(np.eye(r) + cfg.epsilon * noise)
    return CraftAdapter(w, factors, *js)


def _core(a: CraftAdapter) -> np.ndarray:
    """Per-layer core ``k[l] = j2 @ m[l] @ j3.T - m0[l]`` (see the module docstring)."""
    f = a.factors
    return expand(f.core, f.u1 @ a.j1, a.j2, a.j3) - mode_n_product(f.core, f.u1, 1)


def adapted_tensor(a: CraftAdapter) -> np.ndarray:
    """Current adapted weight tensor ``w[l] + u2 @ k[l] @ u3.T`` for every layer."""
    f = a.factors
    # one GEMM pair per layer, the same calls extract_layer makes
    out = f.u2 @ _core(a) @ f.u3.T
    out += a.w_original
    return out


def extract_layer(a: CraftAdapter, layer: int) -> np.ndarray:
    """Adapted matrix of one layer (1-based), bitwise ``adapted_tensor(a)[layer - 1]``."""
    layer = check_int(layer, "layer", 1, a.dims[0])
    f = a.factors
    return f.u2 @ _core(a)[layer - 1] @ f.u3.T + a.w_original[layer - 1]


def grad_j(a: CraftAdapter, upstream) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of ``<upstream, adapted_tensor(a)>`` with respect to each ``jN``.

    With ``g[l] = u2.T @ upstream[l] @ u3`` the objective is
    ``sum_l <g[l], k[l]>`` (module docstring), and ``j1`` enters only through ``m``::

        g1 = u1.T @ d1,  d1[l, a] = <j2.T @ g[l] @ j3, core[a]>
        g2 = sum_l g[l] @ j3 @ m[l].T
        g3 = sum_l g[l].T @ j2 @ m[l]
    """
    up = check_array(upstream, "upstream", a.dims)
    f = a.factors
    m = mode_n_product(f.core, f.u1 @ a.j1, 1)
    g = f.u2.T @ up @ f.u3
    j2t_g = mode_n_product(g, a.j2.T, 2)
    g2 = np.tensordot(mode_n_product(g, a.j3.T, 3), m, axes=([0, 2], [0, 2]))
    g3 = np.tensordot(j2t_g, m, axes=([0, 1], [0, 1]))
    d1 = np.tensordot(mode_n_product(j2t_g, a.j3.T, 3), f.core, axes=([1, 2], [1, 2]))
    return f.u1.T @ d1, g2, g3


def sgd_step(a: CraftAdapter, grads, eta: float) -> CraftAdapter:
    """One plain gradient step on the ``jN``; the frozen buffers are shared unchecked."""
    eta = check_real(eta, "eta")
    if len(grads) != 3:
        raise ValidationError(f"expected three gradient matrices, got {len(grads)}")
    stepped = copy.copy(a)
    for n, (j, g) in enumerate(zip(a.j_matrices, grads), start=1):
        new_j = j - eta * _array(g, f"gradient {n}", j.shape)
        # covers a non-finite gradient and a step that overflows alike
        if not np.isfinite(new_j).all():
            raise DivergenceError(f"update of j{n} contains non-finite entries")
        new_j.setflags(write=False)
        object.__setattr__(stepped, f"j{n}", new_j)
    return stepped


def trainable_param_count(ranks: TuckerRanks, n_projections: int) -> int:
    """Total trainable entries of the ``jN`` matrices across projection types."""
    n_projections = check_int(n_projections, "n_projections")
    r1, r2, r3 = ranks.as_tuple()
    return n_projections * (r1 * r1 + r2 * r2 + r3 * r3)
