"""Residual-preserving cross-layer adapters.

An adapter bundles a stacked weight tensor ``w_original``, its frozen Tucker
decomposition ``(core, u1, u2, u3)`` and three small square trainable
matrices ``j1, j2, j3``.  The adapted tensor is ``w_original + delta``, where
``delta = expand(core, u1 j1, u2 j2, u3 j3) - expand(core, u1, u2, u3)`` is
evaluated as a telescoped sum in ``dN = jN - I``::

    delta = core x1 u1 d1 x2 u2 j2 x3 u3 j3
          + core x1 u1    x2 u2 d2 x3 u3 j3
          + core x1 u1    x2 u2    x3 u3 d3

At ``jN = I`` every ``dN`` is exactly zero, so the adapted tensor is
``w_original`` bit for bit however lossy the truncation was, and no dense
copy of the initial reconstruction is kept.

Only the ``jN`` matrices ever change; updates return a new adapter that
shares the frozen (read-only) buffers of the old one.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, ValidationError, is_integer
from .tucker import TuckerFactors, TuckerRanks, hosvd, reconstruct
from .tensor import frozen_array, mode_n_product, tensor3


@dataclass(frozen=True)
class InitConfig:
    """Near-identity initialization: ``jN = I + epsilon * E``, ``E_ij ~ N(0, sigma^2)``."""

    epsilon: float = 0.01
    sigma: float = 0.02
    seed: int = 0

    def __post_init__(self):
        if not (np.isfinite(self.epsilon) and self.epsilon >= 0.0):
            raise ValidationError(f"epsilon must be >= 0, got {self.epsilon!r}")
        if not (np.isfinite(self.sigma) and self.sigma >= 0.0):
            raise ValidationError(f"sigma must be >= 0, got {self.sigma!r}")
        if not is_integer(self.seed) or self.seed < 0:
            raise ValidationError(f"seed must be a nonnegative integer, got {self.seed!r}")


@dataclass(frozen=True, eq=False)
class CraftAdapter:
    """Frozen decomposition bundle plus the three trainable square matrices."""

    w_original: np.ndarray
    factors: TuckerFactors
    j1: np.ndarray
    j2: np.ndarray
    j3: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "w_original", frozen_array(self.w_original, 3, "w_original"))
        if self.w_original.shape != self.factors.dims:
            raise ValidationError(
                f"w_original dims {self.w_original.shape} != factor dims {self.factors.dims}"
            )
        for n, r in enumerate(self.ranks.as_tuple(), start=1):
            name = f"j{n}"
            j = frozen_array(getattr(self, name), 2, name)
            if j.shape != (r, r):
                raise ValidationError(f"{name} must be {r}x{r}, got {j.shape}")
            object.__setattr__(self, name, j)

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


def adapted_tensor(a: CraftAdapter) -> np.ndarray:
    """Current adapted weight tensor ``w + delta`` (see the module docstring)."""
    f = a.factors
    d1, d2, d3 = (j - np.eye(len(j)) for j in a.j_matrices)
    g1 = mode_n_product(f.core, f.u1, 1)
    # the first two terms share their mode-3 factor u3 @ j3
    head = mode_n_product(mode_n_product(f.core, f.u1 @ d1, 1), f.u2 @ a.j2, 2)
    head += mode_n_product(g1, f.u2 @ d2, 2)
    delta = mode_n_product(head, f.u3 @ a.j3, 3)
    delta += mode_n_product(mode_n_product(g1, f.u2, 2), f.u3 @ d3, 3)
    return a.w_original + delta


def extract_layer(a: CraftAdapter, layer: int) -> np.ndarray:
    """Per-layer adapted weight matrix; ``layer`` is 1-based in ``[1, n_layers]``."""
    n_layers = a.dims[0]
    if not is_integer(layer) or not 1 <= layer <= n_layers:
        raise ValidationError(f"layer must be in [1, {n_layers}], got {layer!r}")
    return adapted_tensor(a)[layer - 1].copy()


def grad_j(a: CraftAdapter, upstream) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of ``<upstream, adapted_tensor(a)>`` with respect to each ``jN``.

    Only the expanded term depends on ``jN``.  Writing the expansion as a
    mode-n product of the partially expanded core ``h_n`` (core multiplied by
    the adapted factors on the other two modes) gives

        unfold(t, n) = (uN @ jN) @ unfold(h_n, n)

    hence ``gN = uN.T @ unfold(upstream, n) @ unfold(h_n, n).T``; the inner
    product is a contraction of ``upstream`` and ``h_n`` over the two modes
    other than ``n``.  Validated against central finite differences in the
    test suite.
    """
    up = tensor3(upstream)
    if up.shape != a.dims:
        raise ValidationError(f"upstream dims {up.shape} != adapter dims {a.dims}")
    adapted = [u @ j for u, j in zip(a.factors.factor_matrices, a.j_matrices)]
    grads = []
    for n in (1, 2, 3):
        others = [m for m in (1, 2, 3) if m != n]
        h = a.factors.core
        for m in others:
            h = mode_n_product(h, adapted[m - 1], m)
        axes = [m - 1 for m in others]
        u_n = a.factors.factor_matrices[n - 1]
        grads.append(u_n.T @ np.tensordot(up, h, axes=(axes, axes)))
    return tuple(grads)


def sgd_step(a: CraftAdapter, grads, eta: float) -> CraftAdapter:
    """One plain gradient step on the ``jN`` matrices; frozen buffers are shared."""
    if not np.isfinite(eta):
        raise ValidationError(f"eta must be finite, got {eta!r}")
    if len(grads) != 3:
        raise ValidationError(f"expected three gradient matrices, got {len(grads)}")
    new_js = {}
    for n, (j, g) in enumerate(zip(a.j_matrices, grads), start=1):
        g = np.asarray(g, dtype=np.float64)
        if g.shape != j.shape:
            raise ValidationError(f"gradient {n} has shape {g.shape}, expected {j.shape}")
        if not np.isfinite(g).all():
            raise DivergenceError(f"gradient for j{n} contains non-finite entries")
        new_js[f"j{n}"] = j - eta * g
    return dataclasses.replace(a, **new_js)


def trainable_param_count(ranks: TuckerRanks, n_projections: int) -> int:
    """Total trainable entries of the ``jN`` matrices across projection types."""
    if not is_integer(n_projections) or n_projections < 1:
        raise ValidationError(
            f"n_projections must be a positive integer, got {n_projections!r}"
        )
    r1, r2, r3 = ranks.as_tuple()
    return int(n_projections) * (r1 * r1 + r2 * r2 + r3 * r3)
