"""Analytical instruments: row-dispersion PCA, parameter-scaling tables,
and storage-savings accounting.

Dispersion pools the raw rows of the Q, K and V matrices of one layer (no
per-row variance normalization), centers them on the pooled mean, projects
onto the leading principal components of the pooled sample covariance, and
reports the root-mean-square projected norm per projection type.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import ValidationError, is_integer
from .linalg import symmetric_eig
from .tensor import matrix
from .tucker import TuckerRanks, compression_counts

PROJECTIONS = ("Q", "K", "V")
SCALING_METHODS = ("full", "lora", "pissa", "lotr", "craft")


@dataclass(frozen=True)
class LayerDispersion:
    layer: int  # 1-based
    k: int
    sigma: dict  # projection name -> dispersion value
    explained_variance_ratio: float
    pooled_mean: np.ndarray
    basis: np.ndarray  # (d_in, k), orthonormal columns

    def __post_init__(self):
        for name, value in self.sigma.items():
            if value < 0:
                raise ValidationError(f"sigma[{name}] must be >= 0, got {value}")
        if not 0.0 <= self.explained_variance_ratio <= 1.0 + 1e-12:
            raise ValidationError(
                f"explained_variance_ratio out of [0, 1]: {self.explained_variance_ratio}"
            )


@dataclass(frozen=True)
class DispersionReport:
    k: int
    layers: tuple


def dispersion(layer_weights: Sequence[Mapping[str, np.ndarray]], k: int) -> DispersionReport:
    """Per-layer, per-projection row dispersion over the top-``k`` principal components.

    ``layer_weights`` is one mapping per layer with keys "Q", "K", "V"; all
    matrices of a layer must share the column count ``d_in`` and ``k`` must
    not exceed it.

    Two distinct normalizations are at work: the pooled sample covariance
    uses ``1/(m - 1)`` over the pooled row count, while the reported
    dispersion is the plain ``1/d_out`` average of squared projected row
    norms within one projection type.
    """
    if len(layer_weights) == 0:
        raise ValidationError("dispersion requires at least one layer")
    reports = []
    for idx, weights in enumerate(layer_weights, start=1):
        mats = {}
        for name in PROJECTIONS:
            if name not in weights:
                raise ValidationError(f"layer {idx} is missing projection {name!r}")
            mats[name] = matrix(weights[name])
        d_in = mats["Q"].shape[1]
        for name in PROJECTIONS:
            if mats[name].shape[1] != d_in:
                raise ValidationError(
                    f"layer {idx}: projection {name} has {mats[name].shape[1]} "
                    f"columns, expected {d_in}"
                )
        if not is_integer(k) or not 1 <= k <= d_in:
            raise ValidationError(f"k must be in [1, {d_in}], got {k!r}")

        pooled = np.vstack([mats[name] for name in PROJECTIONS])
        mean = pooled.mean(axis=0)
        centered = pooled - mean
        if np.abs(centered).max() == 0.0:
            # all rows identical: dispersion zero, ratio defined as zero
            reports.append(LayerDispersion(
                layer=idx, k=int(k),
                sigma={name: 0.0 for name in PROJECTIONS},
                explained_variance_ratio=0.0,
                pooled_mean=mean,
                basis=np.eye(d_in)[:, : int(k)],
            ))
            continue
        cov = centered.T @ centered / (pooled.shape[0] - 1)
        eig = symmetric_eig(cov)
        basis = eig.eigenvectors[:, : int(k)]
        clipped = np.maximum(eig.eigenvalues, 0.0)
        trace = float(np.sum(clipped))
        ratio = float(np.sum(clipped[: int(k)]) / trace) if trace > 0.0 else 0.0

        sigma = {}
        for name in PROJECTIONS:
            coords = (mats[name] - mean) @ basis
            sigma[name] = float(np.sqrt(np.mean(np.sum(coords * coords, axis=1))))
        reports.append(LayerDispersion(
            layer=idx, k=int(k), sigma=sigma,
            explained_variance_ratio=min(ratio, 1.0),
            pooled_mean=mean, basis=basis,
        ))
    return DispersionReport(k=int(k), layers=tuple(reports))


@dataclass(frozen=True)
class ScalingRow:
    method: str
    n_layers: int
    d: int
    rank_label: str
    params: int


@dataclass(frozen=True)
class ScalingTable:
    rows: tuple


def method_param_count(
    method: str,
    n_layers: int,
    d: int,
    craft_ranks: TuckerRanks,
    lora_rank: int,
    n_projections: int,
) -> int:
    """Exact trainable-parameter count of one method at ``(n_layers, d)``.

    Square ``d x d`` projections are assumed; ``n_projections`` counts the
    adapted projection types for every method so the rows are comparable.
    """
    if method == "full":
        return n_projections * n_layers * d * d
    if method in ("lora", "pissa"):
        return n_projections * n_layers * lora_rank * (d + d)
    if method == "lotr":
        return n_projections * (n_layers * lora_rank * lora_rank + lora_rank * (d + d))
    if method == "craft":
        r1, r2, r3 = craft_ranks.as_tuple()
        return n_projections * (r1 * r1 + r2 * r2 + r3 * r3)
    raise ValidationError(f"unknown method {method!r}")


def param_scaling(
    methods: Sequence[str],
    layer_counts: Sequence[int],
    d: int,
    craft_ranks: TuckerRanks,
    lora_rank: int = 8,
    n_projections: int = 2,
) -> ScalingTable:
    """Closed-form trainable-parameter counts over a grid of layer counts."""
    for m in methods:
        if m not in SCALING_METHODS:
            raise ValidationError(f"method must be one of {SCALING_METHODS}, got {m!r}")
    if not is_integer(d) or d < 1:
        raise ValidationError(f"d must be a positive integer, got {d!r}")
    if not is_integer(lora_rank) or lora_rank < 1:
        raise ValidationError(f"lora_rank must be a positive integer, got {lora_rank!r}")
    if not is_integer(n_projections) or n_projections < 1:
        raise ValidationError(f"n_projections must be positive, got {n_projections!r}")
    rows = []
    for method in methods:
        label = (
            f"({craft_ranks.r1},{craft_ranks.r2},{craft_ranks.r3})"
            if method == "craft"
            else f"r={lora_rank}" if method != "full" else "-"
        )
        for n_layers in layer_counts:
            if not is_integer(n_layers) or n_layers < 1:
                raise ValidationError(f"layer counts must be positive, got {n_layers!r}")
            rows.append(ScalingRow(
                method=method, n_layers=int(n_layers), d=int(d), rank_label=label,
                params=method_param_count(method, int(n_layers), int(d),
                                          craft_ranks, int(lora_rank), int(n_projections)),
            ))
    return ScalingTable(rows=tuple(rows))


@dataclass(frozen=True)
class StorageReport:
    dims: tuple
    ranks: tuple
    n_projections: int
    dense_per_projection: int
    factor_per_projection: int
    dense_total: int
    factor_total: int
    ratio: float
    saves_storage: bool
    # deployment-time accounting only: during training the original tensor is
    # additionally held as a frozen buffer
    training_note: str = "training additionally holds the original tensor as a frozen buffer"


def storage_report(dims, ranks: TuckerRanks, n_projections: int = 2) -> StorageReport:
    """Dense vs. decomposed parameter counts, totalled over projection types."""
    if not is_integer(n_projections) or n_projections < 1:
        raise ValidationError(f"n_projections must be positive, got {n_projections!r}")
    dense, factor = compression_counts(dims, ranks)
    n_p = int(n_projections)
    return StorageReport(
        dims=tuple(int(d) for d in dims),
        ranks=ranks.as_tuple(),
        n_projections=n_p,
        dense_per_projection=dense,
        factor_per_projection=factor,
        dense_total=n_p * dense,
        factor_total=n_p * factor,
        ratio=dense / factor,
        saves_storage=factor < dense,
    )
