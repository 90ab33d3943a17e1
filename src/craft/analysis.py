"""Analytical instruments: row-dispersion PCA and every parameter count.

Trainable counts per method, their scaling over layer counts, and dense vs.
decomposed storage are all counted here; the ``J`` matrices are counted
only by :func:`craft.adapter.trainable_param_count`.  Results are plain
tuples of frozen rows.

Dispersion pools the raw rows of the Q, K and V matrices of one layer (no
per-row variance normalization), centers them on the pooled mean, projects
onto the leading principal components of the pooled sample, and reports the
root-mean-square projected norm per projection type.  The principal
directions are the left singular vectors of the transposed centered rows, so
no covariance matrix is formed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .adapter import trainable_param_count
from .errors import ValidationError, check_int
from .linalg import truncated_svd
from .tensor import check_array, check_dims
from .tucker import TuckerRanks

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


def dispersion(layer_weights: Sequence[Mapping[str, np.ndarray]],
               k: int) -> tuple[LayerDispersion, ...]:
    """Per-layer, per-projection row dispersion over the top-``k`` principal components.

    ``layer_weights`` is one mapping per layer with keys "Q", "K", "V"; all
    matrices of a layer must share the column count ``d_in`` and ``k`` must
    not exceed it.

    The explained variance ratio is the share of the pooled sample variance
    captured by the top ``k`` components: the sum of the ``k`` largest
    squared singular values of the centered rows over their squared
    Frobenius norm (the sample covariance's ``1/(m - 1)`` cancels).  The
    reported dispersion is the plain ``1/d_out`` average of squared
    projected row norms within one projection type.
    """
    if len(layer_weights) == 0:
        raise ValidationError("dispersion requires at least one layer")
    reports = []
    for idx, weights in enumerate(layer_weights, start=1):
        mats, d_in = {}, None
        for name in PROJECTIONS:
            if name not in weights:
                raise ValidationError(f"layer {idx} is missing projection {name!r}")
            mats[name] = check_array(weights[name], f"layer {idx} projection {name}",
                                     (None, d_in))
            d_in = mats[name].shape[1]
        k = check_int(k, "k", 1, d_in)

        pooled = np.vstack([mats[name] for name in PROJECTIONS])
        mean = pooled.mean(axis=0)
        centered = pooled - mean
        svd = truncated_svd(centered.T, k)
        basis = svd.left_vectors
        total = float(np.sum(centered * centered))
        captured = float(np.sum(svd.singular_values ** 2))
        ratio = captured / total if total > 0.0 else 0.0

        sigma = {}
        for name in PROJECTIONS:
            coords = (mats[name] - mean) @ basis
            sigma[name] = float(np.sqrt(np.mean(np.sum(coords * coords, axis=1))))
        reports.append(LayerDispersion(
            layer=idx, k=k, sigma=sigma,
            explained_variance_ratio=min(ratio, 1.0),
            pooled_mean=mean, basis=basis,
        ))
    return tuple(reports)


@dataclass(frozen=True)
class ScalingRow:
    method: str
    n_layers: int
    d: int
    rank_label: str
    params: int


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
    n_layers = check_int(n_layers, "n_layers")
    d = check_int(d, "d")
    lora_rank = check_int(lora_rank, "lora_rank")
    n_projections = check_int(n_projections, "n_projections")
    if method == "full":
        return n_projections * n_layers * d * d
    if method in ("lora", "pissa"):
        return n_projections * n_layers * lora_rank * (d + d)
    if method == "lotr":
        return n_projections * (n_layers * lora_rank * lora_rank + lora_rank * (d + d))
    if method == "craft":
        return trainable_param_count(craft_ranks, n_projections)
    raise ValidationError(f"unknown method {method!r}")


def param_scaling(
    methods: Sequence[str],
    layer_counts: Sequence[int],
    d: int,
    craft_ranks: TuckerRanks,
    lora_rank: int = 8,
    n_projections: int = 2,
) -> tuple[ScalingRow, ...]:
    """Closed-form trainable-parameter counts over a grid of layer counts."""
    for m in methods:
        if m not in SCALING_METHODS:
            raise ValidationError(f"method must be one of {SCALING_METHODS}, got {m!r}")
    d = check_int(d, "d")
    lora_rank = check_int(lora_rank, "lora_rank")
    n_projections = check_int(n_projections, "n_projections")
    rows = []
    for method in methods:
        label = (
            f"({craft_ranks.r1},{craft_ranks.r2},{craft_ranks.r3})"
            if method == "craft"
            else f"r={lora_rank}" if method != "full" else "-"
        )
        for n_layers in layer_counts:
            n_layers = check_int(n_layers, "layer_counts")
            rows.append(ScalingRow(
                method=method, n_layers=n_layers, d=d, rank_label=label,
                params=method_param_count(method, n_layers, d, craft_ranks,
                                          lora_rank, n_projections),
            ))
    return tuple(rows)


def compression_counts(dims, ranks: TuckerRanks) -> tuple[int, int]:
    """Scalar counts for dense storage vs. the decomposition-plus-adaptation bundle.

    The factor side counts the three factor matrices, the core tensor, and
    the three square adaptation matrices that ride along with a deployed
    decomposition.  A deployment-time figure: training also holds the
    original tensor.
    """
    dims = check_dims(dims)
    ranks.validate_for(dims)
    r1, r2, r3 = ranks.as_tuple()
    dense = dims[0] * dims[1] * dims[2]
    factor = (dims[0] * r1 + dims[1] * r2 + dims[2] * r3 + r1 * r2 * r3
              + trainable_param_count(ranks, 1))
    return dense, factor
