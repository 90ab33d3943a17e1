"""Cross-layer Tucker adaptation toolkit.

Stack per-layer attention weight matrices into third-order tensors,
decompose them once via HOSVD, freeze every factor, and adapt through three
small square matrices per tensor whose parameter count depends only on the
chosen multilinear ranks.
"""

from .errors import (
    ConfigError,
    ConvergenceError,
    CraftError,
    DivergenceError,
    FormatError,
    PretrainError,
    RankError,
    ValidationError,
)
from .tensor import check_array, fold, frobenius_norm, mode_n_product, stack_layers, unfold
from .linalg import TruncatedSVD, truncated_svd
from .tucker import (
    TuckerFactors,
    TuckerRanks,
    approximation_error,
    hosvd,
    reconstruct,
)
from .adapter import (
    CraftAdapter,
    InitConfig,
    adapted_tensor,
    extract_layer,
    grad_j,
    init_adapter,
    sgd_step,
    trainable_param_count,
)
from .analysis import compression_counts, dispersion, param_scaling
from .toy import (
    SyntheticTask,
    ToyConfig,
    ToyModel,
    build_adapters,
    craft_finetune,
    evaluate,
    forward,
    head_only_finetune,
    make_dataset,
    pretrain,
)
from .config import RunConfig, load_run_config, parse_run_config

__version__ = "0.1.0"

__all__ = [
    "CraftError", "ValidationError", "RankError", "ConvergenceError",
    "FormatError", "ConfigError", "PretrainError", "DivergenceError",
    "check_array", "stack_layers", "unfold", "fold", "mode_n_product",
    "frobenius_norm",
    "TruncatedSVD", "truncated_svd",
    "TuckerRanks", "TuckerFactors", "hosvd", "reconstruct",
    "approximation_error", "compression_counts",
    "InitConfig", "CraftAdapter", "init_adapter", "adapted_tensor",
    "extract_layer", "grad_j", "sgd_step", "trainable_param_count",
    "dispersion", "param_scaling",
    "ToyConfig", "ToyModel", "SyntheticTask", "forward", "pretrain",
    "build_adapters", "craft_finetune", "head_only_finetune", "evaluate",
    "make_dataset",
    "RunConfig", "parse_run_config", "load_run_config",
    "__version__",
]
