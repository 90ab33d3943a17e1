"""Flat key=value run configuration for the train-toy pipeline.

Lines are ``key=value``; blank lines and lines starting with ``#`` are
ignored.  Unknown keys and out-of-range values are rejected eagerly at parse
time, including cross-field constraints (ranks against the toy-model
extents).  The full key table lives in docs/FORMATS.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import ConfigError, is_integer
from .toy import TASK_RULES
from .tucker import TuckerRanks


@dataclass
class RunConfig:
    r1: int = 4
    r2: int = 8
    r3: int = 8
    epsilon: float = 0.01
    sigma: float = 0.02
    seed: int = 0
    eta: float = 0.1
    head_eta: float | None = None
    steps: int = 120
    n_layers: int = 4
    d_model: int = 32
    vocab_size: int = 16
    seq_len: int = 12
    n_classes: int = 2
    train_size: int = 256
    eval_size: int = 512
    pretrain_eta: float = 0.05
    pretrain_steps: int = 400
    pretrain_target: float = 0.9
    finetune_task: str = "majority_flip"
    projections: tuple = ("Q", "V")

    def __post_init__(self):
        _validate(self)

    @property
    def ranks(self) -> TuckerRanks:
        return TuckerRanks(self.r1, self.r2, self.r3)

    @property
    def effective_head_eta(self) -> float:
        return self.eta if self.head_eta is None else self.head_eta


_POSITIVE_INTS = (
    "r1", "r2", "r3", "n_layers", "d_model", "vocab_size",
    "seq_len", "n_classes", "train_size", "eval_size", "pretrain_steps",
)
_NONNEGATIVE_FLOATS = ("epsilon", "sigma")
_FINITE_FLOATS = ("eta", "pretrain_eta")


def _validate(cfg: RunConfig) -> None:
    for name in _POSITIVE_INTS:
        v = getattr(cfg, name)
        if not is_integer(v) or v < 1:
            raise ConfigError(f"{name} must be a positive integer, got {v!r}")
    # steps=0 is allowed: it freezes the adaptation for preservation checks
    for name in ("seed", "steps"):
        v = getattr(cfg, name)
        if not is_integer(v) or v < 0:
            raise ConfigError(f"{name} must be a nonnegative integer, got {v!r}")
    for name in _NONNEGATIVE_FLOATS:
        v = getattr(cfg, name)
        if not math.isfinite(v) or v < 0:
            raise ConfigError(f"{name} must be a finite value >= 0, got {v!r}")
    for name in _FINITE_FLOATS:
        v = getattr(cfg, name)
        if not math.isfinite(v):
            raise ConfigError(f"{name} must be finite, got {v!r}")
    if cfg.head_eta is not None and not math.isfinite(cfg.head_eta):
        raise ConfigError(f"head_eta must be finite, got {cfg.head_eta!r}")
    if not 0.0 < cfg.pretrain_target <= 1.0:
        raise ConfigError(f"pretrain_target must be in (0, 1], got {cfg.pretrain_target!r}")
    if cfg.d_model % 2 != 0:
        raise ConfigError(f"d_model must be even, got {cfg.d_model}")
    if cfg.vocab_size % 2 != 0:
        raise ConfigError(f"vocab_size must be even for the majority task, got {cfg.vocab_size}")
    if cfg.finetune_task not in TASK_RULES:
        raise ConfigError(f"finetune_task must be one of {TASK_RULES}, got {cfg.finetune_task!r}")
    if len(cfg.projections) == 0 or any(p not in ("Q", "V") for p in cfg.projections):
        raise ConfigError(f"projections must be a nonempty subset of Q,V, got {cfg.projections!r}")
    if len(set(cfg.projections)) != len(cfg.projections):
        raise ConfigError(f"projections contains duplicates: {cfg.projections!r}")
    # cross-field: ranks must be valid for the stacked (n_layers, d, d) tensors
    if cfg.r1 > cfg.n_layers:
        raise ConfigError(f"r1={cfg.r1} exceeds n_layers={cfg.n_layers}")
    if cfg.r2 > cfg.d_model:
        raise ConfigError(f"r2={cfg.r2} exceeds d_model={cfg.d_model}")
    if cfg.r3 > cfg.d_model:
        raise ConfigError(f"r3={cfg.r3} exceeds d_model={cfg.d_model}")


def _parse_value(name: str, raw: str, kind):
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
    except ValueError as err:
        raise ConfigError(f"cannot parse {name}={raw!r} as {kind}") from err
    return raw


_FIELD_KINDS = {}
for f in fields(RunConfig):
    if f.name == "projections":
        _FIELD_KINDS[f.name] = "projections"
    elif f.name == "finetune_task":
        _FIELD_KINDS[f.name] = "str"
    elif f.name in _POSITIVE_INTS or f.name in ("seed", "steps"):
        _FIELD_KINDS[f.name] = "int"
    else:
        _FIELD_KINDS[f.name] = "float"


def parse_run_config(text: str, source: str = "<config>") -> RunConfig:
    """Parse and validate a key=value config document."""
    overrides = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{lineno}: expected key=value, got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _FIELD_KINDS:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in overrides:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        if key == "projections":
            overrides[key] = tuple(p.strip() for p in raw.split(",") if p.strip())
        elif _FIELD_KINDS[key] == "str":
            overrides[key] = raw
        else:
            overrides[key] = _parse_value(key, raw, _FIELD_KINDS[key])
    return RunConfig(**overrides)


def load_run_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    return parse_run_config(text, source=str(path))
