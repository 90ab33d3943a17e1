"""Flat key=value run configuration for the train-toy pipeline.

Lines are ``key=value``; blank lines and lines starting with ``#`` are
ignored.  Unknown keys and out-of-range values are rejected eagerly at parse
time.  ``RunConfig`` builds the toy model config, the two tasks, the Tucker
ranks and an adapter ``InitConfig`` once, so their own validators check the
model, task, rank and initialization constraints; it checks each rank
against its model extent itself.  Every failure is a :class:`ConfigError`
that names the config key.  The full key table lives in docs/FORMATS.md.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field, fields

from .errors import ConfigError, CraftError, check_int, check_real
from .adapter import InitConfig
from .toy import PROJECTIONS, SyntheticTask, ToyConfig
from .tucker import TuckerRanks


@dataclass(frozen=True)
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
    projections: tuple = tuple(PROJECTIONS)
    # built from the fields above in __post_init__; not config keys
    toy: ToyConfig = field(init=False, repr=False, compare=False)
    pretraining: SyntheticTask = field(init=False, repr=False, compare=False)
    finetuning: SyntheticTask = field(init=False, repr=False, compare=False)
    ranks: TuckerRanks = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # ToyConfig comes first, so a bad extent is named before any rank;
        # these types name their fields, and each field is a config key
        try:
            toy = ToyConfig(self.n_layers, self.d_model, self.vocab_size,
                            self.seq_len, self.n_classes, self.seed)
            pretraining = SyntheticTask("majority", self.seed, self.train_size, self.eval_size)
            ranks = TuckerRanks(self.r1, self.r2, self.r3)
            InitConfig(self.epsilon, self.sigma)  # only checked: adapters get their own seeds
        except CraftError as err:
            raise ConfigError(str(err)) from err
        try:
            finetuning = dataclasses.replace(pretraining, rule=self.finetune_task)
        except CraftError as err:
            raise ConfigError(f"finetune_task: {err}") from err
        for key, extent_key in (("r1", "n_layers"), ("r2", "d_model"), ("r3", "d_model")):
            r, extent = getattr(self, key), getattr(self, extent_key)
            if r > extent:
                raise ConfigError(f"{key}={r} exceeds {extent_key}={extent}")
        # the instance is frozen, so the built fields go straight into its dict
        vars(self).update(toy=toy, pretraining=pretraining, finetuning=finetuning, ranks=ranks)
        _validate(self)

    @property
    def effective_head_eta(self) -> float:
        return self.eta if self.head_eta is None else self.head_eta


def _validate(cfg: RunConfig) -> None:
    """The checks no type built in ``RunConfig.__post_init__`` makes."""
    # steps=0 is allowed: it freezes the adaptation for preservation checks
    check_int(cfg.steps, "steps", low=0, error=ConfigError)
    check_int(cfg.pretrain_steps, "pretrain_steps", error=ConfigError)
    for name in ("eta", "pretrain_eta"):
        check_real(getattr(cfg, name), name, error=ConfigError)
    if cfg.head_eta is not None:
        check_real(cfg.head_eta, "head_eta", error=ConfigError)
    if not 0.0 < check_real(cfg.pretrain_target, "pretrain_target", error=ConfigError) <= 1.0:
        raise ConfigError(f"pretrain_target must be in (0, 1], got {cfg.pretrain_target!r}")
    if cfg.vocab_size % 2 != 0:
        raise ConfigError(f"vocab_size must be even for the majority task, got {cfg.vocab_size}")
    if len(cfg.projections) == 0 or any(p not in PROJECTIONS for p in cfg.projections):
        raise ConfigError(f"projections must be a nonempty subset of {','.join(PROJECTIONS)}, "
                          f"got {cfg.projections!r}")
    if len(set(cfg.projections)) != len(cfg.projections):
        raise ConfigError(f"projections contains duplicates: {cfg.projections!r}")


# config key -> its field annotation ("int", "float", "float | None", "str", "tuple")
_FIELD_KINDS = {f.name: f.type for f in fields(RunConfig) if f.init}


def _parse_value(name: str, raw: str, kind: str):
    if kind == "tuple":
        return tuple(p.strip() for p in raw.split(",") if p.strip())
    if kind == "str":
        return raw
    number = int if kind == "int" else float
    try:
        return number(raw)
    except ValueError as err:
        raise ConfigError(f"cannot parse {name}={raw!r} as {number.__name__}") from err


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
        if key not in _FIELD_KINDS:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in overrides:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        overrides[key] = _parse_value(key, raw.strip(), _FIELD_KINDS[key])
    return RunConfig(**overrides)


def load_run_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    return parse_run_config(text, source=str(path))
