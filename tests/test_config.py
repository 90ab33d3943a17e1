import dataclasses

import numpy as np
import pytest

from craft.config import RunConfig, load_run_config, parse_run_config
from craft.errors import ConfigError
from craft.toy import SyntheticTask, ToyConfig
from craft.tucker import TuckerRanks


def test_defaults_are_valid():
    cfg = RunConfig()
    assert cfg.ranks.as_tuple() == (4, 8, 8)
    assert cfg.projections == ("Q", "V")
    assert cfg.effective_head_eta == cfg.eta


def test_parse_overrides_and_comments():
    text = """
    # comment line
    seed=7
    r1=2

    eta=0.25
    head_eta=0.05
    projections=Q
    finetune_task=majority
    """
    cfg = parse_run_config(text)
    assert cfg.seed == 7
    assert cfg.r1 == 2
    assert cfg.eta == 0.25
    assert cfg.effective_head_eta == 0.05
    assert cfg.projections == ("Q",)
    assert cfg.finetune_task == "majority"


def test_load_run_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed=3\nsteps=10\n")
    cfg = load_run_config(path)
    assert cfg.seed == 3 and cfg.steps == 10


def test_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError):
        load_run_config(tmp_path / "nope.cfg")


@pytest.mark.parametrize("line", [
    "unknown_key=3",
    "r1=zero",
    "eta=not_a_float",
    "just_a_token",
])
def test_malformed_lines_rejected(line):
    with pytest.raises(ConfigError):
        parse_run_config(line)


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_run_config("seed=1\nseed=2\n")


@pytest.mark.parametrize("text", [
    "r1=5",                 # exceeds default n_layers=4
    "r2=64",                # exceeds default d_model=32
    "r3=0",
    "d_model=7",
    "vocab_size=15",
    "epsilon=-0.1",
    "sigma=-1",
    "eta=inf",
    "steps=-1",
    "pretrain_target=0",
    "pretrain_target=1.5",
    "projections=",
    "projections=Q,K",
    "projections=Q,Q",
    "finetune_task=unknown",
    "n_layers=0",
    "seq_len=0",
    "n_classes=0",
    "n_classes=1",              # make_dataset labels samples 0/1
    "train_size=0",
    "eval_size=0",
])
def test_range_violations_rejected(text):
    with pytest.raises(ConfigError):
        parse_run_config(text)


@pytest.mark.parametrize("field,value", [
    ("steps", True), ("steps", 3.0), ("seed", False), ("seed", 1.0),
    ("n_layers", True), ("r1", 2.0), ("train_size", 64.0),
])
def test_integer_fields_reject_bools_and_floats(field, value):
    with pytest.raises(ConfigError):
        RunConfig(**{field: value})


@pytest.mark.parametrize("field,value", [
    ("epsilon", None), ("epsilon", True), ("epsilon", float("nan")),
    ("sigma", "x"), ("sigma", float("inf")),
    ("eta", None), ("eta", True), ("eta", "0.1"),
    ("head_eta", float("nan")), ("head_eta", False),
    ("pretrain_eta", None), ("pretrain_target", None), ("pretrain_target", True),
])
def test_real_fields_reject_non_reals(field, value):
    with pytest.raises(ConfigError, match=field):
        RunConfig(**{field: value})


def test_real_fields_accept_integers_and_numpy_reals():
    cfg = RunConfig(epsilon=0, sigma=np.float32(0.5), eta=np.float64(0.2), head_eta=None)
    assert (cfg.epsilon, cfg.sigma, cfg.effective_head_eta) == (0, 0.5, 0.2)


@pytest.mark.parametrize("text,message", [
    ("finetune_task=x", r"^finetune_task: .*'x'"),
    ("r1=100", r"^r1=100 exceeds n_layers=4$"),
    ("r2=64", r"^r2=64 exceeds d_model=32$"),
    ("d_model=16\nr3=17", r"^r3=17 exceeds d_model=16$"),
    ("train_size=0", r"^train_size "),
    ("n_classes=1", r"^n_classes "),
])
def test_delegated_errors_name_the_config_key(text, message):
    with pytest.raises(ConfigError, match=message):
        parse_run_config(text)


def test_integer_fields_accept_numpy_integers():
    cfg = RunConfig(steps=np.int64(5), seed=np.int32(3), r1=np.int64(2))
    assert (cfg.steps, cfg.seed, cfg.r1) == (5, 3, 2)


def test_cross_field_rank_checks_follow_overrides():
    cfg = parse_run_config("n_layers=8\nr1=8\n")
    assert cfg.r1 == 8
    with pytest.raises(ConfigError):
        parse_run_config("n_layers=2\nr1=3\n")


_ALL_KEYS_TEXT = """
r1=4
r2=8
r3=8
epsilon=0.01
sigma=0.02
seed=0
eta=0.1
head_eta=0.1
steps=120
n_layers=4
d_model=32
vocab_size=16
seq_len=12
n_classes=2
train_size=256
eval_size=512
pretrain_eta=0.05
pretrain_steps=400
pretrain_target=0.9
finetune_task=majority_flip
projections=Q,V
"""


def test_config_accepts_exactly_the_input_keys():
    assert len(_ALL_KEYS_TEXT.split()) == 21
    assert parse_run_config(_ALL_KEYS_TEXT) == RunConfig(head_eta=0.1)
    # the objects RunConfig builds from its fields are not keys
    for derived in ("toy", "pretraining", "finetuning", "ranks"):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_run_config(f"{derived}=1")


def test_model_extent_is_reported_before_ranks():
    with pytest.raises(ConfigError, match="n_layers"):
        parse_run_config("n_layers=0\nr1=1\n")


def test_built_objects_follow_the_fields():
    cfg = parse_run_config("seed=5\nn_layers=3\nr1=3\ntrain_size=64\nfinetune_task=majority\n")
    assert cfg.toy == ToyConfig(n_layers=3, seed=5)
    assert cfg.pretraining == SyntheticTask("majority", 5, 64, 512)
    assert cfg.finetuning == SyntheticTask("majority", 5, 64, 512)
    assert cfg.ranks == TuckerRanks(3, 8, 8)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.seed = 1
