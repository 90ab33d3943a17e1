import numpy as np
import pytest

from craft.config import RunConfig, load_run_config, parse_run_config
from craft.errors import ConfigError


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


def test_integer_fields_accept_numpy_integers():
    cfg = RunConfig(steps=np.int64(5), seed=np.int32(3), r1=np.int64(2))
    assert (cfg.steps, cfg.seed, cfg.r1) == (5, 3, 2)


def test_cross_field_rank_checks_follow_overrides():
    cfg = parse_run_config("n_layers=8\nr1=8\n")
    assert cfg.r1 == 8
    with pytest.raises(ConfigError):
        parse_run_config("n_layers=2\nr1=3\n")
