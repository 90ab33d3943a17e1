import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import craft
from craft import parallel
from craft.cli import main
from craft.serialization import (
    read_tensor3,
    read_tucker_factors,
    write_matrix,
    write_tensor3,
)
from craft.linalg import OFF_TOL, truncated_svd
from craft.tensor import stack_layers, unfold
from helpers import radius_construction


@pytest.fixture
def tensor_file(tmp_path):
    rng = np.random.default_rng(0)
    path = tmp_path / "w.crft"
    write_tensor3(path, rng.standard_normal((4, 6, 6)))
    return path


def test_decompose_full_rank_prints_tiny_error(tensor_file, tmp_path, capsys):
    out = tmp_path / "f.crft"
    code = main(["decompose", "--input", str(tensor_file),
                 "--ranks", "4,6,6", "--output", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    rel = float([l for l in printed.splitlines()
                 if l.startswith("relative_error=")][0].split("=")[1])
    assert rel <= 1e-10
    assert out.exists()
    read_tucker_factors(out)


def test_decompose_prints_per_mode_convergence_after_existing_keys(tensor_file, tmp_path,
                                                                  capsys):
    assert main(["decompose", "--input", str(tensor_file), "--ranks", "2,3,3",
                 "--output", str(tmp_path / "f.crft")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("wrote ")
    fields = dict(line.split("=", 1) for line in lines[1:])
    assert list(fields) == [
        "dims", "absolute_error", "relative_error", "dense_params", "factor_params",
        "compression_ratio", "mode1_sweeps", "mode1_residual", "mode2_sweeps",
        "mode2_residual", "mode3_sweeps", "mode3_residual"]
    w = read_tensor3(tensor_file)
    for mode, r in enumerate((2, 3, 3), start=1):
        svd = truncated_svd(unfold(w, mode), r)
        assert int(fields[f"mode{mode}_sweeps"]) == svd.sweeps >= 1
        assert float(fields[f"mode{mode}_residual"]) == svd.residual <= OFF_TOL


def test_decompose_accepts_matrix_stack(tmp_path, capsys):
    rng = np.random.default_rng(1)
    mats = [rng.standard_normal((5, 5)) for _ in range(3)]
    paths = []
    for i, m in enumerate(mats):
        p = tmp_path / f"m{i}.crft"
        write_matrix(p, m)
        paths.append(str(p))
    out = tmp_path / "f.crft"
    code = main(["decompose", "--input", *paths, "--ranks", "2,3,3",
                 "--output", str(out)])
    assert code == 0
    f = read_tucker_factors(out)
    assert f.dims == stack_layers(mats).shape


def test_decompose_reconstruct_round_trip_deterministic(tensor_file, tmp_path):
    f1, f2 = tmp_path / "f1.crft", tmp_path / "f2.crft"
    r1, r2 = tmp_path / "r1.crft", tmp_path / "r2.crft"
    assert main(["decompose", "--input", str(tensor_file), "--ranks", "2,3,3",
                 "--output", str(f1)]) == 0
    assert main(["decompose", "--input", str(tensor_file), "--ranks", "2,3,3",
                 "--output", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()
    assert main(["reconstruct", "--input", str(f1), "--output", str(r1)]) == 0
    assert main(["reconstruct", "--input", str(f1), "--output", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()
    read_tensor3(r1)


def test_decompose_rank_violation_exits_3(tensor_file, tmp_path, capsys):
    code = main(["decompose", "--input", str(tensor_file), "--ranks", "9,3,3",
                 "--output", str(tmp_path / "f.crft")])
    assert code == 3
    assert "mode 1" in capsys.readouterr().err


def test_decompose_corrupt_input_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.crft"
    bad.write_bytes(b"garbage data that is long enough")
    code = main(["decompose", "--input", str(bad), "--ranks", "1,1,1",
                 "--output", str(tmp_path / "f.crft")])
    assert code == 2


def test_decompose_bad_ranks_string_exits_2(tensor_file, tmp_path):
    code = main(["decompose", "--input", str(tensor_file), "--ranks", "2,3",
                 "--output", str(tmp_path / "f.crft")])
    assert code == 2


def test_analyze_radius_construction(tmp_path, capsys):
    layers = [radius_construction(seed=s) for s in (0, 1)]
    stacks = {name: stack_layers([layer[name] for layer in layers])
              for name in ("Q", "K", "V")}
    paths = []
    for name in ("Q", "K", "V"):
        p = tmp_path / f"{name.lower()}.crft"
        write_tensor3(p, stacks[name])
        paths.append(str(p))
    report = tmp_path / "disp.txt"
    code = main(["analyze", "--weights", *paths, "--k", "2",
                 "--output", str(report)])
    assert code == 0
    sigma = {}
    for line in report.read_text().splitlines():
        if line.startswith("#"):
            continue
        fields = dict(part.split("=") for part in line.split())
        sigma[(fields["layer"], fields["alpha"])] = float(fields["sigma"])
    for layer in ("1", "2"):
        assert sigma[(layer, "Q")] > sigma[(layer, "K")]
        assert sigma[(layer, "Q")] > sigma[(layer, "V")]


def test_analyze_accepts_matrix_triples(tmp_path):
    mats = radius_construction()
    paths = []
    for name in ("Q", "K", "V"):
        p = tmp_path / f"{name}.crft"
        write_matrix(p, mats[name])
        paths.append(str(p))
    code = main(["analyze", "--weights", *paths, "--k", "2",
                 "--output", str(tmp_path / "d.txt")])
    assert code == 0


def test_analyze_wrong_file_count_exits_2(tmp_path, capsys):
    p = tmp_path / "q.crft"
    write_matrix(p, np.zeros((2, 2)) + 1.0)
    code = main(["analyze", "--weights", str(p), str(p), "--k", "1",
                 "--output", str(tmp_path / "d.txt")])
    assert code == 2


def test_scaling_craft_rows_constant(tmp_path, capsys):
    out = tmp_path / "scale.txt"
    code = main(["scaling", "--d", "1024", "--layers", "12,24,48,72,96",
                 "--out", str(out)])
    assert code == 0
    craft_counts = set()
    lora = {}
    for line in out.read_text().splitlines():
        if line.startswith("#"):
            continue
        fields = dict(part.split("=", 1) for part in line.split())
        if fields["method"] == "craft":
            craft_counts.add(int(fields["params"]))
        if fields["method"] == "lora":
            lora[int(fields["n_layers"])] = int(fields["params"])
    assert craft_counts == {41152}
    assert lora[24] == 2 * lora[12] and lora[96] == 8 * lora[12]


def test_scaling_empty_layer_list(tmp_path):
    out = tmp_path / "scale.txt"
    code = main(["scaling", "--d", "768", "--layers", "", "--out", str(out)])
    assert code == 0
    rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert rows == []


def test_train_toy_pipeline_and_summary(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "seed=3\nr1=2\nr2=4\nr3=4\neta=0.1\nsteps=8\n"
        "train_size=96\neval_size=96\npretrain_steps=120\n"
    )
    out_dir = tmp_path / "out"
    code = main(["train-toy", "--config", str(cfg), "--out-dir", str(out_dir)])
    assert code == 0
    summary = dict(
        line.split("=", 1)
        for line in (out_dir / "summary.txt").read_text().splitlines()
    )
    assert summary["tucker_adaptation_params"] == "72"  # 2 * (4 + 16 + 16)
    assert summary["classifier_head_params"] == "66"    # 32*2 + 2
    assert float(summary["pretrain_eval_acc"]) >= 0.9
    for name in ("adapter_q.crft", "adapter_v.crft", "pretrain_losses.txt",
                 "craft_losses.txt", "baseline_losses.txt"):
        assert (out_dir / name).exists()
    losses = (out_dir / "craft_losses.txt").read_text().splitlines()
    assert len(losses) == 8 and losses[0].startswith("step=0 loss=")


def test_train_toy_builds_each_dataset_once(tmp_path, monkeypatch):
    from craft import cli, toy

    built = []
    real = toy.make_dataset

    def counting(task, cfg, split):
        built.append((task.rule, split))
        return real(task, cfg, split)

    monkeypatch.setattr(toy, "make_dataset", counting)
    monkeypatch.setattr(cli, "make_dataset", counting)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed=3\nr1=2\nr2=4\nr3=4\nsteps=2\ntrain_size=96\neval_size=96\n")
    assert main(["train-toy", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 0
    # pretraining's train and eval sets, then the fine-tuning task's, one call each
    assert sorted(built) == [("majority", "eval"), ("majority", "train"),
                             ("majority_flip", "eval"), ("majority_flip", "train")]


def test_train_toy_epsilon_zero_zero_steps_preserves_metrics(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "seed=3\nr1=2\nr2=4\nr3=4\nepsilon=0\nsteps=0\n"
        "train_size=96\neval_size=96\npretrain_steps=120\n"
    )
    out_dir = tmp_path / "out"
    assert main(["train-toy", "--config", str(cfg), "--out-dir", str(out_dir)]) == 0
    summary = dict(
        line.split("=", 1)
        for line in (out_dir / "summary.txt").read_text().splitlines()
    )
    # adapted metrics equal the pretrained metrics on the flipped task
    assert abs(float(summary["craft_eval_acc"])
               - float(summary["pretrain_acc_on_finetune_task"])) <= 1e-10


@pytest.mark.parametrize("line", [
    "r1=100",               # rank above n_layers (TuckerRanks.validate_for)
    "r2=64",                # rank above d_model (TuckerRanks.validate_for)
    "d_model=7",            # odd model width (ToyConfig)
    "finetune_task=x",      # unknown task rule (SyntheticTask)
])
def test_train_toy_bad_config_exits_2(tmp_path, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    assert main(["train-toy", "--config", str(cfg),
                 "--out-dir", str(tmp_path / "out")]) == 2


def test_svd_convergence_failure_exits_4(tensor_file, tmp_path, monkeypatch):
    from craft import cli
    from craft.errors import ConvergenceError

    def fail(*args, **kwargs):
        raise ConvergenceError("SVD of unfolding failed to converge", 1e-3, mode=2)

    monkeypatch.setattr(cli, "hosvd", fail)
    code = main(["decompose", "--input", str(tensor_file), "--ranks", "2,3,3",
                 "--output", str(tmp_path / "f.crft")])
    assert code == 4


def test_pretrain_failure_exits_5(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("pretrain_steps=1\ntrain_size=32\neval_size=32\n")
    code = main(["train-toy", "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
    assert code == 5


def test_divergence_exits_6(tmp_path):
    # train-toy silences numpy's overflow warnings itself; this suite makes
    # every warning an error, so one escaping would fail the call
    cfg = tmp_path / "run.cfg"
    cfg.write_text("pretrain_eta=1e8\ntrain_size=32\neval_size=32\n")
    code = main(["train-toy", "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
    assert code == 6


OVERFLOW_TOY = ("n_layers=2\nd_model=8\nvocab_size=8\nseq_len=6\ntrain_size=64\n"
                "eval_size=64\npretrain_steps=100\nr1=1\nr2=2\nr3=2\nsteps=30\n")
# 300 training sequences run each step in three chunks, on worker threads
CHUNKED_OVERFLOW_TOY = OVERFLOW_TOY.replace("size=64", "size=300")


OVERFLOWS = pytest.mark.parametrize("lines,toy_lines", [
    # the upstream gradient overflows in the backward
    ("seed=0\neta=1e3\nhead_eta=1e6\n", OVERFLOW_TOY),
    ("seed=2\neta=1e4\n", OVERFLOW_TOY),  # the adapter products in grad_j overflow
    ("seed=0\neta=1e3\nhead_eta=1e6\n", CHUNKED_OVERFLOW_TOY),
    ("seed=2\neta=1e4\n", CHUNKED_OVERFLOW_TOY),
], ids=["upstream", "grad_j", "upstream-chunks", "grad_j-chunks"])
DIVERGED = r"error: fine-tuning diverged: .+ \(step \d+\)\n"


@OVERFLOWS
def test_fine_tuning_overflow_exits_6_with_step(tmp_path, capsys, monkeypatch, lines,
                                                toy_lines):
    # two workers whatever the host; a warning escaping one would fail the call
    monkeypatch.setattr(parallel, "WORKERS", 2)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(lines + toy_lines)
    code = main(["train-toy", "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
    assert code == 6
    assert re.fullmatch(DIVERGED, capsys.readouterr().err)


@OVERFLOWS
def test_fine_tuning_overflow_prints_only_the_error_line(tmp_path, lines, toy_lines):
    """Run as a user runs it, with Python's default warning filters: numpy's
    RuntimeWarnings must not reach stderr ahead of the one error line.  BLAS
    runs one thread per call, so each chunk runs on a worker of its own."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(lines + toy_lines)
    proc = _craft(tmp_path, "train-toy", "--config", str(cfg), "--out-dir", "o",
                  OPENBLAS_NUM_THREADS="1")
    assert proc.returncode == 6
    assert re.fullmatch(DIVERGED, proc.stderr)


@pytest.mark.parametrize("missing", [True, False], ids=["missing-directory", "directory"])
def test_decompose_unwritable_output_exits_2(tensor_file, tmp_path, capsys, missing):
    # a missing parent fails creating the temp file, a directory fails the rename
    out = tmp_path / "missing" / "f.crft" if missing else tmp_path / "taken"
    if not missing:
        out.mkdir()
    code = main(["decompose", "--input", str(tensor_file), "--ranks", "2,3,3",
                 "--output", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert str(out) in err and ".tmp" not in err  # the given path, not the temp file
    assert not list(tmp_path.rglob("*.tmp"))


def test_train_toy_out_dir_that_is_a_file_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("train_size=32\neval_size=32\n")
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(["train-toy", "--config", str(cfg), "--out-dir", str(taken)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not list(tmp_path.rglob("*.tmp"))


# perfbench's TINY train-toy run, which passes pretraining at seed 0
TINY_TOY = ("seed=0\nn_layers=2\nd_model=16\nvocab_size=8\nseq_len=5\ntrain_size=64\n"
            "eval_size=64\nsteps=5\nr1=1\nr2=4\nr3=4\n")


def _craft(cwd, *args, **env):
    """``craft *args`` run in ``cwd`` as a subprocess, ``env`` added to its environment."""
    src = str(Path(craft.__file__).parents[1])
    env = dict(os.environ, **env,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "craft.cli", *args], cwd=cwd, env=env,
                          capture_output=True, text=True)


def _run_with_blas_threads(threads, cwd, *args):
    """stdout and per-file SHA-256 of ``craft *args`` run in ``cwd`` as a subprocess."""
    cwd.mkdir()
    proc = _craft(cwd, *args, OPENBLAS_NUM_THREADS=str(threads))
    proc.check_returncode()
    return proc.stdout, {p.relative_to(cwd).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
                         for p in sorted(cwd.rglob("*")) if p.is_file()}


# eval_size=96 evaluates pretraining in a 64-sequence chunk and a 32-sequence one;
# 300 sequences are three toy chunks, run on one worker per CPU with OpenBLAS
# held at one thread per call while they run
@pytest.mark.parametrize("command,config", [
    ("decompose", None),
    ("train-toy", TINY_TOY),
    ("train-toy", TINY_TOY.replace("eval_size=64", "eval_size=96")),
    ("train-toy", TINY_TOY.replace("size=64", "size=300")),
], ids=["decompose", "train-toy", "train-toy-eval-chunks", "train-toy-worker-chunks"])
def test_outputs_do_not_depend_on_blas_thread_count(tmp_path, command, config):
    if command == "decompose":
        source = tmp_path / "w.crft"
        write_tensor3(source, np.random.default_rng(0).standard_normal((12, 64, 64)))
        args = ["decompose", "--input", str(source), "--ranks", "4,16,16", "--output", "f.crft"]
    else:
        source = tmp_path / "run.cfg"
        source.write_text(config)
        args = ["train-toy", "--config", str(source), "--out-dir", "out"]
    stdout, digests = _run_with_blas_threads(1, tmp_path / "one", *args)
    assert digests
    assert _run_with_blas_threads(2, tmp_path / "two", *args) == (stdout, digests)
