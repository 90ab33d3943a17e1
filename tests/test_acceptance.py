"""Acceptance suite: every release criterion at its stated tolerance.

Each criterion is one test that prints a single PASS/FAIL line (run with
``pytest -s`` to see the lines, or execute this file directly).  The toy
training criterion uses the locked seed and budget recorded during bring-up.
"""

import dataclasses
import filecmp
import time

import numpy as np
import pytest

from craft.adapter import (
    InitConfig,
    adapted_tensor,
    grad_j,
    init_adapter,
    trainable_param_count,
)
from craft.analysis import compression_counts, dispersion, param_scaling
from craft.cli import main
from craft.errors import FormatError
from craft.serialization import (
    read_craft_adapter,
    read_file,
    read_matrix,
    read_tensor3,
    read_tucker_factors,
    write_craft_adapter,
    write_matrix,
    write_tensor3,
    write_tucker_factors,
)
from craft.tensor import frobenius_norm, unfold
from craft.toy import (
    SyntheticTask,
    ToyConfig,
    build_adapters,
    craft_finetune,
    evaluate,
    forward,
    head_only_finetune,
    make_dataset,
    pretrain,
)
from craft.tucker import TuckerRanks, approximation_error, hosvd
from helpers import radius_construction

# locked-seed configuration recorded during bring-up: pretrain stops just
# past 0.9, leaving headroom the adapters close faster than the head alone
TOY_SEED = 0
TOY_RANKS = (4, 8, 8)
PRETRAIN = dict(eta=0.05, max_steps=400, target_acc=0.9)
FINETUNE = dict(eta=0.1, steps=120)
EVAL_SIZE = 512


def _report(number, name, passed):
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance] criterion {number} ({name}): {status}", flush=True)
    assert passed, f"criterion {number} ({name}) failed"


def test_criterion_1_preservation_at_identity():
    rng = np.random.default_rng(11)
    worst = 0.0
    for trial in range(50):
        dims = (int(rng.integers(1, 13)), int(rng.integers(1, 65)),
                int(rng.integers(1, 65)))
        if trial < 5:
            dims = (12, 64, 64)
        w = rng.standard_normal(dims)
        if trial % 2 == 0:
            ranks = TuckerRanks(1, 1, 1)
        else:
            ranks = TuckerRanks(*(int(rng.integers(1, d + 1)) for d in dims))
        a = init_adapter(w, ranks, InitConfig(epsilon=0.0, seed=trial))
        rel = frobenius_norm(adapted_tensor(a) - w) / frobenius_norm(w)
        worst = max(worst, rel)
    _report(1, "identity adaptation preserves weights", worst <= 1e-12)


def test_criterion_2_hosvd_correctness():
    rng = np.random.default_rng(22)
    ortho_ok = True
    full_rank_ok = True
    bound_ok = True
    for trial in range(50):
        dims = tuple(int(d) for d in rng.integers(2, 11, size=3))
        w = rng.standard_normal(dims)

        full = hosvd(w, TuckerRanks(*dims))
        for u in full.factor_matrices:
            gram = u.T @ u
            ortho_ok &= np.sqrt(np.sum((gram - np.eye(u.shape[1])) ** 2)) <= 1e-10
        _, rel = approximation_error(w, full)
        full_rank_ok &= rel <= 1e-10

        ranks = TuckerRanks(*(int(rng.integers(1, d + 1)) for d in dims))
        if ranks.as_tuple() == dims:
            ranks = TuckerRanks(1, ranks.r2, ranks.r3)
        trunc = hosvd(w, ranks)
        for u in trunc.factor_matrices:
            gram = u.T @ u
            ortho_ok &= np.sqrt(np.sum((gram - np.eye(u.shape[1])) ** 2)) <= 1e-10
        absolute, _ = approximation_error(w, trunc)
        bound = sum(
            float(np.sum(np.linalg.svd(unfold(w, mode), compute_uv=False)[r:] ** 2))
            for mode, r in zip((1, 2, 3), ranks.as_tuple())
        )
        bound_ok &= absolute ** 2 <= bound * (1.0 + 1e-8) + 1e-12
    _report(2, "hosvd orthonormality, exactness and truncation bound",
            ortho_ok and full_rank_ok and bound_ok)


def _adapter_fd_relative_error(a, upstream, h=1e-5):
    grads = grad_j(a, upstream)
    worst = 0.0
    for n in (1, 2, 3):
        j = a.j_matrices[n - 1]
        numeric = np.zeros_like(j)
        for i in range(j.shape[0]):
            for k in range(j.shape[1]):
                plus = np.array(j)
                plus[i, k] += h
                minus = np.array(j)
                minus[i, k] -= h
                f_plus = np.sum(upstream * adapted_tensor(
                    dataclasses.replace(a, **{f"j{n}": plus})))
                f_minus = np.sum(upstream * adapted_tensor(
                    dataclasses.replace(a, **{f"j{n}": minus})))
                numeric[i, k] = (f_plus - f_minus) / (2 * h)
        scale = np.abs(numeric).max()
        rel = np.abs(grads[n - 1] - numeric) / (np.abs(numeric) + 1e-8 * scale)
        worst = max(worst, float(rel.max()))
    return worst


def test_criterion_3_gradient_fidelity():
    rng = np.random.default_rng(33)
    adapter_worst = 0.0
    for trial in range(20):
        w = rng.standard_normal((3, 6, 6))
        a = init_adapter(w, TuckerRanks(2, 3, 3), InitConfig(seed=trial))
        upstream = rng.standard_normal((3, 6, 6))
        adapter_worst = max(adapter_worst, _adapter_fd_relative_error(a, upstream))

    from craft.toy import ToyModel, loss_and_grads

    model_worst = 0.0
    h = 1e-5
    for trial in range(5):
        cfg = ToyConfig(n_layers=2, d_model=8, vocab_size=6, seq_len=5, seed=trial)
        task = SyntheticTask(seed=trial, train_size=16, eval_size=16)
        model = ToyModel(cfg, np.random.default_rng(trial))
        model.head_w = 0.3 * np.random.default_rng(trial + 100).standard_normal(
            model.head_w.shape)
        adapters = build_adapters(model, TuckerRanks(2, 3, 3))
        routed = model.clone()
        routed.adapters = dict(adapters)
        tokens, labels = make_dataset(task, cfg, "train")
        _, grads = loss_and_grads(routed, tokens, labels)
        for name, key in (("Q", "wq"), ("V", "wv")):
            analytic = grad_j(routed.adapters[name], grads[key])
            for n in (1, 2, 3):
                j = routed.adapters[name].j_matrices[n - 1]
                numeric = np.zeros_like(j)
                for i in range(j.shape[0]):
                    for k in range(j.shape[1]):
                        vals = []
                        for sign in (+1, -1):
                            jj = np.array(j)
                            jj[i, k] += sign * h
                            probe = model.clone()
                            probe.adapters = dict(routed.adapters)
                            probe.adapters[name] = dataclasses.replace(
                                routed.adapters[name], **{f"j{n}": jj})
                            loss, _ = loss_and_grads(probe, tokens, labels)
                            vals.append(loss)
                        numeric[i, k] = (vals[0] - vals[1]) / (2 * h)
                scale = max(np.abs(numeric).max(), 1e-12)
                rel = np.abs(analytic[n - 1] - numeric) / (np.abs(numeric)
                                                           + 1e-6 * scale)
                model_worst = max(model_worst, float(rel.max()))
    _report(3, "analytic gradients match finite differences",
            adapter_worst <= 1e-5 and model_worst <= 1e-4)


def test_criterion_4_parameter_counts():
    exact = trainable_param_count(TuckerRanks(24, 100, 100), 2) == 41_152
    ranks = TuckerRanks(24, 100, 100)
    layer_grid = [12, 24, 48, 72, 96]
    craft_constant = True
    lora_linear = True
    for d in (768, 1024, 4096):
        table = param_scaling(["craft", "lora"], layer_grid, d, ranks, lora_rank=8)
        craft_rows = {r.n_layers: r.params for r in table if r.method == "craft"}
        lora_rows = {r.n_layers: r.params for r in table if r.method == "lora"}
        craft_constant &= set(craft_rows.values()) == {41_152}
        slope = lora_rows[12] // 12
        lora_linear &= all(lora_rows[n] == slope * n for n in layer_grid)
    _report(4, "trainable parameter counts", exact and craft_constant and lora_linear)


def test_criterion_5_toy_adaptation_win():
    start = time.time()
    cfg = ToyConfig(seed=TOY_SEED)
    task_a = SyntheticTask(seed=TOY_SEED, eval_size=EVAL_SIZE)
    model = pretrain(cfg, task_a, **PRETRAIN)
    pretrain_ok = model.pretrain_eval_acc >= 0.9

    task_b = task_a.flipped()
    train_b = make_dataset(task_b, cfg, "train")
    eval_tokens, eval_labels = make_dataset(task_b, cfg, "eval")
    ranks = TuckerRanks(*TOY_RANKS)

    # zero-epsilon, zero-step adaptation must reproduce the pretrained metrics
    frozen_adapters = build_adapters(model, ranks, epsilon=0.0)
    untouched, _ = craft_finetune(model, frozen_adapters, *train_b, eta=0.0, steps=0)
    logit_diff = np.abs(forward(untouched, eval_tokens)
                        - forward(model, eval_tokens)).max()
    preserve_ok = (logit_diff <= 1e-10
                   and evaluate(untouched, eval_tokens, eval_labels)
                   == evaluate(model, eval_tokens, eval_labels))

    adapters = build_adapters(model, ranks)
    tuned, _ = craft_finetune(model, adapters, *train_b, **FINETUNE)
    baseline, _ = head_only_finetune(model, *train_b, eta=FINETUNE["eta"],
                                     steps=FINETUNE["steps"])
    craft_acc = evaluate(tuned, eval_tokens, eval_labels)
    baseline_acc = evaluate(baseline, eval_tokens, eval_labels)
    win_ok = craft_acc >= 0.8 and craft_acc > baseline_acc
    runtime_ok = time.time() - start < 120.0
    print(f"[acceptance]   pretrain={model.pretrain_eval_acc:.4f} "
          f"craft={craft_acc:.4f} head-only={baseline_acc:.4f} "
          f"({time.time() - start:.0f}s)", flush=True)
    _report(5, "toy adaptation beats the frozen head-only baseline",
            pretrain_ok and preserve_ok and win_ok and runtime_ok)


def test_criterion_6_dispersion_instrument():
    rng = np.random.default_rng(66)
    oracle_ok = True
    for _ in range(10):
        mats = {name: rng.standard_normal((7, 6)) for name in ("Q", "K", "V")}
        layer = dispersion([mats], k=3)[0]
        for name in ("Q", "K", "V"):
            total = 0.0
            for row in mats[name]:
                coords = layer.basis.T @ (row - layer.pooled_mean)
                total += float(coords @ coords)
            oracle = np.sqrt(total / mats[name].shape[0])
            oracle_ok &= abs(layer.sigma[name] - oracle) <= 1e-10 * max(oracle, 1.0)

    layer = dispersion([radius_construction()], k=2)[0]
    ordering_ok = (layer.sigma["Q"] > layer.sigma["K"]
                   and layer.sigma["Q"] > layer.sigma["V"])
    _report(6, "dispersion matches its per-row oracle and ordering",
            oracle_ok and ordering_ok)


def test_criterion_7_storage_accounting():
    dense, factor = compression_counts((24, 1024, 1024), TuckerRanks(24, 100, 100))
    itemized = (24 * 24 + 1024 * 100 + 1024 * 100 + 24 * 100 * 100
                + (24 * 24 + 100 * 100 + 100 * 100))
    _report(7, "storage accounting at the reference configuration",
            dense == 25_165_824 and factor == itemized == 465_952
            and 53.0 <= dense / factor <= 55.0)


def test_criterion_8_determinism_and_serialization(tmp_path):
    rng = np.random.default_rng(88)

    # bitwise round trips for every payload kind
    t = rng.standard_normal((3, 4, 5))
    m = rng.standard_normal((6, 4))
    f = hosvd(t, TuckerRanks(2, 2, 3))
    a = init_adapter(t, TuckerRanks(2, 2, 3), InitConfig(seed=8))
    write_tensor3(tmp_path / "t.crft", t)
    write_matrix(tmp_path / "m.crft", m)
    write_tucker_factors(tmp_path / "f.crft", f)
    write_craft_adapter(tmp_path / "a.crft", a)
    round_trip_ok = (
        np.array_equal(read_tensor3(tmp_path / "t.crft"), t)
        and np.array_equal(read_matrix(tmp_path / "m.crft"), m)
        and np.array_equal(read_tucker_factors(tmp_path / "f.crft").core, f.core)
        and np.array_equal(read_craft_adapter(tmp_path / "a.crft").j1, a.j1)
    )

    corrupted = bytearray((tmp_path / "a.crft").read_bytes())
    corrupted[len(corrupted) // 2] ^= 0x10
    (tmp_path / "bad.crft").write_bytes(bytes(corrupted))
    try:
        read_file(tmp_path / "bad.crft")
        corruption_ok = False
    except FormatError:
        corruption_ok = True

    # identical CLI invocations produce byte-identical trees
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "seed=3\nr1=2\nr2=4\nr3=4\neta=0.1\nsteps=8\n"
        "train_size=96\neval_size=96\npretrain_steps=120\n"
    )
    import contextlib
    import io

    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["train-toy", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "run1")]) == 0
        assert main(["train-toy", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "run2")]) == 0
    comparison = filecmp.dircmp(tmp_path / "run1", tmp_path / "run2")
    cli_ok = not comparison.diff_files and not comparison.left_only \
        and not comparison.right_only
    match, mismatch, errors = filecmp.cmpfiles(
        tmp_path / "run1", tmp_path / "run2",
        comparison.common_files, shallow=False)
    cli_ok &= not mismatch and not errors

    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["decompose", "--input", str(tmp_path / "t.crft"),
                     "--ranks", "2,2,3", "--output", str(tmp_path / "d1.crft")]) == 0
        assert main(["decompose", "--input", str(tmp_path / "t.crft"),
                     "--ranks", "2,2,3", "--output", str(tmp_path / "d2.crft")]) == 0
    cli_ok &= (tmp_path / "d1.crft").read_bytes() == (tmp_path / "d2.crft").read_bytes()

    _report(8, "determinism and serialization",
            round_trip_ok and corruption_ok and cli_ok)


if __name__ == "__main__":
    import sys
    import tempfile
    from pathlib import Path

    failures = 0
    for fn_name in sorted(name for name in dir() if name.startswith("test_criterion")):
        fn = globals()[fn_name]
        try:
            if "tmp_path" in fn.__code__.co_varnames[: fn.__code__.co_argcount]:
                with tempfile.TemporaryDirectory() as tmp:
                    fn(Path(tmp))
            else:
                fn()
        except AssertionError:
            failures += 1
    sys.exit(1 if failures else 0)
