"""Command-line surface: decompose, reconstruct, train-toy, analyze, scaling.

Exit codes: 0 success, otherwise the ``exit_code`` of the error raised (see
craft.errors and docs/FORMATS.md), or 2 for an output path that cannot be
written.  Float fields in report files are printed with repr-exact precision
so identical runs produce identical bytes.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import serialization as ser
from .analysis import (PROJECTIONS as QKV, SCALING_METHODS, compression_counts,
                       dispersion, param_scaling)
from .config import load_run_config
from .errors import ConfigError, CraftError, FormatError
from .tensor import stack_layers
from .toy import (
    build_adapters,
    craft_finetune,
    evaluate,
    head_only_finetune,
    make_dataset,
    pretrain,
)
from .tucker import TuckerRanks, approximation_error, hosvd, reconstruct
from .adapter import trainable_param_count

def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _parse_ranks(text: str) -> TuckerRanks:
    parts = text.split(",")
    if len(parts) != 3:
        raise ConfigError(f"--ranks must be r1,r2,r3 (got {text!r})")
    try:
        r1, r2, r3 = (int(p) for p in parts)
    except ValueError as err:
        raise ConfigError(f"--ranks must be integers (got {text!r})") from err
    return TuckerRanks(r1, r2, r3)


def _parse_int_list(text: str) -> list[int]:
    if text.strip() == "":
        return []
    try:
        return [int(p) for p in text.split(",")]
    except ValueError as err:
        raise ConfigError(f"expected a comma-separated integer list (got {text!r})") from err


def _write_text(path, text: str) -> None:
    ser.atomic_write(path, text.encode("utf-8"))


def _all_of_ndim(items, ndim: int) -> bool:
    """True when every item read is a Tensor3 (``ndim`` 3) or Matrix (2) array."""
    return all(isinstance(x, np.ndarray) and x.ndim == ndim for x in items)


def _load_input_tensor(paths):
    """One Tensor3 file, or a list of Matrix files stacked in argument order."""
    items = [ser.read_file(p) for p in paths]
    if len(items) == 1 and _all_of_ndim(items, 3):
        return items[0]
    if _all_of_ndim(items, 2):
        return stack_layers(items)
    raise FormatError(
        "decompose input must be one Tensor3 file or a list of Matrix files"
    )


def _cmd_decompose(args) -> int:
    ranks = _parse_ranks(args.ranks)
    tensor = _load_input_tensor(args.input)
    factors = hosvd(tensor, ranks)
    ser.write_tucker_factors(args.output, factors)
    absolute, relative = approximation_error(tensor, factors)
    dense, factor = compression_counts(tensor.shape, ranks)
    print(f"wrote {args.output}")
    print(f"dims={tensor.shape} ranks={ranks.as_tuple()}")
    print(f"absolute_error={_fmt(absolute)}")
    print(f"relative_error={_fmt(relative)}")
    print(f"dense_params={dense}")
    print(f"factor_params={factor}")
    print(f"compression_ratio={_fmt(dense / factor)}")
    for mode, (sweeps, residual) in enumerate(factors.convergence, start=1):
        print(f"mode{mode}_sweeps={sweeps}")
        print(f"mode{mode}_residual={_fmt(residual)}")
    return 0


def _cmd_reconstruct(args) -> int:
    factors = ser.read_tucker_factors(args.input)
    ser.write_tensor3(args.output, reconstruct(factors))
    print(f"wrote {args.output}")
    return 0


def _losses_text(losses) -> str:
    return "".join(f"step={i} loss={_fmt(l)}\n" for i, l in enumerate(losses))


def _cmd_train_toy(args) -> int:
    # every non-finite result is reported as DivergenceError (exit 6), so
    # numpy's overflow warnings would only bury that one message
    with np.errstate(over="ignore", invalid="ignore"):
        return _train_toy(args)


def _train_toy(args) -> int:
    cfg = load_run_config(args.config)
    os.makedirs(args.out_dir, exist_ok=True)
    model_dir = os.path.join(args.out_dir, "model")
    os.makedirs(model_dir, exist_ok=True)

    model = pretrain(
        cfg.toy, cfg.pretraining, eta=cfg.pretrain_eta,
        max_steps=cfg.pretrain_steps, target_acc=cfg.pretrain_target,
    )
    adapters = build_adapters(
        model, cfg.ranks, epsilon=cfg.epsilon, sigma=cfg.sigma,
        projections=cfg.projections,
    )
    # both fine-tunings train on the same set
    train_b = make_dataset(cfg.finetuning, cfg.toy, "train")
    tuned, craft_losses = craft_finetune(
        model, adapters, *train_b, eta=cfg.eta, steps=cfg.steps,
        head_eta=cfg.effective_head_eta,
    )
    baseline, baseline_losses = head_only_finetune(
        model, *train_b, eta=cfg.effective_head_eta, steps=cfg.steps,
    )

    eval_b = make_dataset(cfg.finetuning, cfg.toy, "eval")
    pretrain_acc_b = evaluate(model, *eval_b)
    craft_acc = evaluate(tuned, *eval_b)
    baseline_acc = evaluate(baseline, *eval_b)

    ser.write_matrix(os.path.join(model_dir, "embeddings.crft"), model.embeddings)
    for name in ("wq", "wk", "wv", "wo"):
        ser.write_tensor3(os.path.join(model_dir, f"{name}.crft"), getattr(model, name))
    ser.write_matrix(os.path.join(model_dir, "head_weight.crft"), model.head_w)
    ser.write_matrix(os.path.join(model_dir, "head_bias.crft"), model.head_b[None, :])

    for name in cfg.projections:
        ser.write_craft_adapter(
            os.path.join(args.out_dir, f"adapter_{name.lower()}.crft"),
            tuned.adapters[name],
        )
    ser.write_matrix(os.path.join(args.out_dir, "craft_head_weight.crft"), tuned.head_w)
    ser.write_matrix(os.path.join(args.out_dir, "craft_head_bias.crft"), tuned.head_b[None, :])

    _write_text(os.path.join(args.out_dir, "pretrain_losses.txt"),
                _losses_text(model.pretrain_losses))
    _write_text(os.path.join(args.out_dir, "craft_losses.txt"),
                _losses_text(craft_losses))
    _write_text(os.path.join(args.out_dir, "baseline_losses.txt"),
                _losses_text(baseline_losses))

    tucker_params = trainable_param_count(cfg.ranks, len(cfg.projections))
    head_params = tuned.head_w.size + tuned.head_b.size
    summary_lines = [
        f"ranks={cfg.r1},{cfg.r2},{cfg.r3}",
        f"projections={','.join(cfg.projections)}",
        f"seed={cfg.seed}",
        f"tucker_adaptation_params={tucker_params}",
        f"classifier_head_params={head_params}",
        f"total_trainable_params={tucker_params + head_params}",
        f"pretrain_steps={len(model.pretrain_losses)}",
        f"pretrain_eval_acc={_fmt(model.pretrain_eval_acc)}",
        f"pretrain_acc_on_finetune_task={_fmt(pretrain_acc_b)}",
        f"craft_eval_acc={_fmt(craft_acc)}",
        f"head_only_eval_acc={_fmt(baseline_acc)}",
    ]
    summary = "".join(line + "\n" for line in summary_lines)
    _write_text(os.path.join(args.out_dir, "summary.txt"), summary)
    print(summary, end="")
    return 0


def _load_analyze_layers(paths):
    """Three Tensor3 stacks (Q, K, V) or groups of three Matrix files per layer."""
    items = [ser.read_file(p) for p in paths]
    if len(items) == 3 and _all_of_ndim(items, 3):
        q, k, v = items
        if not q.shape[0] == k.shape[0] == v.shape[0]:
            raise FormatError("Q, K, V stacks disagree on the layer count")
        return [dict(zip(QKV, layer)) for layer in zip(q, k, v)]
    if len(items) % 3 == 0 and _all_of_ndim(items, 2):
        return [dict(zip(QKV, items[l:l + 3])) for l in range(0, len(items), 3)]
    raise FormatError(
        "analyze input must be three Tensor3 stacks (Q K V) or per-layer "
        "triples of Matrix files in Q,K,V order"
    )


def _cmd_analyze(args) -> int:
    layers = _load_analyze_layers(args.weights)
    report = dispersion(layers, args.k)
    lines = [
        "# dispersion report",
        "# rows pooled raw per layer (no per-row variance normalization)",
        "# fields: layer alpha k sigma explained_variance_ratio",
    ]
    for layer in report:
        for alpha in QKV:
            lines.append(
                f"layer={layer.layer} alpha={alpha} k={layer.k} "
                f"sigma={_fmt(layer.sigma[alpha])} "
                f"evr={_fmt(layer.explained_variance_ratio)}"
            )
    _write_text(args.output, "".join(line + "\n" for line in lines))

    print(f"{'layer':>5} {'alpha':>5} {'sigma':>12} {'evr':>8}")
    for layer in report:
        for alpha in QKV:
            print(f"{layer.layer:>5} {alpha:>5} {layer.sigma[alpha]:>12.6f} "
                  f"{layer.explained_variance_ratio:>8.4f}")
    print(f"wrote {args.output}")
    return 0


def _cmd_scaling(args) -> int:
    ranks = _parse_ranks(args.ranks)
    layer_counts = _parse_int_list(args.layers)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    table = param_scaling(
        methods, layer_counts, args.d, ranks,
        lora_rank=args.lora_rank, n_projections=args.projections,
    )
    lines = ["# fields: method n_layers d rank params"]
    for row in table:
        lines.append(
            f"method={row.method} n_layers={row.n_layers} d={row.d} "
            f"rank={row.rank_label} params={row.params}"
        )
    _write_text(args.out, "".join(line + "\n" for line in lines))

    print(f"{'method':>8} {'layers':>7} {'d':>6} {'rank':>14} {'params':>12}")
    for row in table:
        print(f"{row.method:>8} {row.n_layers:>7} {row.d:>6} "
              f"{row.rank_label:>14} {row.params:>12}")
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="craft",
        description="Cross-layer Tucker adaptation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="HOSVD of a stacked weight tensor")
    p.add_argument("--input", nargs="+", required=True,
                   help="one Tensor3 file, or Matrix files to stack in order")
    p.add_argument("--ranks", required=True, help="r1,r2,r3")
    p.add_argument("--output", required=True, help="output TuckerFactors file")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("reconstruct", help="expand a TuckerFactors file to a tensor")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("train-toy", help="pretrain, adapt and evaluate the toy model")
    p.add_argument("--config", required=True, help="key=value run config file")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_train_toy)

    p = sub.add_parser("analyze", help="row-dispersion PCA of attention weights")
    p.add_argument("--weights", nargs="+", required=True,
                   help="Q K V Tensor3 stacks, or per-layer Q,K,V Matrix files")
    p.add_argument("--k", type=int, default=2, help="number of principal components")
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("scaling", help="trainable-parameter scaling table")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--layers", required=True, help="comma-separated layer counts")
    p.add_argument("--out", required=True)
    p.add_argument("--ranks", default="24,100,100", help="r1,r2,r3")
    p.add_argument("--lora-rank", type=int, default=8)
    p.add_argument("--projections", type=int, default=2,
                   help="number of adapted projection types")
    p.add_argument("--methods", default=",".join(SCALING_METHODS))
    p.set_defaults(func=_cmd_scaling)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CraftError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.exit_code
    except OSError as err:  # an unwritable output path; reads raise FormatError
        print(f"error: {err}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
