"""The four benchmark workloads: seeded inputs, one timed operation, its check.

Each workload is a class with these steps:

* ``setup()`` builds the inputs from the seed: tensors, files written for the
  operation and the adapter.  ``warm_up()`` then runs the same code once at a
  tiny size.  The two together are timed as ``setup_s``; a traced run traces
  ``setup()`` only, so warm-up calls do not count in the per-layer metrics.
* ``op(i)`` runs operation ``i`` through craft's public API or its CLI entry
  point and returns ``{"op": seconds, ...}``; only the library calls are
  inside the timed region.
* ``check(i)`` verifies operation ``i`` against a reference computed by the
  benchmark itself, outside the timed region, and raises ``CheckFailed``.

craft functions are always called through their module (``adapter.grad_j``,
not a name imported from it), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import os
import shutil
from time import perf_counter

import numpy as np

from craft import adapter, cli, serialization, tucker
from craft.config import load_run_config


class CheckFailed(Exception):
    """An operation's output did not match the benchmark's reference."""


@dataclasses.dataclass(frozen=True)
class Sizes:
    # adapt-fit and checkpoint adapters
    layers: int = 12
    width: int = 128
    ranks: tuple = (4, 32, 32)
    # decompose inputs: small enough that a run holds many operations
    decompose_width: int = 64
    decompose_ranks: tuple = (4, 16, 16)
    # distinct tensors per decompose run, distinct adapters per checkpoint run
    pool: int = 4
    # extra key=value lines for the train-toy RunConfig; empty is the default config
    toy_overrides: str = ""


FULL = Sizes()
# small enough that every workload runs in well under a second
TINY = Sizes(layers=4, width=8, ranks=(2, 3, 3), decompose_width=8, decompose_ranks=(2, 3, 3),
             pool=2, toy_overrides=(
    "n_layers=2\nd_model=16\nvocab_size=8\nseq_len=5\ntrain_size=64\n"
    "eval_size=64\nsteps=5\nr1=1\nr2=4\nr3=4\n"))

# fixed tiny train-toy run used as warm-up; it passes pretraining at seed 0
WARMUP_TOY = "seed=0\n" + TINY.toy_overrides

ORTHONORMAL_TOL = 1e-10
# agreement of the library's HOSVD error with the numpy-LAPACK reference,
# relative to the Frobenius norm of the input
REFERENCE_TOL = 1e-9


def stacked_tensor(rng: np.random.Generator, layers: int, width: int) -> np.ndarray:
    """A stack of per-layer weights with cross-layer structure.

    A base matrix shared by every layer, a low-rank part whose directions are
    shared but mixed differently per layer with a decaying spectrum, and small
    per-layer noise.  Trained attention stacks look like this more than like
    Gaussian noise, and the Jacobi sweep count depends on the spectrum.
    """
    k = max(1, width // 2)
    base = rng.standard_normal((width, width)) / np.sqrt(width)
    left, _ = np.linalg.qr(rng.standard_normal((width, k)))
    right, _ = np.linalg.qr(rng.standard_normal((width, k)))
    spectrum = np.exp(-np.arange(k) * 6.0 / k)
    mix = rng.standard_normal((layers, k)) * spectrum
    low = (mix[:, None, :] * left[None]) @ right.T
    noise = rng.standard_normal((layers, width, width)) * (0.05 / np.sqrt(width))
    return np.ascontiguousarray(base[None] + low + noise)


def np_unfold(t: np.ndarray, mode: int) -> np.ndarray:
    return np.moveaxis(t, mode - 1, 0).reshape(t.shape[mode - 1], -1)


def np_expand(core, u1, u2, u3) -> np.ndarray:
    return np.einsum("abc,ia,jb,kc->ijk", core, u1, u2, u3, optimize=True)


def reference_hosvd(w: np.ndarray, ranks) -> tuple[float, float]:
    """``(absolute error, truncation bound)`` of a numpy-LAPACK HOSVD of ``w``.

    The bound is criterion 2's: the squared error is at most the sum over
    modes of the squared singular values dropped by the truncation.
    """
    us = []
    bound = 0.0
    for mode, r in enumerate(ranks, start=1):
        u, s, _ = np.linalg.svd(np_unfold(w, mode), full_matrices=False)
        us.append(u[:, :r])
        bound += float(np.sum(s[r:] ** 2))
    core = np.einsum("ijk,ia,jb,kc->abc", w, *us, optimize=True)
    return float(np.linalg.norm(w - np_expand(core, *us))), bound


def run_cli(argv) -> tuple[int, str]:
    """``craft.cli.main(argv)`` with its standard output captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def key_values(text: str) -> dict:
    return dict(line.split("=", 1) for line in text.splitlines() if "=" in line)


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: str, sizes: Sizes = FULL):
        self.seed = seed
        self.workdir = workdir
        self.sizes = sizes

    def rng(self, stream: int = 0) -> np.random.Generator:
        return np.random.default_rng([self.seed, stream])

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def setup(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def op(self, i: int) -> dict:
        raise NotImplementedError

    def check(self, i: int) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        """Checks that span the whole run; called once after the last op."""

    def report(self, samples: list) -> list:
        """``(name, value, unit, n)`` rows of the workload's own named metrics."""
        return []


class Decompose(Workload):
    """``craft decompose`` on Tensor3 files, HOSVD at the stated ranks."""

    name = "decompose"

    def setup(self):
        s = self.sizes
        self.ranks_arg = ",".join(str(r) for r in s.decompose_ranks)
        rng = self.rng()
        self.tensors = [stacked_tensor(rng, s.layers, s.decompose_width) for _ in range(s.pool)]
        self.inputs = []
        for k, w in enumerate(self.tensors):
            self.inputs.append(self.path(f"input_{k}.crft"))
            serialization.write_tensor3(self.inputs[-1], w)
        self.references = {}
        self.outputs = {}

    def warm_up(self):
        warm_in = self.path("warmup.crft")
        serialization.write_tensor3(warm_in, stacked_tensor(self.rng(1), 4, 8))
        code, _ = run_cli(["decompose", "--input", warm_in, "--ranks", "2,3,3",
                           "--output", self.path("warmup_factors.crft")])
        _require(code == 0, f"warm-up decompose exited with {code}")

    def op(self, i):
        out = self.path(f"factors_{i % 2}.crft")
        argv = ["decompose", "--input", self.inputs[i % len(self.inputs)],
                "--ranks", self.ranks_arg, "--output", out]
        t0 = perf_counter()
        code, text = run_cli(argv)
        dt = perf_counter() - t0
        self.outputs[i] = (code, text, out)
        return {"op": dt}

    def check(self, i):
        code, text, out = self.outputs.pop(i)
        _require(code == 0, f"decompose exited with {code}")
        k = i % len(self.tensors)
        w = self.tensors[k]
        if k not in self.references:
            self.references[k] = reference_hosvd(w, self.sizes.decompose_ranks)
        ref_abs, bound = self.references[k]
        printed = key_values(text)
        absolute = float(printed["absolute_error"])
        f = serialization.read_tucker_factors(out)
        for n, u in enumerate(f.factor_matrices, start=1):
            dev = float(np.linalg.norm(u.T @ u - np.eye(u.shape[1])))
            _require(dev <= ORTHONORMAL_TOL, f"u{n} columns deviate {dev:.3e} from orthonormal")
        readback_abs = float(np.linalg.norm(w - np_expand(f.core, f.u1, f.u2, f.u3)))
        scale = float(np.linalg.norm(w))
        _require(abs(readback_abs - absolute) <= REFERENCE_TOL * scale,
                 f"printed error {absolute!r} != error of the written factors {readback_abs!r}")
        _require(absolute ** 2 <= bound * (1.0 + 1e-8) + 1e-12,
                 f"squared error {absolute ** 2!r} exceeds the truncation bound {bound!r}")
        _require(abs(absolute - ref_abs) <= REFERENCE_TOL * scale,
                 f"error {absolute!r} != numpy-LAPACK reference {ref_abs!r}")

    def report(self, samples):
        return [("decompose_s", _median([s["op"] for s in samples]), "s", len(samples))]


class AdaptFit(Workload):
    """One API training step: adapted tensor, upstream, ``grad_j``, ``sgd_step``."""

    name = "adapt-fit"

    def setup(self):
        s = self.sizes
        rng = self.rng()
        w = stacked_tensor(rng, s.layers, s.width)
        start = adapter.init_adapter(w, tucker.TuckerRanks(*s.ranks),
                                     adapter.InitConfig(seed=self.seed))
        # reachable target: the same frozen factors with J = I + 0.05 N
        js = {f"j{n}": np.eye(r) + 0.05 * rng.standard_normal((r, r))
              for n, r in enumerate(s.ranks, start=1)}
        self.target = adapter.adapted_tensor(dataclasses.replace(start, **js))
        core = start.factors.core
        self.eta = 0.5 / max(np.linalg.norm(np_unfold(core, n), 2) ** 2 for n in (1, 2, 3))
        self.state = start
        self.losses = []

    def warm_up(self):
        for _ in range(3):
            self._step(self.state)

    def _step(self, a):
        adapted = adapter.adapted_tensor(a)
        upstream = adapted - self.target
        flat = upstream.ravel()
        loss = 0.5 * float(flat @ flat)
        grads = adapter.grad_j(a, upstream)
        return loss, adapter.sgd_step(a, grads, self.eta)

    def op(self, i):
        t0 = perf_counter()
        loss, self.state = self._step(self.state)
        dt = perf_counter() - t0
        self.losses.append(loss)
        return {"op": dt}

    def check(self, i):
        _require(np.isfinite(self.losses[-1]), f"step {i} loss is not finite")
        for n, j in enumerate(self.state.j_matrices, start=1):
            _require(bool(np.isfinite(j).all()), f"step {i}: j{n} is not finite")

    def finish(self):
        _require(len(self.losses) >= 2 and self.losses[-1] < self.losses[0],
                 f"final loss is not below the first: {self.losses[:1]} {self.losses[-1:]}")

    def report(self, samples):
        times = [s["op"] for s in samples]
        rows = [("fit_step_s", _median(times), "s", len(times))]
        tail = tail_percentile(times)
        if tail is not None:
            rows.append((f"fit_step_tail_s[p{tail[0]:g}]", tail[1], "s", len(times)))
        return rows


class TrainToy(Workload):
    """``craft train-toy`` with the default RunConfig and the workload seed."""

    name = "train-toy"

    MODEL_FILES = ("model/embeddings.crft", "model/wq.crft", "model/wk.crft",
                   "model/wv.crft", "model/wo.crft", "model/head_weight.crft",
                   "model/head_bias.crft", "craft_head_weight.crft",
                   "craft_head_bias.crft")
    SUMMARY_KEYS = ("ranks", "projections", "seed", "tucker_adaptation_params",
                    "classifier_head_params", "total_trainable_params",
                    "pretrain_steps", "pretrain_eval_acc",
                    "pretrain_acc_on_finetune_task", "craft_eval_acc",
                    "head_only_eval_acc")

    def setup(self):
        self.config = self.path("run.cfg")
        with open(self.config, "w", encoding="utf-8") as fh:
            fh.write(f"seed={self.seed}\n{self.sizes.toy_overrides}")
        self.cfg = load_run_config(self.config)
        self.outputs = {}

    def warm_up(self):
        warm_cfg = self.path("warmup.cfg")
        with open(warm_cfg, "w", encoding="utf-8") as fh:
            fh.write(WARMUP_TOY)
        warm_out = self.path("warmup_out")
        code, _ = run_cli(["train-toy", "--config", warm_cfg, "--out-dir", warm_out])
        _require(code == 0, f"warm-up train-toy exited with {code}")
        shutil.rmtree(warm_out)

    def op(self, i):
        out = self.path(f"toy_out_{i}")
        t0 = perf_counter()
        code, text = run_cli(["train-toy", "--config", self.config, "--out-dir", out])
        dt = perf_counter() - t0
        self.outputs[i] = (code, text, out)
        return {"op": dt}

    def check(self, i):
        code, text, out = self.outputs.pop(i)
        try:
            _require(code == 0, f"train-toy exited with {code}")
            cfg = self.cfg
            files = list(self.MODEL_FILES) + [f"adapter_{p.lower()}.crft" for p in cfg.projections]
            for name in files:
                serialization.read_file(os.path.join(out, name))
            with open(os.path.join(out, "summary.txt"), encoding="utf-8") as fh:
                summary_text = fh.read()
            _require(summary_text == text, "printed summary differs from summary.txt")
            summary = key_values(summary_text)
            missing = [k for k in self.SUMMARY_KEYS if k not in summary]
            _require(not missing, f"summary lacks {missing}")
            for name, count in (("pretrain_losses.txt", int(summary["pretrain_steps"])),
                                ("craft_losses.txt", cfg.steps),
                                ("baseline_losses.txt", cfg.steps)):
                with open(os.path.join(out, name), encoding="utf-8") as fh:
                    lines = fh.read().splitlines()
                _require(len(lines) == count, f"{name} has {len(lines)} lines, expected {count}")
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def report(self, samples):
        return [("toy_run_s", _median([s["op"] for s in samples]), "s", len(samples))]


class Checkpoint(Workload):
    """Alternating ``write_craft_adapter`` and ``read_craft_adapter``."""

    name = "checkpoint"

    def setup(self):
        s = self.sizes
        rng = self.rng()
        w = stacked_tensor(rng, s.layers, s.width)
        base = adapter.init_adapter(w, tucker.TuckerRanks(*s.ranks),
                                    adapter.InitConfig(seed=self.seed))
        # distinct trained-looking adapters over the same frozen decomposition
        self.adapters = [
            dataclasses.replace(base, **{f"j{n}": np.eye(r) + 0.05 * rng.standard_normal((r, r))
                                         for n, r in enumerate(s.ranks, start=1)})
            for _ in range(s.pool)
        ]
        self.read_back = {}

    def warm_up(self):
        warm = self.path("warmup.crft")
        tiny = adapter.init_adapter(stacked_tensor(self.rng(1), 4, 8), tucker.TuckerRanks(2, 3, 3),
                                    adapter.InitConfig(seed=self.seed))
        serialization.write_craft_adapter(warm, tiny)
        serialization.read_craft_adapter(warm)

    def op(self, i):
        a = self.adapters[i % len(self.adapters)]
        target = self.path(f"adapter_{i % 2}.crft")
        t0 = perf_counter()
        serialization.write_craft_adapter(target, a)
        t1 = perf_counter()
        b = serialization.read_craft_adapter(target)
        t2 = perf_counter()
        self.read_back[i] = b
        return {"op": t2 - t0, "write": t1 - t0, "read": t2 - t1}

    def check(self, i):
        a = self.adapters[i % len(self.adapters)]
        b = self.read_back.pop(i)
        _require(b.dims == a.dims and b.ranks == a.ranks, "dims or ranks differ after read")
        pairs = [("w_original", a.w_original, b.w_original),
                 ("r_initial", a.r_initial, b.r_initial)]
        pairs += [(f"factors.{n}", getattr(a.factors, n), getattr(b.factors, n))
                  for n in ("core", "u1", "u2", "u3")]
        pairs += [(f"j{n}", x, y) for n, (x, y) in enumerate(zip(a.j_matrices, b.j_matrices), 1)]
        for name, x, y in pairs:
            _require(_bitwise_equal(x, y), f"{name} read back differs from what was written")

    def report(self, samples):
        rows = []
        for key, name in (("write", "ckpt_write_s"), ("read", "ckpt_read_s")):
            times = [s[key] for s in samples]
            rows.append((name, _median(times), "s", len(times)))
            tail = tail_percentile(times)
            if tail is not None:
                rows.append((f"{name[:-2]}_tail_s[p{tail[0]:g}]", tail[1], "s", len(times)))
        return rows


WORKLOADS = {cls.name: cls for cls in (Decompose, AdaptFit, TrainToy, Checkpoint)}


def _median(values) -> float:
    return float(np.median(values)) if len(values) else float("nan")


def tail_percentile(values, beyond: int = 10):
    """``(p, value)`` for the highest of p90, p99 and p99.9 that leaves at
    least ``beyond`` samples above it, or ``None`` when even p90 does not."""
    fits = [p for p in (90.0, 99.0, 99.9) if len(values) * (1.0 - p / 100.0) >= beyond]
    if not fits:
        return None
    return fits[-1], float(np.percentile(values, fits[-1]))
