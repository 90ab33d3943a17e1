"""Minimal single-head attention classifier exercising the adapters end to end.

The model is deliberately small: token embeddings, a stack of single-head
attention blocks with residual connections (no layer norm, no MLP, no
positional encoding), mean pooling, and a linear classifier head.  The
synthetic tasks are permutation-invariant so positions are irrelevant.

Two operating modes:

* full-train: every parameter updates (used to produce a "pre-trained" model
  on task A);
* craft-adapt: the weights of each adapted projection are read out of its
  adapter, and only the adaptation matrices plus the classifier head train.
  The backward pass then computes and returns only the gradients of what
  trains: the head and the upstream tensor of each adapted projection.

``PROJECTIONS`` is the one place that says which projections can be adapted:
it maps each to the ``ToyModel`` stack it replaces, which is also the
``loss_and_grads`` key of that stack's upstream gradient.

The backward pass is hand-derived for this fixed architecture and checked
against central finite differences in the test suite.  Each training loop
builds one set of activation buffers and writes every step into it, so steps
allocate only small per-step arrays; the loop's evaluations run through the
same set in chunks of its batch.
"""

from __future__ import annotations

import copy
import hashlib
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .adapter import CraftAdapter, InitConfig, adapted_tensor, grad_j, init_adapter, sgd_step
from .errors import DivergenceError, PretrainError, ValidationError, check_int, check_real
from .tucker import TuckerRanks

TASK_RULES = ("majority", "majority_flip")
PROJECTIONS = {"Q": "wq", "V": "wv"}
BACKBONE = ("embeddings", "wq", "wk", "wv", "wo")
PARAMS = BACKBONE + ("head_w", "head_b")


@dataclass(frozen=True)
class ToyConfig:
    n_layers: int = 4
    d_model: int = 32
    vocab_size: int = 16
    seq_len: int = 12
    n_classes: int = 2
    seed: int = 0

    def __post_init__(self):
        for name in ("n_layers", "d_model", "seq_len"):
            check_int(getattr(self, name), name)
        # make_dataset labels samples 0/1, and with one token every sample
        # would be in the upper half, so label 0 could never be sampled
        for name in ("n_classes", "vocab_size"):
            check_int(getattr(self, name), name, low=2)
        if self.d_model % 2 != 0:
            raise ValidationError(f"d_model must be even, got {self.d_model}")
        check_int(self.seed, "seed", low=0)


@dataclass(frozen=True)
class SyntheticTask:
    """Deterministic labelled token sequences; labels alternate 0/1 exactly."""

    rule: str = "majority"
    seed: int = 0
    train_size: int = 256
    eval_size: int = 256

    def __post_init__(self):
        if self.rule not in TASK_RULES:
            raise ValidationError(f"rule must be one of {TASK_RULES}, got {self.rule!r}")
        for name in ("train_size", "eval_size"):
            check_int(getattr(self, name), name)
        check_int(self.seed, "seed", low=0)

    def flipped(self) -> "SyntheticTask":
        other = "majority_flip" if self.rule == "majority" else "majority"
        return SyntheticTask(other, self.seed, self.train_size, self.eval_size)


def make_dataset(task: SyntheticTask, cfg: ToyConfig, split: str) -> tuple[np.ndarray, np.ndarray]:
    """Token/label arrays for ``split`` in {"train", "eval"}; exact 50/50 balance.

    Sample i is rejection-sampled until its majority matches label ``i % 2``
    (ties are resampled too), so the base labels alternate deterministically.
    """
    if split not in ("train", "eval"):
        raise ValidationError(f"split must be 'train' or 'eval', got {split!r}")
    n = task.train_size if split == "train" else task.eval_size
    rng = np.random.default_rng([task.seed, 0 if split == "train" else 1])
    tokens = np.empty((n, cfg.seq_len), dtype=np.int64)
    labels = np.empty(n, dtype=np.int64)
    half = cfg.seq_len / 2.0
    for i in range(n):
        target = i % 2
        while True:
            seq = rng.integers(0, cfg.vocab_size, cfg.seq_len)
            upper = int(np.sum(seq >= cfg.vocab_size // 2))
            if upper == half:
                continue
            if int(upper > half) == target:
                break
        tokens[i] = seq
        labels[i] = target
    if task.rule == "majority_flip":
        labels = 1 - labels
    return tokens, labels


class ToyModel:
    """Mutable parameter container; adapters attach for craft-adapt mode."""

    def __init__(self, cfg: ToyConfig, rng: np.random.Generator):
        self.cfg = cfg
        d = cfg.d_model
        self.embeddings = 0.5 * rng.standard_normal((cfg.vocab_size, d))
        scale = 1.0 / np.sqrt(d)
        self.wq = scale * rng.standard_normal((cfg.n_layers, d, d))
        self.wk = scale * rng.standard_normal((cfg.n_layers, d, d))
        self.wv = scale * rng.standard_normal((cfg.n_layers, d, d))
        self.wo = scale * rng.standard_normal((cfg.n_layers, d, d))
        # zero head => exactly chance-level predictions before any training
        self.head_w = np.zeros((d, cfg.n_classes))
        self.head_b = np.zeros(cfg.n_classes)
        self.adapters: dict[str, CraftAdapter] | None = None

    def clone(self) -> "ToyModel":
        other = copy.copy(self)
        for name in PARAMS:
            setattr(other, name, getattr(self, name).copy())
        other.adapters = dict(self.adapters) if self.adapters is not None else None
        return other

    def effective_qv(self) -> tuple[np.ndarray, np.ndarray]:
        """Q and V weight stacks, routed through the adapters when attached."""
        adapters = self.adapters or {}
        return tuple(adapted_tensor(adapters[name]) if name in adapters else getattr(self, stack)
                     for name, stack in PROJECTIONS.items())

    def backbone_checksum(self) -> str:
        """SHA-256 over everything that must never change during adaptation."""
        h = hashlib.sha256()
        for name in BACKBONE:
            h.update(np.ascontiguousarray(getattr(self, name)).tobytes())
        if self.adapters is not None:
            for name in sorted(self.adapters):
                a = self.adapters[name]
                for arr in (a.w_original, a.factors.core,
                            a.factors.u1, a.factors.u2, a.factors.u3):
                    h.update(arr.tobytes())
        return h.hexdigest()


def _check_ids(arr: np.ndarray, what: str, high: int) -> np.ndarray:
    """``arr`` as int64 after checking it holds integers in ``[0, high)``."""
    if not np.issubdtype(arr.dtype, np.integer):
        raise ValidationError(f"{what} must be integers, got dtype {arr.dtype}")
    if arr.min() < 0 or arr.max() >= high:
        raise ValidationError(
            f"{what} must lie in [0, {high}), got range [{arr.min()}, {arr.max()}]"
        )
    return arr.astype(np.int64)


def _check_tokens(model: ToyModel, tokens) -> np.ndarray:
    arr = np.asarray(tokens)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] != model.cfg.seq_len:
        raise ValidationError(
            f"tokens must have shape (batch >= 1, {model.cfg.seq_len}), got {arr.shape}"
        )
    return _check_ids(arr, "token ids", model.cfg.vocab_size)


def _check_batch(model: ToyModel, tokens, labels) -> tuple[np.ndarray, np.ndarray]:
    """Checked int64 ``tokens`` and one label per sequence."""
    tok = _check_tokens(model, tokens)
    arr = np.asarray(labels)
    if arr.shape != (len(tok),):
        raise ValidationError(f"labels must have shape ({len(tok)},), got {arr.shape}")
    return tok, _check_ids(arr, "labels", model.cfg.n_classes)


def _softmax_rows(scores: np.ndarray) -> np.ndarray:
    """Row softmax computed in place: ``scores`` is overwritten and returned."""
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    return scores


class _Buffers:
    """Activations for up to ``batch`` sequences, overwritten in place by every pass.

    A pass over fewer sequences works in the leading slice of each buffer.
    Row ``l`` of ``x`` is layer ``l``'s input and the next row its output;
    ``q``, ``k``, ``v`` and ``attn`` hold layer ``l`` in slot ``l % depth``.
    ``ctx`` holds one layer: the backward pass recomputes it from ``attn``
    and ``v`` where it needs it.  Training needs every layer and the backward
    scratch; a forward-only pass keeps depth 1, so ``x`` alternates between
    two rows.
    """

    def __init__(self, cfg: ToyConfig, batch: int, backward: bool):
        self.batch = batch
        depth = cfg.n_layers if backward else 1
        flat = (batch * cfg.seq_len, cfg.d_model)
        acts, scores = (batch, cfg.seq_len, cfg.d_model), (batch, cfg.seq_len, cfg.seq_len)
        self.x = np.empty((depth + 1, *flat))
        self.q, self.k, self.v = (np.empty((depth, *acts)) for _ in range(3))
        self.attn = np.empty((depth, *scores))
        self.ctx = np.empty(acts)
        if backward:
            self.dx, self.tmp = np.empty(flat), np.empty(flat)
            self.d_ctx, self.d_v, self.d_q, self.d_k = (np.empty(acts) for _ in range(4))
            self.d_attn, self.tmp_attn = np.empty(scores), np.empty(scores)


def _forward(model: ToyModel, tok: np.ndarray, buf: _Buffers):
    """Logits, pooled features and effective Q/V stacks of validated ``tok``;
    every activation is written into the leading ``len(tok)`` sequences of
    ``buf``."""
    n_layers, d = model.cfg.n_layers, model.cfg.d_model
    inv_sqrt_d = 1.0 / np.sqrt(d)
    wq_eff, wv_eff = model.effective_qv()
    batch, depth, n_x = len(tok), len(buf.q), len(buf.x)
    xs, ctx = buf.x[:, :tok.size], buf.ctx[:batch]
    # activations are (batch * seq_len, d) so each projection is one GEMM;
    # the ids are checked, and mode="raise" would copy through a temporary
    np.take(model.embeddings, tok.ravel(), axis=0, out=xs[0], mode="clip")
    for layer in range(n_layers):
        x, x_out = xs[layer % n_x], xs[(layer + 1) % n_x]
        q, k, v, attn = (a[layer % depth, :batch] for a in (buf.q, buf.k, buf.v, buf.attn))
        np.matmul(x, wq_eff[layer].T, out=q.reshape(-1, d))
        np.matmul(x, model.wk[layer].T, out=k.reshape(-1, d))
        np.matmul(x, wv_eff[layer].T, out=v.reshape(-1, d))
        np.matmul(q, k.swapaxes(1, 2), out=attn)
        attn *= inv_sqrt_d
        _softmax_rows(attn)
        np.matmul(attn, v, out=ctx)
        np.matmul(ctx.reshape(-1, d), model.wo[layer].T, out=x_out)
        x_out += x
    pooled = xs[n_layers % n_x].reshape(batch, -1, d).mean(axis=1)
    logits = pooled @ model.head_w + model.head_b
    return logits, pooled, wq_eff, wv_eff


def forward(model: ToyModel, tokens) -> np.ndarray:
    """Logits ``(batch, n_classes)``."""
    tok = _check_tokens(model, tokens)
    return _forward(model, tok, _Buffers(model.cfg, len(tok), backward=False))[0]


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy loss and its gradient w.r.t. the logits."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.sum(np.exp(shifted), axis=1))
    log_probs = shifted - log_z[:, None]
    n = logits.shape[0]
    loss = float(-np.mean(log_probs[np.arange(n), labels]))
    dlogits = np.exp(log_probs)
    dlogits[np.arange(n), labels] -= 1.0
    return loss, dlogits / n


def loss_and_grads(model: ToyModel, tokens, labels) -> tuple[float, dict]:
    """Mean cross-entropy plus gradients for every parameter group that trains.

    Full-train mode returns all seven groups.  In craft-adapt mode
    (``model.adapters`` set) only ``head_w``, ``head_b`` and the stack of each
    adapted projection (``PROJECTIONS[name]``, e.g. ``wq`` for ``"Q"``) come
    back: the gradients of frozen stacks and embeddings are never computed.
    Each such stack (shape ``(n_layers, d, d)``) is the upstream tensor to
    feed :func:`craft.adapter.grad_j` for its adapter.

    Each call works in fresh activation buffers; the training loops in this
    module build theirs once and reuse them for every step.
    """
    tok, labels = _check_batch(model, tokens, labels)
    return _loss_and_grads(model, tok, labels, _Buffers(model.cfg, len(tok), backward=True))


def _loss_and_grads(model: ToyModel, tok: np.ndarray, labels: np.ndarray,
                    buf: _Buffers) -> tuple[float, dict]:
    """:func:`loss_and_grads` of validated inputs, working in ``buf``."""
    logits, pooled, wq_eff, wv_eff = _forward(model, tok, buf)
    loss, dlogits = cross_entropy(logits, labels)
    stacks = BACKBONE if model.adapters is None else [PROJECTIONS[n] for n in model.adapters]
    g = {name: np.empty_like(getattr(model, name)) for name in stacks}
    g.update(head_w=pooled.T @ dlogits, head_b=dlogits.sum(axis=0))
    batch, seq_len, d = len(tok), model.cfg.seq_len, model.cfg.d_model
    inv_sqrt_d = 1.0 / np.sqrt(d)
    dx, tmp = buf.dx, buf.tmp
    dx.reshape(batch, seq_len, d)[:] = (dlogits @ model.head_w.T / seq_len)[:, None, :]
    d_ctx, d_q, d_k, d_v = (a.reshape(-1, d) for a in (buf.d_ctx, buf.d_q, buf.d_k, buf.d_v))

    for layer in range(model.cfg.n_layers - 1, -1, -1):
        x, q, k, v = buf.x[layer], buf.q[layer], buf.k[layer], buf.v[layer]
        attn = buf.attn[layer]
        if "wo" in g:
            # ctx holds the last layer the forward wrote; recompute this one's
            np.matmul(attn, v, out=buf.ctx)
            np.matmul(dx.T, buf.ctx.reshape(-1, d), out=g["wo"][layer])
        np.matmul(dx, model.wo[layer], out=d_ctx)
        d_scores = np.matmul(buf.d_ctx, v.swapaxes(1, 2), out=buf.d_attn)
        np.matmul(attn.swapaxes(1, 2), buf.d_ctx, out=buf.d_v)
        # softmax rows: dS = P * (dP - sum(dP * P)), overwriting dP
        d_scores -= np.multiply(d_scores, attn, out=buf.tmp_attn).sum(axis=-1, keepdims=True)
        d_scores *= attn
        d_scores *= inv_sqrt_d
        np.matmul(d_scores, k, out=buf.d_q)
        if "wq" in g:
            np.matmul(d_q.T, x, out=g["wq"][layer])
        if "wv" in g:
            np.matmul(d_v.T, x, out=g["wv"][layer])
        if layer == 0 and "embeddings" not in g:
            break  # below layer 0, dx would only reach the frozen embeddings
        np.matmul(d_scores.swapaxes(1, 2), q, out=buf.d_k)
        if "wk" in g:
            np.matmul(d_k.T, x, out=g["wk"][layer])
        dx += np.matmul(d_q, wq_eff[layer], out=tmp)
        dx += np.matmul(d_k, model.wk[layer], out=tmp)
        dx += np.matmul(d_v, wv_eff[layer], out=tmp)

    if "embeddings" in g:
        g["embeddings"].fill(0.0)  # np.add.at accumulates
        np.add.at(g["embeddings"], tok.ravel(), dx)
    return loss, g


def evaluate(model: ToyModel, tokens, labels) -> float:
    tok, labels = _check_batch(model, tokens, labels)
    return _evaluate(model, tok, labels, _Buffers(model.cfg, len(tok), backward=False))


def _evaluate(model: ToyModel, tok: np.ndarray, labels: np.ndarray, buf: _Buffers) -> float:
    """Accuracy on validated inputs, run through ``buf`` in chunks of its batch.

    The head is applied once, to every pooled row, so the logits do not
    depend on where the chunks split.
    """
    pooled = np.empty((len(tok), model.cfg.d_model))
    for start in range(0, len(tok), buf.batch):
        pooled[start:start + buf.batch] = _forward(model, tok[start:start + buf.batch], buf)[1]
    preds = np.argmax(pooled @ model.head_w + model.head_b, axis=1)
    return float(np.mean(preds == labels))


def _derived_seeds(seed: int) -> dict[str, int]:
    words = np.random.SeedSequence(seed).generate_state(3)
    return {"model": int(words[0]), "adapter_q": int(words[1]), "adapter_v": int(words[2])}


def pretrain(
    cfg: ToyConfig,
    task: SyntheticTask,
    eta: float = 0.05,
    max_steps: int = 400,
    target_acc: float = 0.9,
    eval_every: int = 5,
) -> ToyModel:
    """Full-batch gradient descent on every parameter until ``target_acc``.

    Raises :class:`PretrainError` when the final eval accuracy is below 0.75.
    The returned model carries the loss curve in ``model.pretrain_losses``.
    """
    eta = check_real(eta, "eta")
    max_steps = check_int(max_steps, "max_steps", low=0)
    target_acc = check_real(target_acc, "target_acc")
    eval_every = check_int(eval_every, "eval_every")
    seeds = _derived_seeds(cfg.seed)
    model = ToyModel(cfg, np.random.default_rng(seeds["model"]))
    tokens, labels = _check_batch(model, *make_dataset(task, cfg, "train"))
    eval_tokens, eval_labels = _check_batch(model, *make_dataset(task, cfg, "eval"))
    buf = _Buffers(cfg, len(tokens), backward=True)

    losses = []
    acc = None  # eval accuracy of the current parameters, once known
    for step in range(max_steps):
        loss, g = _loss_and_grads(model, tokens, labels, buf)
        if not np.isfinite(loss):
            raise DivergenceError("pretraining loss became non-finite", step=step)
        losses.append(loss)
        for name in PARAMS:
            arr = getattr(model, name)
            arr -= eta * g[name]
        acc = None
        if (step + 1) % eval_every == 0:
            acc = _evaluate(model, eval_tokens, eval_labels, buf)
            if acc >= target_acc:
                break
    if acc is None:
        acc = _evaluate(model, eval_tokens, eval_labels, buf)
    if acc < 0.75:
        raise PretrainError(
            f"pretraining reached eval accuracy {acc:.3f} < 0.75 after "
            f"{len(losses)} steps"
        )
    model.pretrain_losses = losses
    model.pretrain_eval_acc = acc
    return model


def build_adapters(
    model: ToyModel,
    ranks: TuckerRanks,
    epsilon: float = InitConfig.epsilon,
    sigma: float = InitConfig.sigma,
    projections: tuple[str, ...] = tuple(PROJECTIONS),
) -> dict[str, CraftAdapter]:
    """Adapters over the model's stacked projection weights, seeded from the model seed."""
    seeds = _derived_seeds(model.cfg.seed)
    adapters = {}
    for name in projections:
        if name not in PROJECTIONS:
            raise ValidationError(f"projection must be one of {tuple(PROJECTIONS)}, got {name!r}")
        cfg = InitConfig(epsilon=epsilon, sigma=sigma, seed=seeds[f"adapter_{name.lower()}"])
        adapters[name] = init_adapter(getattr(model, PROJECTIONS[name]), ranks, cfg)
    return adapters


def craft_finetune(
    model: ToyModel,
    adapters: Mapping[str, CraftAdapter],
    tokens,
    labels,
    eta: float,
    steps: int,
    head_eta: float | None = None,
) -> tuple[ToyModel, list[float]]:
    """Adapt to a training set by training only the adaptation matrices and the head.

    ``tokens, labels`` is a task's train split from :func:`make_dataset`.
    Full-batch descent for ``steps`` steps; returns the adapted model and the
    per-step loss curve.  The input model is left untouched.  A non-finite
    loss, gradient or update raises :class:`DivergenceError` with its step.
    """
    eta = check_real(eta, "eta")
    head_eta = eta if head_eta is None else check_real(head_eta, "head_eta")
    steps = check_int(steps, "steps", low=0)
    for name, a in adapters.items():
        if name not in PROJECTIONS:
            raise ValidationError(f"adapter keys must be one of {tuple(PROJECTIONS)}, got {name!r}")
        base = getattr(model, PROJECTIONS[name])
        if not np.array_equal(a.w_original, base):
            raise ValidationError(
                f"adapter {name} was not built from this model's stacked weights"
            )
    tokens, labels = _check_batch(model, tokens, labels)
    tuned = model.clone()
    tuned.adapters = dict(adapters)
    buf = _Buffers(model.cfg, len(tokens), backward=True)

    losses = []
    for step in range(steps):
        # every input was checked above, so a ValidationError here is an overflow
        try:
            loss, g = _loss_and_grads(tuned, tokens, labels, buf)
            if not np.isfinite(loss):
                raise DivergenceError("loss became non-finite")
            for name, a in tuned.adapters.items():
                tuned.adapters[name] = sgd_step(a, grad_j(a, g[PROJECTIONS[name]]), eta)
        except (ValidationError, DivergenceError) as err:
            raise DivergenceError(f"fine-tuning diverged: {err}", step=step) from err
        losses.append(loss)
        tuned.head_w -= head_eta * g["head_w"]
        tuned.head_b -= head_eta * g["head_b"]
    return tuned, losses


def head_only_finetune(
    model: ToyModel,
    tokens,
    labels,
    eta: float,
    steps: int,
) -> tuple[ToyModel, list[float]]:
    """Baseline: identical budget and head learning rate, backbone fully frozen.

    ``tokens, labels`` is the training set :func:`craft_finetune` gets.  Only
    the head trains, so the pooled features are computed once and the steps
    run logistic regression on them.
    """
    eta = check_real(eta, "eta")
    steps = check_int(steps, "steps", low=0)
    tuned = model.clone()
    tokens, labels = _check_batch(tuned, tokens, labels)
    pooled = _forward(tuned, tokens, _Buffers(tuned.cfg, len(tokens), backward=False))[1]
    losses = []
    for step in range(steps):
        loss, dlogits = cross_entropy(pooled @ tuned.head_w + tuned.head_b, labels)
        if not np.isfinite(loss):
            raise DivergenceError("fine-tuning diverged: loss became non-finite", step=step)
        losses.append(loss)
        tuned.head_w -= eta * (pooled.T @ dlogits)
        tuned.head_b -= eta * dlogits.sum(axis=0)
    return tuned, losses
