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

Token and label arrays are checked once, where they enter a public
function, by :func:`craft.tensor.check_ids`, the package's one array policy.

The backward pass is hand-derived for this fixed architecture and checked
against central finite differences in the test suite.

A batch splits into chunks of ``CHUNK`` sequences, run through
:func:`craft.parallel.chunked` (the parallelism policy lives there), and
each worker runs its chunks in its own ``CHUNK`` rows of one activation
scratch.  A training step is one such parallel section: each chunk runs its
forward pass, its rows' loss terms and its backward pass; the calling
thread then takes the loss, the head gradients and the chunk-ordered sum of
the other gradients.  Each training loop builds its scratch once, and its
evaluations run through it; forward-only calls build a forward-only one.
So activation memory is ``parallel.WORKERS * CHUNK`` rows whatever the
train or eval size, and steps allocate only per-sequence rows and
weight-sized partial gradients.  The backward scratch holds only live
values.  Chunks split at fixed boundaries, so results are the same bytes
whatever the CPU or BLAS thread count.
"""

from __future__ import annotations

import copy
import hashlib
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import parallel
from .adapter import CraftAdapter, InitConfig, adapted_tensor, grad_j, init_adapter, sgd_step
from .errors import DivergenceError, PretrainError, ValidationError, check_int, check_real
from .tensor import check_ids
from .tucker import TuckerRanks

TASK_RULES = ("majority", "majority_flip")
PROJECTIONS = {"Q": "wq", "V": "wv"}
BACKBONE = ("embeddings", "wq", "wk", "wv", "wo")
HEAD = ("head_w", "head_b")
PARAMS = BACKBONE + HEAD
# sequences per chunk; a batch splits at multiples of it, whatever the CPU count
CHUNK = 64
# pretraining evaluates its model every this many steps
EVAL_EVERY = 5


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


def _check_batch(model: ToyModel, tokens, labels) -> tuple[np.ndarray, np.ndarray]:
    """``tokens`` and one label per sequence, as checked int64 arrays."""
    cfg = model.cfg
    tok = check_ids(tokens, "tokens", (None, cfg.seq_len), cfg.vocab_size)
    return tok, check_ids(labels, "labels", (len(tok),), cfg.n_classes)


def _row_max(scores: np.ndarray) -> np.ndarray:
    """``scores.max(axis=-1)``, the same bytes; a running maximum over the
    columns is several times faster on rows as short as the toy's."""
    row_max = scores[..., 0].copy()
    for col in range(1, scores.shape[-1]):
        np.maximum(row_max, scores[..., col], out=row_max)
    return row_max


def _softmax_rows(scores: np.ndarray) -> np.ndarray:
    """Row softmax computed in place: ``scores`` is overwritten and returned."""
    scores -= _row_max(scores)[..., None]
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    return scores


class _Buffers:
    """Activations for up to ``batch`` sequences, overwritten in place by every pass.

    Each array is batch-major after its layer axis.  A run over many
    sequences works in a scratch from :func:`_scratch`, in which worker ``w``
    of :func:`craft.parallel.chunked` runs each of its chunks in its own
    ``CHUNK`` rows, viewed by :meth:`slot`.
    Row ``l`` of ``x`` is layer ``l``'s input and the next row its output;
    ``q``, ``k``, ``v`` and ``attn`` hold layer ``l`` in slot ``l % depth``.
    ``ctx`` holds one layer: the backward pass recomputes it from ``attn``
    and ``v`` where it needs it, and then uses it as its product scratch.
    Training needs every layer and the backward scratch: ``dx``, ``grad``
    (which holds ``d_ctx``, then ``d_q``, then ``d_k``), ``d_v`` and two
    score-sized arrays.  A forward-only pass keeps depth 1, so ``x``
    alternates between two rows.
    """

    LAYERED = ("x", "q", "k", "v", "attn")

    def __init__(self, cfg: ToyConfig, batch: int, backward: bool):
        self.batch = batch
        depth = cfg.n_layers if backward else 1
        acts, scores = (batch, cfg.seq_len, cfg.d_model), (batch, cfg.seq_len, cfg.seq_len)
        self.x = np.empty((depth + 1, *acts))
        self.q, self.k, self.v = (np.empty((depth, *acts)) for _ in range(3))
        self.attn = np.empty((depth, *scores))
        self.ctx = np.empty(acts)
        if backward:
            self.dx, self.grad, self.d_v = (np.empty(acts) for _ in range(3))
            self.d_attn, self.tmp_attn = np.empty(scores), np.empty(scores)

    def slot(self, worker: int, batch: int) -> "_Buffers":
        """The first ``batch`` of worker ``worker``'s ``CHUNK`` rows; no copy."""
        start, stop = worker * CHUNK, worker * CHUNK + batch
        view = copy.copy(self)
        view.batch = batch
        for name, arr in vars(self).items():
            if isinstance(arr, np.ndarray):
                setattr(view, name, arr[:, start:stop] if name in self.LAYERED else arr[start:stop])
        return view


def _scratch(cfg: ToyConfig, n: int, backward: bool) -> _Buffers:
    """Buffers for chunked runs over at most ``n`` sequences: ``CHUNK`` rows
    for each worker, so ``parallel.WORKERS * CHUNK`` rows whatever ``n``."""
    return _Buffers(cfg, min(n, parallel.WORKERS * CHUNK), backward)


def _forward(model: ToyModel, tok: np.ndarray, buf: _Buffers,
             qv: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Pooled features ``(len(tok), d)`` of validated ``tok``, exactly
    ``buf.batch`` sequences, under the effective Q/V stacks ``qv``; the
    activations fill ``buf``."""
    n_layers, d = model.cfg.n_layers, model.cfg.d_model
    inv_sqrt_d = 1.0 / np.sqrt(d)
    wq_eff, wv_eff = qv
    depth, n_x = len(buf.q), len(buf.x)
    # activations are (batch * seq_len, d) so each projection is one GEMM;
    # the ids are checked, and mode="raise" would copy through a temporary
    np.take(model.embeddings, tok.ravel(), axis=0, out=buf.x[0].reshape(-1, d), mode="clip")
    for layer in range(n_layers):
        x, x_out = (buf.x[i % n_x].reshape(-1, d) for i in (layer, layer + 1))
        q, k, v, attn = (a[layer % depth] for a in (buf.q, buf.k, buf.v, buf.attn))
        np.matmul(x, wq_eff[layer].T, out=q.reshape(-1, d))
        np.matmul(x, model.wk[layer].T, out=k.reshape(-1, d))
        np.matmul(x, wv_eff[layer].T, out=v.reshape(-1, d))
        np.matmul(q, k.swapaxes(1, 2), out=attn)
        attn *= inv_sqrt_d
        _softmax_rows(attn)
        np.matmul(attn, v, out=buf.ctx)
        np.matmul(buf.ctx.reshape(-1, d), model.wo[layer].T, out=x_out)
        x_out += x
    return buf.x[n_layers % n_x].mean(axis=1)


def _pooled(model: ToyModel, tok: np.ndarray, buf: _Buffers | None) -> np.ndarray:
    """Pooled features of validated ``tok``, each chunk run in its worker's
    rows of ``buf``; ``None`` builds a forward-only scratch."""
    if buf is None:
        buf = _scratch(model.cfg, len(tok), backward=False)
    qv = model.effective_qv()
    return np.concatenate(parallel.chunked(len(tok), CHUNK, lambda worker, start, stop: _forward(
        model, tok[start:stop], buf.slot(worker, stop - start), qv)))


def forward(model: ToyModel, tokens) -> np.ndarray:
    """Logits ``(batch, n_classes)``."""
    tok = check_ids(tokens, "tokens", (None, model.cfg.seq_len), model.cfg.vocab_size)
    return _pooled(model, tok, None) @ model.head_w + model.head_b


def _label_log_probs(logits: np.ndarray, labels: np.ndarray,
                     n: int) -> tuple[np.ndarray, np.ndarray]:
    """Each row's log-probability of its label, and the gradient w.r.t.
    ``logits`` of the mean cross-entropy over ``n`` rows, these among them."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.sum(np.exp(shifted), axis=1))
    log_probs = shifted - log_z[:, None]
    rows = np.arange(len(logits))
    dlogits = np.exp(log_probs)
    dlogits[rows, labels] -= 1.0
    return log_probs[rows, labels], dlogits / n


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy loss and its gradient w.r.t. the logits."""
    picked, dlogits = _label_log_probs(logits, labels, len(logits))
    return float(-np.mean(picked)), dlogits


def loss_and_grads(model: ToyModel, tokens, labels) -> tuple[float, dict]:
    """Mean cross-entropy plus gradients for every parameter group that trains.

    Full-train mode returns all seven groups.  In craft-adapt mode
    (``model.adapters`` set) only ``head_w``, ``head_b`` and the stack of each
    adapted projection (``PROJECTIONS[name]``, e.g. ``wq`` for ``"Q"``) come
    back: the gradients of frozen stacks and embeddings are never computed.
    Each such stack (shape ``(n_layers, d, d)``) is the upstream tensor to
    feed :func:`craft.adapter.grad_j` for its adapter.

    Each call builds its own scratch of ``CHUNK`` rows per worker; the
    training loops in this module build theirs once and reuse it for every
    step.
    """
    tok, labels = _check_batch(model, tokens, labels)
    return _loss_and_grads(model, tok, labels, _scratch(model.cfg, len(tok), backward=True))


def _loss_and_grads(model: ToyModel, tok: np.ndarray, labels: np.ndarray,
                    buf: _Buffers) -> tuple[float, dict]:
    """:func:`loss_and_grads` of validated inputs in one parallel section.

    Each chunk runs its forward pass, its rows' loss terms and its backward
    pass in its worker's rows of ``buf``; this thread then takes the loss
    over every row, the head gradients over the whole batch and the
    chunk-ordered sum of the other partial gradients.
    """
    qv = model.effective_qv()
    groups = BACKBONE if model.adapters is None else tuple(PROJECTIONS[n] for n in model.adapters)

    def chunk(worker: int, start: int, stop: int):
        rows = buf.slot(worker, stop - start)
        pooled = _forward(model, tok[start:stop], rows, qv)
        picked, dlogits = _label_log_probs(pooled @ model.head_w + model.head_b,
                                           labels[start:stop], len(tok))
        d_pooled = dlogits @ model.head_w.T / model.cfg.seq_len
        return pooled, picked, dlogits, _backward(model, tok[start:stop], rows, d_pooled, qv,
                                                  groups)

    pooled, picked, dlogits, partials = zip(*parallel.chunked(len(tok), CHUNK, chunk))
    pooled, dlogits = np.concatenate(pooled), np.concatenate(dlogits)
    g = partials[0]
    for partial in partials[1:]:
        for name in g:
            g[name] += partial[name]
    g.update(head_w=pooled.T @ dlogits, head_b=dlogits.sum(axis=0))
    return float(-np.mean(np.concatenate(picked))), g


def _backward(model: ToyModel, tok: np.ndarray, buf: _Buffers, d_pooled: np.ndarray,
              qv: tuple[np.ndarray, np.ndarray], groups: tuple[str, ...]) -> dict[str, np.ndarray]:
    """One chunk's share of the gradient of each group in ``groups`` but the head.

    ``buf`` holds the forward pass of the chunk ``tok`` and ``d_pooled`` the
    loss gradient of its pooled rows divided by ``seq_len``.  ``buf.grad``
    holds each layer's ``d_ctx``, then ``d_q``, then ``d_k``, and
    ``buf.ctx``, once ``wo``'s gradient has read it, each product added to
    ``dx``, in the order q, k, v.  With ``embeddings`` in ``groups``,
    ``buf.dx`` ends holding the gradient of each embedded token, and each
    cell of the embedding gradient sums its token's rows in sequence order
    from +0.0, as ``np.add.at`` does.
    """
    d = model.cfg.d_model
    inv_sqrt_d = 1.0 / np.sqrt(d)
    wq_eff, wv_eff = qv
    g = {name: np.empty_like(getattr(model, name)) for name in groups if name != "embeddings"}
    buf.dx[:] = d_pooled[:, None, :]
    dx, product = buf.dx.reshape(-1, d), buf.ctx.reshape(-1, d)
    grad, d_v = buf.grad.reshape(-1, d), buf.d_v.reshape(-1, d)

    for layer in range(model.cfg.n_layers - 1, -1, -1):
        x, q, k, v = buf.x[layer].reshape(-1, d), buf.q[layer], buf.k[layer], buf.v[layer]
        attn = buf.attn[layer]
        if "wo" in g:
            # ctx holds the last layer the forward wrote; recompute this one's
            np.matmul(attn, v, out=buf.ctx)
            np.matmul(dx.T, product, out=g["wo"][layer])
        np.matmul(dx, model.wo[layer], out=grad)  # d_ctx
        d_scores = np.matmul(buf.grad, v.swapaxes(1, 2), out=buf.d_attn)
        np.matmul(attn.swapaxes(1, 2), buf.grad, out=buf.d_v)
        # softmax rows: dS = P * (dP - sum(dP * P)), overwriting dP
        d_scores -= np.multiply(d_scores, attn, out=buf.tmp_attn).sum(axis=-1, keepdims=True)
        d_scores *= attn
        d_scores *= inv_sqrt_d
        np.matmul(d_scores, k, out=buf.grad)  # d_q
        if "wq" in g:
            np.matmul(grad.T, x, out=g["wq"][layer])
        if "wv" in g:
            np.matmul(d_v.T, x, out=g["wv"][layer])
        if layer == 0 and "embeddings" not in groups:
            return g  # below layer 0, dx would only reach the frozen embeddings
        dx += np.matmul(grad, wq_eff[layer], out=product)
        np.matmul(d_scores.swapaxes(1, 2), q, out=buf.grad)  # d_k
        if "wk" in g:
            np.matmul(grad.T, x, out=g["wk"][layer])
        dx += np.matmul(grad, model.wk[layer], out=product)
        dx += np.matmul(d_v, wv_eff[layer], out=product)
    # bin t * d + c for column c of token t, laid out in the product scratch,
    # now free; a broadcast add would allocate numpy's ufunc buffers
    bins = np.take(np.arange(model.cfg.vocab_size * d).reshape(-1, d), tok.ravel(), axis=0,
                   out=product.view(np.intp), mode="clip")
    g["embeddings"] = np.bincount(bins.ravel(), weights=dx.ravel(),
                                  minlength=model.cfg.vocab_size * d).reshape(-1, d)
    return g


def evaluate(model: ToyModel, tokens, labels) -> float:
    return _evaluate(model, *_check_batch(model, tokens, labels), None)


def _evaluate(model: ToyModel, tok: np.ndarray, labels: np.ndarray, buf: _Buffers | None) -> float:
    """Accuracy on validated inputs, run through ``buf`` as :func:`_pooled` does.

    The head is applied once, to every pooled row.
    """
    preds = np.argmax(_pooled(model, tok, buf) @ model.head_w + model.head_b, axis=1)
    return float(np.mean(preds == labels))


def _descend(model: ToyModel, names, grads, eta: float, step: int, stage: str) -> None:
    """``param -= eta * grads[name]`` in place for each named parameter of ``model``; a
    non-finite result raises :class:`DivergenceError` with ``step``, as ``sgd_step`` does."""
    for name in names:
        param = getattr(model, name)
        param -= eta * grads[name]
        if not np.isfinite(param).all():
            raise DivergenceError(
                f"{stage} diverged: update of {name} contains non-finite entries", step=step)


def _derived_seeds(seed: int) -> dict[str, int]:
    """The model's seed, then one per ``PROJECTIONS`` entry, in its order."""
    words = np.random.SeedSequence(seed).generate_state(1 + len(PROJECTIONS))
    return {"model": int(words[0]), **{f"adapter_{name.lower()}": int(word)
                                       for name, word in zip(PROJECTIONS, words[1:])}}


def pretrain(
    cfg: ToyConfig,
    task: SyntheticTask,
    eta: float = 0.05,
    max_steps: int = 400,
    target_acc: float = 0.9,
) -> ToyModel:
    """Full-batch gradient descent on every parameter until ``target_acc``.

    Raises :class:`PretrainError` when the final eval accuracy is below 0.75,
    and :class:`DivergenceError` with its step for a non-finite loss or update.
    The returned model carries the loss curve in ``model.pretrain_losses``.
    """
    eta = check_real(eta, "eta")
    max_steps = check_int(max_steps, "max_steps", low=0)
    target_acc = check_real(target_acc, "target_acc")
    seeds = _derived_seeds(cfg.seed)
    model = ToyModel(cfg, np.random.default_rng(seeds["model"]))
    tokens, labels = make_dataset(task, cfg, "train")
    eval_tokens, eval_labels = make_dataset(task, cfg, "eval")
    buf = _scratch(cfg, max(len(tokens), len(eval_tokens)), backward=True)

    losses = []
    acc = None  # eval accuracy of the current parameters, once known
    for step in range(max_steps):
        loss, g = _loss_and_grads(model, tokens, labels, buf)
        if not np.isfinite(loss):
            raise DivergenceError("pretraining loss became non-finite", step=step)
        losses.append(loss)
        _descend(model, PARAMS, g, eta, step, "pretraining")
        acc = None
        if (step + 1) % EVAL_EVERY == 0:
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
    buf = _scratch(model.cfg, len(tokens), backward=True)

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
        _descend(tuned, HEAD, g, head_eta, step, "fine-tuning")
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
    run logistic regression on them.  A non-finite loss or update raises
    :class:`DivergenceError` with its step.
    """
    eta = check_real(eta, "eta")
    steps = check_int(steps, "steps", low=0)
    tuned = model.clone()
    tokens, labels = _check_batch(tuned, tokens, labels)
    pooled = _pooled(tuned, tokens, None)
    losses = []
    for step in range(steps):
        loss, dlogits = cross_entropy(pooled @ tuned.head_w + tuned.head_b, labels)
        if not np.isfinite(loss):
            raise DivergenceError("fine-tuning diverged: loss became non-finite", step=step)
        losses.append(loss)
        _descend(tuned, HEAD, {"head_w": pooled.T @ dlogits, "head_b": dlogits.sum(axis=0)},
                 eta, step, "fine-tuning")
    return tuned, losses
