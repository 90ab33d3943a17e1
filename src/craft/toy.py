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
same set in passes of its batch.

Every pass splits its sequences into chunks of ``CHUNK`` at fixed
boundaries and runs the forward and backward of each chunk on a worker
thread, in that chunk's own rows of the buffers: ``parallel.WORKERS`` of
them (at most one per chunk), under ``parallel.one_blas_thread``.
The calling thread does what needs the whole batch: the head, the loss, and
the sums of the per-chunk weight gradients in chunk order.  The split
depends only on the number of sequences, so every result is the same bytes
whatever the CPU or BLAS thread count.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import threading
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from . import parallel
from .adapter import CraftAdapter, InitConfig, adapted_tensor, grad_j, init_adapter, sgd_step
from .errors import DivergenceError, PretrainError, ValidationError, check_int, check_real
from .tucker import TuckerRanks

TASK_RULES = ("majority", "majority_flip")
PROJECTIONS = {"Q": "wq", "V": "wv"}
BACKBONE = ("embeddings", "wq", "wk", "wv", "wo")
PARAMS = BACKBONE + ("head_w", "head_b")
# sequences per chunk; a batch splits at multiples of it, whatever the CPU count
CHUNK = 128


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


def _chunked(n: int, work: Callable[[int, int], object]) -> list:
    """``[work(start, stop) for each chunk of n sequences]``, run on worker threads.

    The chunks are ``CHUNK`` sequences each, the last one partial.  The
    calling thread works too, so ``min(chunks, parallel.WORKERS) - 1``
    threads start, and all of them are joined, under
    ``parallel.one_blas_thread``, before this returns.  Each worker runs
    under the caller's numpy error state and stops at its first failing
    chunk.  An interrupt (a ``BaseException`` that is no ``Exception``, such
    as ``KeyboardInterrupt``) is raised here first, and otherwise the
    exception of the first chunk that failed.
    """
    bounds = [(start, min(start + CHUNK, n)) for start in range(0, n, CHUNK)]
    results, errors = [None] * len(bounds), [None] * len(bounds)
    workers, errstate = min(len(bounds), parallel.WORKERS), np.geterr()

    def run(first: int):
        with np.errstate(**errstate):
            for i in range(first, len(bounds), workers):
                try:
                    results[i] = work(*bounds[i])
                except BaseException as err:
                    errors[i] = err
                    break  # the chunks this thread skips all come after this one

    threads = [threading.Thread(target=run, args=(w,)) for w in range(1, workers)]
    with parallel.one_blas_thread() if threads else contextlib.nullcontext():
        for t in threads:
            t.start()
        run(0)
        for t in threads:
            t.join()
    failed = [err for err in errors if err is not None]
    if failed:
        raise next((err for err in failed if not isinstance(err, Exception)), failed[0])
    return results


class _Buffers:
    """Activations for up to ``batch`` sequences, overwritten in place by every pass.

    Each array is batch-major after its layer axis, and :meth:`rows` views
    the slice of a run of sequences, so each chunk works in its own rows.
    Row ``l`` of ``x`` is layer ``l``'s input and the next row its output;
    ``q``, ``k``, ``v`` and ``attn`` hold layer ``l`` in slot ``l % depth``.
    ``ctx`` holds one layer: the backward pass recomputes it from ``attn``
    and ``v`` where it needs it.  Training needs every layer and the backward
    scratch; a forward-only pass keeps depth 1, so ``x`` alternates between
    two rows.
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
            self.dx, self.tmp = np.empty(acts), np.empty(acts)
            self.d_ctx, self.d_v, self.d_q, self.d_k = (np.empty(acts) for _ in range(4))
            self.d_attn, self.tmp_attn = np.empty(scores), np.empty(scores)

    def rows(self, start: int, stop: int) -> "_Buffers":
        """These buffers restricted to sequences ``start:stop``; no copy."""
        view = copy.copy(self)
        view.batch = stop - start
        for name, arr in vars(self).items():
            if isinstance(arr, np.ndarray):
                setattr(view, name, arr[:, start:stop] if name in self.LAYERED else arr[start:stop])
        return view


def _forward(model: ToyModel, tok: np.ndarray, buf: _Buffers,
             qv: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Pooled features ``(len(tok), d)`` of validated ``tok``, at most ``buf.batch``
    sequences, under the effective Q/V stacks ``qv``.  Each chunk runs on a
    worker and writes its activations into its own rows of ``buf``."""
    return np.concatenate(_chunked(len(tok), lambda start, stop: _forward_rows(
        model, tok[start:stop], buf.rows(start, stop), qv)))


def _forward_rows(model: ToyModel, tok: np.ndarray, buf: _Buffers,
                  qv: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Pooled features of one chunk ``tok``, which fills ``buf``."""
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


def forward(model: ToyModel, tokens) -> np.ndarray:
    """Logits ``(batch, n_classes)``."""
    tok = _check_tokens(model, tokens)
    buf = _Buffers(model.cfg, len(tok), backward=False)
    return _forward(model, tok, buf, model.effective_qv()) @ model.head_w + model.head_b


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
    qv = model.effective_qv()
    pooled = _forward(model, tok, buf, qv)
    loss, dlogits = cross_entropy(pooled @ model.head_w + model.head_b, labels)
    groups = BACKBONE if model.adapters is None else tuple(PROJECTIONS[n] for n in model.adapters)
    d_pooled = dlogits @ model.head_w.T / model.cfg.seq_len
    partials = _chunked(len(tok), lambda start, stop: _backward(
        model, buf.rows(start, stop), d_pooled[start:stop], qv, groups))
    g = partials[0]
    for partial in partials[1:]:
        for name in g:
            g[name] += partial[name]
    g.update(head_w=pooled.T @ dlogits, head_b=dlogits.sum(axis=0))
    if "embeddings" in groups:
        # each cell sums its token's rows in sequence order from +0.0, as np.add.at does
        d = model.cfg.d_model
        cells = (tok[..., None] * d + np.arange(d)).ravel()
        g["embeddings"] = np.bincount(cells, weights=buf.dx[:len(tok)].ravel(),
                                      minlength=model.cfg.vocab_size * d).reshape(-1, d)
    return loss, g


def _backward(model: ToyModel, buf: _Buffers, d_pooled: np.ndarray,
              qv: tuple[np.ndarray, np.ndarray], groups: tuple[str, ...]) -> dict[str, np.ndarray]:
    """One chunk's share of the gradient of each weight stack in ``groups``.

    ``buf`` holds the chunk's forward pass and ``d_pooled`` the loss gradient
    of its pooled rows divided by ``seq_len``.  With ``embeddings`` in
    ``groups``, ``buf.dx`` is left holding the gradient of each embedded token.
    """
    d = model.cfg.d_model
    inv_sqrt_d = 1.0 / np.sqrt(d)
    wq_eff, wv_eff = qv
    g = {name: np.empty_like(getattr(model, name)) for name in groups if name != "embeddings"}
    buf.dx[:] = d_pooled[:, None, :]
    dx, tmp = buf.dx.reshape(-1, d), buf.tmp.reshape(-1, d)
    d_ctx, d_q, d_k, d_v = (a.reshape(-1, d) for a in (buf.d_ctx, buf.d_q, buf.d_k, buf.d_v))

    for layer in range(model.cfg.n_layers - 1, -1, -1):
        x, q, k, v = buf.x[layer].reshape(-1, d), buf.q[layer], buf.k[layer], buf.v[layer]
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
        if layer == 0 and "embeddings" not in groups:
            break  # below layer 0, dx would only reach the frozen embeddings
        np.matmul(d_scores.swapaxes(1, 2), q, out=buf.d_k)
        if "wk" in g:
            np.matmul(d_k.T, x, out=g["wk"][layer])
        dx += np.matmul(d_q, wq_eff[layer], out=tmp)
        dx += np.matmul(d_k, model.wk[layer], out=tmp)
        dx += np.matmul(d_v, wv_eff[layer], out=tmp)
    return g


def evaluate(model: ToyModel, tokens, labels) -> float:
    tok, labels = _check_batch(model, tokens, labels)
    return _evaluate(model, tok, labels, _Buffers(model.cfg, len(tok), backward=False))


def _evaluate(model: ToyModel, tok: np.ndarray, labels: np.ndarray, buf: _Buffers) -> float:
    """Accuracy on validated inputs, run through ``buf`` in passes of its batch.

    The head is applied once, to every pooled row.
    """
    qv = model.effective_qv()
    pooled = np.concatenate([_forward(model, tok[start:start + buf.batch], buf, qv)
                             for start in range(0, len(tok), buf.batch)])
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
    buf = _Buffers(tuned.cfg, len(tokens), backward=False)
    pooled = _forward(tuned, tokens, buf, tuned.effective_qv())
    losses = []
    for step in range(steps):
        loss, dlogits = cross_entropy(pooled @ tuned.head_w + tuned.head_b, labels)
        if not np.isfinite(loss):
            raise DivergenceError("fine-tuning diverged: loss became non-finite", step=step)
        losses.append(loss)
        tuned.head_w -= eta * (pooled.T @ dlogits)
        tuned.head_b -= eta * dlogits.sum(axis=0)
    return tuned, losses
