"""Reference implementations of the toy model's kernels, kept as test oracles.

``reference_loss_and_grads`` is the original einsum formulation of the
backward pass (with the original 3-D broadcast forward pass), and
``reference_head_only_finetune`` the original baseline loop, which runs a full
forward/backward pass per step and reads only the head gradients.
``reference_pretrain`` and ``reference_craft_finetune`` are the training loops
written over the public ``loss_and_grads`` and ``evaluate``, which work in
fresh activation buffers on every call.
``unaliased_loss_and_grads`` is the GEMM training step unfused, with one
scratch array per backward value and ``dx``'s query term added after
``d_k`` is formed; the fused, aliased step must equal it bit for bit.
``majority_label`` states the base task's labelling rule directly.
"""

import numpy as np

from craft.adapter import grad_j, sgd_step
from craft.errors import DivergenceError
from craft.tensor import check_ids
from craft.toy import (
    BACKBONE,
    CHUNK,
    EVAL_EVERY,
    PROJECTIONS,
    ToyModel,
    _Buffers,
    _derived_seeds,
    _forward,
    _label_log_probs,
    cross_entropy,
    evaluate,
    loss_and_grads,
    make_dataset,
)


def majority_label(tokens, vocab_size):
    """1 when more than half the tokens lie in the upper vocabulary half."""
    upper = np.sum(tokens >= vocab_size // 2, axis=-1)
    return (upper * 2 > tokens.shape[-1]).astype(np.int64)


def reference_softmax_rows(scores):
    shifted = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def reference_forward(model, tokens):
    tok = check_ids(tokens, "tokens", (None, model.cfg.seq_len), model.cfg.vocab_size)
    inv_sqrt_d = 1.0 / np.sqrt(model.cfg.d_model)
    wq_eff, wv_eff = model.effective_qv()
    x = model.embeddings[tok]
    layers = []
    for layer in range(model.cfg.n_layers):
        q = x @ wq_eff[layer].T
        k = x @ model.wk[layer].T
        v = x @ wv_eff[layer].T
        attn = reference_softmax_rows((q @ k.swapaxes(1, 2)) * inv_sqrt_d)
        ctx = attn @ v
        out = ctx @ model.wo[layer].T
        layers.append({"x": x, "q": q, "k": k, "v": v, "attn": attn, "ctx": ctx})
        x = x + out
    pooled = x.mean(axis=1)
    logits = pooled @ model.head_w + model.head_b
    cache = {"tokens": tok, "layers": layers, "pooled": pooled,
             "wq_eff": wq_eff, "wv_eff": wv_eff}
    return logits, cache


def reference_loss_and_grads(model, tokens, labels):
    labels = np.asarray(labels, dtype=np.int64)
    logits, cache = reference_forward(model, tokens)
    loss, dlogits = cross_entropy(logits, labels)

    pooled = cache["pooled"]
    g = {
        "head_w": pooled.T @ dlogits,
        "head_b": dlogits.sum(axis=0),
        "embeddings": np.zeros_like(model.embeddings),
        "wq": np.zeros_like(model.wq),
        "wk": np.zeros_like(model.wk),
        "wv": np.zeros_like(model.wv),
        "wo": np.zeros_like(model.wo),
    }
    inv_sqrt_d = 1.0 / np.sqrt(model.cfg.d_model)
    seq_len = model.cfg.seq_len
    dx = np.repeat((dlogits @ model.head_w.T)[:, None, :] / seq_len, seq_len, axis=1)

    for layer in range(model.cfg.n_layers - 1, -1, -1):
        c = cache["layers"][layer]
        d_out = dx
        g["wo"][layer] = np.einsum("bli,blj->ij", d_out, c["ctx"])
        d_ctx = d_out @ model.wo[layer]
        d_attn = np.einsum("blj,bmj->blm", d_ctx, c["v"])
        d_v = np.einsum("blm,blj->bmj", c["attn"], d_ctx)
        d_scores = c["attn"] * (d_attn - np.sum(d_attn * c["attn"], axis=-1, keepdims=True))
        d_scores *= inv_sqrt_d
        d_q = d_scores @ c["k"]
        d_k = np.einsum("blm,bli->bmi", d_scores, c["q"])
        g["wq"][layer] = np.einsum("bli,blj->ij", d_q, c["x"])
        g["wk"][layer] = np.einsum("bli,blj->ij", d_k, c["x"])
        g["wv"][layer] = np.einsum("bli,blj->ij", d_v, c["x"])
        dx = dx + d_q @ cache["wq_eff"][layer] + d_k @ model.wk[layer] \
            + d_v @ cache["wv_eff"][layer]

    np.add.at(g["embeddings"], cache["tokens"], dx)
    return loss, g


def unaliased_loss_and_grads(model, tokens, labels):
    """``loss_and_grads`` unfused and with one fresh array for each value.

    Per chunk of ``CHUNK`` sequences, in order on the calling thread: a
    forward pass into fresh buffers, then the chunk's log-probabilities and
    logit gradient.  Then, per chunk, a backward pass with one fresh array
    for each backward value.  The loss and the head gradients are taken over
    the whole batch; the weight gradients and the embedding gradient
    (``np.add.at`` over each chunk's ``dx``) sum in chunk order."""
    tok = check_ids(tokens, "tokens", (None, model.cfg.seq_len), model.cfg.vocab_size)
    labels = check_ids(labels, "labels", (len(tok),), model.cfg.n_classes)
    qv = model.effective_qv()
    bounds = [(start, min(start + CHUNK, len(tok))) for start in range(0, len(tok), CHUNK)]
    bufs = [_Buffers(model.cfg, stop - start, backward=True) for start, stop in bounds]
    pooled = [_forward(model, tok[start:stop], buf, qv) for (start, stop), buf in zip(bounds, bufs)]
    # each chunk's logits are its own product: a one-row chunk may round as
    # numpy's matrix-vector product, not as a row of the whole batch's
    picked, dlogits = zip(*(_label_log_probs(rows @ model.head_w + model.head_b,
                                             labels[start:stop], len(tok))
                            for rows, (start, stop) in zip(pooled, bounds)))
    groups = BACKBONE if model.adapters is None else tuple(PROJECTIONS[n] for n in model.adapters)
    g = None
    for (start, stop), buf, chunk_dlogits in zip(bounds, bufs, dlogits):
        d_pooled = chunk_dlogits @ model.head_w.T / model.cfg.seq_len
        partial, dx = _unaliased_backward(model, buf, d_pooled, qv, groups)
        if "embeddings" in groups:
            partial["embeddings"] = np.zeros_like(model.embeddings)
            np.add.at(partial["embeddings"], tok[start:stop], dx)
        if g is None:
            g = partial
        else:
            for name in g:
                g[name] += partial[name]
    pooled, dlogits = np.concatenate(pooled), np.concatenate(dlogits)
    g.update(head_w=pooled.T @ dlogits, head_b=dlogits.sum(axis=0))
    return float(-np.mean(np.concatenate(picked))), g


def _unaliased_backward(model, buf, d_pooled, qv, groups):
    """One chunk's weight gradients and its ``dx``, reading only the forward
    activations in ``buf``."""
    d = model.cfg.d_model
    inv_sqrt_d = 1.0 / np.sqrt(d)
    wq_eff, wv_eff = qv
    acts, scores = buf.x[0].shape, buf.attn[0].shape
    g = {name: np.empty_like(getattr(model, name)) for name in groups if name != "embeddings"}
    dx_3d = np.empty(acts)
    dx_3d[:] = d_pooled[:, None, :]
    ctx, tmp, d_ctx, d_v, d_q, d_k = (np.empty(acts) for _ in range(6))
    d_attn, tmp_attn = np.empty(scores), np.empty(scores)
    dx = dx_3d.reshape(-1, d)
    for layer in range(model.cfg.n_layers - 1, -1, -1):
        x, q, k, v = buf.x[layer].reshape(-1, d), buf.q[layer], buf.k[layer], buf.v[layer]
        attn = buf.attn[layer]
        if "wo" in g:
            np.matmul(attn, v, out=ctx)
            np.matmul(dx.T, ctx.reshape(-1, d), out=g["wo"][layer])
        np.matmul(dx, model.wo[layer], out=d_ctx.reshape(-1, d))
        d_scores = np.matmul(d_ctx, v.swapaxes(1, 2), out=d_attn)
        np.matmul(attn.swapaxes(1, 2), d_ctx, out=d_v)
        d_scores -= np.multiply(d_scores, attn, out=tmp_attn).sum(axis=-1, keepdims=True)
        d_scores *= attn
        d_scores *= inv_sqrt_d
        np.matmul(d_scores, k, out=d_q)
        if "wq" in g:
            np.matmul(d_q.reshape(-1, d).T, x, out=g["wq"][layer])
        if "wv" in g:
            np.matmul(d_v.reshape(-1, d).T, x, out=g["wv"][layer])
        if layer == 0 and "embeddings" not in groups:
            break
        np.matmul(d_scores.swapaxes(1, 2), q, out=d_k)
        if "wk" in g:
            np.matmul(d_k.reshape(-1, d).T, x, out=g["wk"][layer])
        for term, w in ((d_q, wq_eff[layer]), (d_k, model.wk[layer]), (d_v, wv_eff[layer])):
            dx += np.matmul(term.reshape(-1, d), w, out=tmp.reshape(-1, d))
    return g, dx_3d


def reference_head_only_finetune(model, task, eta, steps):
    tuned = model.clone()
    tokens, labels = make_dataset(task, model.cfg, "train")
    losses = []
    for step in range(steps):
        loss, g = loss_and_grads(tuned, tokens, labels)
        if not np.isfinite(loss):
            raise DivergenceError("fine-tuning loss became non-finite", step=step)
        losses.append(loss)
        tuned.head_w -= eta * g["head_w"]
        tuned.head_b -= eta * g["head_b"]
    return tuned, losses


def reference_pretrain(cfg, task, eta, max_steps, target_acc):
    model = ToyModel(cfg, np.random.default_rng(_derived_seeds(cfg.seed)["model"]))
    tokens, labels = make_dataset(task, cfg, "train")
    eval_set = make_dataset(task, cfg, "eval")
    losses = []
    for step in range(max_steps):
        loss, g = loss_and_grads(model, tokens, labels)
        losses.append(loss)
        for name in ("embeddings", "wq", "wk", "wv", "wo", "head_w", "head_b"):
            arr = getattr(model, name)
            arr -= eta * g[name]
        if (step + 1) % EVAL_EVERY == 0 and evaluate(model, *eval_set) >= target_acc:
            break
    return model, losses


def reference_craft_finetune(model, adapters, tokens, labels, eta, steps, head_eta):
    tuned = model.clone()
    tuned.adapters = dict(adapters)
    losses = []
    for _ in range(steps):
        loss, g = loss_and_grads(tuned, tokens, labels)
        losses.append(loss)
        for name, a in tuned.adapters.items():
            tuned.adapters[name] = sgd_step(a, grad_j(a, g["w" + name.lower()]), eta)
        tuned.head_w -= head_eta * g["head_w"]
        tuned.head_b -= head_eta * g["head_b"]
    return tuned, losses
