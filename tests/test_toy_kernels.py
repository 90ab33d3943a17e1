"""The toy model's GEMM kernels against the einsum reference in toy_reference.

Reordered contractions change rounding, so the loss and each gradient group
must match the reference to a relative error of 1e-12 of that group's
max-abs value. Where every sequence repeats one token, attention is uniform
whatever the queries and keys, so the ``wq`` and ``wk`` gradients are zero in
exact arithmetic and hold only rounding noise; those two groups are then held
to 1e-12 of the largest gradient entry instead. The head-only baseline changed no arithmetic, only where the
pooled features come from, so it must match its reference bit for bit.
The backward pass shares its scratch arrays between values whose lifetimes
do not overlap, and writes gradients over activations it has finished with;
that changed no arithmetic either, so every gradient must equal the
unaliased step in toy_reference bit for bit.

Only the groups that train are returned: all seven in full-train mode, and
``head_w``, ``head_b`` and the stack of each adapted projection in craft-adapt
mode, where the gradients of frozen stacks and embeddings are never computed.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from craft import parallel, toy
from craft.toy import (
    CHUNK,
    PROJECTIONS,
    SyntheticTask,
    ToyConfig,
    ToyModel,
    _Buffers,
    _backward,
    _evaluate,
    _forward,
    _loss_and_grads,
    _scratch,
    build_adapters,
    craft_finetune,
    evaluate,
    forward,
    head_only_finetune,
    loss_and_grads,
    make_dataset,
    pretrain,
)
from craft.tucker import TuckerRanks
from helpers import traced_peak
from toy_reference import (
    reference_craft_finetune,
    reference_head_only_finetune,
    reference_loss_and_grads,
    reference_pretrain,
    unaliased_loss_and_grads,
)

REL_TOL = 1e-12
GROUPS = ("head_w", "head_b", "embeddings", "wq", "wk", "wv", "wo")


def uniform_attention_groups(tokens):
    """Gradient groups that are zero in exact arithmetic for ``tokens``: ``wq``
    and ``wk`` when every sequence (of length > 1) repeats one token."""
    tokens = np.asarray(tokens)
    if tokens.shape[1] > 1 and np.all(tokens == tokens[:, :1]):
        return ("wq", "wk")
    return ()


def assert_matches_reference(model, tokens, labels):
    loss, g = loss_and_grads(model, tokens, labels)
    ref_loss, ref_g = reference_loss_and_grads(model, tokens, labels)
    assert abs(loss - ref_loss) <= REL_TOL * abs(ref_loss)
    if model.adapters is None:
        assert set(g) == set(GROUPS)
    else:
        assert set(g) == {"head_w", "head_b"} | {PROJECTIONS[n] for n in model.adapters}
    zero_groups = uniform_attention_groups(tokens)
    noise_bound = REL_TOL * max(np.abs(ref_g[name]).max() for name in GROUPS)
    for name in g:
        assert g[name].shape == ref_g[name].shape, name
        if name in zero_groups:
            assert np.abs(g[name]).max() <= noise_bound, name
            assert np.abs(ref_g[name]).max() <= noise_bound, name
            continue
        err = np.abs(g[name] - ref_g[name]).max()
        assert err <= REL_TOL * np.abs(ref_g[name]).max(), (name, err)


def random_model(cfg, seed, ranks=None, projections=tuple(PROJECTIONS)):
    """Model with a nonzero head, so every backbone gradient is nonzero; with
    ``ranks`` the weights of ``projections`` route through adapters
    (craft-adapt)."""
    rng = np.random.default_rng(seed)
    model = ToyModel(cfg, rng)
    model.head_w = 0.3 * rng.standard_normal(model.head_w.shape)
    model.head_b = 0.1 * rng.standard_normal(model.head_b.shape)
    if ranks is not None:
        model.adapters = build_adapters(model, ranks, projections=projections)
    return model


CONFIGS = [
    (ToyConfig(n_layers=2, d_model=8, vocab_size=6, seq_len=5, seed=1), 16, TuckerRanks(2, 3, 3)),
    (ToyConfig(n_layers=3, d_model=6, vocab_size=10, seq_len=7, n_classes=3, seed=2), 9,
     TuckerRanks(2, 4, 5)),
    (ToyConfig(n_layers=1, d_model=2, vocab_size=4, seq_len=1, seed=3), 4, TuckerRanks(1, 1, 2)),
    (ToyConfig(), 64, TuckerRanks(4, 8, 8)),
    # four chunks, the last one partial
    (ToyConfig(n_layers=2, d_model=8, vocab_size=6, seq_len=5, seed=6), 3 * CHUNK + 8,
     TuckerRanks(2, 3, 3)),
]


@pytest.mark.parametrize("projections", [None, ("Q", "V"), ("Q",), ("V",)],
                         ids=["full-train", "craft-adapt", "craft-adapt-Q", "craft-adapt-V"])
@pytest.mark.parametrize("cfg,batch,ranks", CONFIGS)
def test_loss_and_grads_match_einsum_reference(cfg, batch, ranks, projections):
    if projections is None:
        model = random_model(cfg, seed=cfg.seed + 10)
    else:
        model = random_model(cfg, seed=cfg.seed + 10, ranks=ranks, projections=projections)
        assert tuple(model.adapters) == projections
    task = SyntheticTask(seed=cfg.seed, train_size=batch, eval_size=batch)
    tokens, labels = make_dataset(task, cfg, "train")
    assert_matches_reference(model, tokens, labels)


@given(
    n_layers=st.integers(1, 3),
    half_d=st.integers(1, 5),
    vocab_size=st.integers(2, 8),
    seq_len=st.integers(1, 6),
    n_classes=st.integers(2, 3),
    batch=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    craft_adapt=st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_loss_and_grads_match_reference_on_random_configs(
        n_layers, half_d, vocab_size, seq_len, n_classes, batch, seed, craft_adapt):
    cfg = ToyConfig(n_layers=n_layers, d_model=2 * half_d, vocab_size=vocab_size,
                    seq_len=seq_len, n_classes=n_classes)
    ranks = TuckerRanks(1, half_d, half_d) if craft_adapt else None
    model = random_model(cfg, seed, ranks)
    rng = np.random.default_rng(seed)
    tokens = rng.integers(0, vocab_size, (batch, seq_len))
    labels = rng.integers(0, n_classes, batch)
    assert_matches_reference(model, tokens, labels)


@given(
    n_layers=st.integers(1, 3),
    half_d=st.integers(1, 4),
    vocab_size=st.integers(2, 8),
    seq_len=st.integers(1, 6),
    n_classes=st.integers(2, 3),
    batch=st.integers(1, 2 * CHUNK + 8),
    seed=st.integers(0, 2**32 - 1),
    projections=st.sampled_from([None, ("Q", "V"), ("Q",), ("V",)]),
)
@settings(max_examples=25, deadline=None)
# 2 * seq_len > d_model: dP and its row-sum temporary are wider than one ctx
# layer, so the work rows take the 2 * seq_len**2 width; full-train mode and
# a partial last chunk
@example(n_layers=2, half_d=2, vocab_size=5, seq_len=5, n_classes=3, batch=CHUNK + 9,
         seed=11, projections=None)
def test_loss_and_grads_equal_the_unaliased_step_bitwise(
        n_layers, half_d, vocab_size, seq_len, n_classes, batch, seed, projections):
    cfg = ToyConfig(n_layers=n_layers, d_model=2 * half_d, vocab_size=vocab_size,
                    seq_len=seq_len, n_classes=n_classes)
    model = random_model(cfg, seed) if projections is None else random_model(
        cfg, seed, TuckerRanks(1, half_d, half_d), projections)
    rng = np.random.default_rng(seed)
    tokens = rng.integers(0, vocab_size, (batch, seq_len))
    labels = rng.integers(0, n_classes, batch)
    loss, g = loss_and_grads(model, tokens, labels)
    ref_loss, ref_g = unaliased_loss_and_grads(model, tokens, labels)
    assert loss == ref_loss
    assert set(g) == set(ref_g)
    for name in g:
        assert g[name].tobytes() == ref_g[name].tobytes(), name


@given(
    vocab_size=st.integers(2, 4),
    seq_len=st.integers(2, 6),
    batch=st.integers(3, CHUNK + 8),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=25, deadline=None)
def test_embedding_gradient_is_add_at_over_dx_bitwise(vocab_size, seq_len, batch, seed):
    """Every token repeats (more positions than vocabulary), so each cell
    sums several rows of a chunk's ``dx``, in sequence order from +0.0; the
    chunks' sums add up in chunk order.  One worker runs the chunks in
    order, and each one's ``dx`` is read from the top row of ``x``, where
    its backward pass leaves it."""
    cfg = ToyConfig(n_layers=2, d_model=4, vocab_size=vocab_size, seq_len=seq_len)
    model = random_model(cfg, seed)
    rng = np.random.default_rng(seed)
    tokens = rng.integers(0, vocab_size, (batch, seq_len))
    chunks = []

    def keep_dx(model, tok, buf, *args):
        g = _backward(model, tok, buf, *args)
        chunks.append((tok, buf.x[-1].copy()))
        return g

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(parallel, "WORKERS", 1)
        patch.setattr(toy, "_backward", keep_dx)
        _, g = loss_and_grads(model, tokens, rng.integers(0, 2, batch))
    assert len(chunks) == -(-batch // CHUNK)
    ref = None
    for tok, dx in chunks:
        partial = np.zeros_like(model.embeddings)
        np.add.at(partial, tok, dx)
        ref = partial if ref is None else ref + partial
    assert g["embeddings"].tobytes() == ref.tobytes()


def scratch_bytes(buf):
    return sum(a.nbytes for a in vars(buf).values() if isinstance(a, np.ndarray))


@pytest.mark.parametrize("craft_adapt", [False, True], ids=["full-train", "craft-adapt"])
def test_training_step_allocates_less_than_one_activation_array(craft_adapt):
    """With its scratch built, a step over three chunks allocates only
    per-sequence rows, weight-sized gradients and numpy's fixed-size ufunc
    buffers: less than one ``(batch, seq_len, d)`` array."""
    cfg = ToyConfig(n_layers=2, seed=6)
    model = random_model(cfg, seed=6, ranks=TuckerRanks(2, 8, 8) if craft_adapt else None)
    tokens, labels = make_dataset(SyntheticTask(seed=6, train_size=CHUNK + 72), cfg, "train")
    buf = _scratch(cfg, len(tokens), backward=True)
    _loss_and_grads(model, tokens, labels, buf)
    peak = traced_peak(lambda: _loss_and_grads(model, tokens, labels, buf))
    assert peak < 8 * len(tokens) * cfg.seq_len * cfg.d_model


@pytest.mark.parametrize("craft_adapt", [False, True], ids=["full-train", "craft-adapt"])
def test_training_memory_does_not_grow_with_the_batch(monkeypatch, craft_adapt):
    """From 2 to 8 chunks, a step's ``tracemalloc`` peak, its scratch built
    first, and that of a public call, which builds its own, grow by less
    than one chunk's scratch: only per-sequence rows and per-chunk partial
    gradients grow.  Two workers, whatever the host."""
    monkeypatch.setattr(parallel, "WORKERS", 2)
    cfg = ToyConfig(n_layers=2, seed=7)
    model = random_model(cfg, seed=7, ranks=TuckerRanks(2, 8, 8) if craft_adapt else None)
    rng = np.random.default_rng(7)
    step_peaks, call_peaks = [], []
    for n in (2 * CHUNK, 8 * CHUNK):
        tokens = rng.integers(0, cfg.vocab_size, (n, cfg.seq_len))
        labels = rng.integers(0, cfg.n_classes, n)
        buf = _scratch(cfg, n, backward=True)
        assert buf.batch == 2 * CHUNK
        step_peaks.append(traced_peak(lambda: _loss_and_grads(model, tokens, labels, buf)))
        call_peaks.append(traced_peak(lambda: loss_and_grads(model, tokens, labels)))
    chunk_bytes = scratch_bytes(_Buffers(cfg, CHUNK, backward=True))
    assert step_peaks[1] - step_peaks[0] < chunk_bytes
    assert call_peaks[1] - call_peaks[0] < chunk_bytes


@pytest.mark.parametrize("call", ["forward", "evaluate", "head_only_finetune"])
def test_forward_only_calls_keep_one_pass_of_buffers(call):
    """On four times ``parallel.WORKERS * CHUNK`` sequences, the calls that
    run only the forward pass hold one forward-only scratch of ``CHUNK``
    rows per worker plus per-sequence outputs: well under two scratches'
    worth."""
    cfg = ToyConfig(n_layers=1)
    model = random_model(cfg, seed=8)
    per_pass = parallel.WORKERS * CHUNK
    rng = np.random.default_rng(8)
    tokens = rng.integers(0, cfg.vocab_size, (4 * per_pass, cfg.seq_len))
    labels = rng.integers(0, cfg.n_classes, len(tokens))
    pass_bytes = scratch_bytes(_scratch(cfg, len(tokens), backward=False))
    assert pass_bytes == scratch_bytes(_Buffers(cfg, per_pass, backward=False))
    run = {"forward": lambda: forward(model, tokens),
           "evaluate": lambda: evaluate(model, tokens, labels),
           "head_only_finetune": lambda: head_only_finetune(model, tokens, labels, 0.1, 1)}
    assert traced_peak(run[call]) < 2 * pass_bytes


@pytest.mark.parametrize("craft_adapt", [False, True], ids=["full-train", "craft-adapt"])
@pytest.mark.parametrize("cfg,tokens,labels,seed", [
    (ToyConfig(n_layers=1, d_model=2, vocab_size=2, seq_len=3), [[1, 1, 1], [0, 0, 0]],
     [0, 0], 0),
    (ToyConfig(n_layers=3, d_model=8, vocab_size=5, seq_len=6, n_classes=3),
     [[t] * 6 for t in range(5)], [0, 1, 2, 0, 1], 7),
], ids=["one-layer", "three-layer"])
def test_repeated_token_rows_give_zero_query_and_key_grads(cfg, tokens, labels, seed,
                                                           craft_adapt):
    """Every row repeats one token, so attention is uniform in every layer and
    the ``wq`` and ``wk`` gradients are pure rounding noise in both kernels."""
    assert uniform_attention_groups(tokens) == ("wq", "wk")
    ranks = TuckerRanks(1, cfg.d_model // 2, cfg.d_model // 2) if craft_adapt else None
    model = random_model(cfg, seed, ranks)
    assert_matches_reference(model, np.array(tokens), np.array(labels))


def test_head_only_finetune_is_bitwise_equal_to_reference():
    task = SyntheticTask(seed=5, train_size=64, eval_size=64)
    m = pretrain(ToyConfig(seed=5), task, max_steps=60)
    train = make_dataset(task.flipped(), m.cfg, "train")
    tuned, losses = head_only_finetune(m, *train, eta=0.1, steps=12)
    ref, ref_losses = reference_head_only_finetune(m, task.flipped(), eta=0.1, steps=12)
    assert losses == ref_losses
    assert tuned.head_w.tobytes() == ref.head_w.tobytes()
    assert tuned.head_b.tobytes() == ref.head_b.tobytes()


@pytest.mark.parametrize("train_size,eval_size",
                         [(64, 64), (64, 150), (96, 40), (CHUNK + 72, 2 * CHUNK + 44)],
                         ids=["one-chunk", "partial-chunk", "short-chunk", "worker-chunks"])
@pytest.mark.parametrize("projections", [("Q",), ("V",), ("Q", "V")], ids=["Q", "V", "QV"])
def test_training_loops_reuse_buffers_without_carrying_state(projections, train_size,
                                                             eval_size):
    """pretrain and craft_finetune keep one scratch for all their steps,
    and pretrain evaluates through it; every step and evaluation must still
    equal a call on fresh buffers, also where a step runs in several chunks
    on workers.  The reference routes each adapter's upstream gradient on
    its own, and a projection left out must keep the model's own stack bit
    for bit."""
    cfg = ToyConfig(seed=5)
    task = SyntheticTask(seed=5, train_size=train_size, eval_size=eval_size)
    m = pretrain(cfg, task, eta=0.05, max_steps=60, target_acc=0.9)
    ref, ref_losses = reference_pretrain(cfg, task, eta=0.05, max_steps=60, target_acc=0.9)
    assert len(ref_losses) >= 6
    assert m.pretrain_losses == ref_losses
    for name in GROUPS:
        assert getattr(m, name).tobytes() == getattr(ref, name).tobytes(), name
    assert m.pretrain_eval_acc == evaluate(ref, *make_dataset(task, cfg, "eval"))

    adapters = build_adapters(m, TuckerRanks(4, 8, 8), projections=projections)
    assert tuple(adapters) == projections
    train = make_dataset(task.flipped(), cfg, "train")
    tuned, losses = craft_finetune(m, adapters, *train, eta=0.5, steps=8, head_eta=0.2)
    ref, ref_losses = reference_craft_finetune(m, adapters, *train, eta=0.5, steps=8,
                                               head_eta=0.2)
    assert losses == ref_losses
    assert len(set(losses)) == len(losses)  # every step moved the model
    for name in ("head_w", "head_b"):
        assert getattr(tuned, name).tobytes() == getattr(ref, name).tobytes(), name
    for name in adapters:
        for j, ref_j in zip(tuned.adapters[name].j_matrices, ref.adapters[name].j_matrices):
            assert j.tobytes() == ref_j.tobytes(), name
    wq_eff, wv_eff = tuned.effective_qv()
    for name, effective, own in (("Q", wq_eff, m.wq), ("V", wv_eff, m.wv)):
        assert (effective.tobytes() == own.tobytes()) == (name not in projections), name


@pytest.mark.parametrize("craft_adapt", [False, True], ids=["full-train", "craft-adapt"])
@pytest.mark.parametrize("n_layers", [1, 2, 3])
def test_forward_without_cache_equals_cached_logits(n_layers, craft_adapt):
    """``forward`` keeps one layer of activations and alternates two ``x``
    rows; its logits must equal, bit for bit, those of the training pass's
    buffers, which hold every layer."""
    cfg = ToyConfig(n_layers=n_layers, d_model=8, vocab_size=6, seq_len=5, seed=n_layers)
    model = random_model(cfg, seed=n_layers, ranks=TuckerRanks(1, 4, 4) if craft_adapt else None)
    tokens, _ = make_dataset(SyntheticTask(seed=n_layers, train_size=12), cfg, "train")
    pooled = _forward(model, tokens, _Buffers(cfg, len(tokens), backward=True),
                      model.effective_qv())
    logits = pooled @ model.head_w + model.head_b
    assert forward(model, tokens).tobytes() == logits.tobytes()


@pytest.mark.parametrize("craft_adapt", [False, True], ids=["full-train", "craft-adapt"])
@pytest.mark.parametrize("n", [1, 7, 20, 100])
def test_evaluate_in_chunks_equals_fresh_buffers(monkeypatch, n, craft_adapt):
    """``_evaluate`` through a training scratch, with chunks of 7 on one and
    on two workers, runs ``n`` sequences in chunks of 7, the last one
    partial, each in its worker's rows, and must equal public ``evaluate``.
    The labels are the public predictions, so any row predicted differently
    lowers the accuracy below 1, and the scratch starts as NaN, so a row
    read before it is written shows."""
    cfg = ToyConfig(n_layers=3, d_model=8, vocab_size=6, seq_len=5, n_classes=3, seed=4)
    model = random_model(cfg, seed=4, ranks=TuckerRanks(1, 4, 4) if craft_adapt else None)
    tokens = np.random.default_rng(n).integers(0, cfg.vocab_size, (n, cfg.seq_len))
    labels = np.argmax(forward(model, tokens), axis=1)
    assert evaluate(model, tokens, labels) == 1.0
    monkeypatch.setattr(toy, "CHUNK", 7)
    for workers in (1, 2):
        monkeypatch.setattr(parallel, "WORKERS", workers)
        buf = _scratch(cfg, n, backward=True)
        assert buf.batch == min(n, 7 * workers)
        for arr in vars(buf).values():
            if isinstance(arr, np.ndarray):
                arr.fill(np.nan)
        assert _evaluate(model, tokens, labels, buf) == 1.0


@pytest.mark.parametrize("backward", [True, False], ids=["backward", "forward-only"])
def test_buffers_hold_one_layer_of_ctx(backward):
    """``ctx`` is one work row per sequence: one layer of ``(seq_len, d)``
    forward-only, and wide enough for two score-sized arrays in training,
    where the backward pass writes each gradient over a value it has
    finished with.  Every other activation keeps its documented depth."""
    cfg = ToyConfig(n_layers=4, d_model=6, seq_len=5)
    batch, s, d, n_layers = 3, cfg.seq_len, cfg.d_model, cfg.n_layers
    buf = _Buffers(cfg, batch, backward=backward)
    # 2 * s * s = 50 > s * d = 30: the training work rows take the score width
    assert buf.ctx.shape == (batch, 2 * s * s if backward else s * d)
    assert buf.work(0, (batch, s, d)).shape == (batch, s, d)
    for name in ("dx", "d_v", "d_attn", "tmp_attn"):
        assert not hasattr(buf, name), name
    assert hasattr(buf, "grad") == backward
    if backward:
        # (L+1)·S·d + 3L·S·d + L·S² + max(S·d, 2·S²) + S·d per sequence
        per_sequence = ((n_layers + 1) * s * d + 3 * n_layers * s * d + n_layers * s * s
                        + max(s * d, 2 * s * s) + s * d)
    else:
        # x alternates between two rows; q, k, v, attn and ctx hold one layer
        per_sequence = 2 * s * d + 3 * s * d + s * s + s * d
    nbytes = sum(a.nbytes for a in vars(buf).values() if isinstance(a, np.ndarray))
    assert nbytes == 8 * batch * per_sequence
