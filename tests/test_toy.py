import itertools
import sys
import threading

import numpy as np
import pytest

from craft import parallel, toy
from craft.cli import main
from craft.errors import DivergenceError, ValidationError
from craft.toy import (
    CHUNK,
    SyntheticTask,
    ToyConfig,
    ToyModel,
    _Buffers,
    _forward,
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
from toy_reference import majority_label

SMALL_CFG = ToyConfig(n_layers=2, d_model=8, vocab_size=6, seq_len=5, seed=1)
SMALL_TASK = SyntheticTask(seed=1, train_size=16, eval_size=16)
SMALL_TRAIN = make_dataset(SMALL_TASK, SMALL_CFG, "train")


def small_model(seed=2):
    return ToyModel(SMALL_CFG, np.random.default_rng(seed))


def train_set(model, task):
    return make_dataset(task, model.cfg, "train")


def test_dataset_is_balanced_and_consistent():
    cfg = ToyConfig()
    task = SyntheticTask(seed=0)
    tokens, labels = make_dataset(task, cfg, "train")
    assert tokens.shape == (task.train_size, cfg.seq_len)
    assert labels.mean() == 0.5
    assert np.array_equal(majority_label(tokens, cfg.vocab_size), labels)


def test_dataset_deterministic_and_split_independent():
    cfg = ToyConfig()
    task = SyntheticTask(seed=3)
    t1, l1 = make_dataset(task, cfg, "train")
    t2, l2 = make_dataset(task, cfg, "train")
    assert np.array_equal(t1, t2) and np.array_equal(l1, l2)
    te, _ = make_dataset(task, cfg, "eval")
    assert not np.array_equal(t1[: len(te)], te)


def test_dataset_rejects_an_unknown_split():
    with pytest.raises(ValidationError, match="^split must be 'train' or 'eval', got 'test'$"):
        make_dataset(SyntheticTask(), ToyConfig(), "test")


def test_flipped_task_inverts_labels_only():
    cfg = ToyConfig()
    task = SyntheticTask(seed=4)
    tokens, labels = make_dataset(task, cfg, "train")
    ftokens, flabels = make_dataset(task.flipped(), cfg, "train")
    assert np.array_equal(tokens, ftokens)
    assert np.array_equal(labels, 1 - flabels)


def attention_of_every_layer(model, tokens):
    """The ``(n_layers, batch, seq_len, seq_len)`` attention weights that the
    training pass's buffers hold after a forward pass."""
    buf = _Buffers(model.cfg, len(tokens), backward=True)
    _forward(model, tokens, buf, model.effective_qv())
    assert len(buf.attn) == model.cfg.n_layers
    return buf.attn


def test_zero_query_key_gives_uniform_attention():
    m = small_model()
    m.wq[:] = 0.0
    m.wk[:] = 0.0
    tokens, _ = make_dataset(SMALL_TASK, SMALL_CFG, "train")
    for attn in attention_of_every_layer(m, tokens[:4]):
        np.testing.assert_allclose(attn, 1.0 / SMALL_CFG.seq_len, atol=1e-15)


def test_attention_rows_sum_to_one_every_layer():
    m = small_model()
    tokens, _ = make_dataset(SMALL_TASK, SMALL_CFG, "train")
    for attn in attention_of_every_layer(m, tokens):
        np.testing.assert_allclose(attn.sum(axis=-1), 1.0, atol=1e-8)


def test_identical_sequences_get_identical_logits():
    m = small_model()
    tokens, _ = make_dataset(SMALL_TASK, SMALL_CFG, "train")
    batch = np.repeat(tokens[:1], 5, axis=0)
    logits = forward(m, batch)
    assert np.array_equal(logits, np.repeat(logits[:1], 5, axis=0))


def test_forward_rejects_out_of_vocab_and_bad_shape():
    m = small_model()
    bad = np.zeros((2, SMALL_CFG.seq_len), dtype=int)
    bad[0, 0] = SMALL_CFG.vocab_size
    with pytest.raises(ValidationError):
        forward(m, bad)
    with pytest.raises(ValidationError):
        forward(m, np.zeros((2, SMALL_CFG.seq_len + 1), dtype=int))


_ZERO_TOKENS = np.zeros((2, SMALL_CFG.seq_len), dtype=np.int64)
_BAD_TOKENS = {
    "fractional": [[0.5, 1.9, 2.2, 0.0, 1.0]] * 2,
    "bool": np.ones((2, SMALL_CFG.seq_len), dtype=bool),
    "empty_batch": np.zeros((0, SMALL_CFG.seq_len), dtype=np.int64),
}
_BAD_LABELS = {
    "negative": [-1, 0],
    "too_large": [0, SMALL_CFG.n_classes],
    "short": [0],
    "long": [0, 1, 0],
    "float": [0.0, 1.0],
    "bool": [False, True],
}
_CALLS = {
    "forward": lambda m, t, l: forward(m, t),
    "loss_and_grads": loss_and_grads,
    "evaluate": evaluate,
}


@pytest.mark.parametrize("call", _CALLS)
@pytest.mark.parametrize("case", _BAD_TOKENS)
def test_bad_token_ids_rejected(call, case):
    tokens = _BAD_TOKENS[case]
    labels = np.zeros(len(tokens), dtype=np.int64)
    with pytest.raises(ValidationError):
        _CALLS[call](small_model(), tokens, labels)


@pytest.mark.parametrize("call", ["loss_and_grads", "evaluate"])
@pytest.mark.parametrize("case", _BAD_LABELS)
def test_bad_labels_rejected(call, case):
    with pytest.raises(ValidationError):
        _CALLS[call](small_model(), _ZERO_TOKENS, _BAD_LABELS[case])


def test_untrained_model_is_exactly_chance():
    # zero head => identical logits => constant prediction on balanced labels
    m = small_model()
    tokens, labels = make_dataset(SMALL_TASK, SMALL_CFG, "eval")
    assert evaluate(m, tokens, labels) == 0.5


def test_pretrain_reaches_target_and_is_deterministic():
    cfg = ToyConfig(seed=0)
    task = SyntheticTask(seed=0)
    m1 = pretrain(cfg, task)
    assert m1.pretrain_eval_acc >= 0.9
    m2 = pretrain(cfg, task)
    for name in ("embeddings", "wq", "wk", "wv", "wo", "head_w", "head_b"):
        assert np.array_equal(getattr(m1, name), getattr(m2, name))
    assert m1.pretrain_losses == m2.pretrain_losses


def test_pretrain_builds_one_buffer_set(monkeypatch):
    """Training steps and evaluations share one scratch: ``CHUNK`` rows per
    worker, or the larger of the two sets where that is shorter, also when
    each step runs in chunks on several workers."""
    built = []
    monkeypatch.setattr(toy, "_Buffers", lambda *args, **kw: built.append(args) or
                        _Buffers(*args, **kw))
    pretrain(SMALL_CFG, SyntheticTask(seed=1, train_size=16, eval_size=40), eta=0.5,
             max_steps=10, target_acc=2.0)
    assert built == [(SMALL_CFG, 40, True)]
    monkeypatch.setattr(parallel, "WORKERS", 2)
    built.clear()
    pretrain(SMALL_CFG, SyntheticTask(seed=1, train_size=2 * CHUNK + 44, eval_size=3 * CHUNK),
             eta=0.5, max_steps=10, target_acc=2.0)
    assert built == [(SMALL_CFG, 2 * CHUNK, True)]


# at eta=0.5 this run's eval accuracy is 0.85 from step 5 on; each step runs
# its 16 training sequences, and each evaluation its 40, as one chunk
@pytest.mark.parametrize("max_steps,target_acc,steps,evals", [
    (20, 0.8, 5, 1),   # the target is reached at the first evaluation
    (10, 2.0, 10, 2),  # the budget ends on an evaluation
    (12, 2.0, 12, 3),  # the budget ends two steps past one: evaluate once more
], ids=["target", "budget-on-eval", "budget-between-evals"])
def test_pretrain_evaluates_each_model_once(monkeypatch, max_steps, target_acc, steps, evals):
    task = SyntheticTask(seed=1, train_size=16, eval_size=40)
    calls = []
    monkeypatch.setattr(toy, "_forward", lambda *args: calls.append(len(args[1])) or
                        _forward(*args))
    m = pretrain(SMALL_CFG, task, eta=0.5, max_steps=max_steps, target_acc=target_acc)
    assert len(m.pretrain_losses) == steps
    assert calls.count(40) == evals
    assert len(calls) == steps + evals
    assert m.pretrain_eval_acc == evaluate(m, *make_dataset(task, SMALL_CFG, "eval"))


def test_epsilon_zero_adapters_preserve_logits():
    m = small_model(seed=5)
    rng = np.random.default_rng(6)
    m.head_w = 0.3 * rng.standard_normal(m.head_w.shape)
    adapters = build_adapters(m, TuckerRanks(1, 2, 2), epsilon=0.0)
    tokens, _ = make_dataset(SMALL_TASK, SMALL_CFG, "eval")
    base_logits = forward(m, tokens)
    routed = m.clone()
    routed.adapters = adapters
    routed_logits = forward(routed, tokens)
    assert np.abs(routed_logits - base_logits).max() <= 1e-10


def test_logits_respond_to_j_perturbation():
    import dataclasses

    m = small_model(seed=7)
    m.head_w = 0.3 * np.random.default_rng(70).standard_normal(m.head_w.shape)
    adapters = build_adapters(m, TuckerRanks(2, 3, 3), epsilon=0.0)
    routed = m.clone()
    routed.adapters = dict(adapters)
    tokens, _ = make_dataset(SMALL_TASK, SMALL_CFG, "eval")
    before = forward(routed, tokens)
    j = np.array(adapters["Q"].j1)
    j[0, 0] += 0.05
    routed.adapters["Q"] = dataclasses.replace(adapters["Q"], j1=j)
    after = forward(routed, tokens)
    assert np.abs(after - before).max() > 0.0


def test_model_level_j_gradient_matches_finite_differences():
    import dataclasses

    from craft.adapter import grad_j

    m = small_model(seed=8)
    rng = np.random.default_rng(9)
    m.head_w = 0.3 * rng.standard_normal(m.head_w.shape)
    adapters = build_adapters(m, TuckerRanks(2, 3, 3))
    routed = m.clone()
    routed.adapters = dict(adapters)
    tokens, labels = make_dataset(SMALL_TASK, SMALL_CFG, "train")

    _, grads = loss_and_grads(routed, tokens, labels)
    h = 1e-5
    for name, upstream_key in (("Q", "wq"), ("V", "wv")):
        analytic = grad_j(routed.adapters[name], grads[upstream_key])
        for n in (1, 2, 3):
            j = routed.adapters[name].j_matrices[n - 1]
            numeric = np.zeros_like(j)
            for i in range(j.shape[0]):
                for k in range(j.shape[1]):
                    for sign, store in ((+1, "plus"), (-1, "minus")):
                        jj = np.array(j)
                        jj[i, k] += sign * h
                        probe = m.clone()
                        probe.adapters = dict(routed.adapters)
                        probe.adapters[name] = dataclasses.replace(
                            routed.adapters[name], **{f"j{n}": jj})
                        loss, _ = loss_and_grads(probe, tokens, labels)
                        if sign > 0:
                            lp = loss
                        else:
                            lm = loss
                    numeric[i, k] = (lp - lm) / (2 * h)
            scale = max(np.abs(numeric).max(), 1e-12)
            rel = np.abs(analytic[n - 1] - numeric) / (np.abs(numeric) + 1e-6 * scale)
            assert rel.max() <= 1e-4, (name, n, rel.max())


def test_finetune_eta_zero_changes_nothing():
    m = pretrain(ToyConfig(seed=1), SyntheticTask(seed=1, train_size=64, eval_size=64),
                 max_steps=60)
    adapters = build_adapters(m, TuckerRanks(2, 4, 4))
    task = SyntheticTask(seed=1, train_size=64, eval_size=64).flipped()
    tuned, losses = craft_finetune(m, adapters, *train_set(m, task), eta=0.0, steps=5)
    assert len(set(losses)) == 1  # flat loss curve
    assert np.array_equal(tuned.head_w, m.head_w)
    for name in adapters:
        for ja, jb in zip(adapters[name].j_matrices,
                          tuned.adapters[name].j_matrices):
            assert np.array_equal(ja, jb)


def test_finetune_on_same_task_descends():
    task = SyntheticTask(seed=2, train_size=64, eval_size=64)
    m = pretrain(ToyConfig(seed=2), task, max_steps=60)
    adapters = build_adapters(m, TuckerRanks(2, 4, 4))
    _, losses = craft_finetune(m, adapters, *train_set(m, task), eta=0.05, steps=10)
    assert losses[-1] <= losses[0]


def test_finetune_freezes_backbone():
    task = SyntheticTask(seed=0, train_size=64, eval_size=64)
    m = pretrain(ToyConfig(seed=0), task, max_steps=60)
    adapters = build_adapters(m, TuckerRanks(2, 4, 4))
    tuned, _ = craft_finetune(m, adapters, *train_set(m, task.flipped()), eta=0.1,
                               steps=15)
    # the tuned model's backbone equals the pretrained one's, bit for bit
    for name in ("embeddings", "wk", "wo", "wq", "wv"):
        assert np.array_equal(getattr(tuned, name), getattr(m, name)), name
    for name in adapters:
        assert tuned.adapters[name].w_original is adapters[name].w_original
        assert tuned.adapters[name].factors is adapters[name].factors
    # and the sum of backbone checks is captured by the checksum helper
    routed = m.clone()
    routed.adapters = dict(adapters)
    tuned_at_init = m.clone()
    tuned_at_init.adapters = {k: adapters[k] for k in adapters}
    assert routed.backbone_checksum() == tuned_at_init.backbone_checksum()


def test_finetune_rejects_foreign_adapters():
    task = SyntheticTask(seed=3, train_size=64, eval_size=64)
    m = pretrain(ToyConfig(seed=3), task, max_steps=60)
    other = pretrain(ToyConfig(seed=4), SyntheticTask(seed=4, train_size=64,
                                                      eval_size=64), max_steps=60)
    adapters = build_adapters(other, TuckerRanks(2, 4, 4))
    with pytest.raises(ValidationError):
        craft_finetune(m, adapters, *train_set(m, task), eta=0.1, steps=1)


def test_unknown_projection_is_rejected():
    m = small_model()
    with pytest.raises(ValidationError, match=r"^projection must be one of \('Q', 'V'\), got 'K'$"):
        build_adapters(m, TuckerRanks(1, 2, 2), projections=("K",))
    foreign = {"K": build_adapters(m, TuckerRanks(1, 2, 2), projections=("Q",))["Q"]}
    with pytest.raises(ValidationError, match=r"^adapter keys must be one of .*, got 'K'$"):
        craft_finetune(m, foreign, *SMALL_TRAIN, eta=0.1, steps=1)


def test_a_projection_added_to_the_table_gets_an_adapter(monkeypatch):
    # the adapter seeds follow toy.PROJECTIONS, so a new entry needs no other edit
    monkeypatch.setattr(toy, "PROJECTIONS", {**toy.PROJECTIONS, "K": "wk"})
    m = small_model()
    adapters = build_adapters(m, TuckerRanks(1, 2, 2), projections=("K",))
    assert np.array_equal(adapters["K"].w_original, m.wk)


def test_head_only_finetune_updates_only_head():
    task = SyntheticTask(seed=5, train_size=64, eval_size=64)
    m = pretrain(ToyConfig(seed=5), task, max_steps=60)
    tuned, losses = head_only_finetune(m, *train_set(m, task.flipped()), eta=0.1, steps=10)
    assert len(losses) == 10
    for name in ("embeddings", "wq", "wk", "wv", "wo"):
        assert np.array_equal(getattr(tuned, name), getattr(m, name))
    assert not np.array_equal(tuned.head_w, m.head_w)


@pytest.mark.parametrize("eta", [None, True, "0.1", np.inf])
def test_finetune_rejects_bad_eta(eta):
    with pytest.raises(ValidationError, match="eta"):
        craft_finetune(small_model(), {}, *SMALL_TRAIN, eta=eta, steps=1)
    with pytest.raises(ValidationError, match="eta"):
        head_only_finetune(small_model(), *SMALL_TRAIN, eta=eta, steps=1)


@pytest.mark.parametrize("name,value", [
    ("steps", 2.5), ("steps", True), ("steps", -3), ("head_eta", "x"), ("head_eta", np.nan),
])
def test_craft_finetune_rejects_bad_arguments(name, value):
    kwargs = {"eta": 0.1, "steps": 1, name: value}
    with pytest.raises(ValidationError, match=f"^{name} "):
        craft_finetune(small_model(), {}, *SMALL_TRAIN, **kwargs)


@pytest.mark.parametrize("steps", [2.5, True, -3])
def test_head_only_finetune_rejects_bad_steps(steps):
    with pytest.raises(ValidationError, match="^steps "):
        head_only_finetune(small_model(), *SMALL_TRAIN, eta=0.1, steps=steps)


@pytest.mark.parametrize("name,value", [
    ("max_steps", 2.5), ("max_steps", True), ("max_steps", -1), ("eta", "x"),
    ("target_acc", None), ("target_acc", np.inf),
])
def test_pretrain_rejects_bad_arguments(name, value):
    with pytest.raises(ValidationError, match=f"^{name} "):
        pretrain(SMALL_CFG, SMALL_TASK, **{name: value})


@pytest.mark.parametrize("bad", ["token", "label"])
def test_finetune_reports_bad_input_as_a_validation_error(bad):
    tokens, labels = (np.array(x) for x in SMALL_TRAIN)
    if bad == "token":
        tokens[0, 0] = SMALL_CFG.vocab_size
    else:
        labels[0] = SMALL_CFG.n_classes
    m = small_model()
    adapters = build_adapters(m, TuckerRanks(1, 2, 2))
    with pytest.raises(ValidationError):
        craft_finetune(m, adapters, tokens, labels, eta=0.1, steps=1)
    with pytest.raises(ValidationError):
        head_only_finetune(m, tokens, labels, eta=0.1, steps=1)


def test_divergence_is_reported_with_step():
    task = SyntheticTask(seed=6, train_size=64, eval_size=64)
    m = pretrain(ToyConfig(seed=6), task, max_steps=60)
    adapters = build_adapters(m, TuckerRanks(2, 4, 4))
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(DivergenceError) as excinfo:
        craft_finetune(m, adapters, *train_set(m, task.flipped()), eta=1e6, steps=50)
    assert excinfo.value.step is not None


def test_overflowing_update_is_reported_with_step():
    m = small_model()
    # a large head gives adaptation gradients above 1, so eta * g overflows at once
    m.head_w = 100.0 * np.random.default_rng(3).standard_normal(m.head_w.shape)
    adapters = build_adapters(m, TuckerRanks(1, 2, 2))
    with np.errstate(over="ignore"), pytest.raises(DivergenceError) as excinfo:
        craft_finetune(m, adapters, *SMALL_TRAIN, eta=1e308, steps=3)
    assert excinfo.value.step == 0


def test_overflow_reaching_grad_j_is_reported_with_step(monkeypatch):
    """At step 2 the second chunk's backward pass, on a worker thread, puts
    an inf in the ``wq`` upstream gradient while the loss stays finite:
    grad_j's upstream check fires, and its error is wrapped once, with the
    step."""
    monkeypatch.setattr(parallel, "WORKERS", 2)
    m = small_model()
    m.head_w = 0.3 * np.random.default_rng(3).standard_normal(m.head_w.shape)
    adapters = build_adapters(m, TuckerRanks(1, 2, 2))
    train = make_dataset(SyntheticTask(seed=1, train_size=CHUNK + 16), SMALL_CFG, "train")
    backward, tails = toy._backward, []

    def overflowing(model, tok, *args):
        g = backward(model, tok, *args)
        if len(tok) == 16:  # the second chunk
            tails.append(threading.current_thread())
            if len(tails) == 3:
                g["wq"][1, 0, 0] = np.inf
        return g

    monkeypatch.setattr(toy, "_backward", overflowing)
    with pytest.raises(DivergenceError) as excinfo:
        craft_finetune(m, adapters, *train, eta=0.1, steps=5)
    assert threading.current_thread() not in tails
    assert excinfo.value.step == 2
    assert str(excinfo.value) == ("fine-tuning diverged: upstream contains non-finite values "
                                  "(step 2)")
    assert isinstance(excinfo.value.__cause__, ValidationError)


@pytest.fixture(scope="module")
def loud_model():
    """A pretrained model whose large embeddings give head gradients up to
    about 1.6e3, so a head step of 1e308 overflows at once."""
    task = SyntheticTask(seed=0, train_size=64, eval_size=64)
    m = pretrain(ToyConfig(seed=0), task, max_steps=40)
    m.embeddings *= 1e3
    return m, train_set(m, task)


@pytest.mark.parametrize("steps", [1, 3])
@pytest.mark.parametrize("tune", ["craft", "head_only"])
def test_overflowing_head_update_is_reported_at_its_step(loud_model, tune, steps):
    m, train = loud_model
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(DivergenceError) as excinfo:
        if tune == "craft":
            craft_finetune(m, build_adapters(m, TuckerRanks(2, 4, 4)), *train, eta=0.0,
                           steps=steps, head_eta=1e308)
        else:
            head_only_finetune(m, *train, eta=1e308, steps=steps)
    assert excinfo.value.step == 0
    assert str(excinfo.value) == ("fine-tuning diverged: update of head_w contains "
                                  "non-finite entries (step 0)")


def test_overflowing_pretrain_update_is_reported_at_its_step(monkeypatch):
    real = toy._loss_and_grads

    def overflowing(*args):
        _, g = real(*args)
        g["wk"][0, 0, 0] = 1e308  # finite, but eta times it is not
        return 1.0, g

    monkeypatch.setattr(toy, "_loss_and_grads", overflowing)
    with np.errstate(over="ignore"), pytest.raises(DivergenceError) as excinfo:
        pretrain(SMALL_CFG, SMALL_TASK, eta=10.0, max_steps=3)
    assert excinfo.value.step == 0
    assert str(excinfo.value) == ("pretraining diverged: update of wk contains "
                                  "non-finite entries (step 0)")


def test_pretrain_failure_is_explicit():
    from craft.errors import PretrainError

    with pytest.raises(PretrainError, match="0.75"):
        pretrain(ToyConfig(seed=0), SyntheticTask(seed=0, train_size=32,
                                                  eval_size=32), max_steps=0)


@pytest.mark.parametrize("make", [
    lambda: ToyConfig(n_layers=True),
    lambda: ToyConfig(seed=2.0),
    lambda: ToyConfig(d_model=8.0),
    lambda: ToyConfig(seed=np.bool_(False)),
    lambda: SyntheticTask(train_size=True),
    lambda: SyntheticTask(seed=1.0),
], ids=["n_layers=True", "seed=2.0", "d_model=8.0", "seed=np.False_",
        "task.train_size=True", "task.seed=1.0"])
def test_integer_fields_reject_bools_and_floats(make):
    with pytest.raises(ValidationError):
        make()


def test_integer_fields_accept_numpy_integers():
    cfg = ToyConfig(n_layers=np.int64(2), seed=np.uint32(7))
    assert (cfg.n_layers, cfg.seed) == (2, 7)
    assert SyntheticTask(seed=np.int64(1), train_size=np.int32(8)).train_size == 8


def test_toy_config_validation():
    with pytest.raises(ValidationError):
        ToyConfig(d_model=7)
    with pytest.raises(ValidationError):
        ToyConfig(n_layers=0)
    # make_dataset labels every sample 0 or 1, so one class cannot hold them
    with pytest.raises(ValidationError, match=r"^n_classes must be an integer >= 2, got 1$"):
        ToyConfig(n_classes=1)
    with pytest.raises(ValidationError):
        SyntheticTask(rule="nonsense")


def test_single_token_vocabulary_is_rejected():
    # with one token every sequence is all "upper half", so label 0 could
    # never be sampled and make_dataset would not return
    with pytest.raises(ValidationError, match=r"^vocab_size must be an integer >= 2, got 1$"):
        ToyConfig(vocab_size=1)
    _, labels = make_dataset(SyntheticTask(train_size=4), ToyConfig(vocab_size=5), "train")
    assert labels.tolist() == [0, 1, 0, 1]  # odd sizes >= 3 stay valid


def test_row_max_is_bitwise_max():
    """The softmax's running row maximum must give the bytes of
    ``max(axis=-1)``: ties, signed zeros, infinities and NaN included."""
    values = [0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -1.0, 5e-324]
    for n in (1, 2, 3):
        scores = np.array(list(itertools.product(values, repeat=n)))
        assert toy._row_max(scores).tobytes() == scores.max(axis=-1).tobytes(), n
    scores = np.random.default_rng(0).choice(values + [1.0, 2.0], size=(64, 3, 12, 12))
    assert toy._row_max(scores).tobytes() == scores.max(axis=-1).tobytes()


def test_chunk_workers_under_stress_match_one_worker(monkeypatch):
    """More workers than cores, switching threads every microsecond, through
    one buffer set: a chunk that touched another's rows would change bytes."""
    cfg = ToyConfig(n_layers=2, d_model=8, vocab_size=8, seq_len=6, seed=4)
    model = ToyModel(cfg, np.random.default_rng(4))
    model.head_w = 0.3 * np.random.default_rng(5).standard_normal(model.head_w.shape)
    rng = np.random.default_rng(6)
    tokens = rng.integers(0, cfg.vocab_size, (5 * CHUNK + 3, cfg.seq_len))
    labels = rng.integers(0, cfg.n_classes, len(tokens))
    monkeypatch.setattr(parallel, "WORKERS", 1)
    loss, g = loss_and_grads(model, tokens, labels)
    monkeypatch.setattr(parallel, "WORKERS", 8)
    buf = _Buffers(cfg, len(tokens), backward=True)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(4):
            step_loss, step_g = toy._loss_and_grads(model, tokens, labels, buf)
            assert step_loss == loss
            for name in g:
                assert step_g[name].tobytes() == g[name].tobytes(), name
    finally:
        sys.setswitchinterval(interval)


MULTI_CFG = ToyConfig(n_layers=2, d_model=8, vocab_size=8, seq_len=6, seed=3)
# three chunks per training step and per evaluation, the last one partial
MULTI_TASK = SyntheticTask(seed=3, train_size=2 * CHUNK + 44, eval_size=CHUNK + 72)


def _train_multi_chunk():
    threads = threading.active_count()
    model = pretrain(MULTI_CFG, MULTI_TASK, eta=0.5, max_steps=40, target_acc=0.9)
    assert threading.active_count() == threads
    adapters = build_adapters(model, TuckerRanks(1, 2, 2))
    tuned, losses = craft_finetune(model, adapters, *train_set(model, MULTI_TASK.flipped()),
                                   eta=0.5, steps=6, head_eta=0.5)
    assert threading.active_count() == threads
    return model, tuned, losses


@pytest.mark.parametrize("workers", [None, 3], ids=["default", "3"])
def test_training_does_not_depend_on_the_worker_count(monkeypatch, tmp_path, workers):
    """Multi-chunk pretraining and fine-tuning give the same bytes on one
    worker as on the default count (and on three, which starts threads on
    any host), and no worker thread outlives a loop or a ``train-toy`` run."""
    monkeypatch.setattr(parallel, "WORKERS", 1)
    serial = _train_multi_chunk()
    if workers is not None:
        monkeypatch.setattr(parallel, "WORKERS", workers)
    else:
        monkeypatch.undo()
    model, tuned, losses = _train_multi_chunk()
    assert len(model.pretrain_losses) > 1
    assert model.pretrain_losses == serial[0].pretrain_losses
    assert model.pretrain_eval_acc == serial[0].pretrain_eval_acc
    assert losses == serial[2]
    for name in toy.PARAMS:
        assert getattr(model, name).tobytes() == getattr(serial[0], name).tobytes(), name
    for name in ("head_w", "head_b"):
        assert getattr(tuned, name).tobytes() == getattr(serial[1], name).tobytes(), name
    for name, a in tuned.adapters.items():
        for j, serial_j in zip(a.j_matrices, serial[1].adapters[name].j_matrices):
            assert j.tobytes() == serial_j.tobytes(), name

    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed=3\nn_layers=2\nd_model=8\nvocab_size=8\nseq_len=6\n"
                   f"train_size={MULTI_TASK.train_size}\neval_size={MULTI_TASK.eval_size}\n"
                   "pretrain_eta=0.5\nr1=1\nr2=2\nr3=2\nsteps=6\n")
    threads = threading.active_count()
    assert main(["train-toy", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 0
    assert threading.active_count() == threads
