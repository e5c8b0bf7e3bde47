"""Training loops: schedules, optimizer, run kinds, probe, artifacts."""

import hashlib
import json
import os
from collections import Counter
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest

from prunelab import grad_prune, trainer
from prunelab import tensor as T
from prunelab.corpus import LanguageSpec, gen_corpus, probe_batches
from prunelab.ds import DEFAULT_GRID, gate_values_at, init_ds
from prunelab.encoder import (
    Model,
    ModelConfig,
    component_universe,
    component_weights,
)
from prunelab.exceptions import ConfigError, ContractError, NumericError, RunError
from prunelab.grad_prune import NON_SHARED, SHARED, importance_scores
from prunelab.l0 import ALPHA_INIT_STD, inference_gate
from prunelab.tensor import Tensor
from prunelab.trainer import (
    ALGORITHMS,
    Adam,
    TrainSchedule,
    finetune_probe,
    lr_at,
    pretrain_baseline,
    run_ds_training,
    run_grad_pruning,
    run_l0_pruning,
    write_manifest,
    write_metrics,
)

TOY = ModelConfig(n_layers=2, n_heads=2, model_dim=16, ffn_dim=32, vocab_size=86, max_seq_len=32)


@lru_cache(maxsize=1)
def toy_corpus():
    specs = [
        LanguageSpec("aa", "Turkic", 400, 1),
        LanguageSpec("bb", "Turkic", 400, 2),
        LanguageSpec("cc", "Uralic", 400, 3),
    ]
    return gen_corpus(specs, seed=5)


@lru_cache(maxsize=1)
def toy_baseline():
    corpus = toy_corpus()
    config = ModelConfig(n_layers=TOY.n_layers, n_heads=TOY.n_heads, model_dim=TOY.model_dim,
                         ffn_dim=TOY.ffn_dim, vocab_size=len(corpus.vocab),
                         max_seq_len=TOY.max_seq_len)
    schedule = TrainSchedule(total_steps=20, batch_size=8, seq_len=12, seed=3)
    return pretrain_baseline(config, corpus, schedule)


def snapshot(model):
    return {k: p.data.copy() for k, p in model.params.items()}


def params_equal(a, b):
    return set(a) == set(b) and all(np.array_equal(a[k], b[k]) for k in a)


def alpha_row(alphas, langs, lang):
    return alphas[langs.index(lang)]


def initial_alphas(n_components, seed):
    """The alphas an L0 run over the toy corpus's languages starts from."""
    return np.random.default_rng([seed, 6]).normal(
        0.0, ALPHA_INIT_STD, size=(len(toy_corpus().languages()), n_components))


# --- schedule ---------------------------------------------------------------


def test_schedule_rejects_bad_values():
    bad = [
        dict(total_steps=-1),
        dict(total_steps=1, batch_size=0),
        dict(total_steps=1, seq_len=1),
        dict(total_steps=1, learning_rate=0.0),
        dict(total_steps=1, alpha_lr=-1.0),
        dict(total_steps=1, warmup_fraction=1.0),
        dict(total_steps=1, alpha_only_warmup_fraction=-0.1),
        dict(total_steps=1, lambda1=-2.0),
        dict(total_steps=1, target_size=0.0),
        dict(total_steps=1, target_size=1.2),
        dict(total_steps=1, setting="solo"),
        dict(total_steps=1, algorithm="magnitude"),
        dict(total_steps=1, mask_rate=1.0),
        dict(total_steps=1, importance_batches=0),
        dict(total_steps=1, algorithm="ds_grad", grid=(0.2, 0.6, 1.0)),
        dict(total_steps=1, algorithm="ds_l0", grid=(0.0, 0.5, 0.5, 1.0)),
    ]
    for kwargs in bad:
        with pytest.raises(ConfigError):
            TrainSchedule(**kwargs)
    # the dense no-op target is allowed, and only the DS algorithms read the grid
    TrainSchedule(total_steps=1, target_size=1.0)
    TrainSchedule(total_steps=1, algorithm="grad", grid=(0.2, 0.6, 1.0))


def test_lambda_resolution_defaults_and_overrides():
    expect = {
        "grad": (0.0, 0.0),
        "l0_vanilla": (8.0, 0.0),
        "l0_improved": (8.0, 1.0),
        "ds_grad": (0.0, 0.0),
        "ds_l0": (128.0, 0.0),
    }
    for algo, (lam1, lam2) in expect.items():
        s = TrainSchedule(total_steps=1, algorithm=algo)
        assert s.resolved_lambda1() == lam1
        assert s.resolved_lambda2() == lam2
    s = TrainSchedule(total_steps=1, algorithm="l0_improved", lambda1=3.0, lambda2=0.25)
    assert s.resolved_lambda1() == 3.0
    assert s.resolved_lambda2() == 0.25


def test_lr_schedule_hand_values():
    # total 10, warmup 0.2 -> 2 warmup steps then linear decay over 8
    assert lr_at(0, 10, 0.2) == pytest.approx(0.5)
    assert lr_at(1, 10, 0.2) == pytest.approx(1.0)
    assert lr_at(2, 10, 0.2) == pytest.approx(1.0)
    assert lr_at(5, 10, 0.2) == pytest.approx(5 / 8)
    assert lr_at(9, 10, 0.2) == pytest.approx(1 / 8)
    # no warmup: pure decay starting at 1
    assert lr_at(0, 4, 0.0) == pytest.approx(1.0)
    assert lr_at(3, 4, 0.0) == pytest.approx(0.25)
    # warmup never swallows the whole run
    assert lr_at(0, 1, 0.9) == pytest.approx(1.0)


# --- optimizer --------------------------------------------------------------


def test_adam_first_step_is_signed_lr():
    # with fresh state the first update is lr * g / (|g| + eps) ~ lr * sign(g)
    x = Tensor(np.array([3.0, -2.0, 0.5]), requires_grad=True)
    before = x.data.copy()
    opt = Adam({"x": x}, lr=0.1)
    loss = T.multiply(x, x).sum()
    T.backward(loss)
    g = 2.0 * before
    opt.step()
    expected = before - 0.1 * np.sign(g)
    assert np.allclose(x.data, expected, atol=0.1 * 1e-6)


def test_adam_descends_quadratic():
    target = np.array([1.0, -2.0, 0.0, 4.0])
    x = Tensor(np.zeros(4), requires_grad=True)
    opt = Adam({"x": x}, lr=0.05)

    def value():
        diff = T.add(x, Tensor(-target))
        return T.multiply(diff, diff).sum()

    first = value().item()
    for _ in range(200):
        loss = value()
        T.backward(loss)
        opt.step()
        opt.zero()
    assert value().item() < 0.01 * first


def test_adam_zero_gradient_never_moves_parameter():
    live = Tensor(np.ones(3), requires_grad=True)
    dead = Tensor(np.array([1.5, -2.5]), requires_grad=True)
    frozen = dead.data.copy()
    opt = Adam({"live": live, "dead": dead}, lr=0.1)
    for _ in range(10):
        loss = T.multiply(live, live).sum()
        T.backward(loss)
        dead.grad = np.zeros_like(dead.data)
        opt.step()
        opt.zero()
    assert np.array_equal(dead.data, frozen)
    assert not np.array_equal(live.data, np.ones(3))


def test_adam_skips_params_without_grad():
    x = Tensor(np.ones(2), requires_grad=True)
    opt = Adam({"x": x}, lr=0.1)
    opt.step()
    assert np.array_equal(x.data, np.ones(2))
    with pytest.raises(ContractError):
        Adam({"x": x}, lr=0.0)


def test_adam_refuses_a_step_with_some_gradients_missing():
    with_grad = Tensor(np.ones(2), requires_grad=True)
    without = Tensor(np.ones(3), requires_grad=True)
    opt = Adam({"with_grad": with_grad, "without": without}, lr=0.1)
    T.backward(T.multiply(with_grad, with_grad).sum())
    with pytest.raises(ContractError, match="without"):
        opt.step()


# --- pretraining ------------------------------------------------------------


def test_pretrain_zero_steps_returns_initialization():
    corpus = toy_corpus()
    config = toy_baseline().model.config
    schedule = TrainSchedule(total_steps=0, seed=3)
    res = pretrain_baseline(config, corpus, schedule)
    assert res.records == []
    assert params_equal(snapshot(res.model), snapshot(Model.init(config, 3)))


def test_pretrain_reduces_loss():
    corpus = toy_corpus()
    config = toy_baseline().model.config
    schedule = TrainSchedule(total_steps=200, batch_size=16, seq_len=12, seed=3)
    res = pretrain_baseline(config, corpus, schedule)
    losses = [r["loss"] for r in res.records]
    assert np.mean(losses[-20:]) < 0.9 * losses[0]


def test_pretrain_reproducible_and_seed_sensitive():
    corpus = toy_corpus()
    config = toy_baseline().model.config
    schedule = TrainSchedule(total_steps=6, batch_size=4, seq_len=10, seed=8)
    a = pretrain_baseline(config, corpus, schedule)
    b = pretrain_baseline(config, corpus, schedule)
    assert params_equal(snapshot(a.model), snapshot(b.model))
    assert [r["loss"] for r in a.records] == [r["loss"] for r in b.records]
    c = pretrain_baseline(config, corpus, TrainSchedule(total_steps=6, batch_size=4,
                                                        seq_len=10, seed=9))
    assert not params_equal(snapshot(a.model), snapshot(c.model))


# --- gradient pruning -------------------------------------------------------


def grad_schedule(**kwargs):
    base = dict(total_steps=6, batch_size=4, seq_len=10, seed=3, algorithm="grad",
                setting=SHARED, target_size=0.3, importance_batches=2)
    base.update(kwargs)
    return TrainSchedule(**base)


def test_grad_pruning_freezes_pruned_weight_slices():
    base = toy_baseline().model
    before = snapshot(base)
    res = run_grad_pruning(base, toy_corpus(), grad_schedule())
    after = snapshot(res.model)
    gs = res.gatesets[SHARED]
    config = res.model.config
    hd = config.head_dim
    dead_heads = [(l, i) for l in range(config.n_layers)
                  for i in range(config.n_heads) if gs.heads[l][i] == 0.0]
    dead_hidden = [(l, j) for l in range(config.n_layers)
                   for j in range(config.ffn_dim) if gs.hiddens[l][j] == 0.0]
    # target 0.3 cannot keep all heads or all hidden units
    assert dead_heads and dead_hidden
    for l, i in dead_heads:
        sl = slice(i * hd, (i + 1) * hd)
        for w in ("wq", "wk", "wv"):
            assert np.array_equal(after[f"layers.{l}.attn.{w}"][:, sl],
                                  before[f"layers.{l}.attn.{w}"][:, sl])
        for b in ("bq", "bk", "bv"):
            assert np.array_equal(after[f"layers.{l}.attn.{b}"][sl],
                                  before[f"layers.{l}.attn.{b}"][sl])
        assert np.array_equal(after[f"layers.{l}.attn.wo"][sl, :],
                              before[f"layers.{l}.attn.wo"][sl, :])
    for l, j in dead_hidden:
        assert np.array_equal(after[f"layers.{l}.ffn.w1"][:, j], before[f"layers.{l}.ffn.w1"][:, j])
        assert after[f"layers.{l}.ffn.b1"][j] == before[f"layers.{l}.ffn.b1"][j]
        assert np.array_equal(after[f"layers.{l}.ffn.w2"][j, :], before[f"layers.{l}.ffn.w2"][j, :])
    for r in range(config.model_dim):
        if gs.ranks[r] == 0.0:
            assert np.array_equal(after["embed.tok"][:, r], before["embed.tok"][:, r])
            assert np.array_equal(after["embed.proj"][r, :], before["embed.proj"][r, :])
    # and the surviving network did actually train
    assert not params_equal(before, after)


def test_grad_pruning_achieved_size_within_component_granularity():
    base = toy_baseline().model
    res = run_grad_pruning(base, toy_corpus(), grad_schedule(target_size=0.5))
    weights = component_weights(base.config)
    wmax = weights.max()
    total = weights.sum()
    achieved = res.achieved_sizes[SHARED]
    assert 0.5 <= achieved + 1e-12
    assert achieved <= 0.5 + wmax / total + 1e-12
    for rec in res.records:
        assert rec["sparsity"] == pytest.approx(1.0 - achieved)


def test_grad_pruning_non_shared_round_robin_and_per_language_gates():
    base = toy_baseline().model
    res = run_grad_pruning(base, toy_corpus(), grad_schedule(setting=NON_SHARED))
    langs = toy_corpus().languages()
    assert sorted(res.gatesets) == langs
    seen = [r["language"] for r in res.records]
    assert seen == [langs[k % len(langs)] for k in range(len(seen))]
    vecs = {l: res.gatesets[l].to_vector() for l in langs}
    assert any(not np.array_equal(vecs[langs[0]], vecs[l]) for l in langs[1:])


def test_grad_pruning_target_one_keeps_everything():
    base = toy_baseline().model
    res = run_grad_pruning(base, toy_corpus(), grad_schedule(total_steps=0, target_size=1.0))
    gs = res.gatesets[SHARED]
    assert np.array_equal(gs.to_vector(), np.ones(len(component_universe(base.config))))
    assert res.achieved_sizes[SHARED] == 1.0
    assert params_equal(snapshot(res.model), snapshot(base))


# --- l0 pruning -------------------------------------------------------------


def l0_schedule(**kwargs):
    base = dict(total_steps=6, batch_size=4, seq_len=10, seed=3, algorithm="l0_improved",
                setting=NON_SHARED, target_size=0.5, importance_batches=2)
    base.update(kwargs)
    return TrainSchedule(**base)


def test_l0_improved_requires_non_shared_multilingual():
    base = toy_baseline().model
    with pytest.raises(ConfigError):
        run_l0_pruning(base, toy_corpus(), l0_schedule(setting=SHARED))
    solo = gen_corpus([LanguageSpec("zz", "Turkic", 300, 4)], seed=6)
    with pytest.raises(ConfigError):
        run_l0_pruning(base, solo, l0_schedule())
    with pytest.raises(ConfigError):
        run_l0_pruning(base, toy_corpus(), l0_schedule(algorithm="grad"))


def test_l0_loss_composition_is_exact():
    base = toy_baseline().model
    sched = l0_schedule(total_steps=9)
    res = run_l0_pruning(base, toy_corpus(), sched)
    lam1, lam2 = sched.resolved_lambda1(), sched.resolved_lambda2()
    assert len(res.records) == 9
    for rec in res.records:
        composed = (rec["mlm"] + lam1 * rec["l0"]) + lam2 * rec["diag"]
        assert abs(rec["loss"] - composed) <= 1e-12
    # vanilla runs carry no diversity term
    res_v = run_l0_pruning(base, toy_corpus(), l0_schedule(algorithm="l0_vanilla",
                                                           setting=SHARED, total_steps=4))
    assert all(rec["diag"] == 0.0 for rec in res_v.records)


def test_l0_alpha_only_phase_leaves_weights_untouched():
    base = toy_baseline().model
    before = snapshot(base)
    sched = l0_schedule(total_steps=2, alpha_only_warmup_fraction=0.9)
    res = run_l0_pruning(base, toy_corpus(), sched)
    assert params_equal(snapshot(res.model), before)
    langs = toy_corpus().languages()
    init = initial_alphas(len(component_universe(base.config)), seed=3)
    assert any(not np.array_equal(alpha_row(res.alphas, langs, l), alpha_row(init, langs, l))
               for l in langs)


def test_l0_zero_steps_hardens_initialization():
    base = toy_baseline().model
    res = run_l0_pruning(base, toy_corpus(), l0_schedule(total_steps=0))
    assert res.records == []
    assert params_equal(snapshot(res.model), snapshot(base))
    langs = toy_corpus().languages()
    init = initial_alphas(len(component_universe(base.config)), seed=3)
    for lang, gs in res.gatesets.items():
        expect = (inference_gate(alpha_row(init, langs, lang)) >= 0.5).astype(float)
        assert np.array_equal(gs.to_vector(), expect)
        assert gs.hard


def test_l0_gatesets_follow_hardened_alphas():
    base = toy_baseline().model
    res = run_l0_pruning(base, toy_corpus(), l0_schedule(total_steps=6))
    wvec = component_weights(base.config)
    langs = sorted(res.gatesets)
    for lang, gs in res.gatesets.items():
        vec = gs.to_vector()
        assert np.array_equal(vec, (alpha_row(res.alphas, langs, lang) >= 0.0).astype(float))
        assert res.achieved_sizes[lang] == pytest.approx(float((vec * wvec).sum() / wvec.sum()))


# --- dynamic sparsification -------------------------------------------------


def ds_schedule(**kwargs):
    base = dict(total_steps=6, batch_size=4, seq_len=10, seed=3, algorithm="ds_grad",
                setting=SHARED, importance_batches=2)
    base.update(kwargs)
    return TrainSchedule(**base)


def test_ds_grad_keeps_ramps_frozen_and_matches_init():
    base = toy_baseline().model
    res = run_ds_training(base, toy_corpus(), ds_schedule())
    from prunelab.corpus import mlm_batches

    sched = ds_schedule()
    batch_dict = {
        lang: list(mlm_batches(toy_corpus(), n_batches=sched.importance_batches,
                               batch_size=sched.batch_size, seq_len=sched.seq_len,
                               mask_rate=sched.mask_rate, seed=[sched.seed, 9, i],
                               languages=[lang]))
        for i, lang in enumerate(toy_corpus().languages())
    }
    pooled = [b for lang in sorted(batch_dict) for b in batch_dict[lang]]
    table = importance_scores(base, pooled, SHARED)
    expect = init_ds({SHARED: table}, component_weights(base.config), DEFAULT_GRID)
    assert res.ds.languages == expect.languages == [SHARED]
    for col in ("alpha", "theta", "t_hat", "delta"):
        assert np.array_equal(getattr(res.ds, col), getattr(expect, col))


def test_ds_sampled_sizes_follow_grid_and_records_match():
    base = toy_baseline().model
    sched = ds_schedule(total_steps=12)
    res = run_ds_training(base, toy_corpus(), sched)
    wvec = component_weights(base.config)
    ts = []
    for k, rec in enumerate(res.records):
        t = float(DEFAULT_GRID[int(np.random.default_rng([sched.seed, 11, k])
                                   .integers(1, len(DEFAULT_GRID)))])
        ts.append(t)
        values = gate_values_at(res.ds, t, SHARED)
        assert rec["sparsity"] == 1.0 - float((values * wvec).sum() / wvec.sum())
    assert min(ts) > 0.0
    assert len(set(ts)) > 1


def test_ds_l0_trains_ramps_but_keeps_bucket_columns():
    base = toy_baseline().model
    res = run_ds_training(base, toy_corpus(), ds_schedule(algorithm="ds_l0",
                                                          setting=NON_SHARED))
    sched_l1 = ds_schedule(algorithm="ds_l0").resolved_lambda1()
    assert sched_l1 == 128.0
    langs = toy_corpus().languages()
    assert res.ds.languages == langs
    from prunelab.corpus import mlm_batches

    sched = ds_schedule(algorithm="ds_l0", setting=NON_SHARED)
    batch_dict = {
        lang: list(mlm_batches(toy_corpus(), n_batches=sched.importance_batches,
                               batch_size=sched.batch_size, seq_len=sched.seq_len,
                               mask_rate=sched.mask_rate, seed=[sched.seed, 9, i],
                               languages=[lang]))
        for i, lang in enumerate(langs)
    }
    tables = {lang: importance_scores(base, batch_dict[lang], lang) for lang in langs}
    init = init_ds(tables, component_weights(base.config), DEFAULT_GRID)
    moved = False
    for i in range(len(langs)):
        assert np.array_equal(res.ds.t_hat[i], init.t_hat[i])
        assert np.array_equal(res.ds.delta[i], init.delta[i])
        if not np.array_equal(res.ds.alpha[i], init.alpha[i]):
            moved = True
    assert moved
    for rec in res.records:
        composed = rec["mlm"] + 128.0 * rec["l0"]
        assert abs(rec["loss"] - composed) <= 1e-12


def test_ds_rejects_non_ds_algorithms():
    base = toy_baseline().model
    with pytest.raises(ConfigError):
        run_ds_training(base, toy_corpus(), ds_schedule(algorithm="grad"))


def test_run_reproducibility_across_run_kinds():
    base = toy_baseline().model
    for runner, sched in ((run_grad_pruning, grad_schedule()),
                          (run_l0_pruning, l0_schedule()),
                          (run_ds_training, ds_schedule(algorithm="ds_l0"))):
        a = runner(base, toy_corpus(), sched)
        b = runner(base, toy_corpus(), sched)
        assert params_equal(snapshot(a.model), snapshot(b.model))
        assert [r["loss"] for r in a.records] == [r["loss"] for r in b.records]


# --- one record contract -----------------------------------------------------

RUNNERS = {"grad": run_grad_pruning, "l0_vanilla": run_l0_pruning,
           "l0_improved": run_l0_pruning, "ds_grad": run_ds_training,
           "ds_l0": run_ds_training}


@pytest.mark.parametrize("setting", [SHARED, NON_SHARED])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_every_run_kind_records_the_same_fields(algorithm, setting, monkeypatch):
    if algorithm == "l0_improved" and setting == SHARED:
        pytest.skip("improved l0 rejects the shared setting")
    base = toy_baseline().model
    sched = TrainSchedule(total_steps=5, batch_size=4, seq_len=10, seed=3,
                          algorithm=algorithm, setting=setting, importance_batches=1)
    runner = RUNNERS[algorithm]
    res = runner(base, toy_corpus(), sched)
    langs = toy_corpus().languages()
    rows = [SHARED] if setting == SHARED else langs
    assert [rec["step"] for rec in res.records] == list(range(5))
    for k, rec in enumerate(res.records):
        assert list(rec) == ["step", "loss", "mlm", "l0", "diag", "sparsity", "language"]
        assert rec["language"] == rows[k % len(rows)]
        assert all(np.isfinite(rec[f]) for f in ("loss", "mlm", "l0", "diag", "sparsity"))
    # a 0-step run records nothing and draws only the importance batches
    drawn = []
    original = trainer.mlm_batches

    def counting(*args, **kwargs):
        drawn.append(kwargs["n_batches"])
        return original(*args, **kwargs)

    monkeypatch.setattr(trainer, "mlm_batches", counting)
    assert runner(base, toy_corpus(), replace(sched, total_steps=0)).records == []
    scored = algorithm in ("grad", "ds_grad", "ds_l0")
    assert drawn == ([sched.importance_batches] * len(langs) if scored else [])


@pytest.mark.parametrize("kind", ["pretrain", *ALGORITHMS])
def test_each_training_step_makes_one_forward_and_one_loss_call(kind, monkeypatch):
    # the benchmark's tracer counts a training step per encoder_forward that a
    # run function enters through the trainer module's name, and times the
    # step's loss by mlm_loss; importance scoring calls them through grad_prune
    base = toy_baseline().model
    calls = Counter()
    for module in (trainer, grad_prune):
        for name in ("encoder_forward", "mlm_loss"):
            def counting(*args, _key=(module.__name__, name), _fn=getattr(module, name),
                         **kwargs):
                calls[_key] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)
    langs = toy_corpus().languages()
    for steps in (1, 3):
        calls.clear()
        sched = TrainSchedule(total_steps=steps, batch_size=4, seq_len=10, seed=3,
                              algorithm="grad" if kind == "pretrain" else kind,
                              setting=NON_SHARED, importance_batches=2)
        if kind == "pretrain":
            pretrain_baseline(base.config, toy_corpus(), sched)
        else:
            RUNNERS[kind](base, toy_corpus(), sched)
        scored = 2 * len(langs) if kind in ("grad", "ds_grad", "ds_l0") else 0
        assert calls == Counter({("prunelab.trainer", "encoder_forward"): steps,
                                 ("prunelab.trainer", "mlm_loss"): steps,
                                 ("prunelab.grad_prune", "encoder_forward"): scored,
                                 ("prunelab.grad_prune", "mlm_loss"): scored}), steps


# --- probe ------------------------------------------------------------------


def test_probe_learns_marker_signal_and_reports_macro_mean():
    base = toy_baseline().model
    splits = probe_batches(toy_corpus(), batch_size=8, seq_len=12, seed=7)
    res = finetune_probe(base, splits, epochs=5)
    langs = toy_corpus().languages()
    assert sorted(res.per_language) == langs
    for acc in res.per_language.values():
        assert 0.0 <= acc <= 1.0
    assert res.mean == pytest.approx(np.mean(list(res.per_language.values())))
    # marker fraction is linearly decodable well above chance even from a
    # barely trained encoder
    assert res.mean > 0.65
    assert res.best_lr in (1e-3, 1e-2, 1e-1)


def test_probe_is_reproducible():
    base = toy_baseline().model
    splits = probe_batches(toy_corpus(), batch_size=8, seq_len=12, seed=7)
    a = finetune_probe(base, splits, epochs=3)
    b = finetune_probe(base, splits, epochs=3)
    assert a.per_language == b.per_language
    assert a.mean == b.mean and a.best_lr == b.best_lr


# sha256 of w then b, as bytes, for each PROBE_LR_GRID rate after 30 epochs
# on the toy baseline; a change of rounding can leave every accuracy as it was
PROBE_HEAD_DIGESTS = [
    "9b6ba4ba0a7560d9696b8905d9a597df7efccdc4416bf7b9c7e437123d0bc625",
    "fd263e630f41f64bd1d7aee641d7e06990a09d075594c05976d6876be8323869",
    "af7da30337565384caa3663361376bdfcdf2920e49d690743e69c782a8aacb0a",
]


def test_trained_probe_heads_are_pinned(monkeypatch):
    base = toy_baseline().model
    splits = probe_batches(toy_corpus(), batch_size=8, seq_len=12, seed=7)
    heads = []
    accuracy = trainer._accuracy

    def recording(x, w, b, y):
        heads.append(hashlib.sha256(w.tobytes() + b.tobytes()).hexdigest())
        return accuracy(x, w, b, y)

    monkeypatch.setattr(trainer, "_accuracy", recording)
    res = finetune_probe(base, splits)
    n = len(trainer.PROBE_LR_GRID)
    # one dev call per candidate head, then one test call per language with the best
    assert heads[:n] == PROBE_HEAD_DIGESTS
    best = PROBE_HEAD_DIGESTS[trainer.PROBE_LR_GRID.index(res.best_lr)]
    assert heads[n:] == [best] * len(res.per_language)


def test_non_finite_probe_logits_raise_numeric_error(monkeypatch):
    base = toy_baseline().model
    splits = probe_batches(toy_corpus(), batch_size=8, seq_len=12, seed=7)
    features = trainer._probe_features

    def with_inf(model, batches):
        x, y, langs = features(model, batches)
        x[0, 0] = np.inf
        return x, y, langs

    monkeypatch.setattr(trainer, "_probe_features", with_inf)
    with pytest.raises(NumericError):
        finetune_probe(base, splits, epochs=1)


def test_probe_head_trains_off_the_tape(monkeypatch):
    def refuse(loss):
        raise AssertionError("the probe head needs no backward")

    monkeypatch.setattr(T, "backward", refuse)
    splits = probe_batches(toy_corpus(), batch_size=8, seq_len=12, seed=7)
    finetune_probe(toy_baseline().model, splits, epochs=1)
    assert T.active_tape().nodes == []


# --- artifacts --------------------------------------------------------------


def test_metrics_csv_round_trip(tmp_path):
    base = toy_baseline().model
    res = run_l0_pruning(base, toy_corpus(), l0_schedule(total_steps=4))
    path = tmp_path / "metrics.csv"
    write_metrics(res.records, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "step,loss,l0,diag,sparsity"
    assert len(lines) == 1 + len(res.records)
    for rec, line in zip(res.records, lines[1:]):
        cells = line.split(",")
        assert int(cells[0]) == rec["step"]
        for cell, key in zip(cells[1:], ("loss", "l0", "diag", "sparsity")):
            assert float(cell) == rec[key]


def test_manifest_contents(tmp_path):
    sched = grad_schedule()
    config = toy_baseline().model.config
    path = write_manifest(tmp_path / "run", sched, config, extra={"kind": "test"})
    payload = json.loads(open(path).read())
    assert payload["schedule"]["algorithm"] == "grad"
    assert payload["schedule"]["target_size"] == 0.3
    assert payload["model"] == config.to_dict()
    assert payload["package_version"]
    assert payload["kind"] == "test"
    assert "timestamp" not in payload
    gh = payload["git_hash"]
    assert gh is None or (len(gh) == 40 and all(c in "0123456789abcdef" for c in gh))
    assert os.path.basename(path) == "manifest.json"


def test_non_finite_loss_raises_run_error():
    from prunelab.trainer import _check_finite

    _check_finite(1.25, 3)
    with pytest.raises(RunError, match="step 7"):
        _check_finite(float("nan"), 7)
    with pytest.raises(RunError):
        _check_finite(float("inf"), 0)


def test_manifest_git_hash_names_the_package_checkout(tmp_path, monkeypatch):
    import subprocess

    import prunelab
    from prunelab.trainer import _git_hash

    def head(cwd):
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=cwd, capture_output=True,
                             text=True)
        return out.stdout.strip() if out.returncode == 0 else None

    # a run started inside another repository must not record that one's HEAD
    other = tmp_path / "other"
    other.mkdir()
    for argv in (["init", "-q"],
                 ["-c", "user.name=t", "-c", "user.email=t@t", "commit", "-q",
                  "--allow-empty", "-m", "other"]):
        subprocess.run(["git", *argv], cwd=other, check=True, capture_output=True)
    monkeypatch.chdir(other)
    expect = head(os.path.dirname(os.path.abspath(prunelab.__file__)))
    assert _git_hash() == expect
    assert expect is None or expect != head(other)


# --- tape size of one gate-learning step ------------------------------------

EIGHT = [("en", "Indo-European"), ("de", "Indo-European"), ("ar", "Afro-Asiatic"),
         ("he", "Afro-Asiatic"), ("tr", "Turkic"), ("kk", "Turkic"),
         ("fi", "Uralic"), ("hu", "Uralic")]


def _tape_nodes_at_last_backward(monkeypatch, runner, schedule):
    """Nodes on the tape when the run's last backward starts."""
    from prunelab.corpus import build_inventories

    specs = build_inventories([LanguageSpec(c, f, 60, 100 + i)
                               for i, (c, f) in enumerate(EIGHT)], inventory_size=12)
    corpus = gen_corpus(specs, seed=7)
    config = ModelConfig(n_layers=2, n_heads=2, model_dim=16, ffn_dim=32,
                         vocab_size=len(corpus.vocab), max_seq_len=32)
    seen = []
    original = T.backward

    def counting(loss):
        seen.append(len(T.active_tape().nodes))
        return original(loss)

    monkeypatch.setattr(T, "backward", counting)
    runner(Model.init(config, 1), corpus, schedule)
    return seen[-1]


# The model forward of a step is 7 nodes: the embedding, one node per
# sublayer of the two layers, the head and the loss.  Each gate objective is
# one node, and split_gates takes the 2 * 2 + 1 gate vectors as slices.


def test_improved_l0_step_records_one_chain_for_all_languages(monkeypatch):
    # 8 languages at the toy shape: one row take, one sample, 5 gate slices,
    # one penalty over all rows and its scaling, the size constraint, one
    # expected-gate matrix, the diversity term and its scaling, 4 for the
    # total; per-language chains recorded about 219 nodes
    sched = TrainSchedule(total_steps=1, batch_size=8, seq_len=12, seed=3,
                          algorithm="l0_improved", setting=NON_SHARED)
    assert _tape_nodes_at_last_backward(monkeypatch, run_l0_pruning, sched) == 7 + 17


def test_ds_l0_step_records_one_chain_for_all_languages(monkeypatch):
    # z = alpha + t * theta (2), one row take, one expected gate, 5 gate
    # slices, the penalty and its scaling, the size constraint, 2 for the total
    sched = TrainSchedule(total_steps=1, batch_size=8, seq_len=12, seed=3,
                          algorithm="ds_l0", setting=NON_SHARED, importance_batches=1)
    assert _tape_nodes_at_last_backward(monkeypatch, run_ds_training, sched) == 7 + 14


def test_vanilla_l0_and_ds_grad_steps_record_one_node_per_objective(monkeypatch):
    # vanilla: one row take, one sample, 5 gate slices, the penalty and its
    # scaling, the mean size (2), 2 for the total; DS-grad gates are constants
    sched = TrainSchedule(total_steps=1, batch_size=8, seq_len=12, seed=3,
                          algorithm="l0_vanilla", setting=NON_SHARED)
    assert _tape_nodes_at_last_backward(monkeypatch, run_l0_pruning, sched) == 7 + 13
    sched = TrainSchedule(total_steps=1, batch_size=8, seq_len=12, seed=3,
                          algorithm="ds_grad", setting=NON_SHARED, importance_batches=1)
    assert _tape_nodes_at_last_backward(monkeypatch, run_ds_training, sched) == 7


def test_pretrain_step_records_no_gate_nodes(monkeypatch):
    sched = TrainSchedule(total_steps=1, batch_size=8, seq_len=12, seed=3)
    nodes = _tape_nodes_at_last_backward(
        monkeypatch, lambda model, corpus, s: pretrain_baseline(model.config, corpus, s), sched)
    assert nodes == 7
