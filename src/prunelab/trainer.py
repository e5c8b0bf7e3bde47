"""Training loops: baseline MLM, pruning-aware continued training, probe head.

One schedule object drives every run kind.  Gradient pruning scores, freezes
hard gates, then keeps training the surviving weights.  L0 pruning learns
gate parameters jointly with the weights, with an alpha-only warmup phase.
Dynamic sparsification trains one weight set under subnetworks sampled from
a size grid, so a single checkpoint serves every grid sparsity.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
from dataclasses import asdict, dataclass, field

import numpy as np

from . import tensor as T
from .corpus import PAD_ID, Corpus, ProbeSplits, mlm_batches
from .ds import DEFAULT_GRID, DSParams, check_grid, gate_values_at, init_ds
from .encoder import (GateSet, Model, ModelConfig, component_slices,
                      component_weights, cross_entropy, encoder_forward,
                      encoder_hidden, gate_tensors, mlm_loss, retained_fraction)
from .exceptions import ConfigError, ContractError, InputError, RunError
from .grad_prune import NON_SHARED, SHARED, PruningProfile, build_profile, importance_scores
from .l0 import (HardConcreteParams, build_prior, diversity_loss,
                 expected_gate, inference_gate, l0_penalty, sample_gate,
                 sparsity_constraint_loss, total_loss)
from .tensor import Tensor, no_grad

ALGORITHMS = ("grad", "l0_vanilla", "l0_improved", "ds_grad", "ds_l0")

# full-scale reference recipe is 150k steps at batch 2048 and lr 2e-4; the
# defaults below are desk-scale stand-ins
@dataclass(frozen=True)
class TrainSchedule:
    """Everything one training run needs besides the model and the corpus."""

    total_steps: int
    batch_size: int = 32
    seq_len: int = 16
    learning_rate: float = 1e-3
    alpha_lr: float = 5e-2
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    warmup_fraction: float = 0.1
    alpha_only_warmup_fraction: float = 0.1
    lambda1: float | None = None
    lambda2: float | None = None
    target_size: float = 0.5
    setting: str = NON_SHARED
    algorithm: str = "grad"
    seed: int = 0
    mask_rate: float = 0.15
    importance_batches: int = 8
    grid: tuple = DEFAULT_GRID

    def __post_init__(self):
        if self.total_steps < 0:
            raise ConfigError(f"total_steps must be >= 0, got {self.total_steps}")
        if self.batch_size < 1 or self.seq_len < 2:
            raise ConfigError("need batch_size >= 1 and seq_len >= 2")
        if self.learning_rate <= 0.0 or self.alpha_lr <= 0.0:
            raise ConfigError("learning rates must be positive")
        for name in ("warmup_fraction", "alpha_only_warmup_fraction"):
            v = getattr(self, name)
            if not 0.0 <= v < 1.0:
                raise ConfigError(f"{name} must lie in [0, 1), got {v}")
        for name in ("lambda1", "lambda2"):
            v = getattr(self, name)
            if v is not None and v < 0.0:
                raise ConfigError(f"{name} must be >= 0, got {v}")
        # target 1.0 is allowed and means no-op pruning
        if not 0.0 < self.target_size <= 1.0:
            raise ConfigError(f"target_size must lie in (0, 1], got {self.target_size}")
        if self.setting not in (SHARED, NON_SHARED):
            raise ConfigError(f"unknown setting {self.setting!r}")
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {self.algorithm!r}")
        if not 0.0 < self.mask_rate < 1.0:
            raise ConfigError(f"mask_rate must lie in (0, 1), got {self.mask_rate}")
        if self.importance_batches < 1:
            raise ConfigError("importance_batches must be >= 1")

    def resolved_lambda1(self) -> float:
        if self.lambda1 is not None:
            return self.lambda1
        if self.algorithm in ("l0_vanilla", "l0_improved"):
            return 8.0
        if self.algorithm == "ds_l0":
            return 128.0
        return 0.0

    def resolved_lambda2(self) -> float:
        if self.lambda2 is not None:
            return self.lambda2
        return 1.0 if self.algorithm == "l0_improved" else 0.0


def lr_at(step: int, total: int, warmup_fraction: float) -> float:
    """Linear warmup to 1 then linear decay toward 0, as a multiplier."""
    if total <= 0:
        return 1.0
    w = min(int(round(warmup_fraction * total)), total - 1)
    if step < w:
        return (step + 1) / w
    return (total - step) / (total - w)


class Adam:
    """Adaptive-moment optimizer over a named dict of leaf tensors.

    Fresh state at construction: a parameter whose gradient is exactly zero
    every step is never moved, which is what keeps pruned weights frozen.
    """

    def __init__(self, params: dict, lr: float, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        if lr <= 0.0:
            raise ContractError(f"lr must be positive, got {lr}")
        self.params = dict(params)
        self.lr, self.b1, self.b2, self.eps = lr, beta1, beta2, eps
        self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.t = 0

    def step(self, scale: float = 1.0):
        self.t += 1
        c1 = 1.0 - self.b1 ** self.t
        c2 = 1.0 - self.b2 ** self.t
        for k, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            m, v = self.m[k], self.v[k]
            m *= self.b1
            m += (1.0 - self.b1) * g
            v *= self.b2
            v += (1.0 - self.b2) * g * g
            p.data -= (self.lr * scale) * (m / c1) / (np.sqrt(v / c2) + self.eps)

    def zero(self):
        for p in self.params.values():
            p.zero_grad()


@dataclass
class TrainResult:
    """Model after training plus per-step records and run artifacts."""

    model: Model
    records: list[dict]
    profile: PruningProfile | None = None
    hc: HardConcreteParams | None = None
    ds: DSParams | None = None
    achieved_sizes: dict[str, float] = field(default_factory=dict)


METRIC_COLUMNS = ("step", "loss", "l0", "diag", "sparsity")


def write_metrics(records: list[dict], path):
    with open(path, "w") as f:
        f.write(",".join(METRIC_COLUMNS) + "\n")
        for rec in records:
            f.write(",".join(repr(rec[c]) if c != "step" else str(rec[c])
                             for c in METRIC_COLUMNS) + "\n")


def _git_hash():
    """HEAD of the checkout this package is imported from, or None outside one."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=5,
                             cwd=os.path.dirname(os.path.abspath(__file__)))
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def write_manifest(run_dir, schedule: TrainSchedule, config: ModelConfig, extra=None):
    from . import __version__

    payload = {
        "schedule": asdict(schedule),
        "model": config.to_dict(),
        "package_version": __version__,
        "git_hash": _git_hash(),
    }
    payload.update(extra or {})
    os.makedirs(run_dir, exist_ok=True)
    path = os.path.join(run_dir, "manifest.json")
    with open(path, "w") as f:
        json.dump(payload, f, indent=2)
    return path


def _record(step, loss_v, mlm_v, l0_v, diag_v, sparsity, language=None) -> dict:
    rec = {"step": step, "loss": loss_v, "mlm": mlm_v, "l0": l0_v,
           "diag": diag_v, "sparsity": sparsity}
    if language is not None:
        rec["language"] = language
    return rec


def _check_finite(value: float, step: int):
    if not np.isfinite(value):
        raise RunError(f"loss diverged at step {step}")


def gate_dict_from_vector(config: ModelConfig, flat: Tensor) -> dict:
    """Split a component-ordered gate vector into the forward-pass layout."""
    slices = component_slices(config)
    return {"heads": [flat[s] for s in slices["heads"]],
            "hiddens": [flat[s] for s in slices["hiddens"]],
            "ranks": flat[slices["ranks"]]}


def _per_language_streams(corpus, schedule, salt: int) -> dict[str, list]:
    langs = corpus.languages()
    per = math.ceil(schedule.total_steps / max(1, len(langs)))
    return {
        lang: list(mlm_batches(corpus, n_batches=max(per, 1),
                               batch_size=schedule.batch_size, seq_len=schedule.seq_len,
                               mask_rate=schedule.mask_rate,
                               seed=[schedule.seed, salt, i], languages=[lang]))
        for i, lang in enumerate(langs)
    }


def _importance_batch_dict(corpus, schedule, salt: int) -> dict[str, list]:
    return {
        lang: list(mlm_batches(corpus, n_batches=schedule.importance_batches,
                               batch_size=schedule.batch_size, seq_len=schedule.seq_len,
                               mask_rate=schedule.mask_rate,
                               seed=[schedule.seed, salt, i], languages=[lang]))
        for i, lang in enumerate(corpus.languages())
    }


def pretrain_baseline(config: ModelConfig, corpus: Corpus, schedule: TrainSchedule) -> TrainResult:
    """Train a dense, ungated model with masked language modeling."""
    model = Model.init(config, schedule.seed)
    records: list[dict] = []
    if schedule.total_steps == 0:
        return TrainResult(model, records)
    stream = mlm_batches(corpus, n_batches=schedule.total_steps,
                         batch_size=schedule.batch_size, seq_len=schedule.seq_len,
                         mask_rate=schedule.mask_rate, seed=[schedule.seed, 3])
    opt = Adam(model.params, schedule.learning_rate, schedule.beta1, schedule.beta2, schedule.eps)
    for k, batch in enumerate(stream):
        logits = encoder_forward(model, batch.tokens, None, pad_id=batch.pad_id)
        loss = mlm_loss(logits, batch.mask_positions, batch.gold_ids)
        v = loss.item()
        _check_finite(v, k)
        T.backward(loss)
        opt.step(lr_at(k, schedule.total_steps, schedule.warmup_fraction))
        opt.zero()
        records.append(_record(k, v, v, 0.0, 0.0, 0.0))
    return TrainResult(model, records)


def run_grad_pruning(baseline: Model, corpus: Corpus, schedule: TrainSchedule) -> TrainResult:
    """Score components, freeze hard gates at the target, keep training."""
    model = baseline.copy()
    config = model.config
    weights = component_weights(config)
    profile = build_profile(model, _importance_batch_dict(corpus, schedule, 4),
                            schedule.setting, schedule.target_size, weights)
    langs = sorted(profile.gatesets)
    fixed = {lang: gate_tensors(profile.gatesets[lang]) for lang in langs}
    sparsity = {lang: 1.0 - retained_fraction(profile.gatesets[lang].values, weights)
                for lang in langs}
    achieved = {lang: 1.0 - sparsity[lang] for lang in langs}
    records: list[dict] = []
    if schedule.total_steps == 0:
        return TrainResult(model, records, profile=profile, achieved_sizes=achieved)
    if schedule.setting == SHARED:
        streams = {SHARED: list(mlm_batches(
            corpus, n_batches=schedule.total_steps, batch_size=schedule.batch_size,
            seq_len=schedule.seq_len, mask_rate=schedule.mask_rate, seed=[schedule.seed, 5]))}
    else:
        streams = _per_language_streams(corpus, schedule, 5)
    opt = Adam(model.params, schedule.learning_rate, schedule.beta1, schedule.beta2, schedule.eps)
    for k in range(schedule.total_steps):
        lang = langs[k % len(langs)]
        batch = streams[lang][k // len(langs)] if schedule.setting == NON_SHARED else streams[SHARED][k]
        logits = encoder_forward(model, batch.tokens, fixed[lang], pad_id=batch.pad_id)
        loss = mlm_loss(logits, batch.mask_positions, batch.gold_ids)
        v = loss.item()
        _check_finite(v, k)
        T.backward(loss)
        opt.step(lr_at(k, schedule.total_steps, schedule.warmup_fraction))
        opt.zero()
        records.append(_record(k, v, v, 0.0, 0.0, sparsity[lang], lang))
    return TrainResult(model, records, profile=profile, achieved_sizes=achieved)


def run_l0_pruning(baseline: Model, corpus: Corpus, schedule: TrainSchedule) -> TrainResult:
    """Learn hard-concrete gates jointly with the weights.

    Phase 1 updates only the gate parameters for the warmup fraction of the
    run; phase 2 updates weights too.  The improved variant adds the
    per-language size constraint and the prior-masked diversity penalty and
    therefore needs the non-shared setting with at least two languages.
    """
    if schedule.algorithm not in ("l0_vanilla", "l0_improved"):
        raise ConfigError(f"not an l0 algorithm: {schedule.algorithm!r}")
    improved = schedule.algorithm == "l0_improved"
    if improved and schedule.setting != NON_SHARED:
        raise ConfigError("improved l0 requires the non-shared setting")
    if improved and len(corpus.languages()) < 2:
        raise ConfigError("improved l0 requires at least two languages")
    model = baseline.copy()
    config = model.config
    weights = component_weights(config)
    total_w = float(weights.sum())
    langs = corpus.languages() if schedule.setting == NON_SHARED else [SHARED]
    hc = HardConcreteParams.init(langs, weights.size, seed=[schedule.seed, 6])
    prior_sub = None
    if improved:
        prior_sub = build_prior({s.id: s.family for s in corpus.specs}).submatrix(langs)
    if schedule.setting == SHARED:
        streams = {SHARED: list(mlm_batches(
            corpus, n_batches=max(schedule.total_steps, 1), batch_size=schedule.batch_size,
            seq_len=schedule.seq_len, mask_rate=schedule.mask_rate, seed=[schedule.seed, 7]))}
    else:
        streams = _per_language_streams(corpus, schedule, 7)
    opt_w = Adam(model.params, schedule.learning_rate, schedule.beta1, schedule.beta2, schedule.eps)
    opt_a = Adam({"alpha": hc.alphas}, schedule.alpha_lr,
                 schedule.beta1, schedule.beta2, schedule.eps)
    warm = int(round(schedule.alpha_only_warmup_fraction * schedule.total_steps))
    lam1, lam2 = schedule.resolved_lambda1(), schedule.resolved_lambda2()
    n_lang = len(langs)
    records: list[dict] = []
    for k in range(schedule.total_steps):
        i = k % n_lang
        lang = langs[i]
        batch = streams[lang][k // n_lang] if schedule.setting == NON_SHARED else streams[SHARED][k]
        u = np.random.default_rng([schedule.seed, 8, k]).uniform(1e-9, 1.0 - 1e-9, size=weights.size)
        gates = gate_dict_from_vector(config, sample_gate(hc.alphas[i], u))
        logits = encoder_forward(model, batch.tokens, gates, pad_id=batch.pad_id)
        mlm = mlm_loss(logits, batch.mask_positions, batch.gold_ids)
        # expected size of every language, one entry per row of alphas
        sizes = T.multiply(l0_penalty(hc.alphas, weights), 1.0 / total_w)
        if improved:
            l0_term = sparsity_constraint_loss(sizes, schedule.target_size)
            # mean overlap per language pair per component; keeping the
            # diversity gradient below the size-constraint gradient lets the
            # penalty steer which components differ without shrinking totals
            div = T.multiply(diversity_loss(expected_gate(hc.alphas), prior_sub),
                             1.0 / (n_lang * (n_lang - 1) * weights.size))
        else:
            # the vanilla penalty is the mean expected size, so lambda1 is
            # comparable across model scales
            l0_term = T.multiply(T.fold_sum(sizes), 1.0 / n_lang)
            div = None
        loss = total_loss(mlm, l0_term, div, lam1, lam2)
        loss_v, mlm_v, l0_v = loss.item(), mlm.item(), l0_term.item()
        diag_v = div.item() if div is not None else 0.0
        mean_size = float(np.mean(sizes.data))
        _check_finite(loss_v, k)
        T.backward(loss)
        opt_a.step(lr_at(k, schedule.total_steps, schedule.warmup_fraction))
        if k >= warm:
            opt_w.step(lr_at(k, schedule.total_steps, schedule.warmup_fraction))
        opt_a.zero()
        opt_w.zero()
        records.append(_record(k, loss_v, mlm_v, l0_v, diag_v, 1.0 - mean_size, lang))
    hard = (inference_gate(hc.alphas.data) >= 0.5).astype(np.float64)
    gatesets = {l: GateSet(config, hard[i], hard=True) for i, l in enumerate(langs)}
    achieved = {l: retained_fraction(hard[i], weights) for i, l in enumerate(langs)}
    profile = PruningProfile(schedule.setting, schedule.target_size, gatesets)
    return TrainResult(model, records, profile=profile, hc=hc, achieved_sizes=achieved)


def run_ds_training(baseline: Model, corpus: Corpus, schedule: TrainSchedule) -> TrainResult:
    """Train one weight set under subnetworks sampled from the size grid.

    ds_grad freezes the gate ramps solved from the importance ranking;
    ds_l0 also trains them under the size constraint at the sampled t.
    Sampled sizes skip t = 0 (an all-zero network learns nothing).
    """
    if schedule.algorithm not in ("ds_grad", "ds_l0"):
        raise ConfigError(f"not a ds algorithm: {schedule.algorithm!r}")
    grid = check_grid(schedule.grid)
    model = baseline.copy()
    config = model.config
    weights = component_weights(config)
    total_w = float(weights.sum())
    if schedule.setting == SHARED:
        pooled = [b for lang, batches in sorted(_importance_batch_dict(corpus, schedule, 9).items())
                  for b in batches]
        tables = {SHARED: importance_scores(model, pooled, SHARED)}
        langs = [SHARED]
        streams = {SHARED: list(mlm_batches(
            corpus, n_batches=max(schedule.total_steps, 1), batch_size=schedule.batch_size,
            seq_len=schedule.seq_len, mask_rate=schedule.mask_rate, seed=[schedule.seed, 10]))}
    else:
        batch_dict = _importance_batch_dict(corpus, schedule, 9)
        tables = {lang: importance_scores(model, batch_dict[lang], lang)
                  for lang in sorted(batch_dict)}
        langs = corpus.languages()
        streams = _per_language_streams(corpus, schedule, 10)
    ds = init_ds(tables, weights, grid)
    trainable = schedule.algorithm == "ds_l0"
    opt_w = Adam(model.params, schedule.learning_rate, schedule.beta1, schedule.beta2, schedule.eps)
    opt_a = None
    if trainable:
        # (languages x components) leaves, rows in langs order
        alphas = Tensor(np.stack([ds.tables[l]["alpha"] for l in langs]), requires_grad=True)
        thetas = Tensor(np.stack([ds.tables[l]["theta"] for l in langs]), requires_grad=True)
        opt_a = Adam({"alpha": alphas, "theta": thetas}, schedule.alpha_lr,
                     schedule.beta1, schedule.beta2, schedule.eps)
    lam1 = schedule.resolved_lambda1()
    records: list[dict] = []
    for k in range(schedule.total_steps):
        i = k % len(langs)
        lang = langs[i]
        batch = streams[lang][k // len(langs)] if schedule.setting == NON_SHARED else streams[SHARED][k]
        t = float(grid[int(np.random.default_rng([schedule.seed, 11, k]).integers(1, len(grid)))])
        if trainable:
            z = T.add(alphas, T.multiply(thetas, t))
            flat = expected_gate(z[i])
            gates = gate_dict_from_vector(config, flat)
            spars = 1.0 - retained_fraction(flat.data, weights)
        else:
            values = gate_values_at(ds, t, lang)
            gates = gate_tensors(GateSet(config, values, hard=False))
            spars = 1.0 - retained_fraction(values, weights)
        logits = encoder_forward(model, batch.tokens, gates, pad_id=batch.pad_id)
        mlm = mlm_loss(logits, batch.mask_positions, batch.gold_ids)
        if trainable:
            sizes = T.multiply(l0_penalty(z, weights), 1.0 / total_w)
            l0_term = sparsity_constraint_loss(sizes, t)
            loss = total_loss(mlm, l0_term, None, lam1, 0.0)
        else:
            l0_term = None
            loss = mlm
        loss_v, mlm_v = loss.item(), mlm.item()
        l0_v = l0_term.item() if l0_term is not None else 0.0
        _check_finite(loss_v, k)
        T.backward(loss)
        opt_w.step(lr_at(k, schedule.total_steps, schedule.warmup_fraction))
        if opt_a is not None:
            opt_a.step(lr_at(k, schedule.total_steps, schedule.warmup_fraction))
        opt_w.zero()
        if opt_a is not None:
            opt_a.zero()
        records.append(_record(k, loss_v, mlm_v, l0_v, 0.0, spars, lang))
    if trainable:
        # t_hat and delta keep describing the initialization; alpha and theta
        # carry what training learned on top of it
        tables_out = {l: {"alpha": alphas.data[i].copy(), "theta": thetas.data[i].copy(),
                          "t_hat": ds.tables[l]["t_hat"].copy(),
                          "delta": ds.tables[l]["delta"].copy()} for i, l in enumerate(langs)}
        ds = DSParams(ds.components, ds.grid, tables_out, ds.constants)
    return TrainResult(model, records, ds=ds)


@dataclass
class ProbeResult:
    """Probe accuracies: per language, their mean, and row-level overall."""

    per_language: dict[str, float]
    mean: float
    overall: float
    best_lr: float
    dev_accuracy: float


def _probe_features(model: Model, gates: dict, batches) -> tuple[np.ndarray, np.ndarray, list]:
    xs, ys, langs = [], [], []
    with no_grad():
        for b in batches:
            h = encoder_hidden(model, b.tokens, gates, pad_id=b.pad_id)
            xs.append(h.data[:, 0, :].copy())
            ys.append(b.labels)
            langs.extend(b.languages)
    return np.concatenate(xs), np.concatenate(ys), langs


def _accuracy(x, w, b, y) -> float:
    pred = np.argmax(x @ w + b, axis=1)
    return float((pred == y).mean())


def finetune_probe(model: Model, gateset: GateSet, splits: ProbeSplits,
                   lr_grid=(1e-3, 1e-2, 1e-1), seed: int = 0,
                   epochs: int = 30) -> ProbeResult:
    """Train a linear head on frozen encoder features; pick lr on dev.

    Features are the hidden state at the leading cls position.  The best
    grid point by dev accuracy is evaluated per language on the test split.
    """
    if not splits.train or not splits.dev or not splits.test:
        raise InputError("probe needs non-empty train, dev and test splits")
    if not lr_grid:
        raise ContractError("lr_grid must not be empty")
    gates = gate_tensors(gateset)
    xtr, ytr, _ = _probe_features(model, gates, splits.train)
    xdv, ydv, _ = _probe_features(model, gates, splits.dev)
    xte, yte, lte = _probe_features(model, gates, splits.test)
    d = model.config.model_dim
    n = xtr.shape[0]
    bounds = [0]
    for b in splits.train:
        bounds.append(bounds[-1] + b.tokens.shape[0])
    best = None
    for lr in lr_grid:
        rng = np.random.default_rng([seed, 12])
        w = Tensor(rng.normal(0.0, 0.01, size=(d, 2)), requires_grad=True)
        bias = Tensor(np.zeros(2), requires_grad=True)
        opt = Adam({"w": w, "b": bias}, lr)
        for _ in range(epochs):
            for i in range(len(bounds) - 1):
                xb = xtr[bounds[i]: bounds[i + 1]]
                yb = ytr[bounds[i]: bounds[i + 1]]
                logits = T.add(T.matmul(Tensor(xb), w), bias)
                loss = cross_entropy(logits, yb)
                T.backward(loss)
                opt.step()
                opt.zero()
        acc = _accuracy(xdv, w.data, bias.data, ydv)
        if best is None or acc > best[0]:
            best = (acc, lr, w.data.copy(), bias.data.copy())
    dev_acc, best_lr, w, bias = best
    langs = sorted(set(lte))
    lte = np.array(lte)
    per_language = {}
    for lang in langs:
        mask = lte == lang
        per_language[lang] = _accuracy(xte[mask], w, bias, yte[mask])
    overall = _accuracy(xte, w, bias, yte)
    return ProbeResult(per_language, float(np.mean(list(per_language.values()))),
                       overall, best_lr, dev_acc)
