"""Training: baseline MLM, the five pruning algorithms, and the probe head.

Pretraining and every pruning run share one loop, ``_train``: the batch
streams (one mixed stream when shared, one per language otherwise), the
round robin over gate rows, the backward, and each optimizer from its
first step on.  A run kind supplies one step function; its loss is a tape
node's output, which the tape has checked finite.
Gradient pruning trains under hard gates frozen at the target.  L0 pruning
learns gate parameters with the weights, whose optimizer starts after the
alpha-only warmup.  Dynamic sparsification trains one weight set under
subnetworks sampled from a size grid, so one checkpoint serves every size.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import tensor as T
from .analysis import write_report
from .corpus import PAD_ID, Corpus, ProbeSplits, mlm_batches
from .ds import DEFAULT_GRID, DSParams, check_grid, gate_values_at, init_ds
from .encoder import (GateSet, Model, ModelConfig, component_weights, encoder_forward,
                      encoder_hidden, gate_tensors, mlm_loss, retained_fraction)
from .exceptions import ConfigError, ContractError, InputError, NumericError
from .grad_prune import NON_SHARED, SHARED, ImportanceTable, build_profile, importance_tables
from .l0 import (ALPHA_INIT_STD, build_prior, diversity_loss, expected_gate, inference_gate,
                 l0_penalty, sample_gate, sparsity_constraint_loss, total_loss)
from .tensor import Tensor, no_grad

ALGORITHMS = ("grad", "l0_vanilla", "l0_improved", "ds_grad", "ds_l0")

# the fixed recipe every run trains with: Adam's moment decays and epsilon,
# the fraction of a run the learning rate warms up over, and the fraction an
# L0 run trains its gates alone
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
WARMUP_FRACTION = 0.1
ALPHA_ONLY_WARMUP_FRACTION = 0.1

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
        if self.algorithm in ("ds_grad", "ds_l0"):
            try:
                check_grid(self.grid)
            except ContractError as e:
                raise ConfigError(str(e)) from None
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

    The moment decays and epsilon are the recipe's ADAM_BETA1, ADAM_BETA2
    and ADAM_EPS.  Fresh state at construction: a parameter whose gradient
    is exactly zero every step is never moved, which is what keeps pruned
    weights frozen.
    Construction packs every parameter into one flat buffer and points each
    ``p.data`` at its view of it, so a step is one set of vector operations;
    an array later assigned to ``p.data`` is not updated.
    """

    def __init__(self, params: dict, lr: float):
        if lr <= 0.0:
            raise ContractError(f"lr must be positive, got {lr}")
        self.params = dict(params)
        self.lr = lr
        self.flat = np.concatenate([p.data for p in self.params.values()], axis=None)
        offset = 0
        for p in self.params.values():
            p.data = self.flat[offset: offset + p.data.size].reshape(p.data.shape)
            offset += p.data.size
        self.m = np.zeros_like(self.flat)
        self.v = np.zeros_like(self.flat)
        self.t = 0

    def step(self, scale: float = 1.0):
        """One update of every parameter; a step where no parameter has a gradient moves none.

        Raises ContractError when some but not all parameters have a gradient.
        """
        self.t += 1
        grads = [p.grad for p in self.params.values()]
        missing = [k for k, g in zip(self.params, grads) if g is None]
        if len(missing) == len(grads):
            return
        if missing:
            raise ContractError(f"Adam.step: no gradient for {', '.join(missing)}")
        g = np.concatenate(grads, axis=None)
        c1 = 1.0 - ADAM_BETA1 ** self.t
        c2 = 1.0 - ADAM_BETA2 ** self.t
        self.m *= ADAM_BETA1
        self.m += (1.0 - ADAM_BETA1) * g
        self.v *= ADAM_BETA2
        self.v += (1.0 - ADAM_BETA2) * g * g
        self.flat -= (self.lr * scale) * (self.m / c1) / (np.sqrt(self.v / c2) + ADAM_EPS)

    def zero(self):
        for p in self.params.values():
            p.grad = None


@dataclass
class TrainResult:
    """Model after training plus per-step records and run artifacts.

    A pruning run leaves a hard gate set per language (or 'shared'); a
    gradient run also its importance tables, an L0 run its (languages x
    components) alphas, rows in sorted language order.
    """

    model: Model
    records: list[dict]
    gatesets: dict[str, GateSet] = field(default_factory=dict)
    tables: dict[str, ImportanceTable] = field(default_factory=dict)
    alphas: np.ndarray | None = None
    ds: DSParams | None = None
    achieved_sizes: dict[str, float] = field(default_factory=dict)


METRIC_COLUMNS = ("step", "loss", "l0", "diag", "sparsity")


def write_metrics(records: list[dict], path):
    write_report(records, METRIC_COLUMNS, path)


def _git_hash():
    """HEAD of the checkout this package is imported from, or None outside one."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=5,
                             cwd=os.path.dirname(os.path.abspath(__file__)))
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def write_json(path, payload: dict, extra=None):
    """Write payload, then the package version and git hash, then extra, as a JSON manifest."""
    from . import __version__

    payload = {**payload, "package_version": __version__, "git_hash": _git_hash(),
               **(extra or {})}
    with open(path, "w") as f:
        json.dump(payload, f, indent=2)
    return path


def write_manifest(run_dir, schedule: TrainSchedule, config: ModelConfig, extra=None):
    os.makedirs(run_dir, exist_ok=True)
    return write_json(os.path.join(run_dir, "manifest.json"),
                      {"schedule": asdict(schedule), "model": config.to_dict()}, extra)


def _batches(corpus, schedule, n_batches: int, seed, languages=None):
    return mlm_batches(corpus, n_batches=n_batches, batch_size=schedule.batch_size,
                       seq_len=schedule.seq_len, mask_rate=schedule.mask_rate, seed=seed,
                       languages=languages)


def _language_batches(corpus, schedule, salt: int, n_batches: int) -> dict:
    """n_batches masked batches per language, each language on its own seed."""
    return {lang: _batches(corpus, schedule, n_batches, [schedule.seed, salt, i], [lang])
            for i, lang in enumerate(corpus.languages())}


def _mlm(model: Model, batch, gates) -> Tensor:
    logits = encoder_forward(model, batch.tokens, gates, pad_id=batch.pad_id)
    return mlm_loss(logits, batch.mask_positions, batch.gold_ids)


def _train(corpus: Corpus, schedule: TrainSchedule, rows: list[str], salt: int,
           optimizers, step) -> list[dict]:
    """The training loop every run kind shares; returns one record per step.

    Step k trains row ``k mod len(rows)`` on that row's next batch: one mixed
    stream when the only row is shared, one stream per language otherwise.
    ``step(k, row, lang, batch)`` returns the loss and the record fields that
    differ from mlm = loss and l0 = diag = sparsity = 0.  ``optimizers`` pairs
    each optimizer with the first step it updates at; all are zeroed each step.
    """
    n = schedule.total_steps
    if n == 0:
        return []
    if rows == [SHARED]:
        streams = {SHARED: _batches(corpus, schedule, n, [schedule.seed, salt])}
    else:
        streams = _language_batches(corpus, schedule, salt, math.ceil(n / len(rows)))
    streams = {lang: iter(batches) for lang, batches in streams.items()}
    records = []
    for k in range(n):
        row = k % len(rows)
        lang = rows[row]
        loss, fields = step(k, row, lang, next(streams[lang]))
        v = loss.item()
        T.backward(loss)
        scale = lr_at(k, n, WARMUP_FRACTION)
        for opt, first in optimizers:
            if k >= first:
                opt.step(scale)
            opt.zero()
        records.append({"step": k, "loss": v, "mlm": v, "l0": 0.0, "diag": 0.0,
                        "sparsity": 0.0, **fields, "language": lang})
    return records


def pretrain_baseline(config: ModelConfig, corpus: Corpus, schedule: TrainSchedule) -> TrainResult:
    """Train a dense, ungated model with masked language modeling."""
    model = Model.init(config, schedule.seed)
    records = _train(corpus, schedule, [SHARED], 3,
                     [(Adam(model.params, schedule.learning_rate), 0)],
                     lambda k, row, lang, batch: (_mlm(model, batch, None), {}))
    return TrainResult(model, records)


def run_grad_pruning(baseline: Model, corpus: Corpus, schedule: TrainSchedule) -> TrainResult:
    """Score components, freeze hard gates at the target, keep training."""
    model = baseline.copy()
    weights = component_weights(model.config)
    gatesets, tables = build_profile(
        model, _language_batches(corpus, schedule, 4, schedule.importance_batches),
        schedule.setting, schedule.target_size, weights)
    fixed = {lang: gate_tensors(gs) for lang, gs in gatesets.items()}
    sparsity = {lang: 1.0 - retained_fraction(gs.values, weights)
                for lang, gs in gatesets.items()}
    achieved = {lang: 1.0 - v for lang, v in sparsity.items()}
    records = _train(corpus, schedule, sorted(gatesets), 5,
                     [(Adam(model.params, schedule.learning_rate), 0)],
                     lambda k, row, lang, batch: (_mlm(model, batch, fixed[lang]),
                                                  {"sparsity": sparsity[lang]}))
    return TrainResult(model, records, gatesets, tables, achieved_sizes=achieved)


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
    # one row per language, columns in canonical order
    alphas = Tensor(np.random.default_rng([schedule.seed, 6]).normal(
        0.0, ALPHA_INIT_STD, size=(len(langs), weights.size)), requires_grad=True)
    prior = build_prior({s.id: s.family for s in corpus.specs}, langs) if improved else None
    lam1, lam2 = schedule.resolved_lambda1(), schedule.resolved_lambda2()
    n_lang = len(langs)

    def step(k, row, lang, batch):
        u = np.random.default_rng([schedule.seed, 8, k]).uniform(1e-9, 1.0 - 1e-9, size=weights.size)
        mlm = _mlm(model, batch, sample_gate(alphas[row], u))
        # expected size of every language, one entry per row of alphas
        sizes = T.multiply(l0_penalty(alphas, weights), 1.0 / total_w)
        if improved:
            l0_term = sparsity_constraint_loss(sizes, schedule.target_size)
            # mean overlap per language pair per component; keeping the
            # diversity gradient below the size-constraint gradient lets the
            # penalty steer which components differ without shrinking totals
            div = T.multiply(diversity_loss(expected_gate(alphas), prior),
                             1.0 / (n_lang * (n_lang - 1) * weights.size))
        else:
            # the vanilla penalty is the mean expected size, so lambda1 is
            # comparable across model scales
            l0_term = T.multiply(T.fold_sum(sizes), 1.0 / n_lang)
            div = None
        loss = total_loss(mlm, l0_term, div, lam1, lam2)
        return loss, {"mlm": mlm.item(), "l0": l0_term.item(),
                      "diag": div.item() if div is not None else 0.0,
                      "sparsity": 1.0 - float(np.mean(sizes.data))}

    warm = int(round(ALPHA_ONLY_WARMUP_FRACTION * schedule.total_steps))
    records = _train(corpus, schedule, langs, 7,
                     [(Adam({"alpha": alphas}, schedule.alpha_lr), 0),
                      (Adam(model.params, schedule.learning_rate), warm)], step)
    hard = (inference_gate(alphas.data) >= 0.5).astype(np.float64)
    gatesets = {l: GateSet(config, hard[i]) for i, l in enumerate(langs)}
    achieved = {l: retained_fraction(hard[i], weights) for i, l in enumerate(langs)}
    return TrainResult(model, records, gatesets, alphas=alphas.data, achieved_sizes=achieved)


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
    weights = component_weights(model.config)
    total_w = float(weights.sum())
    tables = importance_tables(
        model, _language_batches(corpus, schedule, 9, schedule.importance_batches),
        schedule.setting)
    ds = init_ds(tables, weights, grid)
    optimizers = [(Adam(model.params, schedule.learning_rate), 0)]
    trainable = schedule.algorithm == "ds_l0"
    if trainable:
        # Adam packs the leaves into its own buffer, so ds keeps the initialization
        alphas = Tensor(ds.alpha, requires_grad=True)
        thetas = Tensor(ds.theta, requires_grad=True)
        optimizers.append((Adam({"alpha": alphas, "theta": thetas}, schedule.alpha_lr), 0))
    lam1 = schedule.resolved_lambda1()

    def step(k, row, lang, batch):
        t = float(grid[int(np.random.default_rng([schedule.seed, 11, k]).integers(1, len(grid)))])
        if not trainable:
            values = gate_values_at(ds, t, lang)
            mlm = _mlm(model, batch, Tensor(values))
            return mlm, {"sparsity": 1.0 - retained_fraction(values, weights)}
        z = T.add(alphas, T.multiply(thetas, t))
        flat = expected_gate(z[row])
        mlm = _mlm(model, batch, flat)
        sizes = T.multiply(l0_penalty(z, weights), 1.0 / total_w)
        l0_term = sparsity_constraint_loss(sizes, t)
        return total_loss(mlm, l0_term, None, lam1, 0.0), {
            "mlm": mlm.item(), "l0": l0_term.item(),
            "sparsity": 1.0 - retained_fraction(flat.data, weights)}

    records = _train(corpus, schedule, ds.languages, 10, optimizers, step)
    if trainable:
        # t_hat and delta keep describing the initialization; alpha and theta
        # carry what training learned on top of it
        ds = replace(ds, alpha=alphas.data, theta=thetas.data)
    return TrainResult(model, records, ds=ds)


# learning rates the probe head tries; the best on dev is kept
PROBE_LR_GRID = (1e-3, 1e-2, 1e-1)


@dataclass
class ProbeResult:
    """Probe test accuracies per language and their mean, at the learning rate chosen on dev."""

    per_language: dict[str, float]
    mean: float
    best_lr: float


def _probe_features(model: Model, batches) -> tuple[np.ndarray, np.ndarray, list]:
    xs, ys, langs = [], [], []
    with no_grad():
        for b in batches:
            # two rows, not one: a single query row would make numpy run
            # vector-matrix products, which round differently from the rows of
            # the full forward's matrix products
            h = encoder_hidden(model, b.tokens, None, pad_id=b.pad_id, final_rows=2)
            xs.append(h.data[:, 0, :].copy())
            ys.append(b.labels)
            langs.extend(b.languages)
    return np.concatenate(xs), np.concatenate(ys), langs


def _accuracy(x, w, b, y) -> float:
    pred = np.argmax(x @ w + b, axis=1)
    return float((pred == y).mean())


def finetune_probe(model: Model, splits: ProbeSplits, seed: int = 0,
                   epochs: int = 30) -> ProbeResult:
    """Train a linear head on frozen encoder features; pick lr on dev.

    model is the subnetwork as deployed, run ungated: a compacted model
    (analysis.compact_model), or the dense one for the unpruned baseline.
    Features are its hidden state at the leading cls position.  The best
    grid point by dev accuracy is evaluated per language on the test split.
    """
    if not splits.train or not splits.dev or not splits.test:
        raise InputError("probe needs non-empty train, dev and test splits")
    xtr, ytr, _ = _probe_features(model, splits.train)
    xdv, ydv, _ = _probe_features(model, splits.dev)
    xte, yte, lte = _probe_features(model, splits.test)
    d = model.config.model_dim
    cuts = np.cumsum([b.tokens.shape[0] for b in splits.train])[:-1]
    # each batch's features, and the gradient of its mean cross entropy with
    # respect to the log-probabilities
    batches = [(xb, (-1.0 / len(yb)) * np.eye(2)[yb])
               for xb, yb in zip(np.split(xtr, cuts), np.split(ytr, cuts))]
    best = None
    for lr in PROBE_LR_GRID:
        rng = np.random.default_rng([seed, 12])
        w = Tensor(rng.normal(0.0, 0.01, size=(d, 2)))
        bias = Tensor(np.zeros(2))
        opt = Adam({"w": w, "b": bias}, lr)
        # the log-softmax backward g - softmax * sum(g), not the shorter
        # (softmax - onehot) / n, which rounds differently
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(epochs):
                for xb, g in batches:
                    z = xb @ w.data + bias.data
                    shifted = z - z.max(axis=-1, keepdims=True)
                    logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
                    if not np.isfinite(logp).all():
                        raise NumericError("probe head produced a non-finite log-probability")
                    gz = g - np.exp(logp) * g.sum(axis=-1, keepdims=True)
                    w.grad, bias.grad = xb.T @ gz, gz.sum(axis=0)
                    opt.step()
        acc = _accuracy(xdv, w.data, bias.data, ydv)
        if best is None or acc > best[0]:
            best = (acc, lr, w.data.copy(), bias.data.copy())
    _, best_lr, w, bias = best
    langs = sorted(set(lte))
    lte = np.array(lte)
    per_language = {}
    for lang in langs:
        mask = lte == lang
        per_language[lang] = _accuracy(xte[mask], w, bias, yte[mask])
    return ProbeResult(per_language, float(np.mean(list(per_language.values()))), best_lr)
