"""Post-run analysis: sparsity profiles, size curves, compaction, benchmarks.

Everything here works from serialized artifacts (gate sets, checkpoints,
dynamic sparsification tables); no training state is needed.  Benchmarks run
on physically compacted models, because multiplying by a 0/1 mask would hide
exactly the speedup being measured.
"""

from __future__ import annotations

import platform
import time
from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from .ds import DSParams, subnetwork_at
from .encoder import (ATTN_MASK_FILL, GateSet, Model, ModelConfig,
                      component_weights, count_params, encoder_sparsity,
                      retained_fraction)
from .exceptions import ContractError, InputError, NumericError, RunError

_SQRT2 = float(np.sqrt(2.0))
_LN_EPS = 1e-5


def _require_hard(gateset: GateSet, what: str):
    if not gateset.hard:
        raise ContractError(f"{what} requires a hard GateSet")


# ---------------------------------------------------------------------------
# Sparsity profiles


def layer_profile(gateset: GateSet) -> list[dict]:
    """Fraction of heads and hidden units dropped, one row per layer."""
    _require_hard(gateset, "layer_profile")
    rows = []
    for layer, (heads, hiddens) in enumerate(zip(gateset.heads, gateset.hiddens)):
        rows.append({
            "layer": layer,
            "head_sparsity": 1.0 - float(np.mean(heads)),
            "hidden_sparsity": 1.0 - float(np.mean(hiddens)),
        })
    return rows


def hamming_matrix(gatesets: dict[str, GateSet]) -> tuple[list[str], np.ndarray]:
    """Normalized Hamming distance between per-language hard gate sets.

    Returns languages in sorted order and the matching symmetric matrix of
    differing-bit fractions over the full gate vector.
    """
    if not gatesets:
        raise InputError("hamming_matrix: no gate sets given")
    langs = sorted(gatesets)
    vecs = {}
    for lang in langs:
        gs = gatesets[lang]
        _require_hard(gs, "hamming_matrix")
        if gs.slices != gatesets[langs[0]].slices:
            raise ContractError("hamming_matrix: gate sets cover different component universes")
        vecs[lang] = gs.values
    n = len(langs)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d = float(np.mean(vecs[langs[i]] != vecs[langs[j]]))
            out[i, j] = out[j, i] = d
    return langs, out


# ---------------------------------------------------------------------------
# Size curves


def size_curve(ds: DSParams, config: ModelConfig, language: str | None = None) -> list[dict]:
    """Parameter counts and per-kind sparsities at every grid size.

    Each row carries both the encoder-only sparsity (embedding ranks
    excluded) and the all-components weighted sparsity, since per-component
    figures can use either axis.
    """
    if language is None:
        langs = ds.languages()
        if len(langs) != 1:
            raise InputError(f"size_curve: pick one of the languages {langs}")
        language = langs[0]
    weights = component_weights(config)
    rows = []
    for t in ds.grid:
        gs = subnetwork_at(ds, float(t), language, config)
        counts = count_params(config, gs)
        row = {
            "t": float(t),
            "total_params": counts["total_params"],
            "embedding_params": counts["embedding_params"],
            "encoder_params": counts["encoder_params"],
            "encoder_sparsity": encoder_sparsity(gs, weights),
            "overall_sparsity": 1.0 - retained_fraction(gs.values, weights),
            "head_sparsity": 1.0 - float(np.concatenate(gs.heads).mean()),
            "hidden_sparsity": 1.0 - float(np.concatenate(gs.hiddens).mean()),
            "rank_sparsity": 1.0 - float(gs.ranks.mean()),
        }
        row["embed_pruning_active"] = row["rank_sparsity"] > 0.0
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Physical compaction


@dataclass
class CompactLayer:
    wq: np.ndarray
    bq: np.ndarray
    wk: np.ndarray
    bk: np.ndarray
    wv: np.ndarray
    bv: np.ndarray
    wo: np.ndarray
    bo: np.ndarray
    n_heads: int
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    ln1_g: np.ndarray
    ln1_b: np.ndarray
    ln2_g: np.ndarray
    ln2_b: np.ndarray


@dataclass
class CompactModel:
    """Encoder with pruned components physically removed from the weights.

    The forward pass is plain numpy, no autodiff tape, so it is the right
    object to benchmark.  Logits match the gated model on the same inputs.
    """

    tok: np.ndarray
    proj: np.ndarray
    pos: np.ndarray
    layers: list[CompactLayer]
    head_dim: int
    max_seq_len: int

    def hidden(self, ids: np.ndarray, pad_id: int | None = None) -> np.ndarray:
        ids = np.asarray(ids)
        if ids.ndim != 2:
            raise ContractError(f"token ids must be (batch, seq), got shape {ids.shape}")
        if ids.shape[1] > self.max_seq_len:
            raise InputError(f"sequence length {ids.shape[1]} exceeds max {self.max_seq_len}")
        b, s = ids.shape
        bias = None
        if pad_id is not None:
            pad = ids == pad_id
            if pad.any():
                bias = np.where(pad, ATTN_MASK_FILL, 0.0)[:, None, None, :]
        x = self.tok[ids] @ self.proj + self.pos[:s]
        hd = self.head_dim
        for lyr in self.layers:
            nh = lyr.n_heads
            q = (x @ lyr.wq + lyr.bq).reshape(b, s, nh, hd).transpose(0, 2, 1, 3)
            k = (x @ lyr.wk + lyr.bk).reshape(b, s, nh, hd).transpose(0, 2, 1, 3)
            v = (x @ lyr.wv + lyr.bv).reshape(b, s, nh, hd).transpose(0, 2, 1, 3)
            scores = (q @ k.transpose(0, 1, 3, 2)) * (hd ** -0.5)
            if bias is not None:
                scores = scores + bias
            scores -= scores.max(axis=-1, keepdims=True)
            e = np.exp(scores)
            ctx = (e / e.sum(axis=-1, keepdims=True)) @ v
            merged = ctx.transpose(0, 2, 1, 3).reshape(b, s, nh * hd)
            x = _ln(x + (merged @ lyr.wo + lyr.bo), lyr.ln1_g, lyr.ln1_b)
            h = x @ lyr.w1 + lyr.b1
            h = h * 0.5 * (1.0 + erf(h / _SQRT2))
            x = _ln(x + (h @ lyr.w2 + lyr.b2), lyr.ln2_g, lyr.ln2_b)
        return x

    def logits(self, ids: np.ndarray, pad_id: int | None = None) -> np.ndarray:
        x = self.hidden(ids, pad_id)
        return (x @ self.proj.T) @ self.tok.T


def _ln(x: np.ndarray, gain: np.ndarray, bias: np.ndarray) -> np.ndarray:
    mu = x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + _LN_EPS)
    return (x - mu) * inv * gain + bias


def compact_model(model: Model, gateset: GateSet) -> CompactModel:
    """Slice away every gated-off head, hidden unit and embedding rank."""
    _require_hard(gateset, "compact_model")
    config, params = model.config, model.params
    hd = config.head_dim
    ranks = np.flatnonzero(np.asarray(gateset.ranks) != 0.0)
    tok = params["embed.tok"].data[:, ranks].copy()
    proj = params["embed.proj"].data[ranks, :].copy()
    pos = params["embed.pos"].data.copy()
    layers = []
    for i in range(config.n_layers):
        heads = np.flatnonzero(np.asarray(gateset.heads[i]) != 0.0)
        cols = np.concatenate([np.arange(h * hd, (h + 1) * hd) for h in heads]) \
            if heads.size else np.zeros(0, dtype=int)
        hid = np.flatnonzero(np.asarray(gateset.hiddens[i]) != 0.0)
        p = f"layers.{i}"
        layers.append(CompactLayer(
            wq=params[f"{p}.attn.wq"].data[:, cols].copy(),
            bq=params[f"{p}.attn.bq"].data[cols].copy(),
            wk=params[f"{p}.attn.wk"].data[:, cols].copy(),
            bk=params[f"{p}.attn.bk"].data[cols].copy(),
            wv=params[f"{p}.attn.wv"].data[:, cols].copy(),
            bv=params[f"{p}.attn.bv"].data[cols].copy(),
            wo=params[f"{p}.attn.wo"].data[cols, :].copy(),
            bo=params[f"{p}.attn.bo"].data.copy(),
            n_heads=int(heads.size),
            w1=params[f"{p}.ffn.w1"].data[:, hid].copy(),
            b1=params[f"{p}.ffn.b1"].data[hid].copy(),
            w2=params[f"{p}.ffn.w2"].data[hid, :].copy(),
            b2=params[f"{p}.ffn.b2"].data.copy(),
            ln1_g=params[f"{p}.ln1.g"].data.copy(),
            ln1_b=params[f"{p}.ln1.b"].data.copy(),
            ln2_g=params[f"{p}.ln2.g"].data.copy(),
            ln2_b=params[f"{p}.ln2.b"].data.copy(),
        ))
    return CompactModel(tok, proj, pos, layers, hd, config.max_seq_len)


# ---------------------------------------------------------------------------
# Throughput


@dataclass
class ThroughputRecord:
    sparsity: float
    sentences_per_sec: float
    batch_size: int
    seq_len: int
    hardware: str


def _single_thread():
    """Limit BLAS pools to one thread for stable timing, when possible."""
    try:
        from threadpoolctl import threadpool_limits
        return threadpool_limits(limits=1)
    except ImportError:
        import contextlib
        return contextlib.nullcontext()


def time_forward(cm: CompactModel, vocab_size: int, seq_len: int, reps: int,
                 batch_size: int = 1, seed: int = 0) -> float:
    """Median sentences/second over reps timed forward passes."""
    if reps < 3:
        raise ContractError(f"need at least 3 repetitions, got {reps}")
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, vocab_size, size=(batch_size, seq_len))
    resolution = time.get_clock_info("perf_counter").resolution
    cm.logits(ids)
    elapsed = []
    with _single_thread():
        for _ in range(reps):
            t0 = time.perf_counter()
            cm.logits(ids)
            elapsed.append(time.perf_counter() - t0)
    med = float(np.median(elapsed))
    if med < 100.0 * resolution:
        raise RunError("forward pass too fast for the timer; increase reps or model size")
    return batch_size / med


def throughput_bench(model: Model, gatesets: dict[float, GateSet], seq_len: int,
                     reps: int = 5, batch_size: int = 1, seed: int = 0,
                     hardware: str | None = None) -> list[ThroughputRecord]:
    """Compact the model at each sparsity level and time it, batch-wise."""
    if reps < 3:
        raise ContractError(f"need at least 3 repetitions, got {reps}")
    if hardware is None:
        hardware = platform.processor() or platform.machine()
    records = []
    for sparsity in sorted(gatesets):
        cm = compact_model(model, gatesets[sparsity])
        sps = time_forward(cm, model.config.vocab_size, seq_len, reps, batch_size, seed)
        records.append(ThroughputRecord(float(sparsity), sps, batch_size, seq_len, hardware))
    return records


# ---------------------------------------------------------------------------
# Correlation


def corr_accuracy_size(accuracy_losses: dict[str, float], corpus_sizes: dict[str, int],
                       scatter_path=None) -> float:
    """Pearson correlation of per-language accuracy loss with log2 corpus size."""
    langs = sorted(accuracy_losses)
    if len(langs) < 3:
        raise InputError("correlation needs at least 3 languages")
    if sorted(corpus_sizes) != langs:
        raise InputError("accuracy and corpus-size tables cover different languages")
    if any(corpus_sizes[l] <= 0 for l in langs):
        raise InputError("corpus sizes must be positive")
    x = np.log2([float(corpus_sizes[l]) for l in langs])
    y = np.array([float(accuracy_losses[l]) for l in langs])
    xc, yc = x - x.mean(), y - y.mean()
    sx, sy = np.sqrt((xc * xc).sum()), np.sqrt((yc * yc).sum())
    if sx == 0.0 or sy == 0.0:
        raise NumericError("correlation undefined: a variable has zero variance")
    r = float((xc * yc).sum() / (sx * sy))
    if scatter_path is not None:
        with open(scatter_path, "w") as f:
            f.write("language,log2_size,accuracy_loss\n")
            for l, xi, yi in zip(langs, x, y):
                f.write(f"{l},{float(xi)!r},{float(yi)!r}\n")
    return r


# ---------------------------------------------------------------------------
# Report files


def write_report(rows: list[dict], columns, path):
    """Write analysis rows as CSV with the given column order."""
    columns = list(columns)
    with open(path, "w") as f:
        f.write(",".join(columns) + "\n")
        for row in rows:
            cells = []
            for c in columns:
                v = row[c]
                if isinstance(v, (bool, np.bool_)):
                    cells.append(str(int(v)))
                elif isinstance(v, float):
                    cells.append(repr(float(v)))
                else:
                    cells.append(str(v))
            f.write(",".join(cells) + "\n")


def save_plot(rows: list[dict], x: str, y, path, title: str = ""):
    """Line plot of report columns; silently skipped without matplotlib."""
    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        return False
    ys = [y] if isinstance(y, str) else list(y)
    xs = [row[x] for row in rows]
    fig, ax = plt.subplots(figsize=(5, 3.5))
    for name in ys:
        ax.plot(xs, [row[name] for row in rows], marker="o", label=name)
    ax.set_xlabel(x)
    ax.legend()
    if title:
        ax.set_title(title)
    fig.tight_layout()
    fig.savefig(path, dpi=120)
    plt.close(fig)
    return True
