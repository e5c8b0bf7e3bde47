"""Post-run analysis: sparsity profiles, size curves, compaction, benchmarks.

Everything here works from serialized artifacts (gate sets, checkpoints,
dynamic sparsification tables); no training state is needed.  Benchmarks run
on physically compacted models, because multiplying by a 0/1 mask would hide
exactly the speedup being measured.  One time_forwards call times its models
in alternating passes, so the sentences/s of one bench.csv or sweep.csv compare.
"""

from __future__ import annotations

import contextlib
import ctypes
import gc
import time

import numpy as np

from .ds import DSParams, subnetwork_at
from .encoder import (GateSet, Model, ModelConfig, component_weights, count_params,
                      encoder_hidden, encoder_sparsity, retained_fraction)
from .exceptions import ContractError, InputError, NumericError, RunError
from .tensor import Tensor, no_grad


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
    for lang in langs:
        _require_hard(gatesets[lang], "hamming_matrix")
        if gatesets[lang].slices != gatesets[langs[0]].slices:
            raise ContractError("hamming_matrix: gate sets cover different component universes")
    bits = np.stack([gatesets[lang].values for lang in langs])
    return langs, (bits[:, None] != bits[None]).mean(axis=-1)


# ---------------------------------------------------------------------------
# Size curves


def size_curve(ds: DSParams, config: ModelConfig, language: str) -> list[dict]:
    """Parameter counts and per-kind sparsities of one language at every grid size.

    Each row carries both the encoder-only sparsity (embedding ranks
    excluded) and the all-components weighted sparsity, since per-component
    figures can use either axis.
    """
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


class CompactModel(Model):
    """A Model with every gated-off component sliced out of its weights.

    It keeps the dense config: the encoder reads each layer's head count, FFN
    width and the rank count from the weight shapes.  ``logits`` runs without
    the tape and returns an array, so it is the right object to benchmark;
    logits match the gated model on the same inputs.
    """

    def logits(self, ids: np.ndarray, pad_id: int | None = None) -> np.ndarray:
        with no_grad():
            x = encoder_hidden(self, ids, None, pad_id).data
        # the tied head on arrays: mlm_head would copy the
        # (vocab x ranks) table on every call
        return (x @ self.params["embed.proj"].data.T) @ self.params["embed.tok"].data.T


def compact_model(model: Model, gateset: GateSet) -> CompactModel:
    """Slice away every gated-off head, hidden unit and embedding rank.

    A parameter that loses nothing (positional table, output biases, layer
    norms, and any tensor whose components are all kept) is the source
    model's own tensor, not a copy.
    """
    _require_hard(gateset, "compact_model")
    config, source = model.config, model.params
    hd = config.head_dim
    params = dict(source)

    def keep(name: str, axis: int, idx: np.ndarray):
        if idx.size < source[name].shape[axis]:
            params[name] = Tensor(np.take(source[name].data, idx, axis=axis), requires_grad=True)

    ranks = np.flatnonzero(gateset.ranks)
    keep("embed.tok", 1, ranks)
    keep("embed.proj", 0, ranks)
    for i in range(config.n_layers):
        heads = np.flatnonzero(gateset.heads[i])
        cols = (heads[:, None] * hd + np.arange(hd)).reshape(-1)
        hid = np.flatnonzero(gateset.hiddens[i])
        p = f"layers.{i}"
        for w in ("wq", "wk", "wv"):
            keep(f"{p}.attn.{w}", 1, cols)
        for b in ("bq", "bk", "bv"):
            keep(f"{p}.attn.{b}", 0, cols)
        keep(f"{p}.attn.wo", 0, cols)
        keep(f"{p}.ffn.w1", 1, hid)
        keep(f"{p}.ffn.b1", 0, hid)
        keep(f"{p}.ffn.w2", 0, hid)
    return CompactModel(config, params)


# ---------------------------------------------------------------------------
# Throughput


# thread-count entry points of numpy's bundled OpenBLAS, then of a system one
_OPENBLAS_THREADS = ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
                     "openblas_{}_num_threads64_", "openblas_{}_num_threads")


def _openblas_threads():
    """(set, get) of the thread count of the OpenBLAS numpy calls into, or None."""
    try:
        from numpy._core import _multiarray_umath as core
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as core
    # numpy's extension module is loaded already; a handle on it also finds
    # the symbols of the BLAS it links
    lib = ctypes.CDLL(core.__file__)
    for name in _OPENBLAS_THREADS:
        set_threads = getattr(lib, name.format("set"), None)
        get_threads = getattr(lib, name.format("get"), None)
        if set_threads is not None and get_threads is not None:
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            return set_threads, get_threads
    return None


@contextlib.contextmanager
def _openblas_pinned(set_threads, get_threads):
    before = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(before)


def _single_thread():
    """Limit BLAS pools to one thread for stable timing, when possible.

    threadpoolctl limits every pool it knows; without it numpy's OpenBLAS is
    pinned through its own entry points.  Timing runs unpinned only when
    neither is found.
    """
    try:
        from threadpoolctl import threadpool_limits
        return threadpool_limits(limits=1)
    except ImportError:
        calls = _openblas_threads()
    return contextlib.nullcontext() if calls is None else _openblas_pinned(*calls)


def _await_idle_threads(limit: float = 1.0, window: float = 0.005):
    """Sleep until the other threads of this process stop using the CPU.

    After a multithreaded call, OpenBLAS keeps its workers spinning for about
    2**28 cycles (0.13 s on a 2 GHz core), and pinning the thread count does
    not stop them; timed passes that overlap the spin share the CPU with it.
    Returns after the first window of sleep in which the other threads used
    under a tenth of the window, or after limit seconds.
    """
    deadline = time.monotonic() + limit
    while True:
        others = time.process_time() - time.thread_time()
        time.sleep(window)
        busy = time.process_time() - time.thread_time() - others
        if busy < 0.1 * window or time.monotonic() > deadline:
            return


MIN_REPS = 3  # fewest timed rounds time_forwards takes a median of


def time_forwards(cases: list[tuple[CompactModel, int]], seq_len: int, reps: int) -> list[float]:
    """Median sentences/second of each (model, batch size) case over reps rounds.

    A round times one pass per case in case order (A, B, A, B, ...) with the collector
    off, so all cases share the machine's speed phases.  Warm-ups run pinned too: a pass
    on the full BLAS pool would wake the workers whose spin _await_idle_threads waited out.
    """
    if reps < MIN_REPS:
        raise ContractError(f"need at least {MIN_REPS} repetitions, got {reps}")
    if not cases or seq_len < 1 or min(batch for _, batch in cases) < 1:
        raise ContractError("need a case, seq_len >= 1 and every batch size >= 1")
    ids = [np.random.default_rng(0).integers(0, cm.config.vocab_size, size=(batch, seq_len))
           for cm, batch in cases]
    resolution = time.get_clock_info("perf_counter").resolution
    elapsed = np.empty((reps, len(cases)))
    with _single_thread():
        _await_idle_threads()
        for (cm, _), x in zip(cases, ids):
            cm.logits(x)
        collecting = gc.isenabled()
        gc.disable()
        try:
            for r in range(reps):
                for c, ((cm, _), x) in enumerate(zip(cases, ids)):
                    t0 = time.perf_counter()
                    cm.logits(x)
                    elapsed[r, c] = time.perf_counter() - t0
        finally:
            if collecting:
                gc.enable()
    med = np.median(elapsed, axis=0)
    if med.min() < 100.0 * resolution:
        raise RunError("forward pass too fast for the timer; increase reps or model size")
    return [batch / float(m) for (_, batch), m in zip(cases, med)]


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
        rows = [{"language": l, "log2_size": xi, "accuracy_loss": yi}
                for l, xi, yi in zip(langs, x, y)]
        write_report(rows, ("language", "log2_size", "accuracy_loss"), scatter_path)
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
