"""Analysis: profiles, Hamming metric, size curves, compaction, benchmarks."""

import contextlib
import gc
import sys
from dataclasses import replace

import numpy as np
import pytest

from prunelab import tensor as T
from prunelab.analysis import (
    CompactModel,
    compact_model,
    corr_accuracy_size,
    hamming_matrix,
    layer_profile,
    save_plot,
    size_curve,
    throughput_bench,
    time_forward,
    write_report,
)
from prunelab.ds import DEFAULT_GRID, init_ds
from prunelab.encoder import (
    XLMR_BASE,
    GateSet,
    Model,
    ModelConfig,
    component_universe,
    component_weights,
    count_params,
    encoder_forward,
    gate_tensors,
)
from prunelab.exceptions import ContractError, InputError, NumericError, RunError
from prunelab.grad_prune import ImportanceTable

TOY = ModelConfig(n_layers=2, n_heads=2, model_dim=8, ffn_dim=6, vocab_size=29, max_seq_len=16)


def random_hard_gateset(config, seed, p_keep=0.6):
    rng = np.random.default_rng(seed)
    n = len(component_universe(config))
    return GateSet.from_values(config, [float(rng.random() < p_keep) for _ in range(n)])


def all_off(config):
    return GateSet.from_values(config, np.zeros(len(component_universe(config))))


def synthetic_ds(config, seed=0):
    rng = np.random.default_rng(seed)
    universe = component_universe(config)
    scores = {cid: float(rng.random()) for cid in universe}
    table = ImportanceTable(scores, "xx", 1)
    return init_ds({"xx": table}, component_weights(config), DEFAULT_GRID)


# --- layer profile ----------------------------------------------------------


def test_layer_profile_all_ones_is_zero_everywhere():
    rows = layer_profile(GateSet.ones(TOY))
    assert len(rows) == TOY.n_layers
    for row in rows:
        assert row["head_sparsity"] == 0.0
        assert row["hidden_sparsity"] == 0.0


def test_layer_profile_counts_dropped_units():
    gs = GateSet.ones(TOY)
    gs.heads[0][1] = 0.0
    gs.hiddens[1][:3] = 0.0
    rows = layer_profile(gs)
    assert rows[0]["head_sparsity"] == pytest.approx(0.5)
    assert rows[0]["hidden_sparsity"] == 0.0
    assert rows[1]["head_sparsity"] == 0.0
    assert rows[1]["hidden_sparsity"] == pytest.approx(0.5)


def test_layer_profile_requires_hard_gates():
    gs = GateSet.ones(TOY)
    gs.hard = False
    with pytest.raises(ContractError):
        layer_profile(gs)


# --- hamming ----------------------------------------------------------------


def test_hamming_identical_and_complementary():
    a = random_hard_gateset(TOY, 1)
    b = GateSet.from_values(TOY, 1.0 - a.values)
    langs, mat = hamming_matrix({"aa": a, "bb": GateSet.from_values(TOY, a.values),
                                 "cc": b})
    assert langs == ["aa", "bb", "cc"]
    assert mat[0, 1] == 0.0
    assert mat[0, 2] == 1.0
    assert np.array_equal(mat, mat.T)
    assert np.all(np.diag(mat) == 0.0)


def test_hamming_is_a_metric_on_random_triples():
    for seed in range(50):
        gs = {name: random_hard_gateset(TOY, [seed, i]) for i, name in
              enumerate(("aa", "bb", "cc"))}
        _, m = hamming_matrix(gs)
        for i in range(3):
            assert m[i, i] == 0.0
            for j in range(3):
                assert m[i, j] == m[j, i]
                assert 0.0 <= m[i, j] <= 1.0
                for k in range(3):
                    assert m[i, j] <= m[i, k] + m[k, j] + 1e-15


def test_hamming_rejects_mismatched_universes_and_soft_gates():
    other = ModelConfig(n_layers=1, n_heads=2, model_dim=8, ffn_dim=6,
                        vocab_size=29, max_seq_len=16)
    with pytest.raises(ContractError):
        hamming_matrix({"aa": GateSet.ones(TOY), "bb": GateSet.ones(other)})
    soft = GateSet.ones(TOY)
    soft.hard = False
    with pytest.raises(ContractError):
        hamming_matrix({"aa": soft})
    with pytest.raises(InputError):
        hamming_matrix({})


# --- size curve -------------------------------------------------------------


def test_size_curve_endpoints_and_monotonicity():
    ds = synthetic_ds(TOY)
    rows = size_curve(ds, TOY, "xx")
    assert [r["t"] for r in rows] == [pytest.approx(t) for t in DEFAULT_GRID]
    dense = count_params(TOY, GateSet.ones(TOY))
    empty = count_params(TOY, all_off(TOY))
    assert rows[-1]["total_params"] == dense["total_params"]
    assert rows[-1]["overall_sparsity"] == 0.0
    assert rows[0]["total_params"] == empty["total_params"]
    # bias residue: positional table, biases and layernorms survive
    d, df = TOY.model_dim, TOY.ffn_dim
    residue = TOY.max_seq_len * d + TOY.n_layers * (4 * d + df + d + 4 * d)
    assert rows[0]["total_params"] == residue
    totals = [r["total_params"] for r in rows]
    assert all(a <= b for a, b in zip(totals, totals[1:]))
    spars = [r["overall_sparsity"] for r in rows]
    assert all(a >= b - 1e-12 for a, b in zip(spars, spars[1:]))


def test_size_curve_flags_embedding_knee():
    ds = synthetic_ds(TOY)
    rows = size_curve(ds, TOY, "xx")
    knee = max((r["t"] for r in rows if r["embed_pruning_active"]), default=None)
    assert knee is not None
    for row in rows:
        assert row["embed_pruning_active"] == (row["rank_sparsity"] > 0.0)
        if row["t"] > knee:
            assert not row["embed_pruning_active"]
    assert rows[0]["rank_sparsity"] == 1.0
    assert rows[-1]["rank_sparsity"] == 0.0


def test_size_curve_language_selection():
    ds, other = synthetic_ds(TOY), synthetic_ds(TOY, seed=1)
    ds = replace(ds, languages=["xx", "yy"],
                 **{k: np.vstack([getattr(ds, k), getattr(other, k)])
                    for k in ("alpha", "theta", "t_hat", "delta")})
    xx, yy = size_curve(ds, TOY, "xx"), size_curve(ds, TOY, "yy")
    assert xx != yy
    assert xx == size_curve(synthetic_ds(TOY), TOY, "xx")
    assert yy == size_curve(other, TOY, "xx")
    with pytest.raises(InputError):
        size_curve(ds, TOY, "zz")


def test_size_curve_xlmr_dry_run_matches_reference_scale():
    ds = synthetic_ds(XLMR_BASE, seed=3)
    rows = size_curve(ds, XLMR_BASE, "xx")
    dense_total = rows[-1]["total_params"]
    assert abs(dense_total - 279e6) / 279e6 < 0.01
    v, d, df = XLMR_BASE.vocab_size, XLMR_BASE.model_dim, XLMR_BASE.ffn_dim
    expect_dense = (v * d + d * d + XLMR_BASE.max_seq_len * d
                    + XLMR_BASE.n_layers * (4 * d * d + 4 * d + 2 * d * df + df + d + 4 * d))
    assert dense_total == expect_dense
    residue = XLMR_BASE.max_seq_len * d + XLMR_BASE.n_layers * (4 * d + df + d + 4 * d)
    assert rows[0]["total_params"] == residue


# --- compaction -------------------------------------------------------------


def logits_match(model, gs, ids, pad_id=None):
    gated = encoder_forward(model, ids, gate_tensors(gs), pad_id=pad_id).data
    compact = compact_model(model, gs).logits(ids, pad_id=pad_id)
    assert gated.shape == compact.shape
    return float(np.max(np.abs(gated - compact)))


def test_compact_model_matches_gated_logits():
    model = Model.init(TOY, 7)
    rng = np.random.default_rng(0)
    ids = rng.integers(0, TOY.vocab_size, size=(3, 9))
    for seed in range(10):
        gs = random_hard_gateset(TOY, [100, seed])
        assert logits_match(model, gs, ids) <= 1e-10


def test_compact_model_handles_padding_and_empty_slices():
    model = Model.init(TOY, 8)
    rng = np.random.default_rng(1)
    ids = rng.integers(1, TOY.vocab_size, size=(2, 7))
    ids[0, 5:] = 0
    ids[1, 3:] = 0
    # knock out a whole layer's heads, another's hidden units, half the ranks
    gs = GateSet.ones(TOY)
    gs.heads[0][:] = 0.0
    gs.hiddens[1][:] = 0.0
    gs.ranks[::2] = 0.0
    assert logits_match(model, gs, ids, pad_id=0) <= 1e-10
    # nothing left at all
    assert logits_match(model, all_off(TOY), ids, pad_id=0) <= 1e-10


def test_compact_model_slices_weights_to_the_kept_widths():
    model = Model.init(TOY, 10)
    v, d, hd = TOY.vocab_size, TOY.model_dim, TOY.head_dim
    gs = GateSet.ones(TOY)
    gs.heads[0][1] = 0.0
    gs.hiddens[0][:4] = 0.0
    gs.heads[1][:] = 0.0
    gs.hiddens[1][:] = 0.0
    gs.ranks[::2] = 0.0
    for gates in (gs, all_off(TOY)):
        cm = compact_model(model, gates)
        assert isinstance(cm, CompactModel) and cm.config == TOY
        ranks = int(gates.ranks.sum())
        assert cm.params["embed.tok"].shape == (v, ranks)
        assert cm.params["embed.proj"].shape == (ranks, d)
        for i in range(TOY.n_layers):
            p = f"layers.{i}"
            width = int(gates.heads[i].sum()) * hd
            hidden = int(gates.hiddens[i].sum())
            for w in ("wq", "wk", "wv"):
                assert cm.params[f"{p}.attn.{w}"].shape == (d, width)
            assert cm.params[f"{p}.attn.bq"].shape == (width,)
            assert cm.params[f"{p}.attn.wo"].shape == (width, d)
            assert cm.params[f"{p}.ffn.w1"].shape == (d, hidden)
            assert cm.params[f"{p}.ffn.b1"].shape == (hidden,)
            assert cm.params[f"{p}.ffn.w2"].shape == (hidden, d)
            # what no gate slices is the source model's own tensor
            for name in ("attn.bo", "ffn.b2", "ln1.g", "ln1.b", "ln2.g", "ln2.b"):
                assert cm.params[f"{p}.{name}"] is model.params[f"{p}.{name}"]
        assert cm.params["embed.pos"] is model.params["embed.pos"]
    # kept head 0 of layer 0 is its first head_dim columns, unchanged
    cm = compact_model(model, gs)
    assert np.array_equal(cm.params["layers.0.attn.wq"].data,
                          model.params["layers.0.attn.wq"].data[:, :hd])
    # nothing pruned: every tensor is shared
    dense = compact_model(model, GateSet.ones(TOY))
    assert all(dense.params[k] is t for k, t in model.params.items())


def test_compact_logits_record_nothing_on_the_tape():
    model = Model.init(TOY, 11)
    cm = compact_model(model, random_hard_gateset(TOY, 3))
    assert all(t.requires_grad for t in cm.params.values())
    ids = np.random.default_rng(2).integers(0, TOY.vocab_size, size=(2, 5))
    T.active_tape().clear()
    out = cm.logits(ids, pad_id=0)
    assert isinstance(out, np.ndarray) and out.shape == (2, 5, TOY.vocab_size)
    assert T.active_tape().nodes == []
    assert T.active_tape().enabled


def test_compact_model_rejects_soft_gates():
    model = Model.init(TOY, 9)
    gs = GateSet.ones(TOY)
    gs.hard = False
    with pytest.raises(ContractError):
        compact_model(model, gs)


# --- throughput -------------------------------------------------------------

BENCH = ModelConfig(n_layers=2, n_heads=4, model_dim=64, ffn_dim=256,
                    vocab_size=600, max_seq_len=64)


def sparse_gateset(config, sparsity):
    weights = component_weights(config)
    order = sorted(range(len(weights)), key=lambda i: weights[i], reverse=True)
    total = weights.sum()
    gs = all_off(config)
    kept = 0.0
    for i in order:
        if kept / total >= 1.0 - sparsity:
            break
        gs.values[i] = 1.0
        kept += weights[i]
    return gs


def test_throughput_sparse_is_faster_and_stable():
    model = Model.init(BENCH, 11)
    gs = {0.0: GateSet.ones(BENCH), 0.9: sparse_gateset(BENCH, 0.9)}
    records = throughput_bench(model, gs, seq_len=32, reps=9)
    by_sparsity = {r.sparsity: r for r in records}
    assert by_sparsity[0.9].sentences_per_sec > by_sparsity[0.0].sentences_per_sec
    for r in records:
        assert r.sentences_per_sec > 0
        assert r.batch_size == 1 and r.seq_len == 32
        assert isinstance(r.hardware, str)
    # identical shape timed twice lands close
    again = throughput_bench(model, {0.0: GateSet.ones(BENCH)}, seq_len=32, reps=9)
    a, b = by_sparsity[0.0].sentences_per_sec, again[0].sentences_per_sec
    assert abs(a - b) / max(a, b) < 0.25


def test_throughput_batch_doubling_increases_rate():
    model = Model.init(BENCH, 12)
    cm = compact_model(model, GateSet.ones(BENCH))
    one = time_forward(cm, 32, reps=7, batch_size=1)
    two = time_forward(cm, 32, reps=7, batch_size=2)
    assert two > one


def test_throughput_validation_and_timer_floor(monkeypatch):
    model = Model.init(TOY, 13)
    # throughput_bench times through time_forward, which owns the reps check
    with pytest.raises(ContractError, match="3 repetitions"):
        throughput_bench(model, {0.0: GateSet.ones(TOY)}, seq_len=8, reps=2)
    cm = compact_model(model, GateSet.ones(TOY))
    with pytest.raises(ContractError):
        time_forward(cm, 8, reps=1)

    class FakeClock:
        resolution = 1.0

    monkeypatch.setattr("time.get_clock_info", lambda name: FakeClock)
    with pytest.raises(RunError, match="reps"):
        time_forward(cm, 8, reps=3)


def test_time_forward_pins_the_warm_up_and_times_without_the_collector(monkeypatch):
    from prunelab import analysis

    events, depth = [], [0]

    @contextlib.contextmanager
    def pinned():
        depth[0] += 1
        try:
            yield
        finally:
            depth[0] -= 1

    monkeypatch.setattr(analysis, "_single_thread", pinned)
    monkeypatch.setattr(analysis, "_await_idle_threads", lambda: events.append("idle"))
    cm = compact_model(Model.init(TOY, 13), GateSet.ones(TOY))
    forward = cm.logits
    cm.logits = lambda ids: events.append((depth[0], gc.isenabled())) or forward(ids)
    assert gc.isenabled()
    time_forward(cm, 8, reps=3)
    # waited for idle workers and warmed up under the pin, then three timed
    # passes with the collector off, which is back on afterwards
    assert events == ["idle", (1, True), (1, False), (1, False), (1, False)]
    assert gc.isenabled()


def test_await_idle_threads_waits_out_busy_threads_up_to_the_limit(monkeypatch):
    from prunelab import analysis

    clock = {"now": 0.0, "busy_until": 0.13}
    # the other threads use one CPU-second per second until busy_until
    monkeypatch.setattr("time.monotonic", lambda: clock["now"])
    monkeypatch.setattr("time.thread_time", lambda: 0.0)
    monkeypatch.setattr("time.process_time", lambda: min(clock["now"], clock["busy_until"]))
    monkeypatch.setattr("time.sleep", lambda s: clock.update(now=clock["now"] + s))
    analysis._await_idle_threads(limit=1.0, window=0.005)
    assert 0.13 <= clock["now"] <= 0.14
    clock.update(now=0.0, busy_until=float("inf"))
    analysis._await_idle_threads(limit=1.0, window=0.005)
    assert 1.0 < clock["now"] <= 1.01
    clock.update(now=0.0, busy_until=0.0)
    analysis._await_idle_threads(limit=1.0, window=0.005)
    assert clock["now"] == 0.005


def test_single_thread_pins_openblas_and_restores_the_count(monkeypatch):
    from prunelab import analysis

    calls = analysis._openblas_threads()
    if calls is None:
        pytest.skip("numpy's BLAS exports no OpenBLAS thread calls")
    set_threads, get_threads = calls
    original = get_threads()
    # force the fallback even where threadpoolctl is installed
    monkeypatch.setitem(sys.modules, "threadpoolctl", None)
    try:
        set_threads(2)
        before = get_threads()
        with analysis._single_thread():
            assert get_threads() == 1
        assert get_threads() == before
    finally:
        set_threads(original)


# --- correlation ------------------------------------------------------------


def test_corr_perfect_linear_is_one(tmp_path):
    sizes = {f"l{i}": 2 ** (i + 3) for i in range(5)}
    losses = {l: 0.1 * np.log2(s) + 0.7 for l, s in sizes.items()}
    path = tmp_path / "scatter.csv"
    r = corr_accuracy_size(losses, sizes, scatter_path=path)
    assert r == pytest.approx(1.0)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "language,log2_size,accuracy_loss"
    assert len(lines) == 6
    lang, x, y = lines[1].split(",")
    assert lang == "l0"
    assert float(y) == pytest.approx(losses["l0"])
    neg = {l: -v for l, v in losses.items()}
    assert corr_accuracy_size(neg, sizes) == pytest.approx(-1.0)


def test_corr_pairing_matters():
    rng = np.random.default_rng(4)
    langs = [f"l{i}" for i in range(6)]
    sizes = {l: int(2 ** (i + 4)) for i, l in enumerate(langs)}
    losses = {l: float(rng.random()) for l in langs}
    r1 = corr_accuracy_size(losses, sizes)
    rolled = dict(zip(langs, [losses[langs[(i + 2) % 6]] for i in range(6)]))
    r2 = corr_accuracy_size(rolled, sizes)
    assert r1 != r2


def test_corr_error_cases():
    with pytest.raises(InputError):
        corr_accuracy_size({"a": 1.0, "b": 2.0}, {"a": 4, "b": 8})
    with pytest.raises(InputError):
        corr_accuracy_size({"a": 1.0, "b": 2.0, "c": 3.0}, {"a": 4, "b": 8, "d": 16})
    with pytest.raises(InputError):
        corr_accuracy_size({"a": 1.0, "b": 2.0, "c": 3.0}, {"a": 4, "b": 0, "c": 16})
    with pytest.raises(NumericError):
        corr_accuracy_size({"a": 1.0, "b": 1.0, "c": 1.0}, {"a": 4, "b": 8, "c": 16})
    with pytest.raises(NumericError):
        corr_accuracy_size({"a": 1.0, "b": 2.0, "c": 3.0}, {"a": 8, "b": 8, "c": 8})


# --- report files -----------------------------------------------------------


def test_write_report_round_trip(tmp_path):
    rows = [{"layer": 0, "head_sparsity": 0.25, "flag": True},
            {"layer": 1, "head_sparsity": 1 / 3, "flag": False}]
    path = tmp_path / "report_layer-profile_r1.csv"
    write_report(rows, ("layer", "head_sparsity", "flag"), path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "layer,head_sparsity,flag"
    cells = lines[2].split(",")
    assert cells[0] == "1"
    assert float(cells[1]) == rows[1]["head_sparsity"]
    assert cells[2] == "0"


def test_save_plot_writes_image_when_matplotlib_present(tmp_path):
    rows = [{"t": 0.1 * i, "total_params": 100 - i} for i in range(5)]
    path = tmp_path / "curve.png"
    ok = save_plot(rows, "t", "total_params", path, title="size curve")
    if ok:
        assert path.exists() and path.stat().st_size > 0
    else:
        assert not path.exists()
