"""Gated encoder: forwards vs a hand-rolled numpy reference, accounting."""

import re
import warnings

import numpy as np
import pytest
from scipy.special import erf

from prunelab import tensor as T
from prunelab.analysis import compact_model
from prunelab.encoder import (
    GateSet,
    Model,
    ModelConfig,
    XLMR_BASE,
    attention_block,
    component_index,
    component_universe,
    component_weights,
    count_params,
    embed_forward,
    encoder_forward,
    encoder_hidden,
    encoder_sparsity,
    ffn_block,
    gate_tensors,
    mlm_head,
    mlm_loss,
    split_gates,
)
from prunelab.exceptions import ConfigError, ContractError, InputError, NumericError

TOY = ModelConfig(n_layers=2, n_heads=2, model_dim=8, ffn_dim=12, vocab_size=19, max_seq_len=10)


def np_gelu(x):
    return 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))


def np_layer_norm(x, g, b, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * g + b


def reference_heads(P, cfg, layer, x, mask_add=None):
    """Each head's attention output, projected through its slice of wo."""
    p = f"layers.{layer}"
    hd = cfg.head_dim
    q = x @ P[f"{p}.attn.wq"] + P[f"{p}.attn.bq"]
    k = x @ P[f"{p}.attn.wk"] + P[f"{p}.attn.bk"]
    v = x @ P[f"{p}.attn.wv"] + P[f"{p}.attn.bv"]
    out = []
    for h in range(cfg.n_heads):
        sl = slice(h * hd, (h + 1) * hd)
        scores = q[..., sl] @ k[..., sl].transpose(0, 2, 1) / np.sqrt(hd)
        if mask_add is not None:
            scores = scores + mask_add
        scores = scores - scores.max(axis=-1, keepdims=True)
        e = np.exp(scores)
        probs = e / e.sum(axis=-1, keepdims=True)
        out.append((probs @ v[..., sl]) @ P[f"{p}.attn.wo"][sl, :])
    return out


def reference_encoder(model, ids, gateset, pad_id=None):
    """Independent per-head-loop implementation of the gated encoder."""
    cfg = model.config
    P = {k: v.data for k, v in model.params.items()}
    g_rank = gateset.ranks
    x = (P["embed.tok"][ids] * g_rank) @ P["embed.proj"] + P["embed.pos"][: ids.shape[1]]
    mask_add = None
    if pad_id is not None and (ids == pad_id).any():
        mask_add = np.where(ids == pad_id, -1e9, 0.0)[:, None, :]
    for i in range(cfg.n_layers):
        p = f"layers.{i}"
        attn_out = np.broadcast_to(P[f"{p}.attn.bo"], x.shape).copy()
        for h, head in enumerate(reference_heads(P, cfg, i, x, mask_add)):
            attn_out = attn_out + gateset.heads[i][h] * head
        x = np_layer_norm(x + attn_out, P[f"{p}.ln1.g"], P[f"{p}.ln1.b"])
        hmid = np_gelu(x @ P[f"{p}.ffn.w1"] + P[f"{p}.ffn.b1"]) * gateset.hiddens[i]
        ffn_out = hmid @ P[f"{p}.ffn.w2"] + P[f"{p}.ffn.b2"]
        x = np_layer_norm(x + ffn_out, P[f"{p}.ln2.g"], P[f"{p}.ln2.b"])
    return (x @ P["embed.proj"].T * g_rank) @ P["embed.tok"].T


def seeded_batch(config, seed, batch=3, seq=7):
    rng = np.random.default_rng(seed)
    return rng.integers(1, config.vocab_size, size=(batch, seq))


def test_config_validation():
    with pytest.raises(ConfigError):
        ModelConfig(2, 3, 8, 12, 19, 10)
    with pytest.raises(ConfigError):
        ModelConfig(0, 2, 8, 12, 19, 10)


def numeric_key(name):
    """Canonical order of a component name: kind, then layer (none for ranks), then index."""
    kind, layer, index = name.split(",")
    return ("head", "hidden", "rank").index(kind), int(layer) if layer else -1, int(index)


def all_off(config):
    return GateSet.from_values(config, np.zeros(len(component_universe(config))))


def test_component_universe_order_and_size():
    universe = component_universe(TOY)
    assert len(universe) == 2 * 2 + 2 * 12 + 8
    assert universe == sorted(universe, key=numeric_key)
    assert universe[0] == "head,0,0"
    assert universe[-1] == "rank,,7"


def test_component_weights_scheme():
    w = component_weights(XLMR_BASE)
    position = component_index(component_universe(XLMR_BASE))
    assert w[position["head,0,0"]] == 256.0
    assert w[position["hidden,3,17"]] == 2.0
    assert w[position["rank,,5"]] == 1.0


def test_forward_matches_reference_all_ones():
    model = Model.init(TOY, seed=11)
    ids = seeded_batch(TOY, 1)
    with T.no_grad():
        got = encoder_forward(model, ids, gate_tensors(GateSet.ones(TOY))).data
    want = reference_encoder(model, ids, GateSet.ones(TOY))
    assert np.max(np.abs(got - want)) < 1e-12


def test_forward_matches_reference_random_gates():
    model = Model.init(TOY, seed=12)
    ids = seeded_batch(TOY, 2)
    rng = np.random.default_rng(3)
    for trial in range(5):
        gs = GateSet.from_values(TOY, np.concatenate(
            [rng.uniform(size=TOY.n_heads) for _ in range(TOY.n_layers)]
            + [rng.uniform(size=TOY.ffn_dim) for _ in range(TOY.n_layers)]
            + [rng.uniform(size=TOY.model_dim)]))
        with T.no_grad():
            got = encoder_forward(model, ids, gate_tensors(gs)).data
        want = reference_encoder(model, ids, gs)
        assert np.max(np.abs(got - want)) < 1e-10, f"trial {trial}"


def test_forward_with_padding_mask():
    model = Model.init(TOY, seed=13)
    ids = seeded_batch(TOY, 4)
    ids[:, -2:] = 0
    with T.no_grad():
        got = encoder_forward(model, ids, gate_tensors(GateSet.ones(TOY)), pad_id=0).data
    want = reference_encoder(model, ids, GateSet.ones(TOY), pad_id=0)
    assert np.max(np.abs(got - want)) < 1e-10
    assert np.all(np.isfinite(got))


def test_head_gate_linearity():
    # the sublayer normalizes x + bo + sum_h g_h * head_h: linear in the gates
    model = Model.init(TOY, seed=14)
    rng = np.random.default_rng(6)
    P = {k: v.data for k, v in model.params.items()}
    x = rng.normal(size=(2, 6, TOY.model_dim))
    heads = reference_heads(P, TOY, 0, x)

    def block(g):
        with T.no_grad():
            return attention_block(T.Tensor(x), model.params, TOY, 0, T.Tensor(g)).data

    def normed(r):
        return np_layer_norm(r, P["layers.0.ln1.g"], P["layers.0.ln1.b"])

    g = rng.uniform(size=TOY.n_heads)
    acc = x + P["layers.0.attn.bo"]
    for h in range(TOY.n_heads):
        acc = acc + g[h] * heads[h]
    assert np.max(np.abs(block(g) - normed(acc))) < 1e-10
    zero = block(np.zeros(TOY.n_heads))
    assert np.max(np.abs(zero - normed(x + P["layers.0.attn.bo"]))) < 1e-12


def test_hidden_unit_basis_contribution():
    model = Model.init(TOY, seed=15)
    rng = np.random.default_rng(7)
    x = rng.normal(size=(2, 5, TOY.model_dim))
    j = 4
    basis = np.zeros(TOY.ffn_dim)
    basis[j] = 1.0
    with T.no_grad():
        got = ffn_block(T.Tensor(x), model.params, TOY, 1, T.Tensor(basis)).data
    P = {k: v.data for k, v in model.params.items()}
    h = np_gelu(x @ P["layers.1.ffn.w1"] + P["layers.1.ffn.b1"])[..., j]
    want = np_layer_norm(x + h[..., None] * P["layers.1.ffn.w2"][j] + P["layers.1.ffn.b2"],
                         P["layers.1.ln2.g"], P["layers.1.ln2.b"])
    assert np.max(np.abs(got - want)) < 1e-12


def test_fused_nodes_name_themselves_on_non_finite_values():
    model = Model.init(TOY, seed=18)
    bad = T.Tensor(np.full((1, 3, TOY.model_dim), np.inf))
    mask = np.array([[True, False, False]])
    gold = np.zeros((1, 3), dtype=int)
    inf_tok = {**model.params, "embed.tok": T.Tensor(np.full((TOY.vocab_size, TOY.model_dim),
                                                              np.inf))}
    nodes = {
        "embed_forward": lambda: embed_forward(gold, inf_tok, TOY, None),
        "attention_block": lambda: attention_block(bad, model.params, TOY, 0),
        "ffn_block": lambda: ffn_block(bad, model.params, TOY, 0),
        "mlm_head": lambda: mlm_head(bad, model.params),
        "mlm_loss": lambda: mlm_loss(T.Tensor(np.full((1, 3, 4), np.inf)), mask, gold),
    }
    with warnings.catch_warnings():
        # each node sets its own error state: no numpy warning escapes
        warnings.simplefilter("error")
        for name, run in nodes.items():
            with pytest.raises(NumericError, match=name):
                run()


def test_ffn_block_rejects_an_overflowing_layer_norm_variance():
    # every value is finite, but the centred rows square past the float64
    # range: the variance is infinite and the normalised output would be the
    # finite shift alone
    model = Model.init(TOY, seed=18)
    for sign in (1.0, -1.0):
        big = T.Tensor(np.full((1, 3, TOY.model_dim), sign * 1e300))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="ffn_block"):
                ffn_block(big, model.params, TOY, 0)


def test_embed_forward_rejects_bad_ids():
    model = Model.init(TOY, seed=14)
    for ids in (np.array([[0, TOY.vocab_size]]), np.array([[-1, 0]])):
        with pytest.raises(InputError, match="out of range"):
            embed_forward(ids, model.params, TOY, None)
    with pytest.raises(InputError, match="integers"):
        embed_forward(np.array([[0.0, 1.0]]), model.params, TOY, None)
    short = {**model.params, "embed.pos": T.Tensor(model.params["embed.pos"].data[:1])}
    with pytest.raises(InputError, match="exceeds"):
        embed_forward(np.array([[0, 1]]), short, TOY, None)


def test_embed_forward_scatter_adds_repeated_ids():
    # identity projection: each output row is a token row times the gate
    # plus a position row
    config = ModelConfig(n_layers=1, n_heads=1, model_dim=2, ffn_dim=1, vocab_size=4,
                         max_seq_len=3)
    for g_rank, g in ((None, 1.0), (T.Tensor([1.0, 0.5]), np.array([1.0, 0.5]))):
        params = {"embed.tok": T.Tensor(np.arange(8.0).reshape(4, 2), requires_grad=True),
                  "embed.proj": T.Tensor(np.eye(2)), "embed.pos": T.Tensor(np.zeros((3, 2)))}
        T.backward(embed_forward(np.array([[1, 1, 3]]), params, config, g_rank).sum())
        expect = np.zeros((4, 2))
        expect[1] = 2.0 * g
        expect[3] = g
        assert np.array_equal(params["embed.tok"].grad, expect)


def test_single_rank_gate_gives_rank_one_embedding():
    model = Model.init(TOY, seed=16)
    g = np.zeros(TOY.model_dim)
    g[3] = 1.0
    effective = (model.params["embed.tok"].data * g) @ model.params["embed.proj"].data
    s = np.linalg.svd(effective, compute_uv=False)
    assert s[1] < 1e-10


def test_head_gate_zero_equals_deleted_weights():
    model = Model.init(TOY, seed=17)
    ids = seeded_batch(TOY, 8)
    gs = GateSet.ones(TOY)
    gs.heads[0][1] = 0.0
    with T.no_grad():
        gated = encoder_forward(model, ids, gate_tensors(gs)).data
    surgically = model.copy()
    hd = TOY.head_dim
    surgically.params["layers.0.attn.wo"].data[hd : 2 * hd, :] = 0.0
    with T.no_grad():
        deleted = encoder_forward(surgically, ids, gate_tensors(GateSet.ones(TOY))).data
    assert np.max(np.abs(gated - deleted)) < 1e-10


def test_mlm_loss_uniform_logits():
    b, s, v = 2, 3, 16
    logits = T.Tensor(np.zeros((b, s, v)))
    mask = np.zeros((b, s), dtype=bool)
    mask[0, 1] = True
    mask[1, 2] = True
    gold = np.zeros((b, s), dtype=int)
    loss = mlm_loss(logits, mask, gold)
    assert abs(loss.item() - np.log(16.0)) < 1e-12


def test_mlm_loss_confident_correct():
    logits = np.zeros((1, 2, 5))
    gold = np.array([[3, 0]])
    logits[0, 0, 3] = 50.0
    mask = np.array([[True, False]])
    loss = mlm_loss(T.Tensor(logits), mask, gold)
    assert loss.item() < 1e-6


def test_mlm_loss_matches_hand_rolled():
    rng = np.random.default_rng(9)
    b, s, v = 3, 5, 11
    logits = rng.normal(size=(b, s, v))
    mask = rng.uniform(size=(b, s)) < 0.4
    mask[0, 0] = True
    gold = rng.integers(0, v, size=(b, s))
    got = mlm_loss(T.Tensor(logits), mask, gold).item()
    rows = logits[mask]
    shifted = rows - rows.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    want = -logp[np.arange(mask.sum()), gold[mask]].mean()
    assert abs(got - want) < 1e-10


def test_mlm_loss_ignores_unmasked_logits():
    rng = np.random.default_rng(10)
    b, s, v = 2, 4, 7
    logits = rng.normal(size=(b, s, v))
    mask = np.zeros((b, s), dtype=bool)
    mask[0, 2] = True
    gold = rng.integers(0, v, size=(b, s))
    base = mlm_loss(T.Tensor(logits), mask, gold).item()
    perturbed = logits.copy()
    perturbed[~mask] += rng.normal(size=perturbed[~mask].shape) * 100
    assert mlm_loss(T.Tensor(perturbed), mask, gold).item() == base


def test_mlm_loss_requires_masks_and_valid_gold():
    logits = T.Tensor(np.zeros((1, 2, 4)))
    with pytest.raises(InputError):
        mlm_loss(logits, np.zeros((1, 2), dtype=bool), np.zeros((1, 2), dtype=int))
    with pytest.raises(InputError):
        mlm_loss(logits, np.array([[True, False]]), np.array([[9, 0]]))


def test_count_params_xlmr_scale():
    counts = count_params(XLMR_BASE, GateSet.ones(XLMR_BASE))
    assert abs(counts["embedding_params"] - 193e6) / 193e6 < 0.02
    assert abs(counts["encoder_params"] - 86e6) / 86e6 < 0.02
    share = counts["embedding_params"] / counts["total_params"]
    assert abs(share - 0.69) <= 0.01


def test_count_params_toy_closed_form():
    # hand arithmetic for TOY with 1 head off in layer 0, 2 hidden off in
    # layer 1, 3 ranks off: d=8, H=2, head_dim=4, d_f=12, v=19, max_seq=10
    gs = GateSet.ones(TOY)
    gs.heads[0][0] = 0.0
    gs.hiddens[1][:2] = 0.0
    gs.ranks[:3] = 0.0
    counts = count_params(TOY, gs)
    embedding = 19 * 5 + 5 * 8 + 10 * 8
    layer0 = 4 * 8 * 4 * 1 + 4 * 8 + 2 * 8 * 12 + (12 + 8) + 4 * 8
    layer1 = 4 * 8 * 4 * 2 + 4 * 8 + 2 * 8 * 10 + (12 + 8) + 4 * 8
    assert counts["embedding_params"] == embedding
    assert counts["encoder_params"] == layer0 + layer1
    assert counts["total_params"] == embedding + layer0 + layer1


def test_count_params_monotone_in_gates():
    rng = np.random.default_rng(20)
    gs = GateSet.ones(TOY)
    last = count_params(TOY, gs)["total_params"]
    universe = component_universe(TOY)
    for cid in rng.permutation(len(universe))[:30]:
        gs.values[cid] = 0.0
        now = count_params(TOY, gs)["total_params"]
        assert now <= last
        last = now


def test_count_params_all_off_residue():
    counts = count_params(TOY, all_off(TOY))
    assert counts["embedding_params"] == 10 * 8
    assert counts["encoder_params"] == 2 * (4 * 8 + 12 + 8 + 4 * 8)


def test_encoder_sparsity_cases():
    weights = component_weights(XLMR_BASE)
    assert encoder_sparsity(GateSet.ones(XLMR_BASE), weights) == 0.0
    assert encoder_sparsity(all_off(XLMR_BASE), weights) == 1.0
    gs = GateSet.ones(XLMR_BASE)
    for i in range(XLMR_BASE.n_layers):
        gs.hiddens[i][: XLMR_BASE.ffn_dim // 2] = 0.0
    assert abs(encoder_sparsity(gs, weights) - 1.0 / 3.0) < 1e-12


def test_encoder_sparsity_ignores_rank_gates():
    weights = component_weights(TOY)
    gs = GateSet.ones(TOY)
    gs.ranks[:] = 0.0
    assert encoder_sparsity(gs, weights) == 0.0


def test_gateset_validation():
    n = len(component_universe(TOY))
    out_of_range = np.ones(n)
    out_of_range[:2] = [0.5, 1.5]
    with pytest.raises(ContractError):
        GateSet.from_values(TOY, out_of_range)
    # hard is read off the values: exactly 0 or 1 everywhere
    fractional = np.ones(n)
    fractional[0] = 0.5
    assert not GateSet.from_values(TOY, fractional).hard
    fractional[0] = 0.0
    assert GateSet.from_values(TOY, fractional).hard
    with pytest.raises(ContractError):
        GateSet.from_values(TOY, np.ones(n - 1))


def test_gateset_text_round_trip(tmp_path):
    rng = np.random.default_rng(21)
    gs = GateSet.from_values(TOY, np.concatenate(
        [rng.integers(0, 2, TOY.n_heads).astype(float) for _ in range(TOY.n_layers)]
        + [rng.integers(0, 2, TOY.ffn_dim).astype(float) for _ in range(TOY.n_layers)]
        + [rng.integers(0, 2, TOY.model_dim).astype(float)]))
    path = tmp_path / "gates.csv"
    gs.save_text(path, TOY)
    loaded = GateSet.load_text(path, TOY)
    assert loaded.hard
    assert np.array_equal(loaded.to_vector(), gs.to_vector())
    first = path.read_text().splitlines()[0]
    assert first == "head,0,0," + ("1" if gs.heads[0][0] else "0")


def test_save_text_writes_each_value_as_formatted_alone(tmp_path):
    # values are formatted once per distinct bit pattern: -0.0 keeps its sign
    values = np.ones(len(component_universe(TOY)))
    values[:4] = [-0.0, 0.0, 0.25, -0.0]
    path = tmp_path / "gates.txt"
    GateSet.from_values(TOY, values).save_text(path, TOY)
    lines = path.read_text().splitlines()
    assert lines[:5] == ["head,0,0,-0", "head,0,1,0", "head,1,0,0.25", "head,1,1,-0",
                         "hidden,0,0,1"]


def test_gateset_views_share_the_value_vector():
    gs = GateSet.ones(TOY)
    gs.heads[1][0] = 0.0
    gs.hiddens[0][3] = 0.0
    gs.ranks[7] = 0.0
    position = component_index(component_universe(TOY))
    off = np.flatnonzero(gs.values == 0.0).tolist()
    assert off == [position["head,1,0"], position["hidden,0,3"], position["rank,,7"]]
    copy = gs.to_vector()
    copy[:] = 0.0
    assert gs.values.sum() == len(position) - 3


def _gates_file(tmp_path, edit):
    path = tmp_path / "gates.txt"
    GateSet.ones(TOY).save_text(path, TOY)
    path.write_text(edit(path.read_text()))
    return path


def test_split_gates_layout_matches_universe():
    config = TOY
    universe = component_universe(config)
    n = len(universe)
    flat = T.Tensor(np.arange(n, dtype=float), requires_grad=True)
    gates = split_gates(config, flat)
    gs = GateSet.ones(config)
    position = {cid: pos for pos, cid in enumerate(universe)}
    for layer in range(config.n_layers):
        gs.heads[layer][:] = [position[f"head,{layer},{h}"] for h in range(config.n_heads)]
        gs.hiddens[layer][:] = [position[f"hidden,{layer},{j}"] for j in range(config.ffn_dim)]
    gs.ranks[:] = [position[f"rank,,{k}"] for k in range(config.model_dim)]
    rebuilt = np.concatenate([g.data for g in gates["heads"]]
                             + [g.data for g in gates["hiddens"]] + [gates["ranks"].data])
    manual = np.concatenate([np.asarray(gs.heads[l]) for l in range(config.n_layers)]
                            + [np.asarray(gs.hiddens[l]) for l in range(config.n_layers)]
                            + [np.asarray(gs.ranks)])
    assert np.array_equal(rebuilt, manual)
    # gradients flow back through the slicing
    loss = gates["ranks"].sum()
    T.backward(loss)
    expect = np.zeros(n)
    expect[-config.model_dim:] = 1.0
    assert np.array_equal(flat.grad, expect)


def test_load_text_rejects_head_outside_the_model(tmp_path):
    path = _gates_file(tmp_path, lambda text: text + "head,0,7,1\n")
    with pytest.raises(InputError, match="head,0,7"):
        GateSet.load_text(path, TOY)


def test_load_text_rejects_layer_outside_the_model(tmp_path):
    path = _gates_file(tmp_path, lambda text: text + "hidden,5,0,1\n")
    with pytest.raises(InputError, match="hidden,5,0"):
        GateSet.load_text(path, TOY)


def test_load_text_rejects_duplicate_rows(tmp_path):
    path = _gates_file(tmp_path, lambda text: text + "head,1,1,0\n")
    with pytest.raises(InputError, match="head,1,1"):
        GateSet.load_text(path, TOY)


def test_load_text_rejects_non_numeric_values(tmp_path):
    path = _gates_file(tmp_path, lambda text: text.replace("head,0,1,1", "head,0,1,yes"))
    with pytest.raises(InputError, match="yes"):
        GateSet.load_text(path, TOY)


def test_load_text_rejects_rank_with_a_layer(tmp_path):
    path = _gates_file(tmp_path, lambda text: text + "rank,1,0,1\n")
    with pytest.raises(InputError, match="rank,1,0"):
        GateSet.load_text(path, TOY)


def test_load_text_rejects_missing_and_out_of_range_values(tmp_path):
    path = _gates_file(tmp_path, lambda text: text.replace("rank,,7,1\n", ""))
    with pytest.raises(InputError, match="rank,,7"):
        GateSet.load_text(path, TOY)
    for bad in ("1.5", "nan", "-0.5"):
        path = _gates_file(tmp_path, lambda text: text.replace("rank,,7,1", f"rank,,7,{bad}"))
        with pytest.raises(InputError):
            GateSet.load_text(path, TOY)


def test_load_text_names_the_first_faulty_row(tmp_path):
    cases = {
        # an early row's fault is named before a later row's, whichever
        # check each fails
        ":2: non-finite value in 'inf'": lambda text: text.replace(
            "head,0,1,1", "head,0,1,inf").replace("rank,,7,1", "rank,,7,x"),
        ":3: gate value 2.0 outside": lambda text: text.replace(
            "head,1,0,1", "head,1,0,2").replace("rank,,7,1", "rank,9,7,1"),
        # a row failing two checks is named for the one a row meets first
        ":3: second row for component head,0,0":
            lambda text: text.replace("head,1,0,1", "head,0,0,2"),
    }
    for message, edit in cases.items():
        path = _gates_file(tmp_path, edit)
        with pytest.raises(InputError, match=message):
            GateSet.load_text(path, TOY)


def test_forward_determinism_and_finiteness_random_hard_gates():
    model = Model.init(TOY, seed=23)
    ids = seeded_batch(TOY, 24)
    rng = np.random.default_rng(25)
    for _ in range(5):
        vec = rng.integers(0, 2, len(component_universe(TOY))).astype(float)
        gs = GateSet.from_values(TOY, vec)
        with T.no_grad():
            a = encoder_forward(model, ids, gate_tensors(gs)).data
            b = encoder_forward(model, ids, gate_tensors(gs)).data
        assert a.tobytes() == b.tobytes()
        assert np.all(np.isfinite(a))


def test_model_save_load_round_trip(tmp_path):
    model = Model.init(TOY, seed=26)
    model.save(tmp_path)
    loaded = Model.load(tmp_path)
    assert loaded.config == TOY
    ids = seeded_batch(TOY, 27)
    with T.no_grad():
        a = encoder_forward(model, ids, gate_tensors(GateSet.ones(TOY))).data
        b = encoder_forward(loaded, ids, gate_tensors(GateSet.ones(TOY))).data
    assert a.tobytes() == b.tobytes()


def _mismatched_checkpoint(arrays, fault):
    if fault == "shape":
        return {**arrays, "layers.0.ffn.w2": arrays["layers.0.ffn.w2"][:5]}
    if fault == "missing":
        return {k: v for k, v in arrays.items() if k != "layers.1.ln2.b"}
    return {**arrays, "extra": np.zeros(2)}


@pytest.mark.parametrize("fault, message", [
    ("shape", r"tensor layers.0.ffn.w2 has shape \(5, 8\), model.json implies \(12, 8\)"),
    ("missing", "no tensor layers.1.ln2.b"),
    ("extra", "tensor extra is not a parameter"),
    # one name's bytes swapped for a same-length non-UTF-8 sequence
    ("name", re.escape("tensor name b'embed.t\\xffk' is not UTF-8")),
    ("truncated", "checkpoint truncated while reading payload of layers.1.ln2.b"),
], ids=["shape", "missing", "extra", "name", "truncated"])
def test_model_load_rejects_a_checkpoint_that_does_not_match_model_json(tmp_path, fault,
                                                                        message):
    model = Model.init(TOY, seed=28)
    model.save(tmp_path)
    path = tmp_path / "weights.gcpt"
    arrays = {k: p.data for k, p in model.params.items()}
    if fault == "name":
        path.write_bytes(path.read_bytes().replace(b"embed.tok", b"embed.t\xffk", 1))
    elif fault == "truncated":
        path.write_bytes(path.read_bytes()[:-8])
    else:
        T.save_checkpoint(path, _mismatched_checkpoint(arrays, fault))
    with pytest.raises(InputError, match="weights.gcpt: " + message):
        Model.load(tmp_path)


def test_ungated_forward_equals_all_ones_gates_bitwise():
    model = Model.init(TOY, 12)
    ids = seeded_batch(TOY, 12)
    ids[1, 4:] = 0
    for pad_id in (None, 0):
        ungated = encoder_forward(model, ids, None, pad_id=pad_id).data
        ones = encoder_forward(model, ids, gate_tensors(GateSet.ones(TOY)), pad_id=pad_id).data
        assert np.array_equal(ungated, ones)


def test_gate_length_must_match_the_layer_width():
    model = Model.init(TOY, 13)
    ids = seeded_batch(TOY, 13)
    for kind, n in (("heads", TOY.n_heads), ("hiddens", TOY.ffn_dim)):
        gates = split_gates(TOY, gate_tensors(GateSet.ones(TOY)))
        gates[kind][1] = T.Tensor(np.ones(n + 1))
        with pytest.raises(ContractError, match=kind[:-1]):
            encoder_hidden(model, ids, gates)
    gates = split_gates(TOY, gate_tensors(GateSet.ones(TOY)))
    gates["ranks"] = T.Tensor(np.ones(TOY.model_dim - 1))
    with pytest.raises(ContractError, match="rank"):
        encoder_hidden(model, ids, gates)
    # widths come from the weights: dense-width gates do not fit a narrowed layer
    narrow = Model(TOY, dict(model.params))
    p = "layers.0.ffn"
    narrow.params[f"{p}.w1"] = T.Tensor(model.params[f"{p}.w1"].data[:, :5])
    narrow.params[f"{p}.b1"] = T.Tensor(model.params[f"{p}.b1"].data[:5])
    narrow.params[f"{p}.w2"] = T.Tensor(model.params[f"{p}.w2"].data[:5])
    with pytest.raises(ContractError, match="hidden gate vector must have shape \\(5,\\)"):
        encoder_forward(narrow, ids, gate_tensors(GateSet.ones(TOY)))
    gates = split_gates(TOY, gate_tensors(GateSet.ones(TOY)))
    gates["hiddens"][0] = T.Tensor(np.ones(5))
    logits = mlm_head(encoder_hidden(narrow, ids, gates), narrow.params, gates["ranks"])
    assert logits.shape == ids.shape + (TOY.vocab_size,)


def test_forward_takes_one_canonical_gate_tensor():
    model = Model.init(TOY, 14)
    ids = seeded_batch(TOY, 14)
    n = len(component_universe(TOY))
    ones = GateSet.ones(TOY)
    want = f"gates must be None or a Tensor of shape \\({n},\\)"
    for bad in (split_gates(TOY, gate_tensors(ones)), ones.values, ones,
                T.Tensor(np.ones(n - 1)), T.Tensor(np.ones((1, n)))):
        with pytest.raises(ContractError, match=want):
            encoder_forward(model, ids, bad)
    # a learned gate vector reaches every part of the forward
    leaf = T.Tensor(np.ones(n), requires_grad=True)
    T.backward(encoder_forward(model, ids, leaf).sum())
    assert leaf.grad.shape == (n,) and np.all(leaf.grad != 0.0)


WIDE = ModelConfig(n_layers=4, n_heads=4, model_dim=32, ffn_dim=64, vocab_size=19,
                   max_seq_len=10)


@pytest.mark.parametrize("config", [TOY, WIDE], ids=["toy", "wide"])
@pytest.mark.parametrize("batch", [1, 5])
def test_final_rows_equal_the_full_forward_bitwise(config, batch):
    model = Model.init(config, seed=40)
    ids = seeded_batch(config, 41, batch=batch, seq=9)
    ids[0, 6:] = 0
    rng = np.random.default_rng(42)
    gs = GateSet.from_values(config, rng.integers(0, 2, len(component_universe(config))))
    # the layer that computes only the leading rows keeps no head and no unit
    gs.heads[-1][:] = 0.0
    gs.hiddens[-1][:] = 0.0
    cases = {"dense": (model, None), "gated": (model, split_gates(config, gate_tensors(gs))),
             "compacted": (compact_model(model, gs), None)}
    for name, (m, gates) in cases.items():
        with T.no_grad():
            full = encoder_hidden(m, ids, gates, pad_id=0).data
            two = encoder_hidden(m, ids, gates, pad_id=0, final_rows=2).data
        assert two.shape == (batch, 2, config.model_dim), name
        assert two.tobytes() == full[:, :2].tobytes(), name


def test_final_rows_refuse_a_recording_tape():
    model = Model.init(TOY, seed=43)
    ids = seeded_batch(TOY, 44)
    T.active_tape().clear()
    with pytest.raises(ContractError, match="inference only"):
        encoder_hidden(model, ids, None, final_rows=2)
    T.active_tape().clear()
    x = T.Tensor(np.ones((2, 3, TOY.model_dim)), requires_grad=True)
    with pytest.raises(ContractError, match="inference only"):
        attention_block(x, model.params, TOY, 0, rows=2)
    with T.no_grad(), pytest.raises(ContractError, match="rows must lie in"):
        attention_block(x, model.params, TOY, 0, rows=4)
    # constant inputs record nothing, so the restriction is allowed there
    frozen = {k: T.Tensor(v.data) for k, v in model.params.items()}
    assert attention_block(T.Tensor(x.data), frozen, TOY, 0, rows=2).shape == (2, 2, 8)
    T.active_tape().clear()
