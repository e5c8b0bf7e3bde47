"""Gated encoder: forwards vs a hand-rolled numpy reference, accounting."""

import numpy as np
import pytest
from scipy.special import erf

from prunelab import tensor as T
from prunelab.encoder import (
    ComponentId,
    GateSet,
    Model,
    ModelConfig,
    XLMR_BASE,
    component_index,
    component_universe,
    component_weights,
    count_params,
    cross_entropy,
    encoder_forward,
    encoder_sparsity,
    gate_tensors,
    mlm_loss,
    ones_gate_tensors,
)
from prunelab.exceptions import ConfigError, ContractError, InputError

TOY = ModelConfig(n_layers=2, n_heads=2, model_dim=8, ffn_dim=12, vocab_size=19, max_seq_len=10)


def np_gelu(x):
    return 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))


def np_layer_norm(x, g, b, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * g + b


def reference_encoder(model, ids, gateset, pad_id=None):
    """Independent per-head-loop implementation of the gated encoder."""
    cfg = model.config
    P = {k: v.data for k, v in model.params.items()}
    hd = cfg.head_dim
    g_rank = gateset.ranks
    x = (P["embed.tok"][ids] * g_rank) @ P["embed.proj"] + P["embed.pos"][: ids.shape[1]]
    mask_add = None
    if pad_id is not None and (ids == pad_id).any():
        mask_add = np.where(ids == pad_id, -1e9, 0.0)[:, None, :]
    for i in range(cfg.n_layers):
        p = f"layers.{i}"
        q = x @ P[f"{p}.attn.wq"] + P[f"{p}.attn.bq"]
        k = x @ P[f"{p}.attn.wk"] + P[f"{p}.attn.bk"]
        v = x @ P[f"{p}.attn.wv"] + P[f"{p}.attn.bv"]
        attn_out = np.broadcast_to(P[f"{p}.attn.bo"], x.shape).copy()
        for h in range(cfg.n_heads):
            sl = slice(h * hd, (h + 1) * hd)
            scores = q[..., sl] @ k[..., sl].transpose(0, 2, 1) / np.sqrt(hd)
            if mask_add is not None:
                scores = scores + mask_add
            scores = scores - scores.max(axis=-1, keepdims=True)
            e = np.exp(scores)
            probs = e / e.sum(axis=-1, keepdims=True)
            head = (probs @ v[..., sl]) @ P[f"{p}.attn.wo"][sl, :]
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


def test_component_universe_order_and_size():
    universe = component_universe(TOY)
    assert len(universe) == 2 * 2 + 2 * 12 + 8
    assert universe == sorted(universe, key=ComponentId.sort_key)
    assert universe[0] == ComponentId("head", 0, 0)
    assert universe[-1] == ComponentId("rank", None, 7)


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
        got = encoder_forward(model, ids, ones_gate_tensors(TOY)).data
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
            + [rng.uniform(size=TOY.model_dim)]), hard=False)
        with T.no_grad():
            got = encoder_forward(model, ids, gate_tensors(gs)).data
        want = reference_encoder(model, ids, gs)
        assert np.max(np.abs(got - want)) < 1e-10, f"trial {trial}"


def test_forward_with_padding_mask():
    model = Model.init(TOY, seed=13)
    ids = seeded_batch(TOY, 4)
    ids[:, -2:] = 0
    with T.no_grad():
        got = encoder_forward(model, ids, ones_gate_tensors(TOY), pad_id=0).data
    want = reference_encoder(model, ids, GateSet.ones(TOY), pad_id=0)
    assert np.max(np.abs(got - want)) < 1e-10
    assert np.all(np.isfinite(got))


def test_head_gate_linearity():
    # out(g) = out(0) + sum_i g_i * (out(e_i) - out(0)) per layer block
    model = Model.init(TOY, seed=14)
    ids = seeded_batch(TOY, 5)
    rng = np.random.default_rng(6)

    def logits(gs):
        with T.no_grad():
            return encoder_forward(model, ids, gate_tensors(gs)).data

    # restrict gating to layer 0 heads so downstream blocks see the same input
    # only in the base evaluation; linearity is checked at the block level
    from prunelab.encoder import mha_forward

    x = T.Tensor(rng.normal(size=(2, 6, TOY.model_dim)))
    g = rng.uniform(size=TOY.n_heads)
    with T.no_grad():
        full = mha_forward(x, model.params, TOY, 0, T.Tensor(g)).data
        zero = mha_forward(x, model.params, TOY, 0, T.Tensor(np.zeros(TOY.n_heads))).data
        acc = zero.copy()
        for h in range(TOY.n_heads):
            basis = np.zeros(TOY.n_heads)
            basis[h] = 1.0
            single = mha_forward(x, model.params, TOY, 0, T.Tensor(basis)).data
            acc += g[h] * (single - zero)
    assert np.max(np.abs(full - acc)) < 1e-10
    assert np.max(np.abs(zero - model.params["layers.0.attn.bo"].data)) < 1e-12


def test_hidden_unit_basis_contribution():
    model = Model.init(TOY, seed=15)
    rng = np.random.default_rng(7)
    x = rng.normal(size=(2, 5, TOY.model_dim))
    from prunelab.encoder import ffn_forward

    j = 4
    basis = np.zeros(TOY.ffn_dim)
    basis[j] = 1.0
    with T.no_grad():
        got = ffn_forward(T.Tensor(x), model.params, TOY, 1, T.Tensor(basis)).data
    P = {k: v.data for k, v in model.params.items()}
    h = np_gelu(x @ P["layers.1.ffn.w1"] + P["layers.1.ffn.b1"])[..., j]
    want = h[..., None] * P["layers.1.ffn.w2"][j] + P["layers.1.ffn.b2"]
    assert np.max(np.abs(got - want)) < 1e-12


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
        deleted = encoder_forward(surgically, ids, ones_gate_tensors(TOY)).data
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


def test_cross_entropy_uniform():
    logits = T.Tensor(np.zeros((4, 2)))
    assert abs(cross_entropy(logits, np.array([0, 1, 0, 1])).item() - np.log(2.0)) < 1e-12


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
    counts = count_params(TOY, GateSet.zeros(TOY))
    assert counts["embedding_params"] == 10 * 8
    assert counts["encoder_params"] == 2 * (4 * 8 + 12 + 8 + 4 * 8)


def test_encoder_sparsity_cases():
    weights = component_weights(XLMR_BASE)
    assert encoder_sparsity(GateSet.ones(XLMR_BASE), weights) == 0.0
    assert encoder_sparsity(GateSet.zeros(XLMR_BASE), weights) == 1.0
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
        GateSet.from_values(TOY, out_of_range, hard=False)
    fractional = np.ones(n)
    fractional[0] = 0.5
    with pytest.raises(ContractError):
        GateSet.from_values(TOY, fractional, hard=True)
    with pytest.raises(ContractError):
        GateSet.from_values(TOY, np.ones(n - 1), hard=True)


def test_gateset_text_round_trip(tmp_path):
    rng = np.random.default_rng(21)
    gs = GateSet.from_values(TOY, np.concatenate(
        [rng.integers(0, 2, TOY.n_heads).astype(float) for _ in range(TOY.n_layers)]
        + [rng.integers(0, 2, TOY.ffn_dim).astype(float) for _ in range(TOY.n_layers)]
        + [rng.integers(0, 2, TOY.model_dim).astype(float)]), hard=True)
    path = tmp_path / "gates.csv"
    gs.save_text(path, TOY)
    loaded = GateSet.load_text(path, TOY)
    assert loaded.hard
    assert np.array_equal(loaded.to_vector(), gs.to_vector())
    first = path.read_text().splitlines()[0]
    assert first == "head,0,0," + ("1" if gs.heads[0][0] else "0")


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


def test_forward_determinism_and_finiteness_random_hard_gates():
    model = Model.init(TOY, seed=23)
    ids = seeded_batch(TOY, 24)
    rng = np.random.default_rng(25)
    for _ in range(5):
        vec = rng.integers(0, 2, len(component_universe(TOY))).astype(float)
        gs = GateSet.from_values(TOY, vec, hard=True)
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
        a = encoder_forward(model, ids, ones_gate_tensors(TOY)).data
        b = encoder_forward(loaded, ids, ones_gate_tensors(TOY)).data
    assert a.tobytes() == b.tobytes()


def test_ungated_forward_equals_all_ones_gates_bitwise():
    model = Model.init(TOY, 12)
    ids = seeded_batch(TOY, 12)
    ids[1, 4:] = 0
    for pad_id in (None, 0):
        ungated = encoder_forward(model, ids, None, pad_id=pad_id).data
        ones = encoder_forward(model, ids, ones_gate_tensors(TOY), pad_id=pad_id).data
        assert np.array_equal(ungated, ones)


def test_gate_length_must_match_the_layer_width():
    model = Model.init(TOY, 13)
    ids = seeded_batch(TOY, 13)
    for kind, n in (("heads", TOY.n_heads), ("hiddens", TOY.ffn_dim)):
        gates = ones_gate_tensors(TOY)
        gates[kind][1] = T.Tensor(np.ones(n + 1))
        with pytest.raises(ContractError, match=kind[:-1]):
            encoder_forward(model, ids, gates)
    gates = ones_gate_tensors(TOY)
    gates["ranks"] = T.Tensor(np.ones(TOY.model_dim - 1))
    with pytest.raises(ContractError, match="rank"):
        encoder_forward(model, ids, gates)
    # widths come from the weights: dense-width gates do not fit a narrowed layer
    narrow = Model(TOY, dict(model.params))
    p = "layers.0.ffn"
    narrow.params[f"{p}.w1"] = T.Tensor(model.params[f"{p}.w1"].data[:, :5])
    narrow.params[f"{p}.b1"] = T.Tensor(model.params[f"{p}.b1"].data[:5])
    narrow.params[f"{p}.w2"] = T.Tensor(model.params[f"{p}.w2"].data[:5])
    with pytest.raises(ContractError, match="hidden gate vector must have shape \\(5,\\)"):
        encoder_forward(narrow, ids, ones_gate_tensors(TOY))
    gates = ones_gate_tensors(TOY)
    gates["hiddens"][0] = T.Tensor(np.ones(5))
    assert encoder_forward(narrow, ids, gates).shape == ids.shape + (TOY.vocab_size,)
