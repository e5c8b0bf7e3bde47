"""Gradient-based pruning: scores vs finite differences, thresholding."""

import re
from dataclasses import dataclass

import numpy as np
import pytest

from prunelab import tensor as T
from prunelab.encoder import (
    Model,
    ModelConfig,
    component_universe,
    component_weights,
    encoder_forward,
    gate_tensors,
    mlm_loss,
    split_gates,
)
from prunelab.exceptions import ContractError, InputError
from prunelab.grad_prune import (
    ImportanceTable,
    build_profile,
    importance_scores,
    rank_order,
    select_threshold,
)

TOY = ModelConfig(n_layers=2, n_heads=2, model_dim=8, ffn_dim=6, vocab_size=13, max_seq_len=9)
WEIGHTS = component_weights(TOY)


@dataclass
class FakeBatch:
    tokens: np.ndarray
    mask_positions: np.ndarray
    gold_ids: np.ndarray
    pad_id: int = 0


def make_batch(seed, batch=3, seq=6, config=TOY):
    rng = np.random.default_rng(seed)
    tokens = rng.integers(1, config.vocab_size, size=(batch, seq))
    mask = rng.uniform(size=(batch, seq)) < 0.3
    mask[:, 0] = True
    gold = rng.integers(1, config.vocab_size, size=(batch, seq))
    return FakeBatch(tokens, mask, gold)


def test_scores_match_finite_differences_on_gates():
    model = Model.init(TOY, seed=31)
    batch = make_batch(32)
    table = importance_scores(model, [batch])
    rng = np.random.default_rng(33)
    universe = component_universe(TOY)
    h = 1e-5
    for pick in rng.permutation(len(universe))[:12]:
        cid = universe[pick]
        numeric = abs(
            (gate_perturbed_loss(model, batch, cid, 1.0 + h)
             - gate_perturbed_loss(model, batch, cid, 1.0 - h)) / (2 * h)
        )
        assert abs(table.scores[cid] - numeric) < 1e-4 * max(1.0, numeric)


def gate_perturbed_loss(model, batch, cid, value):
    universe = component_universe(TOY)
    flat = np.ones(len(universe))
    flat[universe.index(cid)] = value
    with T.no_grad():
        logits = encoder_forward(model, batch.tokens, split_gates(TOY, T.Tensor(flat)),
                                 pad_id=batch.pad_id)
        return mlm_loss(logits, batch.mask_positions, batch.gold_ids).item()


def test_zeroed_head_scores_zero():
    model = Model.init(TOY, seed=34)
    hd = TOY.head_dim
    model.params["layers.1.attn.wo"].data[0:hd, :] = 0.0
    table = importance_scores(model, [make_batch(35)])
    assert table.scores["head,1,0"] == 0.0
    assert table.scores["head,1,1"] > 0.0


def test_scores_nonnegative_and_mean_over_batches():
    model = Model.init(TOY, seed=36)
    b1, b2 = make_batch(37), make_batch(38)
    t1 = importance_scores(model, [b1])
    t2 = importance_scores(model, [b2])
    both = importance_scores(model, [b1, b2])
    for cid, score in both.scores.items():
        assert score >= 0.0
        assert abs(score - 0.5 * (t1.scores[cid] + t2.scores[cid])) < 1e-12
    assert both.n_batches == 2


def test_duplicated_batches_keep_scores():
    model = Model.init(TOY, seed=39)
    b = make_batch(40)
    once = importance_scores(model, [b])
    thrice = importance_scores(model, [b, b, b])
    for cid in once.scores:
        assert abs(once.scores[cid] - thrice.scores[cid]) < 1e-12


def test_scoring_determinism():
    model = Model.init(TOY, seed=41)
    b = make_batch(42)
    s1 = importance_scores(model, [b]).scores
    s2 = importance_scores(model, [b]).scores
    assert all(s1[c] == s2[c] for c in s1)


def equal_weight_table(scores):
    cfg = ModelConfig(n_layers=1, n_heads=4, model_dim=8, ffn_dim=1, vocab_size=5, max_seq_len=4)
    universe = [f"head,0,{i}" for i in range(4)]
    table = ImportanceTable(dict(zip(universe, scores)), "shared", 1)
    return cfg, table


def test_select_threshold_cumulative_walk_by_hand():
    # heads carry weight 8 each (4*d/H with d=8, H=4); the hidden unit has 2
    # and the 8 ranks 1 each, total 42. scores rank the heads first.
    cfg = ModelConfig(n_layers=1, n_heads=4, model_dim=8, ffn_dim=1, vocab_size=5, max_seq_len=4)
    weights = component_weights(cfg)
    scores = {cid: 0.0 for cid in component_universe(cfg)}
    for i, s in enumerate([0.9, 0.5, 0.1, 0.05]):
        scores[f"head,0,{i}"] = s
    table = ImportanceTable(scores, "shared", 1)
    # goal 0.38*42 = 15.96 is first reached at cumulative weight 16: top two
    gs = select_threshold(table, weights, 0.38, cfg)
    kept = gs.heads[0].tolist()
    assert kept == [1.0, 1.0, 0.0, 0.0]
    assert weights[gs.values == 1.0].sum() == 16.0
    # goal 0.41*42 = 17.22 needs the third head as well
    gs = select_threshold(table, weights, 0.41, cfg)
    assert gs.heads[0].tolist() == [1.0, 1.0, 1.0, 0.0]


def test_select_threshold_extremes():
    model_cfg = TOY
    weights = component_weights(model_cfg)
    rng = np.random.default_rng(43)
    table = ImportanceTable(
        {cid: float(rng.uniform()) for cid in component_universe(model_cfg)}, "shared", 1
    )
    all_on = select_threshold(table, weights, 1.0, model_cfg)
    assert all_on.to_vector().min() == 1.0
    all_off = select_threshold(table, weights, 0.0, model_cfg)
    assert all_off.to_vector().max() == 0.0


def test_select_threshold_tie_break_canonical():
    cfg, table = equal_weight_table([0.7, 0.7, 0.7, 0.7])
    weights = component_weights(cfg)
    for cid in component_universe(cfg):
        if not cid.startswith("head,"):
            table.scores[cid] = 0.0
    gs = select_threshold(table, weights, 0.4, cfg)
    # equal scores resolve by canonical id order: heads 0.. kept first;
    # 0.4 * total = 0.4 * (4*8 + 2 + 8) = 16.8 -> heads 0 and 1 (w=8 each)
    assert gs.heads[0].tolist() == [1, 1, 1, 0]


def test_select_threshold_nesting():
    weights = component_weights(TOY)
    rng = np.random.default_rng(44)
    table = ImportanceTable({cid: float(rng.uniform()) for cid in component_universe(TOY)},
                            "shared", 1)
    prev = None
    for t in np.linspace(0.0, 1.0, 11):
        mask = select_threshold(table, weights, float(t), TOY).to_vector()
        if prev is not None:
            assert np.all(mask >= prev)
        prev = mask


def test_select_threshold_scale_invariance():
    weights = component_weights(TOY)
    rng = np.random.default_rng(45)
    table = ImportanceTable({cid: float(rng.uniform()) for cid in component_universe(TOY)},
                            "shared", 1)
    doubled = ImportanceTable({c: 2.0 * s for c, s in table.scores.items()}, "shared", 1)
    for t in (0.2, 0.5, 0.8):
        a = select_threshold(table, weights, t, TOY).to_vector()
        b = select_threshold(doubled, weights, t, TOY).to_vector()
        assert np.array_equal(a, b)


def test_select_threshold_weighted_size_guarantee():
    weights = component_weights(TOY)
    total = weights.sum()
    wmax = weights.max()
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        table = ImportanceTable({cid: float(rng.exponential()) for cid in component_universe(TOY)},
                                "shared", 1)
        for t in rng.uniform(0, 1, size=5):
            gs = select_threshold(table, weights, float(t), TOY)
            achieved = weights[gs.values == 1.0].sum()
            assert abs(achieved - t * total) <= wmax


def test_select_threshold_rejects_bad_target_and_mismatch():
    weights = component_weights(TOY)
    universe = component_universe(TOY)
    table = ImportanceTable({cid: 1.0 for cid in universe}, "shared", 1)
    with pytest.raises(ContractError):
        select_threshold(table, weights, 1.5, TOY)
    bad = ImportanceTable({cid: 1.0 for cid in universe[:-1]}, "shared", 1)
    with pytest.raises(ContractError):
        select_threshold(bad, weights, 0.5, TOY)
    with pytest.raises(ContractError):
        select_threshold(table, weights[:-1], 0.5, TOY)


def test_ranked_components_deterministic_ties():
    cfg, table = equal_weight_table([0.3, 0.3, 0.9, 0.3])
    heads = [f"head,0,{i}" for i in range(4)]
    order = rank_order(table.vector(heads))
    assert order[0] == 2
    assert order[1:].tolist() == [0, 1, 3]


def test_build_profile_shared_vs_single_language():
    model = Model.init(TOY, seed=46)
    batches = [make_batch(47), make_batch(48)]
    shared = build_profile(model, {"xx": batches}, "shared", 0.5, WEIGHTS)
    non_shared = build_profile(model, {"xx": batches}, "non-shared", 0.5, WEIGHTS)
    assert np.array_equal(
        shared.gatesets["shared"].to_vector(),
        non_shared.gatesets["xx"].to_vector(),
    )


def test_build_profile_non_shared_per_language():
    model = Model.init(TOY, seed=49)
    data = {"aa": [make_batch(50)], "bb": [make_batch(51)]}
    profile = build_profile(model, data, "non-shared", 0.4, WEIGHTS)
    assert set(profile.gatesets) == {"aa", "bb"}


def test_build_profile_missing_language_data():
    model = Model.init(TOY, seed=52)
    with pytest.raises(InputError, match="bb"):
        build_profile(model, {"aa": [make_batch(53)], "bb": []}, "non-shared", 0.5, WEIGHTS)
    with pytest.raises(InputError):
        build_profile(model, {}, "shared", 0.5, WEIGHTS)
    with pytest.raises(ContractError):
        build_profile(model, {"aa": [make_batch(54)]}, "both", 0.5, WEIGHTS)


def test_importance_table_csv_round_trip(tmp_path):
    model = Model.init(TOY, seed=55)
    table = importance_scores(model, [make_batch(56)])
    path = tmp_path / "scores.csv"
    table.save_csv(path)
    loaded = ImportanceTable.load_csv(path)
    assert set(loaded.scores) == set(table.scores)
    for cid in table.scores:
        assert loaded.scores[cid] == table.scores[cid]
    assert path.read_text().startswith("kind,layer,index,score\n")


def test_importance_table_csv_round_trip_with_numpy_scores(tmp_path):
    universe = component_universe(TOY)
    scores = np.linspace(1.0, 2.0, len(universe))
    path = tmp_path / "scores.csv"
    ImportanceTable(dict(zip(universe, scores)), "shared", 1).save_csv(path)
    loaded = ImportanceTable.load_csv(path)
    assert np.array_equal(loaded.vector(universe), scores)


def _scores_file(tmp_path, edit):
    model = Model.init(TOY, seed=57)
    path = tmp_path / "scores.csv"
    importance_scores(model, [make_batch(58)]).save_csv(path)
    path.write_text(edit(path.read_text()))
    return path


def test_importance_table_load_rejects_short_rows(tmp_path):
    path = _scores_file(tmp_path, lambda text: text + "head,0,0\n")
    with pytest.raises(InputError, match="kind,layer,index,score"):
        ImportanceTable.load_csv(path)


def test_importance_table_load_rejects_non_finite_scores(tmp_path):
    path = _scores_file(tmp_path, lambda text: re.sub(r"rank,,3,.*", "rank,,3,nan", text))
    with pytest.raises(InputError, match="nan"):
        ImportanceTable.load_csv(path)
