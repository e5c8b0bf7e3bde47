"""Hard-concrete gates, L0 penalty, sparsity constraint, diversity prior."""

import numpy as np
import pytest

from prunelab import tensor as T
from prunelab.exceptions import ContractError, InputError
from prunelab.l0 import (
    ALPHA_INIT_STD,
    ONE_THRESHOLD,
    PENALTY_SHIFT,
    ZERO_THRESHOLD,
    build_prior,
    diversity_loss,
    expected_gate,
    inference_gate,
    l0_penalty,
    sample_gate,
    save_alphas,
    sparsity_constraint_loss,
    total_loss,
)

LN11 = float(np.log(11.0))


def test_thresholds_for_default_stretch():
    # l=-0.1, r=1.1: zero threshold logit(1/12) = -ln 11, one logit(11/12) = ln 11
    assert abs(ZERO_THRESHOLD + LN11) < 1e-12
    assert abs(ONE_THRESHOLD - LN11) < 1e-12
    assert abs(PENALTY_SHIFT + LN11) < 1e-12


def test_sample_gate_median_noise():
    alpha = T.Tensor([0.0])
    g = sample_gate(alpha, np.array([0.5]))
    assert abs(g.data[0] - 0.5) < 1e-12


def test_sample_gate_saturates_at_extreme_noise():
    alpha = T.Tensor([0.0, 0.0])
    g = sample_gate(alpha, np.array([1.0 - 1e-12, 1e-12]))
    assert g.data[0] == 1.0
    assert g.data[1] == 0.0


def test_sample_gate_rejects_bad_noise():
    alpha = T.Tensor([0.0])
    for u in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ContractError):
            sample_gate(alpha, np.array([u]))
    with pytest.raises(ContractError):
        sample_gate(alpha, np.array([0.5, 0.5]))


def test_sample_gate_monotone_in_alpha():
    u = np.full(7, 0.37)
    alphas = np.linspace(-6, 6, 7)
    g = sample_gate(T.Tensor(alphas), u).data
    assert np.all(np.diff(g) >= 0.0)


def test_inference_gate_values():
    assert abs(inference_gate(0.0) - 0.5) < 1e-12
    assert inference_gate(ZERO_THRESHOLD - 1e-9) == 0.0
    assert inference_gate(ZERO_THRESHOLD) <= 1e-12
    assert inference_gate(ZERO_THRESHOLD + 1e-6) > 0.0
    assert inference_gate(ONE_THRESHOLD + 1e-9) == 1.0
    assert inference_gate(-50.0) == 0.0 and inference_gate(50.0) == 1.0
    grid = inference_gate(np.linspace(-8, 8, 33))
    assert np.all(np.diff(grid) >= 0.0)


def test_l0_penalty_hand_values():
    # alpha=0, unit weight: sigmoid(ln 11) = 11/12
    p = l0_penalty(T.Tensor([0.0]), np.array([1.0]))
    assert abs(p.item() - 11.0 / 12.0) < 1e-12
    w = np.array([256.0, 2.0, 1.0])
    p3 = l0_penalty(T.Tensor([0.0, 0.0, 0.0]), w)
    assert abs(p3.item() - (11.0 / 12.0) * w.sum()) < 1e-9


def test_l0_penalty_monotone_and_bounded():
    w = np.ones(9)
    alphas = np.linspace(-10, 10, 9)
    vals = [l0_penalty(T.Tensor(np.full(9, a)), w).item() for a in alphas]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert all(0.0 < v < 9.0 for v in vals)


def test_l0_penalty_keeps_gradient_when_gates_saturate():
    alpha = T.Tensor([8.0, -8.0], requires_grad=True)
    T.backward(l0_penalty(alpha, np.ones(2)))
    assert np.all(alpha.grad > 0.0)


def test_l0_penalty_rejects_bad_weights():
    with pytest.raises(ContractError):
        l0_penalty(T.Tensor([0.0]), np.array([0.0]))
    with pytest.raises(ContractError):
        l0_penalty(T.Tensor([0.0, 0.0]), np.array([1.0]))
    with pytest.raises(ContractError):
        l0_penalty(T.Tensor(np.zeros((2, 2))), np.array([1.0]))
    with pytest.raises(ContractError):
        l0_penalty(T.Tensor(np.zeros((2, 2, 2))), np.ones(2))


def test_l0_penalty_stacked_rows_match_per_vector_penalties_bitwise():
    rng = np.random.default_rng(17)
    alphas = rng.normal(0.0, 2.0, size=(8, 137))
    w = rng.uniform(0.5, 300.0, size=137)
    stacked = l0_penalty(T.Tensor(alphas), w)
    assert stacked.shape == (8,)
    for i in range(8):
        assert stacked.data[i] == l0_penalty(T.Tensor(alphas[i]), w).item()


def test_l0_penalty_stacked_gradient_matches_per_vector_gradients():
    rng = np.random.default_rng(18)
    alphas = rng.normal(0.0, 2.0, size=(3, 11))
    w = rng.uniform(0.5, 4.0, size=11)
    mat = T.Tensor(alphas, requires_grad=True)
    T.backward(T.multiply(l0_penalty(mat, w), T.Tensor([1.0, -2.0, 0.5])).sum())
    for i, c in enumerate((1.0, -2.0, 0.5)):
        row = T.Tensor(alphas[i], requires_grad=True)
        T.backward(T.multiply(l0_penalty(row, w), c))
        assert np.array_equal(mat.grad[i], row.grad)


def test_sparsity_constraint_hand_value():
    sizes = T.Tensor([0.6, 0.4])
    loss = sparsity_constraint_loss(sizes, 0.5)
    assert abs(loss.item() - 0.2) < 1e-12


def test_sparsity_constraint_zero_at_target_with_zero_subgradient():
    s = T.Tensor([0.5], requires_grad=True)
    loss = sparsity_constraint_loss(s, 0.5)
    assert loss.item() == 0.0
    T.backward(loss)
    assert np.array_equal(s.grad, [0.0])


def test_sparsity_constraint_validation():
    with pytest.raises(ContractError):
        sparsity_constraint_loss(T.Tensor(np.zeros(0)), 0.5)
    with pytest.raises(ContractError):
        sparsity_constraint_loss(T.Tensor([0.5]), 1.5)
    with pytest.raises(ContractError):
        sparsity_constraint_loss(T.Tensor(np.full((2, 2), 0.5)), 0.5)


def test_sparsity_constraint_adds_terms_left_to_right():
    # 1 + 2**-53 rounds to 1 at each step of a left fold; pairwise sums of
    # eight or more terms would group the tiny terms first and keep them
    sizes = T.Tensor([1.0] + [2.0 ** -53] * 9)
    assert sparsity_constraint_loss(sizes, 0.0).item() == 1.0


def test_diversity_loss_hand_value():
    gbar = T.Tensor(np.ones((2, 2)))
    prior = np.ones((2, 2))
    assert abs(diversity_loss(gbar, prior).item() - 4.0) < 1e-12


def test_diversity_loss_zero_prior_or_disjoint_gates():
    gbar = T.Tensor(np.ones((2, 3)))
    assert diversity_loss(gbar, np.zeros((2, 2))).item() == 0.0
    disjoint = T.Tensor(np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
    assert diversity_loss(disjoint, np.ones((2, 2))).item() == 0.0


def test_diversity_loss_ignores_diagonal():
    gbar = T.Tensor(np.array([[1.0, 1.0], [1.0, 0.0]]))
    # gram = [[2,1],[1,1]]; masked off-diagonal sum = 2
    assert abs(diversity_loss(gbar, np.ones((2, 2))).item() - 2.0) < 1e-12


def test_diversity_loss_shape_check():
    with pytest.raises(ContractError):
        diversity_loss(T.Tensor(np.ones((2, 3))), np.ones((3, 3)))
    with pytest.raises(ContractError):
        diversity_loss(T.Tensor(np.ones(3)), np.ones((3, 3)))


def test_diversity_gradient_pushes_overlap_down():
    gbar = T.Tensor(np.full((2, 4), 0.5), requires_grad=True)
    T.backward(diversity_loss(gbar, np.ones((2, 2))))
    assert np.all(gbar.grad > 0.0)


def test_diversity_subgradient_is_zero_where_gates_do_not_overlap():
    # disjoint rows make a zero gram entry, where |x| has subgradient 0
    gbar = T.Tensor([[1.0, 0.0], [0.0, 1.0]], requires_grad=True)
    T.backward(diversity_loss(gbar, np.ones((2, 2))))
    assert np.array_equal(gbar.grad, np.zeros((2, 2)))
    # a negative overlap has subgradient -1: loss 2 |g0 . g1|, gradients -2 g1 and -2 g0
    gbar = T.Tensor([[1.0, 0.0], [-1.0, 1.0]], requires_grad=True)
    T.backward(diversity_loss(gbar, np.ones((2, 2))))
    assert np.array_equal(gbar.grad, [[2.0, -2.0], [-2.0, 0.0]])


def test_build_prior_families():
    langs = ["en", "es", "lo", "th"]
    m = build_prior({"en": "IE", "es": "IE", "th": "KD", "lo": "KD"}, langs)
    i = {l: k for k, l in enumerate(langs)}
    assert m[i["en"], i["es"]] == 0.0
    assert m[i["en"], i["th"]] == 1.0
    assert m[i["th"], i["lo"]] == 0.0
    assert np.all(np.diag(m) == 0.0)
    assert np.array_equal(m, m.T)


def test_build_prior_missing_is_singleton():
    langs = ["en", "fa", "ps"]
    prior = build_prior({"fa": "Missing", "ps": "Missing", "en": "IE"}, langs)
    i = {l: k for k, l in enumerate(langs)}
    assert prior[i["fa"], i["ps"]] == 1.0
    assert prior[i["fa"], i["fa"]] == 0.0


def test_build_prior_single_language():
    prior = build_prior({"en": "IE"}, ["en"])
    assert prior.shape == (1, 1)
    assert prior[0, 0] == 0.0


def test_prior_submatrix_and_unknown_language():
    families = {"aa": "F1", "bb": "F1", "cc": "F2"}
    sub = build_prior(families, ["cc", "aa"])
    assert sub.shape == (2, 2)
    assert sub[0, 1] == 1.0
    with pytest.raises(InputError):
        build_prior(families, ["aa", "zz"])


def test_total_loss_composition():
    mlm = T.Tensor(np.float64(2.0))
    l0_term = T.Tensor(np.float64(0.25))
    div = T.Tensor(np.float64(0.5))
    assert total_loss(mlm, l0_term, None, 0.0, 0.0).item() == 2.0
    got = total_loss(mlm, l0_term, div, 8.0, 1.0).item()
    assert abs(got - (2.0 + 8.0 * 0.25 + 1.0 * 0.5)) < 1e-12
    with pytest.raises(ContractError):
        total_loss(mlm, l0_term, div, -1.0, 0.0)


def test_expected_gate_matches_inference_gate():
    alphas = np.linspace(-6, 6, 13)
    with T.no_grad():
        diff = expected_gate(T.Tensor(alphas)).data - inference_gate(alphas)
    assert np.max(np.abs(diff)) == 0.0


def test_gate_gradient_is_zero_where_the_gate_saturates():
    # alphas far below, between and far above the clip edges
    for gate in (expected_gate, lambda a: sample_gate(a, np.full(3, 0.5))):
        alpha = T.Tensor([-10.0, 0.0, 10.0], requires_grad=True)
        out = gate(alpha)
        assert out.data[0] == 0.0 and out.data[2] == 1.0
        T.backward(out.sum())
        assert alpha.grad[0] == 0.0 and alpha.grad[2] == 0.0
        assert alpha.grad[1] > 0.0


def test_gradient_reaches_alpha_through_sampling():
    rng = np.random.default_rng(61)
    alpha = T.Tensor(np.zeros(16), requires_grad=True)
    g = sample_gate(alpha, rng.uniform(0.05, 0.95, size=16))
    T.backward(T.multiply(g, T.Tensor(rng.normal(size=16))).sum())
    assert alpha.grad is not None
    assert np.any(alpha.grad != 0.0)


def test_hard_concrete_params_init_and_csv(tmp_path):
    from prunelab.encoder import ModelConfig, component_universe

    cfg = ModelConfig(1, 2, 4, 3, 7, 5)
    universe = component_universe(cfg)
    # rows follow the given language order; the file sorts them
    langs = ["bb", "aa"]
    alphas = np.random.default_rng(5).normal(0.0, ALPHA_INIT_STD, size=(2, len(universe)))
    assert alphas.shape == (len(langs), len(universe))
    rows_by_lang = {lang: alphas[i] for i, lang in enumerate(langs)}
    assert rows_by_lang["aa"].std() < 0.5
    assert not np.array_equal(rows_by_lang["aa"], rows_by_lang["bb"])
    path = tmp_path / "alpha.csv"
    save_alphas(path, langs, alphas, universe)
    lines = path.read_text().splitlines()
    assert lines[0] == "language,kind,layer,index,alpha"
    n = len(universe)
    for k, lang in enumerate(("aa", "bb")):
        rows = [line.split(",") for line in lines[1 + k * n:1 + (k + 1) * n]]
        assert [",".join(r[1:4]) for r in rows] == [str(cid) for cid in universe]
        assert all(r[0] == lang for r in rows)
        assert np.array_equal([float(r[4]) for r in rows], rows_by_lang[lang])
    with pytest.raises(ContractError):
        save_alphas(tmp_path / "rows.csv", ["aa", "bb"], np.zeros((3, n)), universe)
    with pytest.raises(ContractError):
        save_alphas(tmp_path / "short.csv", langs, alphas, universe[:-1])
