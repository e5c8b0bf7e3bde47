"""Dynamic sparsification: closed-form boundaries, bucketizing, nesting."""

import numpy as np
import pytest

from prunelab.ds import (
    BOUNDARY_MARGIN,
    DEFAULT_GRID,
    DSParams,
    bucketize,
    check_grid,
    ds_gate,
    gate_values_at,
    init_ds,
    solve_ds_params,
    subnetwork_at,
)
from prunelab.encoder import (GateSet, ModelConfig, XLMR_BASE, component_universe,
                              component_weights)
from prunelab.exceptions import ContractError, InputError
from prunelab.grad_prune import ImportanceTable, select_threshold
from prunelab.l0 import ZERO_THRESHOLD

LN11 = float(np.log(11.0))
TOY = ModelConfig(n_layers=2, n_heads=2, model_dim=8, ffn_dim=6, vocab_size=13, max_seq_len=9)


def test_solve_documented_example():
    # t_hat=0.5, delta=0.1: theta = 2*ln11/0.1 ~ 47.958, alpha = -9*ln11 ~ -21.581
    alpha, theta = solve_ds_params(0.5, 0.1)
    assert abs(theta - 2.0 * LN11 / 0.1) < 1e-2
    assert abs(alpha + 9.0 * LN11) < 1e-2
    assert abs(theta - 47.958) < 1e-2
    assert abs(alpha + 21.581) < 1e-2


def test_solved_boundaries_saturate_exactly():
    rng = np.random.default_rng(70)
    for _ in range(1000):
        t_hat = rng.uniform(1e-4, 1.0)
        delta = rng.uniform(1e-6, t_hat)
        alpha, theta = solve_ds_params(t_hat, delta)
        assert ds_gate(alpha, theta, t_hat) == 1.0
        assert ds_gate(alpha, theta, t_hat - delta) == 0.0


def test_solve_degenerate_full_width():
    # t_hat == delta: gate turns on across the whole [0, t_hat] ramp
    alpha, theta = solve_ds_params(0.3, 0.3)
    assert abs(alpha - ZERO_THRESHOLD) < 1e-4
    assert ds_gate(alpha, theta, 0.3) == 1.0
    assert ds_gate(alpha, theta, 0.0) == 0.0


def test_solve_rejects_bad_arguments():
    for t_hat, delta in ((0.5, 0.6), (0.5, 0.0), (1.2, 0.1), (0.0, 0.0)):
        with pytest.raises(ContractError):
            solve_ds_params(t_hat, delta)


def test_ds_gate_constant_when_theta_zero():
    vals = [float(ds_gate(0.3, 0.0, t)) for t in np.linspace(0, 1, 7)]
    assert len(set(vals)) == 1


def test_ds_gate_monotone_in_t():
    alpha, theta = solve_ds_params(0.6, 0.25)
    g = [float(ds_gate(alpha, theta, t)) for t in np.linspace(0, 1, 101)]
    assert all(b >= a for a, b in zip(g, g[1:]))


def equal_components(n):
    """n equal-weight components whose scores fall with their position."""
    return np.arange(n, 0, -1, dtype=float), np.ones(n)


def test_bucketize_equal_weights_hand_case():
    # ten equal components on grid {0, 0.5, 1}: top five snap to 0.5
    scores, weights = equal_components(10)
    t_hat, delta = bucketize(scores, weights, (0.0, 0.5, 1.0))
    for j in range(10):
        assert delta[j] == 0.1
        assert t_hat[j] == (0.5 if j < 5 else 1.0)


def test_bucketize_respects_ranking_not_id_order():
    scores, weights = equal_components(4)
    scores[3] = 100.0
    t_hat, _ = bucketize(scores, weights, (0.0, 0.25, 0.5, 0.75, 1.0))
    assert t_hat[3] == 0.25
    assert t_hat[0] == 0.5


def test_bucketize_zero_scores_get_tail_buckets():
    scores, weights = equal_components(4)
    scores[2:] = 0.0
    grid = (0.0, 0.5, 1.0)
    t_hat, _ = bucketize(scores, weights, grid)
    assert t_hat[2] == 1.0
    assert t_hat[3] == 1.0
    assert t_hat.shape == (4,) and np.all(np.isin(t_hat, grid))


# canonical order: one head, one hidden unit, one rank
HEAD_HIDDEN_RANK_WEIGHTS = np.array([6.0, 3.0, 1.0])


def test_bucketize_delta_weight_share_capped_at_cell():
    scores = np.array([3.0, 2.0, 1.0])
    t_hat, delta = bucketize(scores, HEAD_HIDDEN_RANK_WEIGHTS, (0.0, 0.5, 1.0))
    # cumulative sizes 0.6, 0.9, 1.0 all land in the (0.5, 1.0] cell
    assert np.all(t_hat == 1.0)
    # the head's 0.6 weight share exceeds the 0.5 cell and gets capped; the
    # lighter components keep their shares
    assert delta[0] == 0.5
    assert delta[1] == 0.3
    assert delta[2] == 0.1


def test_bucketize_snaps_cumulative_sizes_upward():
    t_hat, _ = bucketize(np.ones(3), HEAD_HIDDEN_RANK_WEIGHTS, DEFAULT_GRID)
    # cumulative sizes 0.6, 0.9, 1.0 snap upward on the default grid
    assert t_hat[0] == 0.6
    assert t_hat[1] == 0.9
    assert t_hat[2] == 1.0


def test_check_grid_contract():
    with pytest.raises(ContractError):
        check_grid((0.0, 0.5))
    with pytest.raises(ContractError):
        check_grid((0.1, 1.0))
    with pytest.raises(ContractError):
        check_grid((0.0, 0.5, 0.5, 1.0))
    assert check_grid([0, 0.5, 1]) == (0.0, 0.5, 1.0)


def synthetic_ds(seed=71, grid=DEFAULT_GRID, config=TOY):
    rng = np.random.default_rng(seed)
    weights = component_weights(config)
    table = ImportanceTable({cid: float(rng.exponential()) for cid in component_universe(config)},
                            "shared", 1)
    return init_ds({"shared": table}, weights, grid), weights


def test_grid_exactness_and_nesting():
    ds, _ = synthetic_ds()
    prev = None
    for t in ds.grid:
        values = gate_values_at(ds, float(t), "shared")
        assert np.all((values == 0.0) | (values == 1.0))
        if prev is not None:
            assert np.all(values >= prev)
        prev = values


def test_endpoints_all_off_all_on():
    ds, _ = synthetic_ds(seed=72)
    assert np.all(gate_values_at(ds, 0.0, "shared") == 0.0)
    assert np.all(gate_values_at(ds, 1.0, "shared") == 1.0)


def test_active_set_matches_boundary_sizes():
    ds, _ = synthetic_ds(seed=73)
    for t in ds.grid:
        values = gate_values_at(ds, float(t), "shared")
        want = (ds.t_hat[0] <= t + 1e-12).astype(float)
        assert np.array_equal(values, want)


def test_off_grid_sizes_binarize():
    ds, _ = synthetic_ds(seed=74)
    t_hat, delta = ds.t_hat[0], ds.delta[0]
    # probe the middle of the widest on-ramp so at least one gate is fractional
    i = int(np.argmax(delta))
    t = float(t_hat[i] - 0.5 * delta[i])
    raw = gate_values_at(ds, t, "shared")
    assert np.any((raw > 0.0) & (raw < 1.0))
    gs = subnetwork_at(ds, t, "shared", TOY)
    assert gs.hard
    assert np.array_equal(gs.to_vector(), (raw >= 0.5).astype(float))


def test_agreement_with_select_threshold_within_one_bucket():
    from prunelab.grad_prune import select_threshold

    rng = np.random.default_rng(75)
    weights = component_weights(TOY)
    total = weights.sum()
    table = ImportanceTable({cid: float(rng.exponential()) for cid in component_universe(TOY)},
                            "shared", 1)
    ds = init_ds({"shared": table}, weights, DEFAULT_GRID)
    for t in ds.grid:
        ds_mask = subnetwork_at(ds, float(t), "shared", TOY)
        th_mask = select_threshold(table, weights, float(t), TOY)
        ds_size = weights[ds_mask.values == 1.0].sum()
        th_size = weights[th_mask.values == 1.0].sum()
        # ds keeps the prefix whose cumulative weight stays at or below t,
        # the walk additionally keeps the crossing component, so the sizes
        # differ by at most one component's weight
        assert -1e-9 * total <= th_size - ds_size <= weights.max() + 1e-9 * total
        # everything ds keeps, the threshold walk keeps too
        assert np.all(th_mask.values[ds_mask.values == 1.0] == 1.0)


def test_subnetwork_unknown_language_and_bad_t():
    ds, _ = synthetic_ds(seed=76)
    with pytest.raises(InputError):
        subnetwork_at(ds, 0.5, "xx", TOY)
    with pytest.raises(ContractError):
        subnetwork_at(ds, 1.5, "shared", TOY)


def test_init_ds_per_language_tables():
    rng = np.random.default_rng(77)
    weights = component_weights(TOY)
    tables = {
        lang: ImportanceTable({cid: float(rng.exponential()) for cid in component_universe(TOY)},
                              lang, 1)
        for lang in ("aa", "bb")
    }
    ds = init_ds(tables, weights, (0.0, 0.25, 0.5, 0.75, 1.0))
    assert ds.languages == ["aa", "bb"]
    assert not np.array_equal(ds.t_hat[0], ds.t_hat[1])
    with pytest.raises(InputError):
        init_ds({}, weights, DEFAULT_GRID)


def test_delta_never_exceeds_t_hat():
    ds, weights = synthetic_ds(seed=78)
    assert np.all(ds.delta <= ds.t_hat + 1e-15)
    assert np.all(ds.delta > 0.0)


def test_margin_is_negligible_against_grid_spacing():
    # the widened logit targets move the effective switch size by far less
    # than one grid step
    alpha, theta = solve_ds_params(0.5, 0.1)
    shift = BOUNDARY_MARGIN * 2.0 * LN11 / theta
    assert shift < 1e-6


def test_ds_params_csv_round_trip(tmp_path):
    ds, weights = synthetic_ds(seed=79)
    path = tmp_path / "ds.csv"
    ds.save_csv(path)
    loaded = DSParams.load_csv(path, ds.components, ds.grid)
    for key in ("alpha", "theta", "t_hat", "delta"):
        assert np.array_equal(getattr(loaded, key), getattr(ds, key))
    assert path.read_text().startswith("language,kind,layer,index,alpha,theta,t_hat,delta\n")
    # three languages, read back from the saved rows in other orders
    rng = np.random.default_rng(79)
    multi = init_ds({lang: ImportanceTable({cid: float(rng.exponential()) for cid in ds.components},
                                           lang, 1) for lang in ("cc", "aa", "bb")},
                    weights, ds.grid)
    assert multi.languages == ["aa", "bb", "cc"]
    multi.save_csv(path)
    header, *rows = path.read_text().splitlines(keepends=True)
    n = len(multi.components)
    blocks = [rows[k * n:(k + 1) * n] for k in range(3)]
    orders = {"saved": rows,
              "blocks reversed": [row for block in blocks[::-1] for row in block],
              "interleaved": [row for group in zip(*blocks[::-1]) for row in group],
              "shuffled": [rows[i] for i in rng.permutation(len(rows))]}
    for name, order in orders.items():
        path.write_text("".join([header, *order]))
        loaded = DSParams.load_csv(path, multi.components, multi.grid)
        assert loaded.languages == ["aa", "bb", "cc"], name
        for key in ("alpha", "theta", "t_hat", "delta"):
            assert getattr(loaded, key).shape == (3, n), name
            assert np.array_equal(getattr(loaded, key), getattr(multi, key)), name


def test_ds_params_load_csv_rejects_malformed_tables(tmp_path):
    ds, _ = synthetic_ds(seed=80)
    path = tmp_path / "ds.csv"
    ds.save_csv(path)
    lines = path.read_text().splitlines(keepends=True)
    cases = {
        "missing row": lines[:-1],
        "second row": lines + [lines[1]],
        "non-numeric": lines[:1] + [lines[1].rsplit(",", 1)[0] + ",x\n"] + lines[2:],
        "short row": lines[:1] + [lines[1].rsplit(",", 1)[0] + "\n"] + lines[2:],
        "no rows": lines[:1] + ["\n"],
    }
    for rows in cases.values():
        path.write_text("".join(rows))
        with pytest.raises(InputError):
            DSParams.load_csv(path, ds.components, ds.grid)



def test_ds_params_load_csv_checks_each_cell_for_finiteness(tmp_path):
    ds, _ = synthetic_ds(seed=80)
    path = tmp_path / "ds.csv"
    ds.save_csv(path)
    lines = path.read_text().splitlines(keepends=True)
    head = lines[1].split(",")[:4]
    # finite cells whose sum overflows are accepted as they are
    path.write_text("".join(lines[:1] + [",".join(head + ["1e308"] * 4) + "\n"] + lines[2:]))
    loaded = DSParams.load_csv(path, ds.components, ds.grid)
    assert loaded.alpha[0, 0] == 1e308
    for cells in (["1e308", "-inf", "1", "1"], ["nan", "1", "1", "1"]):
        path.write_text("".join(lines[:1] + [",".join(head + cells) + "\n"] + lines[2:]))
        with pytest.raises(InputError, match=":2: non-finite value in '" + ",".join(cells)):
            DSParams.load_csv(path, ds.components, ds.grid)

def _row_names(path, header_lines, first_cell):
    """The component name of every row of a component file."""
    return [",".join(line.split(",")[first_cell:first_cell + 3])
            for line in path.read_text().splitlines()[header_lines:]]


def test_component_files_follow_canonical_numeric_order(tmp_path):
    # 11 layers and 11 FFN units: layer 10 must follow layer 9 and unit 10
    # unit 9, which plain string order would not give
    wide = ModelConfig(n_layers=11, n_heads=2, model_dim=4, ffn_dim=11, vocab_size=7,
                       max_seq_len=4)
    universe = component_universe(wide)
    assert sorted(universe) != universe
    rng = np.random.default_rng(81)
    shuffled = [universe[i] for i in rng.permutation(len(universe))]
    table = ImportanceTable({name: float(rng.exponential()) for name in shuffled}, "xx", 1)
    weights = component_weights(wide)
    table.save_csv(tmp_path / "importance.csv")
    init_ds({"xx": table}, weights, DEFAULT_GRID).save_csv(tmp_path / "ds.csv")
    select_threshold(table, weights, 0.5, wide).save_text(tmp_path / "gates.txt", wide)
    assert _row_names(tmp_path / "importance.csv", 1, 0) == universe
    assert _row_names(tmp_path / "ds.csv", 1, 1) == universe
    assert _row_names(tmp_path / "gates.txt", 0, 0) == universe


def test_component_files_round_trip_byte_for_byte_at_xlmr_base(tmp_path):
    universe = component_universe(XLMR_BASE)
    assert len(universe) == 37776
    rng = np.random.default_rng(82)
    tables = {lang: ImportanceTable(dict(zip(universe, rng.random(len(universe)).tolist())),
                                    lang, 1) for lang in ("aa", "bb")}
    weights = component_weights(XLMR_BASE)
    grid = (0.0, 0.5, 1.0)
    soft = rng.random(len(universe))
    soft[:100] = 0.0
    soft[100:200] = 1.0
    writers = {
        "importance.csv": (lambda p: tables["aa"].save_csv(p),
                           lambda p: ImportanceTable.load_csv(p, "aa").save_csv(p)),
        "hard.txt": (lambda p: select_threshold(tables["bb"], weights, 0.5, XLMR_BASE)
                     .save_text(p, XLMR_BASE),
                     lambda p: GateSet.load_text(p, XLMR_BASE).save_text(p, XLMR_BASE)),
        "soft.txt": (lambda p: GateSet.from_values(XLMR_BASE, soft)
                     .save_text(p, XLMR_BASE),
                     lambda p: GateSet.load_text(p, XLMR_BASE).save_text(p, XLMR_BASE)),
        "ds.csv": (lambda p: init_ds(tables, weights, grid).save_csv(p),
                   lambda p: DSParams.load_csv(p, universe, grid).save_csv(p)),
    }
    for name, (write, reload_and_write) in writers.items():
        path = tmp_path / name
        write(path)
        before = path.read_bytes()
        reload_and_write(path)
        assert path.read_bytes() == before, name
