"""Acceptance gate: one test per release criterion, one printed verdict each.

Every test computes its measurements first, emits a single PASS/FAIL line
(echoed immediately and repeated uncaptured in the terminal summary), and
only then asserts.  Tolerances are pinned here and must not be loosened to
make a run green.
"""

import csv
import functools
import multiprocessing
import os
import sys
import time
import traceback

import numpy as np
import pytest
from scipy import stats

from prunelab.analysis import compact_model, hamming_matrix, time_forwards
from prunelab.cli import main as cli_main
from prunelab.corpus import LanguageSpec, build_inventories, gen_corpus, mlm_batches
from prunelab.ds import DEFAULT_GRID, ds_gate, init_ds, solve_ds_params, subnetwork_at
from prunelab.encoder import (GateSet, KIND_RANK, Model, ModelConfig, XLMR_BASE,
                              component_universe, component_weights, count_params,
                              encoder_forward, gate_tensors)
from prunelab.grad_prune import (NON_SHARED, SHARED, ImportanceTable, build_profile,
                                 select_threshold)
from prunelab.trainer import TrainSchedule, pretrain_baseline, run_l0_pruning

from conftest import record_verdict
from fdcheck import ALL_OPS, run_case

TOY = ModelConfig(n_layers=2, n_heads=2, model_dim=16, ffn_dim=32,
                  vocab_size=86, max_seq_len=32)

EIGHT = [("en", "Indo-European"), ("de", "Indo-European"),
         ("ar", "Afro-Asiatic"), ("he", "Afro-Asiatic"),
         ("tr", "Turkic"), ("kk", "Turkic"),
         ("fi", "Uralic"), ("hu", "Uralic")]

REPORTS_DIR = os.path.join(os.path.dirname(__file__), "..", "reports")


def criterion(number, name):
    """Print exactly one verdict line per criterion, pass or fail."""

    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException as exc:
                msg = str(exc).splitlines()[0] if str(exc) else repr(exc)
                _say(number, name, False, msg)
                raise
            _say(number, name, True, detail)

        return run

    return wrap


def _say(number, name, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {number:02d} {verdict} [{name}] {detail}"
    print(line, file=sys.__stdout__, flush=True)
    record_verdict(line)


def _eight_specs():
    return build_inventories(
        [LanguageSpec(c, f, 300, 100 + i) for i, (c, f) in enumerate(EIGHT)],
        inventory_size=12)


@pytest.fixture(scope="module")
def eight_corpus():
    return gen_corpus(_eight_specs(), seed=9)


@pytest.fixture(scope="module")
def eight_baseline(eight_corpus):
    sched = TrainSchedule(total_steps=1500, batch_size=32, seq_len=16,
                          learning_rate=3e-3, seed=1)
    start = time.perf_counter()
    result = pretrain_baseline(TOY, eight_corpus, sched)
    return result.model, time.perf_counter() - start


def _gate_learning_schedule(lambda2):
    return TrainSchedule(total_steps=24000, batch_size=16, seq_len=16,
                         learning_rate=1e-3, alpha_lr=0.8, target_size=0.5,
                         setting=NON_SHARED, algorithm="l0_improved",
                         lambda1=8.0, lambda2=lambda2, seed=1)


def _gate_learning(corpus, baseline, lambda2):
    """One gate-learning run from the baseline, with its seconds, pretraining included."""
    model, pre_elapsed = baseline
    start = time.perf_counter()
    result = run_l0_pruning(model, corpus, _gate_learning_schedule(lambda2))
    return result, pre_elapsed + time.perf_counter() - start


def _send_control(conn, corpus, baseline):
    """The worker: send the lambda2 = 0 run, or a traceback.

    Gate sets travel as their value vectors: a pickled GateSet would bring
    its per-layer views back as copies apart from its values.
    """
    try:
        result, elapsed = _gate_learning(corpus, baseline, 0.0)
        result.gatesets = {lang: gs.values for lang, gs in result.gatesets.items()}
        conn.send((result, elapsed))
    except BaseException:
        conn.send(traceback.format_exc())
    finally:
        conn.close()


@pytest.fixture(scope="module")
def gate_learning_runs(eight_corpus, eight_baseline):
    """The lambda2 = 1 run here and its lambda2 = 0 control in a forked worker, side by side.

    Each run times itself, so the two elapsed times still add up as if the
    runs were sequential.  The worker is joined before the fixture returns.
    """
    fork = multiprocessing.get_context("fork")
    receive, send = fork.Pipe(duplex=False)
    worker = fork.Process(target=_send_control, args=(send, eight_corpus, eight_baseline))
    worker.start()
    send.close()
    try:
        improved = _gate_learning(eight_corpus, eight_baseline, 1.0)
        # a worker that hangs (a fork of a multithreaded process can) fails the
        # fixture within ACCEPTANCE 06's time bound instead of blocking it
        if not receive.poll(1800):
            raise TimeoutError("the control run sent nothing within 1800 s")
        reply = receive.recv()
    finally:
        worker.terminate()  # stops it when the run here failed; harmless after its reply
        worker.join()
    if isinstance(reply, str):
        raise RuntimeError(f"the control run failed in its worker:\n{reply}")
    control, elapsed = reply
    control.gatesets = {lang: GateSet(TOY, values) for lang, values in control.gatesets.items()}
    return improved, (control, elapsed)


@pytest.fixture(scope="module")
def improved_run(gate_learning_runs):
    return gate_learning_runs[0]


@pytest.fixture(scope="module")
def control_run(gate_learning_runs):
    return gate_learning_runs[1]


def _mean_offdiag(matrix):
    n = matrix.shape[0]
    mask = ~np.eye(n, dtype=bool)
    return float(matrix[mask].mean())


def _random_hard_gateset(config, rng, p_keep=None):
    if p_keep is None:
        p_keep = rng.uniform(0.15, 0.85)
    universe = component_universe(config)
    bits = (rng.random(len(universe)) < p_keep).astype(float)
    return GateSet.from_values(config, bits)


@criterion(1, "parameter accounting")
def test_criterion_01_parameter_accounting():
    counts = count_params(XLMR_BASE, GateSet.ones(XLMR_BASE))
    emb, enc, total = (counts["embedding_params"], counts["encoder_params"],
                       counts["total_params"])
    share = emb / total
    emb_err = abs(emb - 193e6) / 193e6
    enc_err = abs(enc - 86e6) / 86e6
    assert emb_err <= 0.02, f"embedding {emb} off 193M by {emb_err:.2%}"
    assert enc_err <= 0.02, f"encoder {enc} off 86M by {enc_err:.2%}"
    assert abs(share - 0.69) <= 0.01, f"embedding share {share:.4f} not 69% +/- 1%"
    return (f"embedding {emb} ({emb_err:.3%} from 193M), encoder {enc} "
            f"({enc_err:.3%} from 86M), share {share:.2%}")


@criterion(2, "autodiff vs finite differences")
def test_criterion_02_autodiff():
    start = time.perf_counter()
    cases, worst = 0, 0.0
    for i, op in enumerate(ALL_OPS):
        for j in range(6):
            err = run_case(op, np.random.default_rng([2024, i, j]))
            worst = max(worst, err)
            cases += 1
            assert err < 1e-4, f"{op} case {j}: rel err {err:.2e} >= 1e-4"
    assert cases >= 100
    return (f"{cases} cases over {len(ALL_OPS)} ops, worst rel err "
            f"{worst:.2e} (< 1e-4) in {time.perf_counter() - start:.1f}s")


@criterion(3, "dynamic sparsification closed form")
def test_criterion_03_ds_closed_form():
    rng = np.random.default_rng(33)
    for k in range(1000):
        t_hat = float(rng.uniform(1e-6, 1.0))
        delta = float(t_hat * rng.uniform(1e-9, 1.0))
        alpha, theta = solve_ds_params(t_hat, delta)
        at_boundary = float(ds_gate(alpha, theta, t_hat))
        below = float(ds_gate(alpha, theta, t_hat - delta))
        assert at_boundary == 1.0, f"pair {k}: gate at t_hat is {at_boundary}"
        assert below == 0.0, f"pair {k}: gate at t_hat - delta is {below}"

    big = ModelConfig(n_layers=2, n_heads=2, model_dim=516, ffn_dim=240,
                      vocab_size=8, max_seq_len=8)
    universe = component_universe(big)
    assert len(universe) == 1000
    scores = dict(zip(universe, np.abs(rng.normal(size=len(universe))) + 1e-9))
    table = ImportanceTable(scores=scores, language="xx", n_batches=1)
    ds = init_ds({"xx": table}, component_weights(big), DEFAULT_GRID)
    masks = [subnetwork_at(ds, t, "xx", big).to_vector().astype(bool)
             for t in DEFAULT_GRID]
    for lo, hi, t in zip(masks, masks[1:], DEFAULT_GRID[1:]):
        assert not np.any(lo & ~hi), f"mask at smaller size not nested within t={t}"
    return ("1000 random (t_hat, delta) pairs land exactly on both boundaries; "
            f"masks nest across all {len(DEFAULT_GRID)} grid sizes on a "
            f"{len(universe)}-component ranking")


@criterion(4, "gradient pruning hits weighted size targets")
def test_criterion_04_sparsity_targeting():
    start = time.perf_counter()
    specs = _eight_specs()[:3]
    corpus = gen_corpus(specs, seed=9)
    sched = TrainSchedule(total_steps=300, batch_size=32, seq_len=16,
                          learning_rate=3e-3, seed=0)
    model = pretrain_baseline(TOY, corpus, sched).model
    batches = {lang: list(mlm_batches(corpus, n_batches=8, batch_size=16,
                                      seq_len=16, mask_rate=0.15, seed=[0, 4, i],
                                      languages=[lang]))
               for i, lang in enumerate(corpus.languages())}
    universe = component_universe(TOY)
    wvec = component_weights(TOY)
    enc = np.array([c.split(",")[0] != KIND_RANK for c in universe])
    wmax = float(wvec.max())
    worst_full = worst_enc = 0.0
    for step in range(1, 10):
        t = step / 10.0
        gatesets, _ = build_profile(model, batches, SHARED, t, wvec)
        vec = gatesets[SHARED].to_vector()
        dev_full = abs(float((vec * wvec).sum()) - t * wvec.sum())
        dev_enc = abs(float((vec[enc] * wvec[enc]).sum()) - t * wvec[enc].sum())
        worst_full = max(worst_full, dev_full)
        worst_enc = max(worst_enc, dev_enc)
        assert dev_full <= wmax, f"t={t}: all-component deviation {dev_full} > {wmax}"
        assert dev_enc <= wmax, f"t={t}: encoder deviation {dev_enc} > {wmax}"
    return (f"targets 0.1..0.9: worst weighted deviation {worst_full:.1f} "
            f"(all components) / {worst_enc:.1f} (encoder only), bound {wmax:.0f}; "
            f"{time.perf_counter() - start:.0f}s")


@criterion(5, "gated and compacted forwards agree")
def test_criterion_05_structural_equivalence():
    config = ModelConfig(n_layers=2, n_heads=2, model_dim=8, ffn_dim=6,
                         vocab_size=29, max_seq_len=16)
    model = Model.init(config, seed=7)
    rng = np.random.default_rng(55)
    tokens = rng.integers(3, config.vocab_size, size=(3, 10))
    tokens[1, 7:] = 0
    worst = 0.0
    for _ in range(50):
        gs = _random_hard_gateset(config, rng)
        gated = encoder_forward(model, tokens, gate_tensors(gs), pad_id=0).data
        compact = compact_model(model, gs).logits(tokens, pad_id=0)
        worst = max(worst, float(np.max(np.abs(gated - compact))))
        assert worst <= 1e-10, f"gated vs compacted logits differ by {worst:.2e}"
    return f"50 random hard gate sets: max |logit difference| {worst:.2e} (<= 1e-10)"


@pytest.mark.slow
@criterion(6, "improved L0 hits target with diverse subnetworks")
def test_criterion_06_improved_l0(improved_run, control_run):
    result, elapsed_main = improved_run
    control, elapsed_ctrl = control_run
    families = dict(EIGHT)
    sizes = dict(sorted(result.achieved_sizes.items()))
    worst = max(abs(v - 0.5) for v in sizes.values())

    langs, main_mat = hamming_matrix(result.gatesets)
    _, ctrl_mat = hamming_matrix(control.gatesets)
    mean_main = _mean_offdiag(main_mat)
    mean_ctrl = _mean_offdiag(ctrl_mat)
    same, cross = [], []
    for i, a in enumerate(langs):
        for j in range(i + 1, len(langs)):
            pair = same if families[a] == families[langs[j]] else cross
            pair.append(main_mat[i, j])
    same_mean, cross_mean = float(np.mean(same)), float(np.mean(cross))
    elapsed = elapsed_main + elapsed_ctrl

    assert worst <= 0.05, f"retained fractions {sizes} stray {worst:.4f} from t=0.5"
    assert mean_main - mean_ctrl >= 0.02, (
        f"diversity uplift {mean_main - mean_ctrl:.4f} < 0.02 "
        f"(with prior {mean_main:.4f}, control {mean_ctrl:.4f})")
    assert same_mean < cross_mean, (
        f"same-family mean {same_mean:.4f} !< cross-family mean {cross_mean:.4f}")
    assert elapsed < 1800, f"run took {elapsed:.0f}s, budget 1800s"
    return (f"retained within {worst:.4f} of t=0.5 for all 8 languages; mean "
            f"Hamming {mean_main:.4f} vs control {mean_ctrl:.4f} "
            f"(uplift {mean_main - mean_ctrl:.4f} >= 0.02); same-family "
            f"{same_mean:.4f} < cross-family {cross_mean:.4f}; {elapsed:.0f}s")


@pytest.mark.slow
@criterion(7, "one ds-train run serves every sparsity")
def test_criterion_07_ds_sweep(tmp_path_factory):
    start = time.perf_counter()
    work = tmp_path_factory.mktemp("ds-sweep")
    corpus = str(work / "corpus.json")
    runs = str(work / "runs")
    common = ["--out-root", runs, "--seed", "21"]
    assert cli_main(["gen-corpus", "--out", corpus, "--languages", "3",
                     "--seed", "21"]) == 0
    assert cli_main(["pretrain", "--corpus", corpus, "--steps", "1500",
                     "--batch-size", "32", "--lr", "3e-3", "--seq-len", "16",
                     "--layers", "2", "--heads", "2", "--dim", "16",
                     "--ffn-dim", "32", "--max-seq-len", "32"] + common) == 0
    assert cli_main(["ds-train", "--algo", "ds-grad", "--corpus", corpus,
                     "--baseline", os.path.join(runs, "pretrain-s21"),
                     "--setting", "shared", "--steps", "4000",
                     "--batch-size", "16", "--lr", "1e-3",
                     "--seq-len", "16"] + common) == 0
    assert cli_main(["sweep", "--corpus", corpus,
                     "--run", os.path.join(runs, "ds-grad-s21"),
                     "--grid", "0.2:1.0:0.2"] + common) == 0

    with open(os.path.join(runs, "ds-grad-s21", "sweep.csv")) as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 5, f"expected 5 sweep rows, got {len(rows)}"
    sizes = [float(r["t"]) for r in rows]
    accs = [float(r["probe_accuracy"]) for r in rows]
    rho = float(stats.spearmanr(sizes, accs).statistic)
    elapsed = time.perf_counter() - start
    assert rho > 0.0, f"Spearman(size, probe accuracy) = {rho:.3f} not positive"
    assert elapsed < 2700, f"pipeline took {elapsed:.0f}s, budget 2700s"
    pairs = ", ".join(f"t={t:g}:{a:.3f}" for t, a in zip(sizes, accs))
    return f"Spearman {rho:.3f} > 0 over {pairs}; single ds-train, {elapsed:.0f}s"


@criterion(8, "compaction speeds up inference")
def test_criterion_08_throughput_direction():
    start = time.perf_counter()
    config = ModelConfig(n_layers=2, n_heads=4, model_dim=64, ffn_dim=256,
                         vocab_size=600, max_seq_len=64)
    model = Model.init(config, seed=3)
    universe = component_universe(config)
    weights = component_weights(config)
    rng = np.random.default_rng(88)
    table = ImportanceTable(
        scores=dict(zip(universe, np.abs(rng.normal(size=len(universe))) + 1e-9)),
        language=SHARED, n_batches=1)
    sparse_cm = compact_model(model, select_threshold(table, weights, 0.1, config))
    dense_cm = compact_model(model, select_threshold(table, weights, 0.9, config))
    sparse_sps, dense_sps, doubled_sps = time_forwards(
        [(sparse_cm, 8), (dense_cm, 8), (sparse_cm, 16)], 64, reps=25)
    elapsed = time.perf_counter() - start
    assert sparse_sps > dense_sps, (
        f"90%-sparse {sparse_sps:.0f} sent/s not above 10%-sparse {dense_sps:.0f}")
    assert doubled_sps > sparse_sps, (
        f"doubling batch: {doubled_sps:.0f} sent/s not above {sparse_sps:.0f}")
    return (f"90% sparse {sparse_sps:.0f} > 10% sparse {dense_sps:.0f} sent/s; "
            f"batch 8->16 gives {doubled_sps:.0f} > {sparse_sps:.0f}; "
            f"{elapsed:.0f}s")


@criterion(9, "subnetwork distance behaves like a metric")
def test_criterion_09_hamming_metric():
    config = ModelConfig(n_layers=2, n_heads=2, model_dim=8, ffn_dim=6,
                         vocab_size=29, max_seq_len=16)

    def triple(k):
        rng = np.random.default_rng([99, k])
        return {name: _random_hard_gateset(config, rng) for name in "abc"}

    for k in range(100):
        _, mat = hamming_matrix(triple(k))
        assert np.all(np.diagonal(mat) == 0.0), f"triple {k}: nonzero diagonal"
        assert np.array_equal(mat, mat.T), f"triple {k}: asymmetric distances"
        d_ab, d_ac, d_bc = mat[0, 1], mat[0, 2], mat[1, 2]
        for lhs, a, b in ((d_ab, d_ac, d_bc), (d_ac, d_ab, d_bc), (d_bc, d_ab, d_ac)):
            assert lhs <= a + b + 1e-12, f"triple {k}: triangle inequality fails"

    once = [hamming_matrix(triple(k))[1] for k in range(100)]
    again = [hamming_matrix(triple(k))[1] for k in range(100)]
    assert all(np.array_equal(x, y) for x, y in zip(once, again)), (
        "regenerating the same seeds changed some distance bitwise")
    return ("100 seeded triples: zero diagonal, exact symmetry, triangle "
            "inequality, and bitwise-identical recomputation")


@pytest.mark.slow
@criterion(10, "vanilla L0 is uncontrollable; improved hits the target")
def test_criterion_10_controllability_report(improved_run):
    csv_path = os.path.join(REPORTS_DIR, "vanilla_l0_sweep.csv")
    md_path = os.path.join(REPORTS_DIR, "vanilla_l0_sweep.md")
    assert os.path.exists(csv_path), f"missing checked-in report {csv_path}"
    assert os.path.exists(md_path), f"missing checked-in report {md_path}"
    with open(csv_path) as f:
        rows = list(csv.DictReader(f))
    assert len(rows) >= 5, f"sweep report has only {len(rows)} lambda1 rows"
    for row in rows:
        assert 0.0 <= float(row["sparsity"]) <= 1.0
        assert float(row["lambda1"]) > 0.0
    spread = [float(r["sparsity"]) for r in rows]

    result, _ = improved_run
    sizes = dict(sorted(result.achieved_sizes.items()))
    worst = max(abs(v - 0.5) for v in sizes.values())
    assert worst <= 0.05, f"improved-L0 retained fractions stray {worst:.4f} from t"
    return (f"report-only: vanilla sweep sparsities span {min(spread):.2f}.."
            f"{max(spread):.2f} across {len(rows)} lambda1 values with no target "
            f"control; asserted: improved L0 within {worst:.4f} of t=0.5 "
            "for every language")
