"""The three benchmark workloads, their operations and the checks on their outputs.

Each workload builds its inputs from the seed in ``setup`` and returns, for
one iteration, a list of operations.  An operation is one CLI command (run
in-process through ``prunelab.cli.main``) or one library call sequence, and
a check that parses what it wrote.  Paths are relative to the iteration
directory, so manifests, and with them the artifact digests, do not depend
on where the benchmark runs.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import time
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass
from typing import Callable

import numpy as np

import prunelab.ds
import prunelab.encoder
import prunelab.grad_prune
import prunelab.trainer
from prunelab import cli
from prunelab.analysis import compact_model
from prunelab.corpus import LanguageSpec, build_inventories, gen_corpus
from prunelab.ds import subnetwork_at
from prunelab.encoder import (GateSet, Model, ModelConfig, component_universe,
                              count_params, encoder_forward, gate_tensors)
from prunelab.grad_prune import ImportanceTable
from prunelab.tensor import no_grad
from prunelab.trainer import TrainSchedule

TOY_MODEL = ["--layers", "2", "--heads", "2", "--dim", "16", "--ffn-dim", "32",
             "--seq-len", "16", "--max-seq-len", "32"]

# throughput columns vary run to run; every other byte of every artifact is
# covered by the determinism digest
TIMING_COLUMNS = {"sweep.csv": "sentences_per_sec", "bench.csv": "sentences_per_sec"}


class CheckError(Exception):
    """An operation's output failed its check."""


def _require(cond: bool, msg: str):
    if not cond:
        raise CheckError(msg)


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[], None]
    tokens: int = 0  # steps * batch * seq_len of a training command
    sentences: Callable[[], int] | None = None  # sentences a bench forwarded


@dataclass
class OpResult:
    name: str
    seconds: float
    error: str = ""
    tokens: int = 0
    sentences: int = 0


@dataclass
class Iteration:
    ops: list[OpResult]
    elapsed: float  # including checks and digests
    digests: dict[str, str]
    traced: bool

    @property
    def ok(self) -> bool:
        return all(not r.error for r in self.ops)


def _cli(argv: list[str]) -> Callable[[], int]:
    return lambda: cli.main([str(a) for a in argv])


# ---------------------------------------------------------------------------
# Checks


def _rows(path) -> list[dict]:
    with open(path) as f:
        return list(csv.DictReader(f))


def _finite(value: str, what: str) -> float:
    x = float(value)
    _require(math.isfinite(x), f"{what} is not finite: {value}")
    return x


def universe_keys(config: ModelConfig) -> set[str]:
    return {str(cid) for cid in component_universe(config)}


def check_metrics(path, steps: int):
    rows = _rows(path)
    _require(len(rows) == steps, f"{path}: {len(rows)} rows, expected {steps}")
    for r in rows:
        _finite(r["loss"], f"{path} loss at step {r['step']}")


def check_gates(path, keys: set[str]):
    """A gates file names every component exactly once with a 0/1 value."""
    seen = []
    with open(path) as f:
        for line in f:
            kind, layer, index, value = line.strip().split(",")
            _require(value in ("0", "1"), f"{path}: gate value {value!r}")
            seen.append(f"{kind},{layer},{index}")
    _require(len(seen) == len(keys) and set(seen) == keys,
             f"{path}: {len(set(seen) & keys)} of {len(keys)} components covered")


def check_ds(path, keys: set[str], languages: list[str]):
    found: dict[str, set] = {}
    n = 0
    with open(path) as f:
        _require(f.readline().strip() == "language,kind,layer,index,alpha,theta,t_hat,delta",
                 f"{path}: bad header")
        for line in f:
            lang, kind, layer, index, *vals = line.strip().split(",")
            _require(len(vals) == 4, f"{path}: short row {line.strip()!r}")
            for v in vals:
                _finite(v, f"{path} value")
            found.setdefault(lang, set()).add(f"{kind},{layer},{index}")
            n += 1
    _require(sorted(found) == sorted(languages), f"{path}: languages {sorted(found)}")
    _require(n == len(keys) * len(languages) and all(s == keys for s in found.values()),
             f"{path}: tables do not cover the component universe")


def check_size_curve(path, dense_total: int, languages: list[str]):
    rows = _rows(path)
    for lang in languages:
        mine = sorted((float(r["t"]), int(r["total_params"])) for r in rows
                      if r["language"] == lang)
        _require(bool(mine), f"{path}: no rows for {lang}")
        sizes = [p for _, p in mine]
        _require(all(a <= b for a, b in zip(sizes, sizes[1:])),
                 f"{path}: total_params decreases in t for {lang}")
        _require(mine[-1] == (1.0, dense_total),
                 f"{path}: {lang} at t={mine[-1][0]} has {mine[-1][1]} params, "
                 f"dense model has {dense_total}")


def check_bench(path, batch_size: int, seq_len: int) -> int:
    rows = _rows(path)
    _require(len(rows) >= 1, f"{path}: no rows")
    for r in rows:
        _require(_finite(r["sentences_per_sec"], "throughput") > 0.0, f"{path}: zero throughput")
        _require(int(r["batch_size"]) == batch_size and int(r["seq_len"]) == seq_len,
                 f"{path}: unexpected shape")
    return len(rows)


def check_corpus(root, n_languages: int):
    langs = _rows(os.path.join(root, "languages.csv"))
    _require(len(langs) == n_languages, f"{root}: {len(langs)} languages")
    for r in langs:
        with open(os.path.join(root, f"{r['id']}.txt")) as f:
            _require(sum(1 for _ in f) > 0, f"{root}: empty language {r['id']}")
    with open(os.path.join(root, "manifest.json")) as f:
        json.load(f)


def run_config(run_dir) -> ModelConfig:
    with open(os.path.join(run_dir, "model.json")) as f:
        return ModelConfig(**json.load(f))


def digest_tree(root, skip=()) -> dict[str, str]:
    """sha256 of every file under root, throughput columns left out."""
    out = {}
    for base, dirs, files in os.walk(root):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            rel = os.path.relpath(path, root)
            if rel in skip:
                continue
            with open(path, "rb") as f:
                data = f.read()
            if name in TIMING_COLUMNS:
                rows = list(csv.reader(io.StringIO(data.decode())))
                col = rows[0].index(TIMING_COLUMNS[name])
                data = "\n".join(",".join(r[:col] + r[col + 1:]) for r in rows).encode()
            out[rel] = hashlib.sha256(data).hexdigest()
    return out


def run_iteration(workload, workdir, recorder=None, fault=None) -> Iteration:
    """Run one iteration's operations in a fresh directory.

    An operation fails when it raises, returns a non-zero exit code, or its
    output fails the check; the rest of that iteration is then skipped.
    ``fault(op_name)`` runs between an operation and its check, so tests can
    damage an artifact the way a faulty program would.
    """
    # the recorder records during operations only, never during checks
    recording = recorder.recording if recorder is not None else nullcontext
    start = time.perf_counter()
    os.makedirs(workdir)
    cwd = os.getcwd()
    os.chdir(workdir)
    results: list[OpResult] = []
    try:
        for op in workload.operations():
            error = ""
            t0 = time.perf_counter()
            try:
                with recording(), redirect_stdout(io.StringIO()):
                    rc = op.run()
                if rc not in (None, 0):
                    error = f"exit code {rc}"
            except Exception as e:  # an operation that raises is counted, not fatal
                error = f"{type(e).__name__}: {e}"
            seconds = time.perf_counter() - t0
            sentences = 0
            if not error:
                try:
                    if fault is not None:
                        fault(op.name)
                    op.check()
                    sentences = op.sentences() if op.sentences else 0
                except Exception as e:  # CheckError, or an artifact that does not parse
                    error = f"check failed: {type(e).__name__}: {e}"
            results.append(OpResult(op.name, seconds, error, op.tokens, sentences))
            if error:
                break
        digests = digest_tree(".", workload.digest_skip) if all(not r.error for r in results) else {}
    finally:
        os.chdir(cwd)
    return Iteration(results, time.perf_counter() - start, digests, recorder is not None)


# ---------------------------------------------------------------------------
# Workloads


class Walkthrough:
    """The README CLI walkthrough at toy shape, shared setting, 3 languages."""

    name = "walkthrough"
    SIZES = {
        "full": dict(languages=3, pretrain_steps=100, ds_steps=160, grid="0.2:1.0:0.4",
                     epochs=1),
        "smoke": dict(languages=2, pretrain_steps=8, ds_steps=8, grid="0.2:1.0:0.4",
                      epochs=1),
    }
    # gen-corpus draws each language's size log-uniformly from its seed, so
    # the corpus seed is fixed to keep the work the same on every run seed;
    # the run seed drives initialization, batches and probe splits
    CORPUS_SEED = 11
    digest_skip = ()

    def __init__(self, seed: int, root: str, size: str = "full"):
        self.seed, self.size = seed, self.SIZES[size]

    def setup(self):
        """Every step of the walkthrough is measured; there is nothing to build."""

    def operations(self) -> list[Op]:
        z, s = self.size, self.seed
        common = ["--out-root", "runs", "--seed", s]
        pre, ds = f"runs/pretrain-s{s}", f"runs/ds-grad-s{s}"
        grid = cli.parse_grid(z["grid"])

        def check_pretrain():
            check_metrics(f"{pre}/metrics.csv", z["pretrain_steps"])
            Model.load(pre)

        def check_ds_train():
            check_metrics(f"{ds}/metrics.csv", z["ds_steps"])
            check_ds(f"{ds}/ds.csv", universe_keys(run_config(ds)), ["shared"])

        def check_sweep():
            rows = _rows(f"{ds}/sweep.csv")
            _require(len(rows) == len(grid), f"sweep: {len(rows)} rows for {len(grid)} sizes")
            for r in rows:
                _require(0.0 <= _finite(r["probe_accuracy"], "accuracy") <= 1.0, "accuracy")

        def check_report():
            config = run_config(ds)
            dense = count_params(config, GateSet.ones(config))["total_params"]
            check_size_curve(f"{ds}/report_size-curve_ds-grad-s{s}.csv", dense, ["shared"])

        return [
            Op("gen-corpus", _cli(["gen-corpus", "--out", "corpus", "--languages",
                                   z["languages"], "--seed", self.CORPUS_SEED]),
               lambda: check_corpus("corpus", z["languages"])),
            Op("pretrain", _cli(["pretrain", "--corpus", "corpus", "--steps", z["pretrain_steps"],
                                 "--batch-size", 32, "--lr", 3e-3, *TOY_MODEL, *common]),
               check_pretrain, tokens=z["pretrain_steps"] * 32 * 16),
            Op("ds-train", _cli(["ds-train", "--algo", "ds-grad", "--corpus", "corpus",
                                 "--baseline", f"pretrain-s{s}", "--setting", "shared",
                                 "--steps", z["ds_steps"], "--batch-size", 16, "--lr", 1e-3,
                                 "--seq-len", 16, *common]),
               check_ds_train, tokens=z["ds_steps"] * 16 * 16),
            Op("sweep", _cli(["sweep", "--corpus", "corpus", "--run", f"ds-grad-s{s}",
                              "--grid", z["grid"], "--epochs", z["epochs"], *common]),
               check_sweep),
            Op("bench", _cli(["bench", "--run", f"ds-grad-s{s}", "--batch-size", 8,
                              "--seq-len", 32, *common]),
               lambda: check_bench(f"{ds}/bench.csv", 8, 32)),
            Op("report", _cli(["report", "--run", f"ds-grad-s{s}", "--figure", "size-curve",
                               "--out-root", "runs"]),
               check_report),
        ]


# acceptance 06's eight languages, two per family
EIGHT = [("en", "Indo-European"), ("de", "Indo-European"), ("ar", "Afro-Asiatic"),
         ("he", "Afro-Asiatic"), ("tr", "Turkic"), ("kk", "Turkic"),
         ("fi", "Uralic"), ("hu", "Uralic")]


class GateLearning:
    """Improved L0 then DS-L0, non-shared over eight languages, toy shape."""

    name = "gate-learning"
    SIZES = {
        "full": dict(sentences=300, baseline_steps=100, l0_steps=400, ds_steps=240),
        "smoke": dict(sentences=60, baseline_steps=8, l0_steps=16, ds_steps=16),
    }
    digest_skip = ()

    def __init__(self, seed: int, root: str, size: str = "full"):
        self.seed, self.size = seed, self.SIZES[size]
        self.inputs = os.path.join(root, "inputs")

    def setup(self):
        specs = build_inventories([LanguageSpec(c, f, self.size["sentences"], 100 + i)
                                   for i, (c, f) in enumerate(EIGHT)], inventory_size=12)
        gen_corpus(specs, seed=self.seed).save(os.path.join(self.inputs, "corpus"))
        rc = cli.main([str(a) for a in [
            "pretrain", "--corpus", os.path.join(self.inputs, "corpus"),
            "--steps", self.size["baseline_steps"], "--batch-size", 32, "--lr", 3e-3,
            *TOY_MODEL, "--out-root", os.path.join(self.inputs, "runs"),
            "--run-id", "baseline", "--seed", self.seed]])
        if rc != 0:
            raise RuntimeError(f"gate-learning set-up: pretrain exited {rc}")

    def operations(self) -> list[Op]:
        z, s = self.size, self.seed
        langs = sorted(c for c, _ in EIGHT)
        inputs = ["--corpus", "../inputs/corpus", "--baseline", "../inputs/runs/baseline",
                  "--setting", "non-shared", "--batch-size", 16, "--seq-len", 16,
                  "--lr", 1e-3, "--out-root", "runs", "--seed", s]
        l0, ds = f"runs/prune-l0-improved-s{s}", f"runs/ds-l0-s{s}"

        def check_l0():
            check_metrics(f"{l0}/metrics.csv", z["l0_steps"])
            keys = universe_keys(run_config(l0))
            for lang in langs:
                check_gates(f"{l0}/gates_{lang}.txt", keys)
            alphas = _rows(f"{l0}/alphas.csv")
            _require(len(alphas) == len(keys) * len(langs), f"alphas.csv: {len(alphas)} rows")
            for r in alphas:
                _finite(r["alpha"], "alpha")

        def check_ds_l0():
            check_metrics(f"{ds}/metrics.csv", z["ds_steps"])
            check_ds(f"{ds}/ds.csv", universe_keys(run_config(ds)), langs)

        return [
            Op("prune", _cli(["prune", "--algo", "l0-improved", "--steps", z["l0_steps"],
                              "--alpha-lr", 0.8, "--target-size", 0.5, *inputs]),
               check_l0, tokens=z["l0_steps"] * 16 * 16),
            Op("ds-train", _cli(["ds-train", "--algo", "ds-l0", "--steps", z["ds_steps"],
                                 "--importance-batches", 4, *inputs]),
               check_ds_l0, tokens=z["ds_steps"] * 16 * 16),
        ]


class XlmrGrid:
    """Post-training analysis at the XLM-R-base encoder shape, two languages."""

    name = "xlmr-grid"
    # two languages and a three-point DS grid keep one iteration near 25 s
    LANGS = ("ar", "en")
    SIZES = {
        # vocabulary cut from 250k so that peak RSS stays near 2 GB
        "full": dict(config=ModelConfig(n_layers=12, n_heads=12, model_dim=768, ffn_dim=3072,
                                        vocab_size=8192, max_seq_len=512),
                     bench_grid="0.5:1.0:0.5", bench_seq=64, reps=3),
        "smoke": dict(config=ModelConfig(n_layers=2, n_heads=4, model_dim=32, ffn_dim=64,
                                         vocab_size=200, max_seq_len=64),
                      bench_grid="0.5:1.0:0.5", bench_seq=16, reps=3),
    }
    DS_GRID = (0.0, 0.5, 1.0)
    CHECK_T = 0.5
    digest_skip = ("run/model.json", "run/weights.gcpt")

    def __init__(self, seed: int, root: str, size: str = "full"):
        self.seed, self.size = seed, self.SIZES[size]
        self.config = self.size["config"]
        self.inputs = os.path.join(root, "inputs")
        self._ds = None

    def setup(self):
        """Seeded weights and seeded importance tables, written as a grad run would."""
        os.makedirs(self.inputs, exist_ok=True)
        Model.init(self.config, self.seed).save(self.inputs)
        universe = component_universe(self.config)
        for i, lang in enumerate(self.LANGS):
            scores = np.random.default_rng([self.seed, i]).random(len(universe))
            ImportanceTable(dict(zip(universe, scores.tolist())), lang, 1).save_csv(
                os.path.join(self.inputs, f"importance_{lang}.csv"))
        self.keys = universe_keys(self.config)
        self.dense_total = count_params(self.config, GateSet.ones(self.config))["total_params"]

    def build_tables(self):
        """Threshold and DS tables from the importance tables, as gates_*.txt and ds.csv.

        Library functions are looked up through their modules, so that the
        traced run's wrappers see these calls.
        """
        config = self.config
        os.makedirs("run")
        for name in ("model.json", "weights.gcpt"):
            os.link(os.path.join(self.inputs, name), os.path.join("run", name))
        tables = {lang: ImportanceTable.load_csv(
            os.path.join(self.inputs, f"importance_{lang}.csv"), lang) for lang in self.LANGS}
        weights = prunelab.encoder.component_weights(config)
        for lang, table in tables.items():
            prunelab.grad_prune.select_threshold(table, weights, 0.5, config).save_text(
                f"run/gates_{lang}.txt", config)
        self._ds = prunelab.ds.init_ds(tables, weights, self.DS_GRID)
        self._ds.save_csv("run/ds.csv")
        prunelab.trainer.write_manifest(
            "run", TrainSchedule(total_steps=0, algorithm="ds_grad", setting="non-shared",
                                 grid=self.DS_GRID),
            config, extra={"command": "ds-train", "run_id": "run"})

    def operations(self) -> list[Op]:
        z = self.size
        langs = list(self.LANGS)

        def check_tables():
            for lang in langs:
                check_gates(f"run/gates_{lang}.txt", self.keys)
            check_ds("run/ds.csv", self.keys, langs)

        def check_hamming():
            with open("run/report_hamming_run.csv") as f:
                rows = list(csv.reader(f))
            _require(rows[0][1:] == langs, f"hamming: languages {rows[0][1:]}")
            mat = np.array([[float(v) for v in r[1:]] for r in rows[1:]])
            _require(mat.shape == (len(langs), len(langs)), "hamming: not square")
            _require(bool(np.all(mat == mat.T)), "hamming: not symmetric")
            _require(bool(np.all(np.diag(mat) == 0.0)), "hamming: non-zero diagonal")
            _require(bool(np.all((mat >= 0.0) & (mat <= 1.0))), "hamming: outside [0, 1]")

        def check_profile():
            rows = _rows("run/report_layer-profile_run.csv")
            _require(len(rows) == len(langs) * self.config.n_layers,
                     f"layer-profile: {len(rows)} rows")
            for r in rows:
                for col in ("head_sparsity", "hidden_sparsity"):
                    _require(0.0 <= float(r[col]) <= 1.0, f"layer-profile: {col}")

        def check_bench_and_logits():
            check_bench("run/bench.csv", 1, z["bench_seq"])
            self._check_logits()

        def bench_sentences():
            return len(_rows("run/bench.csv")) * (z["reps"] + 1)

        return [
            Op("tables", self.build_tables, check_tables),
            Op("report-size-curve", _cli(["report", "--run", "run", "--figure", "size-curve"]),
               lambda: check_size_curve("run/report_size-curve_run.csv", self.dense_total,
                                        langs)),
            Op("report-hamming", _cli(["report", "--run", "run", "--figure", "hamming"]),
               check_hamming),
            Op("report-layer-profile", _cli(["report", "--run", "run", "--figure",
                                             "layer-profile"]),
               check_profile),
            Op("bench", _cli(["bench", "--run", "run", "--grid", z["bench_grid"],
                              "--batch-size", 1, "--seq-len", z["bench_seq"],
                              "--reps", z["reps"]]),
               check_bench_and_logits, sentences=bench_sentences),
        ]

    def _check_logits(self):
        """At one grid point the gated and the compacted model give the same logits."""
        gs = subnetwork_at(self._ds, self.CHECK_T, self.LANGS[0], self.config)
        model = Model.load("run")
        ids = np.random.default_rng([self.seed, 99]).integers(
            3, self.config.vocab_size, size=(2, 16))
        ids[1, 12:] = 0
        with no_grad():
            gated = encoder_forward(model, ids, gate_tensors(gs), pad_id=0).data
        compact = compact_model(model, gs).logits(ids, pad_id=0)
        worst = float(np.max(np.abs(gated - compact)))
        _require(worst <= 1e-10, f"gated and compacted logits differ by {worst:.3e}")


WORKLOADS = {w.name: w for w in (Walkthrough, GateLearning, XlmrGrid)}
