"""Command line interface: config handling, exit codes, full pipeline."""

import argparse
import json
import os
from pathlib import Path

import numpy as np
import pytest

from prunelab import cli
from prunelab.cli import (
    DEFAULT_CONFIG,
    build_parser,
    load_config,
    main,
    parse_grid,
    resolve_config,
)
from prunelab.corpus import Corpus, LanguageSpec, build_inventories, gen_corpus
from prunelab.ds import DEFAULT_GRID, init_ds, subnetwork_at
from prunelab.encoder import GateSet, Model, ModelConfig, component_universe, component_weights
from prunelab.exceptions import ConfigError, InputError
from prunelab.grad_prune import ImportanceTable

# --- grid parsing -----------------------------------------------------------


def test_parse_grid_inclusive_endpoints():
    assert parse_grid("0.1:0.9:0.2") == (0.1, 0.3, 0.5, 0.7, 0.9)
    assert parse_grid("0:1:0.5") == (0.0, 0.5, 1.0)
    assert parse_grid("0.5:0.5:0.1") == (0.5,)


def test_parse_grid_rejects_malformed():
    for text in ("0.5", "0.1:0.9", "a:b:c", "0.1:0.9:0", "0.9:0.1:0.2",
                 "-0.1:0.9:0.2", "0.1:1.5:0.2"):
        with pytest.raises(ConfigError):
            parse_grid(text)


# --- config -----------------------------------------------------------------


def test_load_config_defaults():
    cfg = load_config(None)
    assert cfg == DEFAULT_CONFIG
    assert cfg is not DEFAULT_CONFIG
    cfg["schedule"]["total_steps"] = 1
    assert DEFAULT_CONFIG["schedule"]["total_steps"] != 1


def test_load_config_rejects_unknown_keys(tmp_path):
    cases = [
        {"optimizer": "adam"},
        {"schedule": {"steps": 10}},
        {"model": {"depth": 2}},
    ]
    for i, payload in enumerate(cases):
        path = tmp_path / f"bad{i}.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigError):
            load_config(path)
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(broken)
    listy = tmp_path / "list.json"
    listy.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        load_config(listy)


@pytest.mark.parametrize("payload", [
    {"grid": 5},
    {"grid": ["a"]},
    {"seed": "abc"},
    {"schedule": {"total_steps": "10"}},
    {"schedule": {"lambda1": "big"}},
    {"model": {"n_layers": 1.5}},
])
def test_wrong_typed_config_values_exit_2(tmp_path, capsys, payload):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ConfigError):
        load_config(path)
    assert main(["gen-corpus", "--out", str(tmp_path / "corpus"), "--config", str(path)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "corpus")


def test_config_types_follow_the_defaults(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"schedule": {"learning_rate": 1, "lambda1": None,
                                             "lambda2": 0.5, "setting": "shared"},
                                "grid": [0, 0.5, 1], "seed": 4}))
    cfg = load_config(path)
    assert cfg["schedule"]["learning_rate"] == 1
    assert cfg["schedule"]["lambda1"] is None and cfg["schedule"]["lambda2"] == 0.5
    assert cfg["grid"] == [0.0, 0.5, 1.0] and cfg["seed"] == 4
    for payload in ({"schedule": {"batch_size": True}}, {"schedule": {"mask_rate": False}},
                    {"schedule": {"setting": 1}}, {"schedule": {"seq_len": None}},
                    {"grid": [0.5, True]}, {"grid": {"a": 1}}, {"seed": 1.0}, {"seed": None}):
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigError):
            load_config(path)


def test_config_round_trip_is_identity(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "model": {"n_layers": 3, "model_dim": 48},
        "schedule": {"total_steps": 42, "setting": "shared"},
        "grid": [0.0, 0.5, 1.0],
        "seed": 9,
    }))
    cfg = load_config(path)
    assert cfg["model"]["n_layers"] == 3
    assert cfg["model"]["n_heads"] == DEFAULT_CONFIG["model"]["n_heads"]
    assert cfg["schedule"]["total_steps"] == 42
    assert cfg["grid"] == [0.0, 0.5, 1.0]
    again = tmp_path / "again.json"
    again.write_text(json.dumps(cfg, indent=2, sort_keys=True))
    assert load_config(again) == cfg


def test_flags_override_config_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"schedule": {"total_steps": 42, "batch_size": 4}}))
    parser = build_parser()
    args = parser.parse_args(["pretrain", "--corpus", "x", "--config", str(path),
                              "--steps", "7", "--seed", "3"])
    cfg = resolve_config(args)
    assert cfg["schedule"]["total_steps"] == 7
    assert cfg["schedule"]["batch_size"] == 4
    assert cfg["seed"] == 3


PRUNE = ["prune", "--corpus", "x", "--baseline", "b", "--algo", "grad"]
PRETRAIN = ["pretrain", "--corpus", "x"]


@pytest.mark.parametrize("argv, section, key, value", [
    (PRETRAIN + ["--steps", "7"], "schedule", "total_steps", 7),
    (PRETRAIN + ["--batch-size", "5"], "schedule", "batch_size", 5),
    (PRETRAIN + ["--seq-len", "9"], "schedule", "seq_len", 9),
    (PRETRAIN + ["--lr", "0.25"], "schedule", "learning_rate", 0.25),
    (PRUNE + ["--alpha-lr", "0.75"], "schedule", "alpha_lr", 0.75),
    (PRUNE + ["--lambda1", "1.5"], "schedule", "lambda1", 1.5),
    (PRUNE + ["--lambda2", "2.5"], "schedule", "lambda2", 2.5),
    (PRETRAIN + ["--mask-rate", "0.3"], "schedule", "mask_rate", 0.3),
    (PRUNE + ["--importance-batches", "3"], "schedule", "importance_batches", 3),
    (PRUNE + ["--target-size", "0.3"], "schedule", "target_size", 0.3),
    (PRUNE + ["--setting", "shared"], "schedule", "setting", "shared"),
    (PRETRAIN + ["--layers", "3"], "model", "n_layers", 3),
    (PRETRAIN + ["--heads", "4"], "model", "n_heads", 4),
    (PRETRAIN + ["--dim", "48"], "model", "model_dim", 48),
    (PRETRAIN + ["--ffn-dim", "40"], "model", "ffn_dim", 40),
    (PRETRAIN + ["--max-seq-len", "20"], "model", "max_seq_len", 20),
])
def test_each_flag_lands_on_its_config_key(argv, section, key, value):
    cfg = resolve_config(build_parser().parse_args(argv))
    want = load_config(None)
    want[section][key] = value
    assert cfg == want


TRAINING = {"--config", "--out-root", "--run-id", "--seed", "--steps", "--batch-size",
            "--seq-len", "--lr", "--mask-rate"}
PROBE = {"--config", "--out-root", "--seed", "--batch-size", "--seq-len"}
ALL_SHARED = TRAINING | {"--alpha-lr", "--lambda1", "--lambda2", "--importance-batches"}


# (command, its required flags, the shared flags it takes, a refused flag)
CENSUS = [
    ("gen-corpus", ["--out", "c"], {"--config", "--seed"}, ["--run-id", "r"]),
    ("pretrain", ["--corpus", "c"], TRAINING, ["--alpha-lr", "0.5"]),
    ("prune", ["--corpus", "c", "--baseline", "b", "--algo", "grad"], ALL_SHARED, None),
    ("ds-train", ["--corpus", "c", "--baseline", "b"], ALL_SHARED - {"--lambda2"},
     ["--lambda2", "1"]),
    ("eval-probe", ["--corpus", "c", "--run", "r"], PROBE, ["--steps", "5"]),
    ("sweep", ["--corpus", "c", "--run", "r"], PROBE, ["--lr", "0.1"]),
    # bench's own --batch-size and --seq-len (defaults 1 and 32) share the names
    ("bench", ["--run", "r"], {"--config", "--out-root", "--seed", "--batch-size", "--seq-len"},
     ["--run-id", "r"]),
    ("report", ["--run", "r", "--figure", "hamming"], {"--out-root"}, ["--seed", "1"]),
]


@pytest.mark.parametrize("command, required, shared, refused", CENSUS,
                         ids=[case[0] for case in CENSUS])
def test_each_command_takes_only_the_shared_flags_it_reads(capsys, command, required, shared,
                                                           refused):
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = {flag for a in sub.choices[command]._actions for flag in a.option_strings}
    assert flags & ALL_SHARED == shared
    if refused is not None:
        # refused while parsing, before any of the named paths is read
        assert main([command, *required, *refused]) == 2
        assert f"unrecognized arguments: {' '.join(refused)}" in capsys.readouterr().err


def test_a_config_naming_a_fixed_recipe_or_command_key_exits_2(tmp_path, capsys):
    path = tmp_path / "config.json"
    for key, old_default in (("beta1", 0.9), ("beta2", 0.999), ("eps", 1e-8),
                             ("warmup_fraction", 0.1), ("alpha_only_warmup_fraction", 0.1),
                             ("algorithm", "grad")):
        path.write_text(json.dumps({"schedule": {key: old_default}}))
        assert main(["gen-corpus", "--out", str(tmp_path / "corpus"), "--config", str(path)]) == 2
        assert f"unknown schedule config keys: ['{key}']" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "corpus")


# --- exit codes -------------------------------------------------------------


def test_unknown_command_and_flag_exit_2(capsys):
    assert main(["frobnicate"]) == 2
    assert main(["pretrain", "--corpus", "x", "--bogus"]) == 2
    capsys.readouterr()


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    for cmd in ("gen-corpus", "pretrain", "prune", "ds-train", "eval-probe",
                "sweep", "bench", "report"):
        assert cmd in out


def test_missing_run_dir_exits_2(tmp_path, capsys):
    code = main(["report", "--run", str(tmp_path / "nope"), "--figure", "hamming"])
    assert code == 2
    assert "config error" in capsys.readouterr().err


# --- full pipeline ----------------------------------------------------------


def run_cli(*argv):
    return main(list(argv))


@pytest.mark.slow
def test_pipeline_end_to_end(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("PRUNELAB_RUNS", str(tmp_path / "runs"))
    monkeypatch.chdir(tmp_path)
    corpus = str(tmp_path / "corpus")
    small = ["--batch-size", "32", "--seq-len", "12", "--seed", "5"]

    assert run_cli("gen-corpus", "--out", corpus, "--seed", "5", "--languages", "3") == 0
    assert (tmp_path / "corpus" / "manifest.json").exists()

    assert run_cli("pretrain", "--corpus", corpus, "--steps", "6", "--dim", "16",
                   "--ffn-dim", "32", *small) == 0
    pre = tmp_path / "runs" / "pretrain-s5"
    assert (pre / "weights.gcpt").exists()
    assert (pre / "metrics.csv").exists()
    manifest = json.loads((pre / "manifest.json").read_text())
    assert manifest["command"] == "pretrain"
    assert manifest["schedule"]["seed"] == 5
    assert manifest["model"]["model_dim"] == 16

    assert run_cli("prune", "--corpus", corpus, "--baseline", "pretrain-s5",
                   "--algo", "grad", "--setting", "shared", "--target-size", "0.5",
                   "--steps", "4", "--importance-batches", "2", *small) == 0
    grad_run = tmp_path / "runs" / "prune-grad-s5"
    assert (grad_run / "gates_shared.txt").exists()
    assert (grad_run / "importance_shared.csv").exists()
    achieved = json.loads((grad_run / "manifest.json").read_text())["achieved_sizes"]
    assert 0.5 <= achieved["shared"] < 0.7

    assert run_cli("prune", "--corpus", corpus, "--baseline", "pretrain-s5",
                   "--algo", "l0-improved", "--setting", "non-shared",
                   "--target-size", "0.5", "--steps", "4",
                   "--importance-batches", "2", *small) == 0
    l0_run = tmp_path / "runs" / "prune-l0-improved-s5"
    gate_files = sorted(p.name for p in l0_run.glob("gates_*.txt"))
    assert len(gate_files) == 3
    assert (l0_run / "alphas.csv").exists()

    assert run_cli("ds-train", "--corpus", corpus, "--baseline", "pretrain-s5",
                   "--algo", "ds-grad", "--setting", "shared", "--steps", "4",
                   "--importance-batches", "2", *small) == 0
    ds_run = tmp_path / "runs" / "ds-grad-s5"
    assert (ds_run / "ds.csv").exists()

    assert run_cli("eval-probe", "--corpus", corpus, "--run", "pretrain-s5",
                   "--epochs", "1", *small) == 0
    assert (pre / "probe.csv").exists()
    assert run_cli("eval-probe", "--corpus", corpus, "--run", "prune-grad-s5",
                   "--epochs", "1", *small) == 0
    # ds runs require a size
    assert run_cli("eval-probe", "--corpus", corpus, "--run", "ds-grad-s5",
                   "--epochs", "1", *small) == 2
    assert run_cli("eval-probe", "--corpus", corpus, "--run", "ds-grad-s5",
                   "--t", "0.5", "--epochs", "1", *small) == 0

    assert run_cli("sweep", "--corpus", corpus, "--run", "ds-grad-s5",
                   "--grid", "0.5:1.0:0.5", "--epochs", "1", "--reps", "3", *small) == 0
    lines = (ds_run / "sweep.csv").read_text().strip().split("\n")
    assert lines[0].startswith("t,language,")
    assert len(lines) == 3
    for line in lines[1:]:
        cells = line.split(",")
        assert float(cells[5]) > 0.0
        assert float(cells[6]) > 0.0

    assert run_cli("bench", "--run", "ds-grad-s5", "--grid", "0.5:1.0:0.5",
                   "--reps", "3", "--seed", "5") == 0
    bench_lines = (ds_run / "bench.csv").read_text().strip().split("\n")
    assert bench_lines[0] == "sparsity,sentences_per_sec,batch_size,seq_len,hardware"
    assert len(bench_lines) >= 2
    for line in bench_lines[1:]:
        cells = line.split(",")
        assert float(cells[1]) > 0.0 and cells[2:4] == ["1", "32"] and cells[4]

    assert run_cli("report", "--run", "prune-grad-s5", "--figure", "layer-profile") == 0
    assert (grad_run / "report_layer-profile_prune-grad-s5.csv").exists()
    assert run_cli("report", "--run", "prune-l0-improved-s5", "--figure", "hamming") == 0
    ham = (l0_run / "report_hamming_prune-l0-improved-s5.csv").read_text().strip().split("\n")
    assert ham[0].startswith("language,")
    assert len(ham) == 4
    assert run_cli("report", "--run", "ds-grad-s5", "--figure", "size-curve") == 0
    assert (ds_run / "report_size-curve_ds-grad-s5.csv").exists()
    assert run_cli("report", "--run", "prune-grad-s5", "--figure", "corr",
                   "--probe-baseline", str(pre / "probe.csv"), "--corpus", corpus) == 0
    assert (grad_run / "report_corr_prune-grad-s5.csv").exists()

    # hamming on a single-gateset run is a config error
    assert run_cli("report", "--run", "prune-grad-s5", "--figure", "hamming") == 2
    # too few reps is a configuration problem, refused before the run is read
    assert run_cli("bench", "--run", "ds-grad-s5", "--reps", "2",
                   "--seed", "5") == 2
    capsys.readouterr()


def test_out_root_flag_beats_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("PRUNELAB_RUNS", str(tmp_path / "env_runs"))
    corpus = str(tmp_path / "corpus")
    assert run_cli("gen-corpus", "--out", corpus, "--seed", "5", "--languages", "1") == 0
    assert run_cli("pretrain", "--corpus", corpus, "--steps", "1", "--dim", "16",
                   "--ffn-dim", "32", "--batch-size", "4", "--seq-len", "8",
                   "--seed", "5", "--out-root", str(tmp_path / "flag_runs")) == 0
    assert (tmp_path / "flag_runs" / "pretrain-s5" / "weights.gcpt").exists()
    assert not (tmp_path / "env_runs").exists()
    capsys.readouterr()


def test_report_on_non_numeric_gate_value_exits_1(tmp_path, capsys):
    config = ModelConfig(n_layers=1, n_heads=2, model_dim=4, ffn_dim=3, vocab_size=7,
                         max_seq_len=4)
    Model.init(config, 0).save(tmp_path)
    path = tmp_path / "gates_xx.txt"
    GateSet.ones(config).save_text(path, config)
    path.write_text(path.read_text().replace("head,0,1,1", "head,0,1,one"))
    assert main(["report", "--run", str(tmp_path), "--figure", "layer-profile"]) == 1
    assert "non-numeric" in capsys.readouterr().err


@pytest.mark.parametrize("baseline, where", [
    ("language,accuracy\naa,0.5\n", "base.csv:1:"),
    ("gates,language,accuracy\ndense,aa,high\n", "base.csv:2: non-numeric"),
    ("gates,language,accuracy\ndense,aa,0.5\ndense,bb\n", "base.csv:3:"),
], ids=["no-gates-column", "non-numeric-accuracy", "short-row"])
def test_malformed_probe_baseline_exits_1(tmp_path, capsys, baseline, where):
    config = ModelConfig(n_layers=1, n_heads=2, model_dim=4, ffn_dim=3, vocab_size=7,
                         max_seq_len=4)
    Model.init(config, 0).save(tmp_path)
    (tmp_path / "probe.csv").write_text("gates,language,accuracy\ndense,aa,0.5\n")
    (tmp_path / "base.csv").write_text(baseline)
    assert main(["report", "--run", str(tmp_path), "--figure", "corr", "--corpus",
                 str(tmp_path / "corpus"), "--probe-baseline", str(tmp_path / "base.csv")]) == 1
    assert where in capsys.readouterr().err


def test_report_reads_the_config_without_the_weights(tmp_path, capsys):
    config = ModelConfig(n_layers=1, n_heads=2, model_dim=4, ffn_dim=3, vocab_size=7,
                         max_seq_len=4)
    Model.init(config, 0).save(tmp_path)
    for lang, value in (("aa", 1.0), ("bb", 0.0)):
        values = np.ones(GateSet.ones(config).values.size)
        values[0] = value
        GateSet(config, values).save_text(tmp_path / f"gates_{lang}.txt", config)
    (tmp_path / "weights.gcpt").unlink()
    assert main(["report", "--run", str(tmp_path), "--figure", "hamming"]) == 0
    assert main(["report", "--run", str(tmp_path), "--figure", "layer-profile"]) == 0
    assert (tmp_path / f"report_hamming_{tmp_path.name}.csv").exists()
    (tmp_path / "model.json").unlink()
    capsys.readouterr()
    assert main(["report", "--run", str(tmp_path), "--figure", "hamming"]) == 2
    assert "no model checkpoint" in capsys.readouterr().err


def test_eval_probe_names_a_soft_gate_file(tmp_path, capsys):
    specs = build_inventories([LanguageSpec("aa", "Uralic", 20, 1)], inventory_size=6)
    corpus = gen_corpus(specs, seed=0)
    corpus.save(tmp_path / "corpus")
    config = ModelConfig(n_layers=1, n_heads=2, model_dim=4, ffn_dim=3,
                         vocab_size=len(corpus.vocab), max_seq_len=32)
    (tmp_path / "run").mkdir()
    Model.init(config, 0).save(tmp_path / "run")
    GateSet.ones(config).save_text(tmp_path / "run" / "gates_aa.txt", config)
    values = GateSet.ones(config).values
    values[0] = 0.5
    GateSet(config, values).save_text(tmp_path / "run" / "gates_x.txt", config)
    assert main(["eval-probe", "--corpus", str(tmp_path / "corpus"), "--run",
                 str(tmp_path / "run"), "--epochs", "1"]) == 1
    err = capsys.readouterr().err
    assert "gates_x.txt: gate values must be exactly 0 or 1" in err
    assert not (tmp_path / "run" / "probe.csv").exists()


def _report_run(tmp_path):
    """A run directory with a tiny model config and a DS table, no weights."""
    config = ModelConfig(n_layers=1, n_heads=2, model_dim=4, ffn_dim=3, vocab_size=7,
                         max_seq_len=4)
    Model.init(config, 0).save(tmp_path)
    (tmp_path / "weights.gcpt").unlink()
    universe = component_universe(config)
    table = ImportanceTable(dict(zip(universe, np.linspace(1.0, 2.0, len(universe)))),
                            "xx", 1)
    init_ds({"xx": table}, component_weights(config), DEFAULT_GRID).save_csv(
        tmp_path / "ds.csv")
    (tmp_path / "manifest.json").write_text(
        json.dumps({"schedule": {"grid": list(DEFAULT_GRID)}}))
    return config


def test_report_on_malformed_model_json_exits_1(tmp_path, capsys):
    _report_run(tmp_path)
    assert main(["report", "--run", str(tmp_path), "--figure", "size-curve"]) == 0
    good = (tmp_path / "model.json").read_text()
    cases = [good[:len(good) // 2], json.dumps({"n_layers": 2}), "[1, 2]",
             good.replace('"n_heads": 2', '"n_heads": "2"'),
             good.replace('"n_heads": 2', '"n_heads": 2.0'),
             good.replace('"n_heads": 2', '"n_heads": true'),
             good.replace('"n_heads": 2', '"n_heads": 2, "depth": 3')]
    for text in cases:
        (tmp_path / "model.json").write_text(text)
        capsys.readouterr()
        assert main(["report", "--run", str(tmp_path), "--figure", "size-curve"]) == 1, text
        assert "model.json: expected a JSON object" in capsys.readouterr().err


def test_report_on_a_ds_table_without_rows_exits_1(tmp_path, capsys):
    _report_run(tmp_path)
    path = tmp_path / "ds.csv"
    path.write_text(path.read_text().splitlines(keepends=True)[0])
    assert main(["report", "--run", str(tmp_path), "--figure", "size-curve"]) == 1
    assert f"{path}: no rows" in capsys.readouterr().err
    assert not (tmp_path / f"report_size-curve_{tmp_path.name}.csv").exists()


CORR = ["report", "--run", "{run}", "--figure", "corr", "--corpus", "{run}/corpus",
        "--probe-baseline", "{run}/base.csv"]


@pytest.mark.parametrize("name, argv", [
    ("gates_xx.txt", ["report", "--run", "{run}", "--figure", "layer-profile"]),
    ("ds.csv", ["report", "--run", "{run}", "--figure", "size-curve"]),
    ("probe.csv", CORR),
    ("corpus/vocab.tsv", CORR),
    ("corpus/languages.csv", CORR),
    ("corpus/bb.txt", CORR),
    ("config.json", ["gen-corpus", "--config", "{run}/config.json", "--out", "{run}/out"]),
    ("importance_xx.csv", None),
])
def test_a_file_that_does_not_decode_is_an_error_naming_it(tmp_path, capsys, name, argv):
    config = _report_run(tmp_path)
    GateSet.ones(config).save_text(tmp_path / "gates_xx.txt", config)
    universe = component_universe(config)
    ImportanceTable(dict(zip(universe, np.linspace(1.0, 2.0, len(universe)))), "xx", 1
                    ).save_csv(tmp_path / "importance_xx.csv")
    probe = "gates,language,accuracy\ndense,aa,0.5\ndense,bb,0.6\ndense,cc,0.7\n"
    (tmp_path / "probe.csv").write_text(probe)
    (tmp_path / "base.csv").write_text(probe)
    specs = [LanguageSpec(lang, "Uralic", 20, k) for k, lang in enumerate(("aa", "bb", "cc"))]
    gen_corpus(build_inventories(specs, inventory_size=6), seed=0).save(tmp_path / "corpus")
    (tmp_path / "config.json").write_text(json.dumps({"seed": 1}, indent=1))
    # one byte that is not UTF-8, at the start of the second line
    path = tmp_path / name
    first, rest = path.read_bytes().split(b"\n", 1)
    path.write_bytes(first + b"\n\xff" + rest)
    if argv is None:
        with pytest.raises(InputError, match="importance_xx.csv: not UTF-8 text"):
            ImportanceTable.load_csv(path)
        return
    capsys.readouterr()
    code = main([a.format(run=tmp_path) for a in argv])
    err = capsys.readouterr().err
    if name == "config.json":
        assert code == 2 and f"config {path} is not valid JSON" in err
    else:
        # the block-checked component rows name the line as well
        where = f"{path}:2:" if name in ("gates_xx.txt", "ds.csv") else f"{path}:"
        assert code == 1 and f"error: {where} not UTF-8 text" in err


def test_ds_train_on_a_grid_without_both_ends_exits_2(tmp_path, capsys):
    specs = build_inventories([LanguageSpec("aa", "Uralic", 20, 1)], inventory_size=6)
    gen_corpus(specs, seed=0).save(tmp_path / "corpus")
    config = ModelConfig(n_layers=1, n_heads=2, model_dim=4, ffn_dim=3, vocab_size=11,
                         max_seq_len=32)
    (tmp_path / "base").mkdir()
    Model.init(config, 0).save(tmp_path / "base")
    (tmp_path / "grid.json").write_text(json.dumps({"grid": [0.0, 0.5]}))
    args = ["ds-train", "--corpus", str(tmp_path / "corpus"), "--baseline",
            str(tmp_path / "base"), "--out-root", str(tmp_path / "runs")]
    for extra in (["--grid", "0.2:1.0:0.4"], ["--config", str(tmp_path / "grid.json")]):
        capsys.readouterr()
        assert main(args + extra) == 2, extra
        assert "config error: size grid must start at 0 and end at 1" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("command, runid", [
    (["pretrain"], "pretrain-s0"),
    (["prune", "--algo", "grad", "--baseline", "base"], "prune-grad-s0"),
    (["ds-train", "--algo", "ds-grad", "--baseline", "base"], "ds-grad-s0"),
], ids=["pretrain", "prune", "ds-train"])
def test_training_commands_refuse_a_run_directory_that_holds_files(tmp_path, capsys, command,
                                                                   runid):
    # refused before anything is read: neither the corpus nor the baseline exists
    args = [*command, "--corpus", str(tmp_path / "corpus"), "--seed", "0"]
    run_dir = tmp_path / "runs" / runid
    run_dir.mkdir(parents=True)
    (run_dir / "gates_aa.txt").write_text("stale\n")
    assert main(args + ["--out-root", str(tmp_path / "runs")]) == 2
    assert (f"run directory {run_dir} exists and is not an empty directory; remove it or pass "
            "--run-id" in capsys.readouterr().err)
    assert [p.name for p in run_dir.iterdir()] == ["gates_aa.txt"]
    # a plain file where the run directory would go is refused too
    assert main(args + ["--out-root", str(run_dir), "--run-id", "gates_aa.txt"]) == 2
    assert (f"run directory {run_dir / 'gates_aa.txt'} exists and is not an empty directory"
            in capsys.readouterr().err)


def test_shared_and_non_shared_prunes_with_one_seed_keep_their_own_directories(tmp_path, capsys):
    specs = build_inventories([LanguageSpec("aa", "Uralic", 20, 1),
                               LanguageSpec("bb", "Turkic", 20, 2)], inventory_size=6)
    corpus = gen_corpus(specs, seed=0)
    corpus.save(tmp_path / "corpus")
    config = ModelConfig(n_layers=1, n_heads=2, model_dim=4, ffn_dim=3,
                         vocab_size=len(corpus.vocab), max_seq_len=32)
    Model.init(config, 0).save(tmp_path / "base")
    runs = tmp_path / "runs"
    (runs / "prune-grad-s0").mkdir(parents=True)  # an empty directory is taken as it is
    args = ["prune", "--algo", "grad", "--corpus", str(tmp_path / "corpus"), "--baseline",
            str(tmp_path / "base"), "--importance-batches", "1", "--batch-size", "4",
            "--seq-len", "8", "--seed", "0", "--out-root", str(runs)]
    assert main(args + ["--setting", "non-shared"]) == 0
    written = sorted(p.name for p in (runs / "prune-grad-s0").iterdir())
    assert "gates_aa.txt" in written and "gates_bb.txt" in written
    capsys.readouterr()
    assert main(args + ["--setting", "shared"]) == 2
    assert "remove it or pass --run-id" in capsys.readouterr().err
    assert sorted(p.name for p in (runs / "prune-grad-s0").iterdir()) == written
    assert main(args + ["--setting", "shared", "--run-id", "prune-grad-shared"]) == 0
    assert (runs / "prune-grad-shared" / "gates_shared.txt").exists()
    assert main(["report", "--run", str(runs / "prune-grad-s0"), "--figure", "hamming"]) == 0
    header = (runs / "prune-grad-s0" / "report_hamming_prune-grad-s0.csv").read_text()
    assert header.splitlines()[0] == "language,aa,bb"


def test_report_on_malformed_manifest_exits_1(tmp_path, capsys):
    _report_run(tmp_path)
    cases = ['{"schedule": {"grid": [0.0, 0.5', "[]", json.dumps({"schedule": {}}),
             json.dumps({"schedule": {"grid": 3}}),
             json.dumps({"schedule": {"grid": ["low", "high"]}})]
    for text in cases:
        (tmp_path / "manifest.json").write_text(text)
        capsys.readouterr()
        assert main(["report", "--run", str(tmp_path), "--figure", "size-curve"]) == 1, text
        assert "schedule.grid" in capsys.readouterr().err


# --- a two-language non-shared ds-grad run ----------------------------------

DS_SMALL = ["--batch-size", "8", "--seq-len", "8", "--seed", "3"]


@pytest.fixture(scope="module")
def two_language_ds_run(tmp_path_factory):
    """(corpus, pretrain run, ds-grad run) paths of a tiny non-shared DS run."""
    root = tmp_path_factory.mktemp("ds-two")
    corpus, runs = str(root / "corpus"), str(root / "runs")
    assert main(["gen-corpus", "--out", corpus, "--languages", "2", "--seed", "3"]) == 0
    assert main(["pretrain", "--corpus", corpus, "--steps", "2", "--dim", "8", "--ffn-dim", "8",
                 "--max-seq-len", "8", "--out-root", runs, *DS_SMALL]) == 0
    assert main(["ds-train", "--corpus", corpus, "--baseline", f"{runs}/pretrain-s3",
                 "--setting", "non-shared", "--steps", "2", "--out-root", runs,
                 "--importance-batches", "1", *DS_SMALL]) == 0
    return corpus, f"{runs}/pretrain-s3", f"{runs}/ds-grad-s3"


def test_sweep_and_eval_probe_probe_each_distinct_subnetwork_once(two_language_ds_run,
                                                                   monkeypatch, capsys):
    corpus, _, run = two_language_ds_run
    calls = {"finetune_probe": 0, "compact_model": 0, "time_forwards": 0}

    def counted(name):
        call = getattr(cli, name)

        def counting(*args, **kwargs):
            calls[name] += 1
            return call(*args, **kwargs)
        monkeypatch.setattr(cli, name, counting)

    for name in calls:
        counted(name)
    config = ModelConfig.load(run)
    ds = cli._run_ds(run, config)
    grid = (0.5, 1.0)
    distinct = {subnetwork_at(ds, t, lang, config).values.tobytes()
                for t in grid for lang in ds.languages}
    # every language keeps every component at t = 1, and only there
    assert len(ds.languages) == 2 and len(distinct) == 3
    assert main(["sweep", "--corpus", corpus, "--run", run, "--grid", "0.5:1.0:0.5",
                 "--epochs", "1", "--reps", "3", *DS_SMALL]) == 0
    rows = (Path(run) / "sweep.csv").read_text().strip().split("\n")[1:]
    assert [row.split(",")[:2] for row in rows] == [[str(t), lang] for t in grid
                                                   for lang in ds.languages]
    # the t = 1 subnetwork of both languages is compacted, probed and timed once,
    # and both of its rows carry that one figure
    assert calls == {"finetune_probe": 3, "compact_model": 3, "time_forwards": 1}
    assert rows[2].split(",")[-1] == rows[3].split(",")[-1]
    calls.update(dict.fromkeys(calls, 0))
    assert main(["eval-probe", "--corpus", corpus, "--run", run, "--t", "1.0",
                 "--epochs", "1", *DS_SMALL]) == 0
    probed = (Path(run) / "probe.csv").read_text()
    assert calls == {"finetune_probe": 1, "compact_model": 1, "time_forwards": 0}
    assert all(f"\n{lang},{lang}," in probed for lang in ds.languages)
    calls.update(dict.fromkeys(calls, 0))
    assert main(["bench", "--run", run, "--grid", "0.5:1.0:0.5", "--seq-len", "8",
                 "--reps", "3"]) == 0
    assert calls == {"finetune_probe": 0, "compact_model": 2, "time_forwards": 1}
    capsys.readouterr()


# the two-language run's max_seq_len is 8
SHAPE = ("need batch_size >= 1 and {} <= seq_len <= 8 (the run's max_seq_len), got batch_size {} "
         "and seq_len {}")


@pytest.mark.parametrize("argv, message", [
    ("sweep --corpus {corpus} --run {run} --reps 2", "--reps must be at least 3, got 2"),
    ("bench --run {run} --reps 2", "--reps must be at least 3, got 2"),
    ("eval-probe --corpus {corpus} --run {run} --t 1.5", "--t must lie in [0, 1], got 1.5"),
    ("eval-probe --corpus {corpus} --run {run} --t -0.5", "--t must lie in [0, 1], got -0.5"),
    ("sweep --corpus {corpus} --run {baseline}", "sweep needs a ds-train run (no ds.csv found)"),
    ("eval-probe --corpus {corpus} --run {run}",
     "this run holds dynamic sparsification tables; pass --t"),
    ("eval-probe --corpus {corpus} --run {baseline} --t 0.5",
     "--t applies only to a ds-train run (no ds.csv found)"),
    ("sweep --corpus {corpus} --run {run} --config {missing}",
     "config {missing} cannot be read: No such file or directory"),
    ("bench --run {run} --language xx", "--language 'xx' has no table in this run; it has "),
    ("bench --run {baseline} --language xx",
     "--language applies only to a ds-train run (no ds.csv found)"),
    ("bench --run {run} --grid 0:1:inf", "grid needs 0 <= start <= stop <= 1 and a finite step"),
    ("bench --run {run} --grid 0:1:nan", "grid needs 0 <= start <= stop <= 1 and a finite step"),
    ("sweep --corpus {corpus} --run {run} --config {configs}/grid-high.json",
     "config key 'grid' must be a non-empty list of numbers in [0, 1], got [0.5, 2.0]"),
    ("bench --run {run} --config {configs}/grid-empty.json",
     "config key 'grid' must be a non-empty list of numbers in [0, 1], got []"),
    ("bench --run {run} --seq-len 0", SHAPE.format(1, 1, 0)),
    ("bench --run {run} --batch-size -1", SHAPE.format(1, -1, 32)),
    ("bench --run {run} --batch-size 0 --seq-len 8", SHAPE.format(1, 0, 8)),
    ("bench --run {run} --seq-len 9", SHAPE.format(1, 1, 9)),
    ("sweep --corpus {corpus} --run {run} --batch-size 8 --seq-len 1", SHAPE.format(2, 8, 1)),
    ("sweep --corpus {corpus} --run {run} --batch-size 0 --seq-len 8", SHAPE.format(2, 0, 8)),
    ("sweep --corpus {corpus} --run {run} --batch-size 8 --seq-len 9", SHAPE.format(2, 8, 9)),
    ("eval-probe --corpus {corpus} --run {run} --t 0.5 --batch-size 8 --seq-len 1",
     SHAPE.format(2, 8, 1)),
    ("eval-probe --corpus {corpus} --run {run} --t 0.5 --batch-size 0 --seq-len 8",
     SHAPE.format(2, 0, 8)),
    ("eval-probe --corpus {corpus} --run {run} --t 0.5 --batch-size 8 --seq-len 9",
     SHAPE.format(2, 8, 9)),
], ids=["sweep-reps", "bench-reps", "t-above-1", "t-below-0", "sweep-without-ds",
        "ds-without-t", "t-without-ds", "missing-config", "bench-unknown-language",
        "language-without-ds", "grid-step-inf", "grid-step-nan", "config-grid-above-1",
        "config-grid-empty", "bench-seq-len-0", "bench-batch-size-negative",
        "bench-batch-size-0", "bench-seq-len-above-max", "sweep-seq-len-1",
        "sweep-batch-size-0", "sweep-seq-len-above-max", "eval-probe-seq-len-1",
        "eval-probe-batch-size-0", "eval-probe-seq-len-above-max"])
def test_configuration_errors_exit_2_before_any_work(two_language_ds_run, monkeypatch, capsys,
                                                    tmp_path, argv, message):
    corpus, baseline, run = two_language_ds_run
    for name, grid in (("grid-high", [0.5, 2.0]), ("grid-empty", [])):
        (tmp_path / f"{name}.json").write_text(json.dumps({"grid": grid}))
    paths = dict(corpus=corpus, baseline=baseline, run=run, missing=tmp_path / "nope.json",
                 configs=tmp_path)

    def refuse(*args, **kwargs):
        raise AssertionError("input read before the configuration was checked")

    monkeypatch.setattr(Corpus, "load", refuse)
    monkeypatch.setattr(Model, "load", refuse)
    capsys.readouterr()
    assert main(argv.format(**paths).split()) == 2
    assert f"config error: {message.format(**paths)}" in capsys.readouterr().err
