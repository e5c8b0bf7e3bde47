"""Command line interface: config handling, exit codes, full pipeline."""

import json
import os

import numpy as np
import pytest

from prunelab.cli import (
    DEFAULT_CONFIG,
    build_parser,
    load_config,
    main,
    parse_grid,
    resolve_config,
    serialize_config,
)
from prunelab.ds import DEFAULT_GRID, init_ds
from prunelab.encoder import GateSet, Model, ModelConfig, component_universe, component_weights
from prunelab.exceptions import ConfigError
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


def test_config_round_trip_is_identity(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "model": {"n_layers": 3, "model_dim": 48},
        "schedule": {"total_steps": 42, "algorithm": "l0_improved"},
        "grid": [0.0, 0.5, 1.0],
        "seed": 9,
    }))
    cfg = load_config(path)
    assert cfg["model"]["n_layers"] == 3
    assert cfg["model"]["n_heads"] == DEFAULT_CONFIG["model"]["n_heads"]
    assert cfg["schedule"]["total_steps"] == 42
    assert cfg["grid"] == [0.0, 0.5, 1.0]
    again = tmp_path / "again.json"
    again.write_text(serialize_config(cfg))
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
    # runtime failure (too few reps) exits 1
    assert run_cli("bench", "--run", "ds-grad-s5", "--reps", "2",
                   "--seed", "5") == 1
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


def test_report_reads_the_config_without_the_weights(tmp_path, capsys):
    config = ModelConfig(n_layers=1, n_heads=2, model_dim=4, ffn_dim=3, vocab_size=7,
                         max_seq_len=4)
    Model.init(config, 0).save(tmp_path)
    for lang, value in (("aa", 1.0), ("bb", 0.0)):
        values = np.ones(GateSet.ones(config).values.size)
        values[0] = value
        GateSet(config, values, hard=True).save_text(tmp_path / f"gates_{lang}.txt", config)
    (tmp_path / "weights.gcpt").unlink()
    assert main(["report", "--run", str(tmp_path), "--figure", "hamming"]) == 0
    assert main(["report", "--run", str(tmp_path), "--figure", "layer-profile"]) == 0
    assert (tmp_path / f"report_hamming_{tmp_path.name}.csv").exists()
    (tmp_path / "model.json").unlink()
    capsys.readouterr()
    assert main(["report", "--run", str(tmp_path), "--figure", "hamming"]) == 2
    assert "no model checkpoint" in capsys.readouterr().err


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
