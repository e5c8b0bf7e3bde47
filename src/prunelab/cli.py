"""Command line interface: corpus generation, training runs, sweeps, reports.

Every command but report resolves a JSON config (defaults <- file <- flags),
does its work under a single root seed, and leaves a manifest next to its
outputs so any result can be reproduced from manifest plus seed alone.  Exit codes:
0 success, 2 configuration problem, 1 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from dataclasses import fields

import numpy as np

from .analysis import (MIN_REPS, compact_model, corr_accuracy_size, hamming_matrix,
                       layer_profile, save_plot, size_curve, time_forwards, write_report)
from .corpus import Corpus, default_language_specs, gen_corpus, probe_batches
from .ds import DEFAULT_GRID, DSParams, subnetwork_at
from .encoder import (GateSet, Model, ModelConfig, _parse_floats, component_universe,
                      component_weights, count_params, encoder_sparsity,
                      retained_fraction)
from .exceptions import ConfigError, InputError, PrunelabError, open_text
from .grad_prune import NON_SHARED, SHARED
from .l0 import save_alphas
from .trainer import (TrainSchedule, finetune_probe, pretrain_baseline, run_ds_training,
                      run_grad_pruning, run_l0_pruning, write_json, write_manifest,
                      write_metrics)

ENV_OUT_ROOT = "PRUNELAB_RUNS"

DEFAULT_CONFIG = {
    "model": {
        "n_layers": 2,
        "n_heads": 2,
        "model_dim": 32,
        "ffn_dim": 64,
        "max_seq_len": 64,
    },
    # TrainSchedule's own defaults; total_steps is the one field without one,
    # and each training command sets algorithm itself
    "schedule": {f.name: f.default for f in fields(TrainSchedule)
                 if f.name not in ("seed", "grid", "algorithm")} | {"total_steps": 200},
    "grid": list(DEFAULT_GRID),
    "seed": 0,
}

# flags several commands share, each registered only by the commands whose code
# reads it; a schedule flag's dest is its config key
SHARED_FLAGS = {
    "--config": dict(help="JSON config file"),
    "--out-root": dict(help=f"run directory root (or ${ENV_OUT_ROOT})"),
    "--run-id": dict(help="name for the run directory"),
    "--seed": dict(type=int),
    "--steps": dict(type=int, dest="total_steps"),
    "--batch-size": dict(type=int),
    "--seq-len": dict(type=int),
    "--lr": dict(type=float, dest="learning_rate"),
    "--alpha-lr": dict(type=float),
    "--lambda1": dict(type=float),
    "--lambda2": dict(type=float),
    "--mask-rate": dict(type=float),
    "--importance-batches": dict(type=int),
}
TRAINING_FLAGS = ("--config", "--out-root", "--run-id", "--seed", "--steps", "--batch-size",
                  "--seq-len", "--lr", "--mask-rate")
PROBE_FLAGS = ("--config", "--out-root", "--seed", "--batch-size", "--seq-len")

PRUNE_ALGOS = {"grad": "grad", "l0": "l0_vanilla", "l0-improved": "l0_improved"}
DS_ALGOS = {"ds-grad": "ds_grad", "ds-l0": "ds_l0"}
PROBE_SEQ_MIN = 2  # a probe row is the CLS id and at least one token


# ---------------------------------------------------------------------------
# Config handling


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _check_type(key: str, value, default):
    """ConfigError unless value has the type of the key's default.

    A float key also takes an int, a key whose default is null (lambda1,
    lambda2) takes a number or null, and a bool is never a number.
    """
    if isinstance(default, int):
        ok, want = isinstance(value, int) and not isinstance(value, bool), "an integer"
    elif isinstance(default, str):
        ok, want = isinstance(value, str), "a string"
    else:
        ok = _is_number(value) or (default is None and value is None)
        want = "a number" if default is not None else "a number or null"
    if not ok:
        raise ConfigError(f"config key {key!r} must be {want}, got {value!r}")


def load_config(path=None) -> dict:
    """Defaults overlaid with a JSON config file; unknown keys and wrong types rejected."""
    cfg = json.loads(json.dumps(DEFAULT_CONFIG))
    if path is None:
        return cfg
    try:
        with open(path) as f:
            user = json.load(f)
    except OSError as e:
        raise ConfigError(f"config {path} cannot be read: {e.strerror}")
    except ValueError as e:  # a JSONDecodeError, or a UnicodeDecodeError of the bytes
        raise ConfigError(f"config {path} is not valid JSON: {e}")
    if not isinstance(user, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    unknown = set(user) - set(DEFAULT_CONFIG)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for section in ("model", "schedule"):
        if section in user:
            if not isinstance(user[section], dict):
                raise ConfigError(f"config section {section!r} must be an object")
            bad = set(user[section]) - set(DEFAULT_CONFIG[section])
            if bad:
                raise ConfigError(f"unknown {section} config keys: {sorted(bad)}")
            for key, value in user[section].items():
                _check_type(key, value, cfg[section][key])
            cfg[section].update(user[section])
    if "grid" in user:
        grid = user["grid"]
        if not (isinstance(grid, list) and grid
                and all(_is_number(g) and 0.0 <= g <= 1.0 for g in grid)):
            raise ConfigError(f"config key 'grid' must be a non-empty list of numbers in "
                              f"[0, 1], got {grid!r}")
        cfg["grid"] = [float(g) for g in grid]
    if "seed" in user:
        _check_type("seed", user["seed"], cfg["seed"])
        cfg["seed"] = user["seed"]
    return cfg


def _apply_overrides(cfg: dict, args) -> dict:
    """Copy flag values the user actually passed over the config.

    Each flag's dest is its config key, so a set attribute named like a
    model or schedule key overrides that key.
    """
    for section in ("model", "schedule"):
        for key in cfg[section]:
            v = getattr(args, key, None)
            if v is not None:
                cfg[section][key] = v
    if getattr(args, "seed", None) is not None:
        cfg["seed"] = args.seed
    if getattr(args, "grid", None) is not None:
        cfg["grid"] = list(parse_grid(args.grid))
    return cfg


def resolve_config(args) -> dict:
    return _apply_overrides(load_config(getattr(args, "config", None)), args)


def parse_grid(text: str) -> tuple[float, ...]:
    """'start:stop:step' inclusive of both endpoints, e.g. 0.1:0.9:0.2."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"grid must look like start:stop:step, got {text!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise ConfigError(f"grid must hold numbers, got {text!r}")
    if not (0.0 < step < np.inf and 0.0 <= start <= stop <= 1.0):
        raise ConfigError(f"grid needs 0 <= start <= stop <= 1 and a finite step > 0, "
                          f"got {text!r}")
    try:
        values = np.round(np.arange(start, stop + 0.5 * step, step), 10)
    except ValueError as e:  # a step so small that numpy cannot size the array
        raise ConfigError(f"grid {text!r}: {e}") from None
    return tuple(float(v) for v in values if v <= 1.0)


def schedule_from(cfg: dict, **over) -> TrainSchedule:
    kwargs = dict(cfg["schedule"])
    kwargs.update(over)
    return TrainSchedule(seed=cfg["seed"], grid=tuple(cfg["grid"]), **kwargs)


# ---------------------------------------------------------------------------
# Run directory helpers


def _out_root(args) -> str:
    return args.out_root or os.environ.get(ENV_OUT_ROOT, "runs")


def _new_run_dir(args, command: str, cfg: dict) -> tuple[str, str]:
    """Path and id of a new run's directory, which must be absent or empty."""
    runid = args.run_id or f"{command}-s{cfg['seed']}"
    path = os.path.join(_out_root(args), runid)
    if os.path.exists(path) and not (os.path.isdir(path) and not os.listdir(path)):
        raise ConfigError(f"run directory {path} exists and is not an empty directory; "
                          "remove it or pass --run-id")
    return path, runid


def _find_run_dir(args, ref: str) -> str:
    path = ref if os.path.isdir(ref) else os.path.join(_out_root(args), ref)
    if not os.path.isdir(path):
        raise ConfigError(f"run directory not found: {ref}")
    return path


def _run_config(run_dir: str) -> ModelConfig:
    """A run's model config from model.json, without reading its weights."""
    if not os.path.exists(os.path.join(run_dir, "model.json")):
        raise ConfigError(f"no model checkpoint under {run_dir}")
    return ModelConfig.load(run_dir)


def _check_batch_shape(config: ModelConfig, batch_size: int, seq_len: int, shortest: int):
    """ConfigError unless batches of batch_size rows of seq_len ids fit the run's model."""
    if batch_size < 1 or not shortest <= seq_len <= config.max_seq_len:
        raise ConfigError(f"need batch_size >= 1 and {shortest} <= seq_len <= "
                          f"{config.max_seq_len} (the run's max_seq_len), got batch_size "
                          f"{batch_size} and seq_len {seq_len}")


def _load_run_model(run_dir: str) -> Model:
    _run_config(run_dir)  # the same ConfigError when model.json is missing
    return Model.load(run_dir)


def _run_gatesets(run_dir: str, config: ModelConfig) -> dict[str, GateSet]:
    """Hard gate sets stored by a pruning run, keyed by language.

    Every reader (probe, bench, reports) needs 0/1 gates, so a file with a
    soft value is an InputError that names it.
    """
    out = {}
    for name in sorted(os.listdir(run_dir)):
        if name.startswith("gates_") and name.endswith(".txt"):
            lang = name[len("gates_"):-len(".txt")]
            path = os.path.join(run_dir, name)
            out[lang] = GateSet.load_text(path, config)
            if not out[lang].hard:
                raise InputError(f"{path}: gate values must be exactly 0 or 1")
    return out


def _run_ds(run_dir: str, config: ModelConfig) -> DSParams | None:
    path = os.path.join(run_dir, "ds.csv")
    if not os.path.exists(path):
        return None
    manifest = os.path.join(run_dir, "manifest.json")
    try:
        with open(manifest) as f:
            grid = tuple(float(g) for g in json.load(f)["schedule"]["grid"])
    except (ValueError, KeyError, TypeError):
        raise InputError(f"{manifest}: not a JSON manifest with a numeric schedule.grid") from None
    return DSParams.load_csv(path, component_universe(config), grid)


# ---------------------------------------------------------------------------
# Commands


def cmd_gen_corpus(args) -> int:
    cfg = resolve_config(args)
    specs = default_language_specs(cfg["seed"])
    if args.languages is not None:
        if not 1 <= args.languages <= len(specs):
            raise ConfigError(f"--languages must be 1..{len(specs)}")
        specs = specs[: args.languages]
    corpus = gen_corpus(specs, seed=cfg["seed"])
    os.makedirs(args.out, exist_ok=True)
    corpus.save(args.out)
    write_json(os.path.join(args.out, "manifest.json"), {
        "command": "gen-corpus",
        "seed": cfg["seed"],
        "languages": [s.id for s in specs],
        "vocab_size": len(corpus.vocab),
    })
    print(f"corpus: {len(specs)} languages, vocab {len(corpus.vocab)}, at {args.out}")
    return 0


def cmd_pretrain(args) -> int:
    cfg = resolve_config(args)
    run_dir, runid = _new_run_dir(args, "pretrain", cfg)
    corpus = Corpus.load(args.corpus)
    mc = ModelConfig(vocab_size=len(corpus.vocab), **cfg["model"])
    sched = schedule_from(cfg)
    result = pretrain_baseline(mc, corpus, sched)
    result.model.save(run_dir)
    write_metrics(result.records, os.path.join(run_dir, "metrics.csv"))
    write_manifest(run_dir, sched, mc, extra={
        "command": "pretrain", "run_id": runid, "corpus": args.corpus,
    })
    last = result.records[-1]["loss"] if result.records else float("nan")
    print(f"pretrain {runid}: {sched.total_steps} steps, final loss {last:.4f}")
    return 0


def cmd_prune(args) -> int:
    cfg = resolve_config(args)
    run_dir, runid = _new_run_dir(args, f"prune-{args.algo}", cfg)
    corpus = Corpus.load(args.corpus)
    base_dir = _find_run_dir(args, args.baseline)
    model = _load_run_model(base_dir)
    algorithm = PRUNE_ALGOS[args.algo]
    sched = schedule_from(cfg, algorithm=algorithm)
    if algorithm == "grad":
        result = run_grad_pruning(model, corpus, sched)
    else:
        result = run_l0_pruning(model, corpus, sched)
    result.model.save(run_dir)
    for lang, gs in result.gatesets.items():
        gs.save_text(os.path.join(run_dir, f"gates_{lang}.txt"), model.config)
    for lang, table in result.tables.items():
        table.save_csv(os.path.join(run_dir, f"importance_{lang}.csv"))
    if result.alphas is not None:
        save_alphas(os.path.join(run_dir, "alphas.csv"), sorted(result.gatesets), result.alphas,
                    component_universe(model.config))
    write_metrics(result.records, os.path.join(run_dir, "metrics.csv"))
    write_manifest(run_dir, sched, model.config, extra={
        "command": "prune", "run_id": runid, "corpus": args.corpus,
        "baseline": base_dir, "achieved_sizes": result.achieved_sizes,
    })
    sizes = ", ".join(f"{l}={v:.3f}" for l, v in sorted(result.achieved_sizes.items()))
    print(f"prune {runid}: algorithm {args.algo}, achieved sizes {sizes}")
    return 0


def cmd_ds_train(args) -> int:
    cfg = resolve_config(args)
    run_dir, runid = _new_run_dir(args, args.algo, cfg)
    corpus = Corpus.load(args.corpus)
    base_dir = _find_run_dir(args, args.baseline)
    model = _load_run_model(base_dir)
    sched = schedule_from(cfg, algorithm=DS_ALGOS[args.algo])
    result = run_ds_training(model, corpus, sched)
    result.model.save(run_dir)
    result.ds.save_csv(os.path.join(run_dir, "ds.csv"))
    write_metrics(result.records, os.path.join(run_dir, "metrics.csv"))
    write_manifest(run_dir, sched, model.config, extra={
        "command": "ds-train", "run_id": runid, "corpus": args.corpus,
        "baseline": base_dir,
    })
    print(f"ds-train {runid}: algorithm {args.algo}, "
          f"{len(result.ds.languages)} gate table(s)")
    return 0


def _probe_targets(args, run_dir: str, model: Model) -> dict[str, GateSet]:
    """What to evaluate: DS subnetworks at t, stored gate sets, or dense."""
    ds = _run_ds(run_dir, model.config)
    if ds is not None:
        return {lang: subnetwork_at(ds, args.t, lang, model.config) for lang in ds.languages}
    gatesets = _run_gatesets(run_dir, model.config)
    if gatesets:
        return gatesets
    return {"dense": GateSet.ones(model.config)}


def _probe_once(probed: dict, model: Model, gs: GateSet, splits, seed: int, epochs: int):
    """(compacted subnetwork, finetune_probe result) of gs, memoised in probed by its gates.

    Both are deterministic, so equal gates share one entry: at t = 1 every
    language of a non-shared DS run keeps every component.
    """
    key = gs.values.tobytes()
    if key not in probed:
        compact = compact_model(model, gs)
        probed[key] = compact, finetune_probe(compact, splits, seed=seed, epochs=epochs)
    return probed[key]


def cmd_eval_probe(args) -> int:
    cfg = resolve_config(args)
    if args.t is not None and not 0.0 <= args.t <= 1.0:
        raise ConfigError(f"--t must lie in [0, 1], got {args.t}")
    run_dir = _find_run_dir(args, args.run)
    has_ds = os.path.exists(os.path.join(run_dir, "ds.csv"))
    if has_ds and args.t is None:
        raise ConfigError("this run holds dynamic sparsification tables; pass --t")
    if args.t is not None and not has_ds:
        raise ConfigError("--t applies only to a ds-train run (no ds.csv found)")
    _check_batch_shape(_run_config(run_dir), cfg["schedule"]["batch_size"],
                       cfg["schedule"]["seq_len"], PROBE_SEQ_MIN)
    corpus = Corpus.load(args.corpus)
    model = _load_run_model(run_dir)
    targets = _probe_targets(args, run_dir, model)
    splits = probe_batches(corpus, batch_size=cfg["schedule"]["batch_size"],
                           seq_len=cfg["schedule"]["seq_len"], seed=cfg["seed"])
    rows, probed = [], {}
    for name in sorted(targets):
        _, res = _probe_once(probed, model, targets[name], splits, cfg["seed"], args.epochs)
        for lang in sorted(res.per_language):
            rows.append({"gates": name, "language": lang,
                         "accuracy": res.per_language[lang]})
        rows.append({"gates": name, "language": "macro", "accuracy": res.mean})
        print(f"probe[{name}]: macro accuracy {res.mean:.3f} (best lr {res.best_lr})")
    out = os.path.join(run_dir, "probe.csv")
    write_report(rows, ("gates", "language", "accuracy"), out)
    write_json(os.path.join(run_dir, "manifest_eval-probe.json"), {
        "command": "eval-probe", "run": run_dir, "corpus": args.corpus,
        "seed": cfg["seed"], "t": args.t, "epochs": args.epochs,
    })
    return 0


def cmd_sweep(args) -> int:
    cfg = resolve_config(args)
    if args.reps < MIN_REPS:
        raise ConfigError(f"--reps must be at least {MIN_REPS}, got {args.reps}")
    run_dir = _find_run_dir(args, args.run)
    config = _run_config(run_dir)
    ds = _run_ds(run_dir, config)
    if ds is None:
        raise ConfigError("sweep needs a ds-train run (no ds.csv found)")
    bench_seq = cfg["schedule"]["seq_len"]
    _check_batch_shape(config, cfg["schedule"]["batch_size"], bench_seq, PROBE_SEQ_MIN)
    corpus = Corpus.load(args.corpus)
    model = _load_run_model(run_dir)
    grid = tuple(cfg["grid"])
    splits = probe_batches(corpus, batch_size=cfg["schedule"]["batch_size"],
                           seq_len=bench_seq, seed=cfg["seed"])
    weights = component_weights(model.config)
    rows, keys, probed = [], [], {}
    for t in grid:
        for lang in ds.languages:
            gs = subnetwork_at(ds, t, lang, model.config)
            _, res = _probe_once(probed, model, gs, splits, cfg["seed"], args.epochs)
            rows.append({
                "t": float(t),
                "language": lang,
                "overall_sparsity": 1.0 - retained_fraction(gs.values, weights),
                "encoder_sparsity": encoder_sparsity(gs, weights),
                "total_params": count_params(model.config, gs)["total_params"],
                "probe_accuracy": res.per_language.get(lang, res.mean),
            })
            keys.append(gs.values.tobytes())
    rates = dict(zip(probed, time_forwards([(compact, 1) for compact, _ in probed.values()],
                                           bench_seq, args.reps)))
    for row, key in zip(rows, keys):
        row["sentences_per_sec"] = rates[key]
    out = os.path.join(run_dir, "sweep.csv")
    write_report(rows, ("t", "language", "overall_sparsity", "encoder_sparsity",
                        "total_params", "probe_accuracy", "sentences_per_sec"), out)
    write_json(os.path.join(run_dir, "manifest_sweep.json"), {
        "command": "sweep", "run": run_dir, "corpus": args.corpus,
        "seed": cfg["seed"], "grid": list(grid), "epochs": args.epochs,
        "reps": args.reps, "seq_len": bench_seq,
    })
    print(f"sweep: {len(rows)} rows over {len(grid)} sizes -> {out}")
    return 0


def cmd_bench(args) -> int:
    cfg = resolve_config(args)
    if args.reps < MIN_REPS:
        raise ConfigError(f"--reps must be at least {MIN_REPS}, got {args.reps}")
    run_dir = _find_run_dir(args, args.run)
    config = _run_config(run_dir)
    ds = _run_ds(run_dir, config)
    if args.language is not None:
        if ds is None:
            raise ConfigError("--language applies only to a ds-train run (no ds.csv found)")
        if args.language not in ds.languages:
            raise ConfigError(f"--language {args.language!r} has no table in this run; "
                              f"it has {', '.join(ds.languages)}")
    _check_batch_shape(config, args.batch_size, args.seq_len, 1)
    model = _load_run_model(run_dir)
    weights = component_weights(model.config)

    def overall(gs):
        return 1.0 - retained_fraction(gs.values, weights)

    gatesets: dict[float, GateSet] = {}
    if ds is not None:
        grid = tuple(cfg["grid"])
        lang = ds.languages[0] if args.language is None else args.language
        for t in grid:
            gs = subnetwork_at(ds, float(t), lang, model.config)
            gatesets.setdefault(overall(gs), gs)
    else:
        stored = _run_gatesets(run_dir, model.config)
        if not stored:
            stored = {"dense": GateSet.ones(model.config)}
        for gs in stored.values():
            gatesets.setdefault(overall(gs), gs)
    hardware = platform.processor() or platform.machine()
    sparsities = sorted(gatesets)
    rates = time_forwards([(compact_model(model, gatesets[s]), args.batch_size)
                           for s in sparsities], args.seq_len, args.reps)
    rows = [{"sparsity": float(sparsity), "sentences_per_sec": sps,
             "batch_size": args.batch_size, "seq_len": args.seq_len, "hardware": hardware}
            for sparsity, sps in zip(sparsities, rates)]
    out = os.path.join(run_dir, "bench.csv")
    write_report(rows, ("sparsity", "sentences_per_sec", "batch_size", "seq_len", "hardware"),
                 out)
    write_json(os.path.join(run_dir, "manifest_bench.json"), {
        "command": "bench", "run": run_dir, "seed": cfg["seed"],
        "batch_size": args.batch_size, "seq_len": args.seq_len, "reps": args.reps,
    })
    for r in rows:
        print(f"bench: sparsity {r['sparsity']:.3f} -> {r['sentences_per_sec']:.1f} sent/sec")
    return 0


def cmd_report(args) -> int:
    run_dir = _find_run_dir(args, args.run)
    runid = os.path.basename(os.path.normpath(run_dir))
    # every figure needs the model shape at most, never the weights
    config = _run_config(run_dir)
    out = os.path.join(run_dir, f"report_{args.figure}_{runid}.csv")
    if args.figure == "layer-profile":
        gatesets = _run_gatesets(run_dir, config)
        if not gatesets:
            raise ConfigError("layer-profile needs stored gate sets (gates_*.txt)")
        rows = []
        for lang in sorted(gatesets):
            for row in layer_profile(gatesets[lang]):
                rows.append({"language": lang, **row})
        write_report(rows, ("language", "layer", "head_sparsity", "hidden_sparsity"), out)
        if args.plot:
            save_plot(rows, "layer", ("head_sparsity", "hidden_sparsity"),
                      out.replace(".csv", ".png"), title="layer profile")
    elif args.figure == "hamming":
        gatesets = _run_gatesets(run_dir, config)
        if len(gatesets) < 2:
            raise ConfigError("hamming needs at least two per-language gate sets")
        langs, mat = hamming_matrix(gatesets)
        rows = [{"language": lang, **dict(zip(langs, mat[i]))} for i, lang in enumerate(langs)]
        write_report(rows, ("language", *langs), out)
    elif args.figure == "size-curve":
        ds = _run_ds(run_dir, config)
        if ds is None:
            raise ConfigError("size-curve needs a ds-train run (no ds.csv found)")
        rows = []
        for lang in ds.languages:
            for row in size_curve(ds, config, lang):
                rows.append({"language": lang, **row})
        write_report(rows, ("language", "t", "total_params", "embedding_params",
                            "encoder_params", "encoder_sparsity", "overall_sparsity",
                            "head_sparsity", "hidden_sparsity", "rank_sparsity",
                            "embed_pruning_active"), out)
        if args.plot:
            save_plot(rows, "overall_sparsity", "total_params",
                      out.replace(".csv", ".png"), title="size curve")
    elif args.figure == "corr":
        if not (args.probe_baseline and args.corpus):
            raise ConfigError("corr needs --probe-baseline and --corpus")
        pruned = _read_probe_macroless(os.path.join(run_dir, "probe.csv"))
        base = _read_probe_macroless(args.probe_baseline)
        corpus = Corpus.load(args.corpus)
        sizes = {s.id: s.corpus_size for s in corpus.specs}
        losses = {}
        for lang in sorted(set(base) & set(pruned) & set(sizes)):
            losses[lang] = base[lang] - pruned[lang]
        sizes = {l: sizes[l] for l in losses}
        r = corr_accuracy_size(losses, sizes, scatter_path=out)
        print(f"report corr: Pearson r = {r:.3f}")
    else:
        raise ConfigError(f"unknown figure {args.figure!r}")
    print(f"report: wrote {out}")
    return 0


def _read_probe_macroless(path) -> dict[str, float]:
    if not os.path.exists(path):
        raise ConfigError(f"probe results not found: {path} (run eval-probe first)")
    out = {}
    with open_text(path) as f:
        header = f.readline().strip().split(",")
        if not {"gates", "language", "accuracy"} <= set(header):
            raise InputError(f"{path}:1: expected gates, language and accuracy columns, "
                             f"got {','.join(header)!r}")
        gi, li, ai = header.index("gates"), header.index("language"), header.index("accuracy")
        for lineno, line in enumerate(f, 2):
            cells = line.strip().split(",")
            if len(cells) != len(header):
                raise InputError(f"{path}:{lineno}: expected {len(header)} cells")
            lang = cells[li]
            # per-language gate rows carry that language's own accuracy
            if lang != "macro" and (cells[gi] == lang or cells[gi] in ("dense", SHARED)):
                out[lang] = _parse_floats(path, lineno, (cells[ai],))[0]
    return out


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prunelab",
        description="structured pruning experiments for gated transformer encoders",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *flags):
        for flag in flags:
            p.add_argument(flag, **SHARED_FLAGS[flag])

    p = sub.add_parser("gen-corpus", help="generate the synthetic multilingual corpus")
    common(p, "--config", "--seed")
    p.add_argument("--out", required=True, help="corpus directory to write")
    p.add_argument("--languages", type=int, help="keep only the first N default languages")
    p.set_defaults(func=cmd_gen_corpus)

    p = sub.add_parser("pretrain", help="train a dense baseline with masked language modeling")
    common(p, *TRAINING_FLAGS)
    p.add_argument("--corpus", required=True)
    p.add_argument("--layers", type=int, dest="n_layers")
    p.add_argument("--heads", type=int, dest="n_heads")
    p.add_argument("--dim", type=int, dest="model_dim")
    p.add_argument("--ffn-dim", type=int)
    p.add_argument("--max-seq-len", type=int)
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("prune", help="prune a baseline with gradient or l0 gates")
    common(p, *TRAINING_FLAGS, "--alpha-lr", "--lambda1", "--lambda2", "--importance-batches")
    p.add_argument("--corpus", required=True)
    p.add_argument("--baseline", required=True, help="pretrain run id or directory")
    p.add_argument("--algo", required=True, choices=sorted(PRUNE_ALGOS))
    p.add_argument("--setting", choices=(SHARED, NON_SHARED))
    p.add_argument("--target-size", type=float)
    p.set_defaults(func=cmd_prune)

    p = sub.add_parser("ds-train", help="train one model across a grid of sizes")
    common(p, *TRAINING_FLAGS, "--alpha-lr", "--lambda1", "--importance-batches")
    p.add_argument("--corpus", required=True)
    p.add_argument("--baseline", required=True)
    p.add_argument("--algo", default="ds-grad", choices=sorted(DS_ALGOS))
    p.add_argument("--setting", choices=(SHARED, NON_SHARED))
    p.add_argument("--grid", help="size grid start:stop:step")
    p.set_defaults(func=cmd_ds_train)

    p = sub.add_parser("eval-probe", help="linear probe accuracy on frozen features")
    common(p, *PROBE_FLAGS)
    p.add_argument("--corpus", required=True)
    p.add_argument("--run", required=True, help="run to evaluate")
    p.add_argument("--t", type=float, help="size for dynamic sparsification runs")
    p.add_argument("--epochs", type=int, default=10)
    p.set_defaults(func=cmd_eval_probe)

    p = sub.add_parser("sweep", help="accuracy/size/speed over a grid; all subnetworks in memory")
    common(p, *PROBE_FLAGS)
    p.add_argument("--corpus", required=True)
    p.add_argument("--run", required=True, help="ds-train run to sweep")
    p.add_argument("--grid", help="size grid start:stop:step")
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--reps", type=int, default=5)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("bench", help="CPU throughput of compacted subnetworks, all held in memory")
    # --seed changes no figure; manifest_bench.json records it
    common(p, "--config", "--out-root", "--seed")
    p.add_argument("--run", required=True)
    p.add_argument("--grid", help="size grid start:stop:step (ds runs)")
    p.add_argument("--language", help="language table to bench (ds runs)")
    p.add_argument("--batch-size", type=int, default=1)
    p.add_argument("--seq-len", type=int, default=32)
    p.add_argument("--reps", type=int, default=5)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("report", help="figure-analog CSV from stored artifacts")
    common(p, "--out-root")
    p.add_argument("--run", required=True)
    p.add_argument("--figure", required=True,
                   choices=("layer-profile", "hamming", "size-curve", "corr"))
    p.add_argument("--corpus", help="corpus directory (corr)")
    p.add_argument("--probe-baseline", help="probe.csv of the dense baseline (corr)")
    p.add_argument("--plot", action="store_true", help="also write a PNG when possible")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code else 0
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except PrunelabError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
