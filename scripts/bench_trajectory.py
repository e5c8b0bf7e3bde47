"""Assemble a BENCH_<n>.json trajectory file from perfbench run records.

Each run of ``python3 perfbench/run.py`` leaves a record under
``.bench_work/records/`` of the checkout it ran in.  This script reads the
records of one checkout, which must all come from one clean commit, and
writes per workload the median and quartiles of every end-to-end metric and
workload figure, the per-operation medians, the per-layer metrics of the
traced run (the ones known to be stale flagged as such), every run's values
and the exact commands.

Usage: python3 scripts/bench_trajectory.py RECORDS_DIR --out BENCH_<n>.json
"""

import argparse
import glob
import json
import os
import re
import statistics
import sys

END_TO_END = ("wall_s", "setup_s", "peak_rss_mb")
FIGURES = ("train_tokens_per_s", "bench_sentences_per_s")

# per-layer metrics that do not measure what their names say, with the reason
STALE_OPS = ("abs", "clamp", "concatenate", "embedding_gather", "gelu", "layer_norm", "log",
             "log_softmax", "matmul", "mean", "reshape", "sigmoid", "softmax", "sum",
             "transpose")
STALE = {
    **{f"tensor.op.{op}.calls": "the tape has no such op; perfbench/tracing.py TAPE_OPS "
                                "lacks slice, fold_sum and the ten fused nodes"
       for op in STALE_OPS},
    "tensor.backward.ms_p50": "one median over every kind of backward, so it reads the mix "
                              "of kinds, not their speed",
    "corpus.mlm_batches.s": "times building the batch stream only; batches are drawn "
                            "inside the training loop",
}
STALE_ENV = {"blas_pinning": "says prunelab.analysis._single_thread is a null context; "
                             "it pins numpy's OpenBLAS itself"}

HEADER = re.compile(r"workload (\S+), seed (\d+), ([0-9.]+) s, trace ([01])$")
FIGURE = re.compile(r"(\w+) = ([-0-9.e+]+) ")
OPERATION = re.compile(r"(\S+) ([0-9.]+) s( FAILED)?")


def summary(values):
    """Median and quartiles (inclusive method) of a list of numbers, and the numbers."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def parse(record: dict) -> dict:
    lines = record["lines"]
    match = HEADER.match(lines[0])
    if match is None:
        raise SystemExit(f"unrecognised record header: {lines[0]!r}")
    workload, seed, seconds, trace = match.groups()
    figures, iterations = {}, []
    for line in lines[1:]:
        if line.startswith("iteration "):
            head, ops = line.split(": ", 1)
            iterations.append({"traced": head.endswith("(traced)"),
                               "ops": [(m.group(1), float(m.group(2)), bool(m.group(3)))
                                       for m in OPERATION.finditer(ops)]})
        elif (m := FIGURE.match(line)) is not None:
            figures[m.group(1)] = float(m.group(2))
    command = (f"python3 perfbench/run.py --workload {workload} --seed {seed} "
               f"--seconds {float(seconds):g} --trace {trace}")
    return {"workload": workload, "seed": int(seed), "trace": trace == "1", "command": command,
            "figures": figures, "iterations": iterations, "result": record["result"]}


def operation_medians(runs) -> dict:
    """Per operation, the median over runs of each run's median over its iterations."""
    per_run = []
    for run in runs:
        times = {}
        for it in run["iterations"]:
            if it["traced"] or any(failed for _, _, failed in it["ops"]):
                continue
            for name, seconds, _ in it["ops"]:
                times.setdefault(name, []).append(seconds)
        per_run.append({name: statistics.median(v) for name, v in times.items()})
    names = list(dict.fromkeys(n for r in per_run for n in r))
    return {n: statistics.median(r[n] for r in per_run if n in r) for n in names}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("records", help="a checkout's .bench_work/records directory")
    ap.add_argument("--out", required=True, help="BENCH_<n>.json to write")
    args = ap.parse_args(argv)

    paths = sorted(p for p in glob.glob(os.path.join(args.records, "*.json"))
                   if not p.endswith(".spans.json"))
    if not paths:
        print(f"no records under {args.records}", file=sys.stderr)
        return 2
    records = []
    for path in paths:
        with open(path) as f:
            records.append(json.load(f))
    trees = {(r["env"]["commit"], r["env"]["dirty"], r["env"]["src_sha256"]) for r in records}
    env = records[0]["env"]
    if len(trees) != 1 or env["dirty"] is not False:
        print(f"records must come from one clean commit; found {sorted(map(str, trees))}",
              file=sys.stderr)
        return 2
    runs = [parse(r) for r in records]
    workloads = {}
    for name in sorted({r["workload"] for r in runs}):
        timed = sorted((r for r in runs if r["workload"] == name and not r["trace"]),
                       key=lambda r: r["seed"])
        traced = [r for r in runs if r["workload"] == name and r["trace"]]
        entry = {
            "runs": len(timed),
            "attempted": sum(r["result"]["attempted"] for r in timed),
            "failed": sum(r["result"]["failed"] for r in timed),
            "end_to_end": {m: summary([r["figures"][m] for r in timed]) for m in END_TO_END},
            "figures": {m: summary([r["figures"][m] for r in timed]) for m in FIGURES
                        if all(m in r["figures"] for r in timed) and timed},
            "operation_medians_s": operation_medians(timed),
            "per_run": [{"seed": r["seed"], **{m: r["figures"][m] for m in END_TO_END}}
                        for r in timed],
            "commands": [r["command"] for r in timed + traced],
        }
        if traced:
            layer = traced[0]["result"]["metrics"]
            entry["per_layer"] = {
                "seed": traced[0]["seed"], "failed": traced[0]["result"]["failed"],
                "metrics": {k: {**v, **({"stale": STALE[k]} if k in STALE else {})}
                            for k, v in layer.items()},
            }
        workloads[name] = entry
    out = {
        "commit": env["commit"], "dirty": env["dirty"], "src_sha256": env["src_sha256"],
        "environment": {k: v for k, v in env.items() if k != "seed"},
        "stale_environment_fields": STALE_ENV,
        "statistics": "median and quartiles (statistics.quantiles, inclusive) over the "
                      "untraced runs; operation medians are medians over runs of each "
                      "run's median over its iterations",
        "workloads": workloads,
    }
    with open(args.out, "w") as f:
        json.dump(out, f, indent=1, sort_keys=False)
        f.write("\n")
    print(f"{args.out}: {len(runs)} runs over {len(workloads)} workloads at {env['commit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
