"""Self-test of the benchmark at smoke size.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run

sys.path.insert(0, os.path.join(run.ROOT, "src"))

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _main(capsys, workload, trace, seed=5):
    rc = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "1",
                   "--trace", str(trace)], size="smoke")
    lines = capsys.readouterr().out.strip().splitlines()
    assert rc == 0
    return json.loads(lines[-1]), lines


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_the_end_to_end_metrics_without_failures(capsys, workload):
    result, lines = _main(capsys, workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for name, unit in run.WORKLOAD_METRICS.items():
        assert any(line.startswith(f"{name} = ") for line in lines)
    assert f"error_rate = 0 {run.WORKLOAD_METRICS['error_rate']}" in lines


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(capsys, workload):
    result, _ = _main(capsys, workload, 1)
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert ({k: v["unit"] for k, v in metrics.items()}
            == {m["name"]: m["unit"] for m in SPEC["per_layer"]})
    value = {k: v["value"] for k, v in metrics.items()}
    l0 = [k for k in value if k.startswith("l0.")]
    if workload == "gate-learning":
        assert all(value[k] > 0 for k in l0)
        assert value["tensor.backward.calls"] > 0 and value["trainer.step.count"] > 0
    else:
        assert all(value[k] == 0 for k in l0)
    if workload == "xlmr-grid":
        assert value["tensor.backward.calls"] == 0
        assert value["analysis.forward.calls"] > 0 and value["ds.init_ds.s"] > 0
    if workload == "walkthrough":
        assert value["cli.sweep.s"] > 0 and value["trainer.finetune_probe.calls"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_child_spans_nest_inside_their_parents(workload):
    spans = run.run(workload, 5, 0.0, True, "smoke")["spans"]
    assert spans
    for name, start, end, parent in spans:
        assert start <= end, name
        if parent >= 0:
            _, p_start, p_end, _ = spans[parent]
            assert p_start <= start and end <= p_end, (name, spans[parent][0])
    names = {s[0] for s in spans}
    assert any(n.startswith("l0.") for n in names) == (workload == "gate-learning")


def _truncate(path):
    with open(path) as f:
        lines = f.readlines()
    with open(path, "w") as f:
        f.writelines(lines[: len(lines) // 2])


def _drop_line(path):
    with open(path) as f:
        lines = f.readlines()
    with open(path, "w") as f:
        f.writelines(lines[:3] + lines[4:])


@pytest.mark.parametrize("workload, op, damage", [
    ("xlmr-grid", "tables", lambda: _truncate("run/ds.csv")),
    ("xlmr-grid", "tables", lambda: _drop_line("run/gates_en.txt")),
    ("gate-learning", "prune", lambda: _drop_line("runs/prune-l0-improved-s5/gates_de.txt")),
    ("gate-learning", "ds-train", lambda: _truncate("runs/ds-l0-s5/ds.csv")),
])
def test_damaged_artifact_counts_as_a_failed_operation(workload, op, damage):
    def fault(name):
        if name == op:
            damage()

    result = run.run(workload, 5, 0.0, False, "smoke", fault=fault)["result"]
    assert result["failed"] > 0 and not result["correct"]


def test_one_seed_gives_identical_artifacts():
    first = run.run("gate-learning", 5, 0.0, False, "smoke")["digests"]
    again = run.run("gate-learning", 5, 0.0, False, "smoke")["digests"]
    other = run.run("gate-learning", 6, 0.0, False, "smoke")["digests"]
    assert first and first == again
    assert other != first


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.dirname(os.path.abspath(run.__file__)), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "walkthrough",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
