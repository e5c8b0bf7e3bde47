"""prunelab benchmark: one workload, one process, metrics on stdout.

Run from the repository root:

    python3 perfbench/run.py --workload walkthrough --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the last line of stdout is a JSON object whose metrics are
the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` they are its
per-layer metrics, taken from spans around the package's public functions.
BLAS is pinned to one thread through the environment before numpy loads.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3

# name -> unit; the end-to-end metrics every workload reports
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# printed for the workloads that define them; not in the result line,
# because a metric there must be non-zero on every workload
WORKLOAD_METRICS = {"train_tokens_per_s": "tokens/s", "bench_sentences_per_s": "sentences/s",
                    "error_rate": "failed/attempted"}


def seconds_since_launch() -> float:
    """Time since this process started, from the kernel's start time (10 ms ticks)."""
    with open("/proc/self/stat") as f:
        start_ticks = int(f.read().rsplit(")", 1)[1].split()[19])
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")


def _start_and_import() -> float:
    """Seconds a fresh interpreter takes to start and import the benchmark's modules."""
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"), here]))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import workloads"], env=env, check=True)
    return time.perf_counter() - t0


def _git(*args) -> str | None:
    try:
        out = subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _blas_threads() -> dict:
    """Thread count each loaded OpenBLAS reports about itself."""
    import ctypes

    with open("/proc/self/maps") as f:
        libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    out = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = fn()
                break
    return out


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    with open("/proc/meminfo") as f:
        mem_kb = int(next(line for line in f if line.startswith("MemTotal")).split()[1])
    with open("/proc/cpuinfo") as f:
        cpu = next((line.split(":", 1)[1].strip() for line in f
                    if line.startswith("model name")), platform.processor())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        import threadpoolctl  # noqa: F401
        pool = "threadpoolctl present; prunelab.analysis pins bench timings itself"
    except ImportError:
        pool = ("threadpoolctl absent, so prunelab.analysis._single_thread is a null "
                "context; BLAS pinned by the environment before numpy loads")
    src = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(ROOT, "src"))):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as f:
                    src.update(name.encode() + f.read())
    commit = _git("rev-parse", "HEAD")
    return {
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu, "ram_gb": round(mem_kb / 2**20, 2),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "blas_threads_reported": _blas_threads(), "blas_pinning": pool,
        "commit": commit,
        "dirty": None if commit is None else bool(_git("status", "--porcelain",
                                                        "--untracked-files=no")),
        "src_sha256": src.hexdigest(), "seed": seed,
    }


def _rates(iterations) -> dict[str, float]:
    """Workload figures from each operation's median time over complete iterations.

    A median per operation, not per iteration, keeps one slow operation in
    one iteration from moving the figure.
    """
    done = [it for it in iterations if it.ok]
    if not done:
        return {"wall_s": 0.0, "train_tokens_per_s": None, "bench_sentences_per_s": None}
    ops = [(r.tokens, r.sentences, statistics.median(it.ops[i].seconds for it in done))
           for i, r in enumerate(done[0].ops)]
    train_s = sum(t for tokens, _, t in ops if tokens)
    bench_s = sum(t for _, sents, t in ops if sents)
    return {"wall_s": sum(t for _, _, t in ops),
            "train_tokens_per_s": sum(o[0] for o in ops) / train_s if train_s else None,
            "bench_sentences_per_s": sum(o[1] for o in ops) / bench_s if bench_s else None}


def _measure(workload, base, seconds, recorder=None, fault=None, start_index=0):
    """Iterate until the next iteration would end past the time budget."""
    from workloads import run_iteration

    out, t0 = [], time.perf_counter()
    while True:
        it = run_iteration(workload, os.path.join(base, f"iter{start_index + len(out)}"),
                           recorder, fault)
        out.append(it)
        elapsed = time.perf_counter() - t0
        for r in it.ops:
            if r.error:
                print(f"operation {r.name} failed: {r.error}", file=sys.stderr)
        if elapsed + it.elapsed > seconds:
            return out


def run(workload_name: str, seed: int, seconds: float, trace: bool, size: str = "full",
        fault=None) -> dict:
    """Set up, measure and check one workload; returns the result and its report."""
    from workloads import WORKLOADS

    # interpreter start plus imports: this process once, and fresh
    # interpreters importing the same modules for the repeats
    starts = [seconds_since_launch()] + [_start_and_import() for _ in range(SETUP_REPEATS - 1)]
    base = os.path.join(ROOT, ".bench_work", f"{workload_name}-s{seed}-p{os.getpid()}")
    workload = WORKLOADS[workload_name](seed, base, size)
    lines = [f"workload {workload_name}, seed {seed}, {seconds} s, trace {int(trace)}"]
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(base, ignore_errors=True)
            os.makedirs(base)
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                workload.setup()
            setups.append(time.perf_counter() - t0)
        setup_s = statistics.median(starts) + statistics.median(setups)
        lines.append("set-up: start and imports " + ", ".join(f"{s:.3f}" for s in starts)
                     + " s; input building " + ", ".join(f"{s:.3f}" for s in setups) + " s")
        if not trace:
            iterations = _measure(workload, base, seconds, fault=fault)
            everything, spans = iterations, None
        else:
            from tracing import Recorder, per_layer_metrics

            # untraced, traced, untraced: the first warms caches and the
            # allocator, the last is the baseline for the tracing overhead
            first = _measure(workload, base, 0.0, fault=fault)
            recorder = Recorder()
            recorder.install()
            try:
                left = seconds - 2 * first[0].elapsed
                traced = _measure(workload, base, left, recorder, fault, start_index=1)
            finally:
                recorder.uninstall()
            last = _measure(workload, base, 0.0, fault=fault, start_index=1 + len(traced))
            iterations, everything = first + last, first + traced + last
            spans = recorder.spans
            layer, notes = per_layer_metrics(recorder.spans, recorder.counts,
                                             recorder.tape_nodes, len(traced))
            layer["trace.overhead_s"] = _rates(traced)["wall_s"] - _rates(last)["wall_s"]
            lines += notes
    finally:
        shutil.rmtree(base, ignore_errors=True)

    attempted = sum(len(it.ops) for it in everything)
    failed = sum(1 for it in everything for r in it.ops if r.error)
    # every complete iteration, traced or not, must reproduce the first one
    # byte for byte: one seed gives one set of artifacts
    complete = [it for it in everything if it.ok]
    for it in complete[1:]:
        attempted += 1
        if it.digests != complete[0].digests:
            failed += 1
            differ = sorted(k for k in set(it.digests) | set(complete[0].digests)
                            if it.digests.get(k) != complete[0].digests.get(k))
            print(f"artifacts differ between iterations with one seed: {differ}",
                  file=sys.stderr)
    for k, it in enumerate(everything):
        lines.append(f"iteration {k}{' (traced)' if it.traced else ''}: "
                     + ", ".join(f"{r.name} {r.seconds:.3f} s" + (" FAILED" if r.error else "")
                                 for r in it.ops))
    figures = _rates(iterations)
    figures["setup_s"] = setup_s
    figures["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    figures["error_rate"] = failed / attempted
    units = {**END_TO_END, **WORKLOAD_METRICS}
    for name, unit in units.items():
        v = figures[name]
        lines.append(f"{name} = " + (f"{v:.6g} {unit}" if v is not None else
                                     "n/a (this workload does not run that step)"))
    if trace:
        metrics = {k: {"value": v, "unit": _layer_unit(k)} for k, v in layer.items()}
    else:
        metrics = {k: {"value": figures[k], "unit": u} for k, u in END_TO_END.items()}
    result = {"correct": failed == 0 and bool(complete), "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return {"result": result, "lines": lines, "spans": spans,
            "digests": complete[0].digests if complete else {}}


def _layer_unit(name: str) -> str:
    if name.endswith((".ms_p50", ".ms_tail", "_ms_p50")):
        return "ms"
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith("calls_per_step"):
        return "calls/step"
    if name == "tensor.tape_nodes_per_backward":
        return "nodes"
    return "count"


def main(argv=None, size: str = "full", fault=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("walkthrough", "gate-learning", "xlmr-grid"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "prunelab", "__init__.py")):
        print(f"no prunelab sources under {os.path.join(ROOT, 'src')}; run the benchmark "
              "from a full checkout", file=sys.stderr)
        return 2
    if os.path.join(ROOT, "src") not in sys.path:
        sys.path.insert(0, os.path.join(ROOT, "src"))
    here = os.path.dirname(os.path.abspath(__file__))
    if here not in sys.path:
        sys.path.insert(0, here)
    out = run(args.workload, args.seed, args.seconds, bool(args.trace), size, fault)
    env = environment(args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    for line in out["lines"]:
        print(line)
    records = os.path.join(ROOT, ".bench_work", "records")
    os.makedirs(records, exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-t{args.trace}-p{os.getpid()}"
    with open(os.path.join(records, stem + ".json"), "w") as f:
        json.dump({"env": env, "result": out["result"], "lines": out["lines"],
                   "digests": out["digests"]}, f, indent=1)
    if out["spans"] is not None:
        with open(os.path.join(records, stem + ".spans.json"), "w") as f:
            json.dump(out["spans"], f)
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    # BLAS pools read their thread count when the library loads
    for var in BLAS_ENV:
        os.environ[var] = "1"
    sys.exit(main())
