"""Span recorder for the traced benchmark run, and the per-layer metrics.

The recorder wraps the public functions of each prunelab module from the
outside: no file of the package changes.  A span is (name, start, end,
parent) and lives in memory until the run writes it out.  Tape ops are only
counted, because a span around each of them would cost more than the op.

The program is single-threaded and has no queues, so no layer waits for
another; every per-layer figure is busy time or a count.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import inspect
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

MODULES = ("cli", "corpus", "tensor", "encoder", "grad_prune", "l0", "ds",
           "trainer", "analysis")

# per-element helpers called thousands of times per operation; their time
# stays in the caller's self time
UNWRAPPED = {"corpus.marker_fraction", "corpus.probe_label", "ds.solve_ds_params"}
# the other public functions of tensor are the tape ops and their helpers
TENSOR_SPANS = {"backward", "save_checkpoint", "load_checkpoint"}

# the 17 differentiable ops, by the name each passes to tensor._make; they
# are counted, not spanned
TAPE_OPS = ("abs", "add", "clamp", "concatenate", "embedding_gather", "gelu",
            "layer_norm", "log", "log_softmax", "matmul", "mean", "multiply",
            "reshape", "sigmoid", "softmax", "sum", "transpose")

METHODS = {
    "corpus": {"Corpus": ("load",)},
    "encoder": {"GateSet": ("from_values", "to_vector", "load_text", "save_text")},
    "ds": {"DSParams": ("load_csv", "save_csv")},
    "trainer": {"Adam": ("step",)},
    "analysis": {"CompactModel": ("logits",)},
}

CLI_COMMANDS = ("gen-corpus", "pretrain", "prune", "ds-train", "sweep", "bench", "report")
RUN_FNS = ("pretrain_baseline", "run_grad_pruning", "run_l0_pruning", "run_ds_training")
STEP_PARTS = ("encoder.encoder_forward", "encoder.mlm_loss", "tensor.backward",
              "trainer.Adam.step")
GATESET_SPANS = tuple(f"encoder.GateSet.{m}" for m in METHODS["encoder"]["GateSet"])

# span name -> counter fed from the wrapped call's result
RESULT_COUNTS = {
    "corpus.mlm_batches": ("corpus.mlm_batches.batches", len),
    "grad_prune.importance_scores": ("grad_prune.importance_scores.batches",
                                     lambda table: table.n_batches),
}


class Recorder:
    """In-memory spans plus counters; wrappers record only while active."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index or -1]
        self.counts: Counter = Counter()
        self.tape_nodes: list[int] = []
        self.active = False
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def span(self, name: str, fn, before=None):
        rec = self
        count = RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            if before is not None:
                before()
            idx = len(rec.spans)
            rec.spans.append([name, time.perf_counter_ns(), 0,
                              rec._stack[-1] if rec._stack else -1])
            rec._stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec._stack.pop()
                rec.spans[idx][2] = time.perf_counter_ns()
            if count is not None:
                rec.counts[count[0]] += count[1](out)
            return out

        return traced

    def _counted_make(self, fn):
        rec = self

        @functools.wraps(fn)
        def make(op, *args, **kwargs):
            if rec.active:
                rec.counts[f"tensor.op.{op}.calls"] += 1
            return fn(op, *args, **kwargs)

        return make

    def install(self):
        """Wrap every public function and the listed methods of each module.

        Names other modules imported (``trainer.encoder_forward``,
        ``cli.compact_model``, ...) are bound to the original objects, so
        every module attribute holding a wrapped original is replaced too.
        """
        mods = {m: importlib.import_module(f"prunelab.{m}") for m in MODULES}
        swap = {}
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__
                        or f"{short}.{attr}" in UNWRAPPED
                        or (short == "tensor" and attr not in TENSOR_SPANS)):
                    continue
                name = (f"cli.{attr[4:].replace('_', '-')}"
                        if short == "cli" and attr.startswith("cmd_") else f"{short}.{attr}")
                before = self._read_tape_length if name == "tensor.backward" else None
                swap[obj] = self.span(name, obj, before)
        swap[mods["tensor"]._make] = self._counted_make(mods["tensor"]._make)
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in swap:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, swap[obj])
        for short, classes in METHODS.items():
            for cls_name, methods in classes.items():
                cls = getattr(mods[short], cls_name)
                for m in methods:
                    raw = cls.__dict__[m]
                    name = f"{short}.{cls_name}.{m}"
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(self.span(name, raw.__func__))
                    else:
                        wrapped = self.span(name, raw)
                    self._restore.append((cls, m, raw))
                    setattr(cls, m, wrapped)
        names = {attr for _, attr, _ in self._restore}
        # a renamed function must fail the traced run, not drop its spans
        for fn in (*RUN_FNS, "encoder_forward", "mlm_loss", "backward", "subnetwork_at",
                   "compact_model", "size_curve", "cmd_bench"):
            if fn not in names:
                raise RuntimeError(f"tracing: no function {fn!r} to wrap")
        self._tensor = mods["tensor"]

    def uninstall(self):
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()

    def _read_tape_length(self):
        self.tape_nodes.append(len(self._tensor.active_tape().nodes))

    @contextmanager
    def recording(self):
        self.active = True
        try:
            yield
        finally:
            self.active = False


def _tail(ms: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 samples beyond it.

    With fewer than 21 samples no percentile at or above the median has ten
    beyond it; the median is reported and its percentile given as 50.
    """
    s = sorted(ms)
    n = len(s)
    k = n - 11
    if k < (n - 1) // 2:
        return float(np.median(s)), 50.0
    return s[k], 100.0 * (k + 1) / n


def per_layer_metrics(spans: list[list], counts: Counter, tape_nodes: list[int],
                      iterations: int) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics (per traced iteration) plus human-readable notes."""
    n_it = float(iterations)
    dur = [(e - s) * 1e-9 for _, s, e, _ in spans]
    child_sum = [0.0] * len(spans)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            child_sum[parent] += dur[i]
    by_name: dict[str, list[int]] = {}
    for i, sp in enumerate(spans):
        by_name.setdefault(sp[0], []).append(i)

    def durations(name):
        return [dur[i] for i in by_name.get(name, ())]

    def total(name):
        return sum(durations(name)) / n_it

    def calls(name):
        return len(by_name.get(name, ())) / n_it

    out: dict[str, float] = {}
    notes: list[str] = []

    def timing(metric, samples_s, tail=True):
        ms = [1e3 * x for x in samples_s]
        out[f"{metric}.ms_p50"] = float(np.median(ms)) if ms else 0.0
        if tail:
            value, pct = _tail(ms) if ms else (0.0, 50.0)
            out[f"{metric}.ms_tail"] = value
            notes.append(f"{metric}: p50 {out[f'{metric}.ms_p50']:.4f} ms, "
                         f"p{pct:.1f} {value:.4f} ms over {len(ms)} samples")

    for cmd in CLI_COMMANDS:
        out[f"cli.{cmd}.s"] = total(f"cli.{cmd}")
    out["cli.self_s"] = sum(dur[i] - child_sum[i] for i, sp in enumerate(spans)
                            if sp[0].startswith("cli.")) / n_it

    out["corpus.gen_corpus.s"] = total("corpus.gen_corpus")
    out["corpus.Corpus.load.s"] = total("corpus.Corpus.load")
    out["corpus.Corpus.load.calls"] = calls("corpus.Corpus.load")
    out["corpus.probe_batches.s"] = total("corpus.probe_batches")
    out["corpus.mlm_batches.s"] = total("corpus.mlm_batches")
    out["corpus.mlm_batches.batches"] = counts["corpus.mlm_batches.batches"] / n_it

    timing("tensor.backward", durations("tensor.backward"))
    out["tensor.backward.calls"] = calls("tensor.backward")
    out["tensor.tape_nodes_per_backward"] = float(np.mean(tape_nodes)) if tape_nodes else 0.0
    for op in TAPE_OPS:
        out[f"tensor.op.{op}.calls"] = counts[f"tensor.op.{op}.calls"] / n_it
    out["tensor.save_checkpoint.s"] = total("tensor.save_checkpoint")
    out["tensor.load_checkpoint.s"] = total("tensor.load_checkpoint")

    timing("encoder.encoder_forward", durations("encoder.encoder_forward"))
    out["encoder.encoder_forward.calls"] = calls("encoder.encoder_forward")
    timing("encoder.mlm_loss", durations("encoder.mlm_loss"), tail=False)
    out["encoder.encoder_hidden.s"] = total("encoder.encoder_hidden")
    outer = [i for n in GATESET_SPANS for i in by_name.get(n, ())
             if spans[i][3] < 0 or spans[spans[i][3]][0] not in GATESET_SPANS]
    out["encoder.GateSet.s"] = sum(dur[i] for i in outer) / n_it
    out["encoder.GateSet.calls"] = len(outer) / n_it
    out["encoder.component_universe.s"] = total("encoder.component_universe")
    out["encoder.component_universe.calls"] = calls("encoder.component_universe")

    out["grad_prune.importance_scores.s"] = total("grad_prune.importance_scores")
    out["grad_prune.importance_scores.batches"] = (
        counts["grad_prune.importance_scores.batches"] / n_it)
    out["grad_prune.select_threshold.s"] = total("grad_prune.select_threshold")

    out["ds.init_ds.s"] = total("ds.init_ds")
    timing("ds.subnetwork_at", durations("ds.subnetwork_at"), tail=False)
    out["ds.subnetwork_at.calls"] = calls("ds.subnetwork_at")
    out["ds.DSParams.load_csv.s"] = total("ds.DSParams.load_csv")
    out["ds.DSParams.save_csv.s"] = total("ds.DSParams.save_csv")
    timing("ds.gate_values_at", durations("ds.gate_values_at"), tail=False)

    # a training step is the interval between successive forward entries
    # made directly by one training-run call
    run_ids = [i for fn in RUN_FNS for i in by_name.get(f"trainer.{fn}", ())]
    children: dict[int, list[int]] = {r: [] for r in run_ids}
    for i, sp in enumerate(spans):
        if sp[3] in children:
            children[sp[3]].append(i)
    steps, step_self, adam, n_steps = [], [], [], 0
    for r in run_ids:
        kids = children[r]
        fwd = [spans[i][1] for i in kids if spans[i][0] == "encoder.encoder_forward"]
        n_steps += len(fwd)
        busy = [0.0] * len(fwd)
        for i in kids:
            name = spans[i][0]
            if name == "trainer.Adam.step":
                adam.append(dur[i])
            if name in STEP_PARTS or name.startswith("l0."):
                k = bisect.bisect_right(fwd, spans[i][1]) - 1
                if k >= 0:
                    busy[k] += dur[i]
        for k in range(len(fwd) - 1):
            width = (fwd[k + 1] - fwd[k]) * 1e-9
            steps.append(width)
            step_self.append(width - busy[k])
    timing("trainer.step", steps)
    out["trainer.step.count"] = n_steps / n_it
    out["trainer.step.self_ms_p50"] = float(np.median(step_self)) * 1e3 if step_self else 0.0
    out["trainer.Adam.step.ms_p50"] = float(np.median(adam)) * 1e3 if adam else 0.0
    out["trainer.finetune_probe.s"] = total("trainer.finetune_probe")
    out["trainer.finetune_probe.calls"] = calls("trainer.finetune_probe")
    out["trainer.write_metrics.s"] = total("trainer.write_metrics")
    for fn in RUN_FNS:
        out[f"trainer.{fn}.s"] = total(f"trainer.{fn}")

    for fn in ("sample_gate", "l0_penalty", "diversity_loss", "sparsity_constraint_loss"):
        timing(f"l0.{fn}", durations(f"l0.{fn}"), tail=False)
    for fn in ("l0_penalty", "expected_gate"):
        out[f"l0.{fn}.calls_per_step"] = calls(f"l0.{fn}") * n_it / n_steps if n_steps else 0.0

    out["analysis.compact_model.s"] = total("analysis.compact_model")
    out["analysis.compact_model.calls"] = calls("analysis.compact_model")
    timing("analysis.forward", durations("analysis.CompactModel.logits"))
    out["analysis.forward.calls"] = calls("analysis.CompactModel.logits")
    for fn in ("size_curve", "hamming_matrix", "layer_profile"):
        out[f"analysis.{fn}.s"] = total(f"analysis.{fn}")
    self_time: Counter = Counter()
    for i, sp in enumerate(spans):
        self_time[sp[0]] += (dur[i] - child_sum[i]) / n_it
    notes.append("largest self times per iteration: " + ", ".join(
        f"{name} {t:.3f} s" for name, t in self_time.most_common(12)))
    notes.append("waiting time: not applicable, the program is single-threaded "
                 "with no queues; every figure is busy time or a count")
    return out, notes
