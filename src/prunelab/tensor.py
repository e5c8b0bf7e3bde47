"""Dense float64 tensors with reverse-mode autodiff on an explicit tape.

Every operation validates shapes, computes the forward value with numpy,
and, when any input tracks gradients, records a backward closure on the
active tape.  ``_make`` rejects a non-finite output, naming the node: the one
finite check a node needs, but where an intermediate can turn finite before
the output (a saturated sigmoid, exp(-inf), 1/sqrt(inf)).  ``backward`` replays
the tape once in reverse, leaves gradients on the leaf tensors and clears
the tape.  Every backward closure returns each gradient in its operand's
shape.
"""

from __future__ import annotations

import math
import os
import struct
from contextlib import contextmanager

import numpy as np

from .exceptions import ContractError, DimensionError, InputError, NumericError

CHECKPOINT_MAGIC = b"GCPT"
CHECKPOINT_VERSION = 1


class Tensor:
    """A dense float64 array with optional gradient tracking.

    Attributes:
        data: the underlying contiguous float64 ndarray.
        grad: gradient of identical shape, or None; ``backward`` adds to it.
        requires_grad: whether this tensor participates in differentiation.
    """

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        # note: ascontiguousarray would promote 0-d arrays to 1-d
        self.data = np.asarray(data, dtype=np.float64, order="C")
        self.grad = None
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError("item() requires a single-element tensor")
        return float(self.data.reshape(()))

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    def __getitem__(self, key):
        return basic_slice(self, key)


class Tape:
    """Execution-ordered record of differentiable operations.

    Nodes are ``(out, backward)`` pairs, appended in forward execution
    order, which is a topological order of the computation graph, so a single
    reverse scan visits every node exactly once.
    """

    def __init__(self):
        self.nodes: list[tuple[Tensor, object]] = []
        self.enabled = True

    def clear(self):
        self.nodes = []


# one tape per process: nothing runs the tape from a second thread
_TAPE = Tape()


def active_tape() -> Tape:
    return _TAPE


@contextmanager
def no_grad():
    """Suspend tape recording; forwards run but nothing is differentiable."""
    tape = active_tape()
    prev = tape.enabled
    tape.enabled = False
    try:
        yield
    finally:
        tape.enabled = prev


def _finite_or_raise(op: str, arr: np.ndarray):
    # np.isfinite(arr).all() skips the dispatch np.all adds, and a scalar
    # needs no array pass at all; both are exact elementwise checks
    ok = math.isfinite(arr) if arr.ndim == 0 else np.isfinite(arr).all()
    if not ok:
        raise NumericError(f"{op} produced a non-finite value")


def _make(op: str, value: np.ndarray, inputs, backward_fn) -> Tensor:
    _finite_or_raise(op, value)
    tape = active_tape()
    track = tape.enabled and any(t.requires_grad for t in inputs)
    out = Tensor(value, requires_grad=track)
    if track:
        tape.nodes.append((out, backward_fn))
    return out


def backward(loss: Tensor):
    """Run reverse-mode accumulation from a scalar loss.

    Gradients live on the tensors.  The loss is seeded with 1; each node, in
    reverse, takes and clears its output's ``.grad`` and adds each gradient it
    returns to its operand's ``.grad`` when that operand requires grad.  Tensors
    the tape produced end with no gradient; each contributing leaf ends with
    the sum of its contributions.  A leaf that already held a gradient gets them
    added one at a time, so callers set ``.grad`` to None between steps.  The
    active tape is cleared afterwards, including on error.
    """
    if not isinstance(loss, Tensor) or loss.data.ndim != 0:
        raise ContractError("backward requires a scalar tensor")
    tape = active_tape()
    if not tape.nodes:
        raise ContractError("backward called with an empty tape")
    try:
        loss.grad = np.ones((), dtype=np.float64)
        for out, grad_fn in reversed(tape.nodes):
            g, out.grad = out.grad, None
            if g is None:
                continue
            for t, gt in grad_fn(g):
                if t.requires_grad:
                    t.grad = np.asarray(gt, dtype=np.float64) if t.grad is None else t.grad + gt
    finally:
        tape.clear()


# ---------------------------------------------------------------------------
# Generic ops.  The model's layers and the gate objectives are fused nodes
# (encoder, l0) that record themselves through _make.


def add(a: Tensor, b: Tensor) -> Tensor:
    """a + b of two tensors of one shape."""
    if a.shape != b.shape:
        raise DimensionError(f"add: shapes {a.shape} and {b.shape} differ")
    with np.errstate(over="ignore", invalid="ignore"):
        value = a.data + b.data

    def grad(g):
        return [(a, g), (b, g)]

    return _make("add", value, (a, b), grad)


def multiply(x: Tensor, c: float) -> Tensor:
    """x * c for a constant c; only x is recorded."""
    with np.errstate(over="ignore", invalid="ignore"):
        value = x.data * c

    def grad(g):
        return [(x, g * c)]

    return _make("multiply", value, (x,), grad)


def basic_slice(x: Tensor, key) -> Tensor:
    """x[key] for a key of ints and slices; gradient is written into zeros.

    Basic indexing selects each element at most once, so the backward needs
    no scatter-add.  The value is a copy, so an in-place update of x, such as
    an optimizer step, does not reach it.
    """
    parts = key if isinstance(key, tuple) else (key,)
    for p in parts:
        if isinstance(p, (bool, np.bool_)) or not isinstance(p, (int, np.integer, slice)):
            raise ContractError(f"slice: key parts must be ints or slices, got {p!r}")
    try:
        value = np.array(x.data[key])
    except IndexError:
        raise DimensionError(f"slice: key {key!r} out of range for shape {x.shape}")

    def grad(g):
        gx = np.zeros_like(x.data)
        gx[key] = g
        return [(x, gx)]

    return _make("slice", value, (x,), grad)


def fold_sum(x: Tensor) -> Tensor:
    """Left-to-right sum ((x0 + x1) + x2) + ... of a 1-d tensor.

    ``sum`` groups terms pairwise in blocks of eight, so its rounding depends
    on the length; a fold keeps the grouping of a running Python sum.
    """
    if x.ndim != 1 or x.size == 0:
        raise DimensionError(f"fold_sum: need a non-empty 1-d tensor, got {x.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        value = np.add.accumulate(x.data)[-1]

    def grad(g):
        return [(x, np.full(x.shape, g))]

    return _make("fold_sum", value, (x,), grad)


# ---------------------------------------------------------------------------
# Checkpoint serialization
#
# Layout, all little-endian: magic "GCPT", version u32, tensor count u32,
# then per tensor {name length u32, UTF-8 name, rank u32, dims u32 each,
# float64 payload}.


def save_checkpoint(path, params: dict):
    """Write named arrays to a binary checkpoint file."""
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<II", CHECKPOINT_VERSION, len(params)))
        for name, value in params.items():
            arr = value.data if isinstance(value, Tensor) else np.asarray(value)
            arr = np.asarray(arr, dtype="<f8", order="C")
            raw = name.encode("utf-8")
            f.write(struct.pack("<I", len(raw)))
            f.write(raw)
            f.write(struct.pack("<I", arr.ndim))
            if arr.ndim:
                f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            f.write(arr.tobytes())


def load_checkpoint(path) -> dict:
    """Read a checkpoint written by save_checkpoint; returns name -> ndarray."""

    def need(f, n, what):
        # a header may declare more bytes than the file holds; check before allocating
        if n > size - f.tell():
            raise InputError(f"{path}: checkpoint truncated while reading {what}")

    def read(f, n, what):
        need(f, n, what)
        return f.read(n)

    out: dict[str, np.ndarray] = {}
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        if read(f, 4, "magic") != CHECKPOINT_MAGIC:
            raise InputError(f"{path}: not a checkpoint file (bad magic)")
        version, count = struct.unpack("<II", read(f, 8, "header"))
        if version != CHECKPOINT_VERSION:
            raise InputError(f"{path}: unsupported checkpoint version {version}")
        for _ in range(count):
            (nlen,) = struct.unpack("<I", read(f, 4, "name length"))
            raw = read(f, nlen, "name")
            try:
                name = raw.decode("utf-8")
            except UnicodeDecodeError:
                raise InputError(f"{path}: tensor name {raw!r} is not UTF-8") from None
            (rank,) = struct.unpack("<I", read(f, 4, "rank"))
            dims = struct.unpack(f"<{rank}I", read(f, 4 * rank, "dims")) if rank else ()
            need(f, 8 * math.prod(dims), f"payload of {name}")
            # read straight into the array, without an intermediate bytes copy
            arr = np.empty(dims, dtype="<f8")
            f.readinto(arr.reshape(-1).view(np.uint8))
            out[name] = arr
    return out
