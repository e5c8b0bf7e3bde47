"""Dense float64 tensors with reverse-mode autodiff on an explicit tape.

Every operation validates shapes, computes the forward value with numpy,
rejects non-finite results, and, when any input tracks gradients, records
a backward closure on the active (thread-local) tape.  ``backward`` replays
the tape once in reverse, leaves gradients on the leaf tensors and clears
the tape.  Elementwise binary ops follow numpy broadcasting; gradients of
broadcast operands are summed back to the operand shape.
"""

from __future__ import annotations

import math
import struct
import threading
from contextlib import contextmanager

import numpy as np

from .exceptions import ContractError, DimensionError, InputError, NumericError

CHECKPOINT_MAGIC = b"GCPT"
CHECKPOINT_VERSION = 1


class Tensor:
    """A dense float64 array with optional gradient tracking.

    Attributes:
        data: the underlying contiguous float64 ndarray.
        grad: gradient ndarray of identical shape, populated by ``backward``.
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

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    # Convenience operators; all defer to the module-level ops.
    def sum(self, axis=None, keepdims: bool = False):
        return _sum(self, axis, keepdims)

    def __getitem__(self, key):
        return basic_slice(self, key)


class _Node:
    __slots__ = ("out", "backward")

    def __init__(self, out, backward):
        self.out = out
        self.backward = backward


class Tape:
    """Execution-ordered record of differentiable operations.

    Nodes are appended in forward execution order, which is a topological
    order of the computation graph, so a single reverse scan visits every
    node exactly once.
    """

    def __init__(self):
        self.nodes: list[_Node] = []
        self.enabled = True

    def clear(self):
        self.nodes = []


_state = threading.local()


def active_tape() -> Tape:
    tape = getattr(_state, "tape", None)
    if tape is None:
        tape = Tape()
        _state.tape = tape
    return tape


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


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


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
        tape.nodes.append(_Node(out, backward_fn))
    return out


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand shape."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def backward(loss: Tensor):
    """Run reverse-mode accumulation from a scalar loss.

    Gradients are accumulated into ``.grad`` of every requires_grad leaf
    that contributed to the loss.  The active tape is cleared afterwards,
    including on error.
    """
    if not isinstance(loss, Tensor) or loss.data.ndim != 0:
        raise ContractError("backward requires a scalar tensor")
    tape = active_tape()
    if not tape.nodes:
        raise ContractError("backward called with an empty tape")
    try:
        produced = {id(n.out) for n in tape.nodes}
        grads: dict[int, np.ndarray] = {id(loss): np.ones((), dtype=np.float64)}
        holders: dict[int, Tensor] = {id(loss): loss}
        for node in reversed(tape.nodes):
            g = grads.pop(id(node.out), None)
            if g is None:
                continue
            holders.pop(id(node.out), None)
            for t, gt in node.backward(g):
                if not t.requires_grad:
                    continue
                key = id(t)
                if key in grads:
                    grads[key] = grads[key] + gt
                else:
                    grads[key] = np.asarray(gt, dtype=np.float64)
                    holders[key] = t
        for key, g in grads.items():
            t = holders[key]
            if id(t) in produced:
                continue
            t.grad = g if t.grad is None else t.grad + g
    finally:
        tape.clear()


# ---------------------------------------------------------------------------
# Generic ops.  The model's layers and the gate objectives are fused nodes
# (encoder, l0) that record themselves through _make.


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            value = a.data + b.data
    except ValueError:
        raise DimensionError(f"add: shapes {a.shape} and {b.shape} do not broadcast")

    def grad(g):
        return [(a, _unbroadcast(g, a.shape)), (b, _unbroadcast(g, b.shape))]

    return _make("add", value, (a, b), grad)


def multiply(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            value = a.data * b.data
    except ValueError:
        raise DimensionError(f"multiply: shapes {a.shape} and {b.shape} do not broadcast")

    def grad(g):
        return [
            (a, _unbroadcast(g * b.data, a.shape)),
            (b, _unbroadcast(g * a.data, b.shape)),
        ]

    return _make("multiply", value, (a, b), grad)


def _sum(x: Tensor, axis, keepdims: bool) -> Tensor:
    if axis is not None and not isinstance(axis, int):
        raise ContractError("sum: axis must be None or an int")
    if axis is not None and not -x.ndim <= axis < x.ndim:
        raise DimensionError(f"sum: axis {axis} out of range for shape {x.shape}")
    value = x.data.sum(axis=axis, keepdims=keepdims)

    def grad(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return [(x, np.broadcast_to(g, x.shape).copy())]

    return _make("sum", value, (x,), grad)


def basic_slice(x, key) -> Tensor:
    """x[key] for a key of ints and slices; gradient is written into zeros.

    Basic indexing selects each element at most once, so the backward needs
    no scatter-add.  The value is a copy, so an in-place update of x, such as
    an optimizer step, does not reach it.
    """
    x = as_tensor(x)
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


def fold_sum(x) -> Tensor:
    """Left-to-right sum ((x0 + x1) + x2) + ... of a 1-d tensor.

    ``sum`` groups terms pairwise in blocks of eight, so its rounding depends
    on the length; a fold keeps the grouping of a running Python sum.
    """
    x = as_tensor(x)
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

    def read(f, n, what):
        buf = f.read(n)
        if len(buf) != n:
            raise InputError(f"{path}: checkpoint truncated while reading {what}")
        return buf

    out: dict[str, np.ndarray] = {}
    with open(path, "rb") as f:
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
            # read straight into the array, without an intermediate bytes copy
            arr = np.empty(dims, dtype="<f8")
            if f.readinto(arr.reshape(-1).view(np.uint8)) != arr.nbytes:
                raise InputError(f"{path}: checkpoint truncated while reading payload of {name}")
            out[name] = arr
    return out
