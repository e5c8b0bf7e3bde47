"""Gated transformer encoder with multilingual MLM head.

Three component families carry gates in [0, 1]:

* attention heads: the attention block output is the gate-weighted sum of
  per-head contributions, each already projected through its slice of the
  output projection, with the output bias added once,
* FFN hidden units: the GeLU activations are gated columnwise between the
  two linear maps,
* embedding ranks: the vocabulary embedding factors as ``E_hat @ diag(g) @ P``
  so a rank gate switches off one inner dimension; the MLM projection is
  tied to the same factorization.

Positional embeddings are learned and never gated.  All biases and layer
norm parameters survive pruning, so a fully gated-off encoder still counts
a bias/layernorm residue.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

import numpy as np
from scipy.special import erf

from . import tensor as T
from .exceptions import ConfigError, ContractError, DimensionError, InputError
from .tensor import Tensor

ATTN_MASK_FILL = -1e9
_LN_EPS = 1e-5
_SQRT2 = float(np.sqrt(2.0))
_INV_SQRT_2PI = float(1.0 / np.sqrt(2.0 * np.pi))

KIND_HEAD = "head"
KIND_HIDDEN = "hidden"
KIND_RANK = "rank"
_KIND_ORDER = {KIND_HEAD: 0, KIND_HIDDEN: 1, KIND_RANK: 2}


@dataclass(frozen=True)
class ModelConfig:
    """Static encoder shape; all dimensions are per the dense model."""

    n_layers: int
    n_heads: int
    model_dim: int
    ffn_dim: int
    vocab_size: int
    max_seq_len: int

    def __post_init__(self):
        for f in fields(self):
            if getattr(self, f.name) < 1:
                raise ConfigError(f"ModelConfig.{f.name} must be >= 1")
        if self.model_dim % self.n_heads != 0:
            raise ConfigError(
                f"model_dim {self.model_dim} not divisible by n_heads {self.n_heads}"
            )

    @property
    def head_dim(self) -> int:
        return self.model_dim // self.n_heads

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def load(cls, run_dir) -> "ModelConfig":
        """The config a run stored in model.json; reads no weights.

        The file must hold a JSON object with exactly the six integer fields.
        """
        path = f"{run_dir}/model.json"
        with open(path) as f:
            try:
                stored = json.load(f)
            except ValueError:
                stored = None
        names = [f.name for f in fields(cls)]
        if not (isinstance(stored, dict) and sorted(stored) == sorted(names)
                and all(type(stored[n]) is int for n in names)):
            raise InputError(f"{path}: expected a JSON object with the integer fields "
                             f"{', '.join(names)}")
        return cls(**stored)


# XLM-R base shape, used by parameter accounting checks and dry runs.
XLMR_BASE = ModelConfig(
    n_layers=12,
    n_heads=12,
    model_dim=768,
    ffn_dim=3072,
    vocab_size=250002,
    max_seq_len=512,
)


def component_universe(config: ModelConfig) -> list[str]:
    """The names of all prunable components of a model, in canonical order.

    A name is ``kind,layer,index``, with an empty layer for embedding ranks
    (``rank,,5``), the first three cells of every component file row.
    Canonical order is heads layer-major, then FFN units layer-major, then
    embedding ranks; every per-component vector and file row follows it.
    """
    layers = range(config.n_layers)
    return ([f"{KIND_HEAD},{layer},{h}" for layer in layers for h in range(config.n_heads)]
            + [f"{KIND_HIDDEN},{layer},{j}" for layer in layers for j in range(config.ffn_dim)]
            + [f"{KIND_RANK},,{k}" for k in range(config.model_dim)])


def _component_key(name: str) -> tuple[int, int, int]:
    """Canonical sort key of a component name: kind, then layer, then index, as numbers."""
    kind, layer, index = name.split(",")
    return _KIND_ORDER[kind], int(layer) if layer else -1, int(index)


def _component_name(kind: str, layer: str, index: str) -> str:
    """The name of a component from the text cells of a file row; ValueError if malformed.

    The layer is empty exactly for ranks; layer and index are integers and
    are written back in their plain form.
    """
    if kind not in _KIND_ORDER or (kind == KIND_RANK) != (layer == ""):
        raise ValueError(f"bad component {kind},{layer},{index}")
    return f"{kind},{int(layer) if layer else ''},{int(index)}"


def component_slices(config: ModelConfig) -> dict:
    """Where each layer's heads, each layer's FFN units and the ranks sit in canonical order.

    Returns ``{"heads": [slice per layer], "hiddens": [slice per layer],
    "ranks": slice}``, the layout the forward passes take their gates in.
    """
    nl, nh, nf = config.n_layers, config.n_heads, config.ffn_dim
    off = nl * nh
    end = off + nl * nf
    return {
        "heads": [slice(i * nh, (i + 1) * nh) for i in range(nl)],
        "hiddens": [slice(off + i * nf, off + (i + 1) * nf) for i in range(nl)],
        "ranks": slice(end, end + config.model_dim),
    }


def split_gates(config: ModelConfig, flat) -> dict:
    """Cut a canonical-order gate vector into the component_slices layout.

    An array gives views into it; a Tensor gives slices recorded on the tape,
    so the gradient of every part reaches the vector.
    """
    slices = component_slices(config)
    return {"heads": [flat[s] for s in slices["heads"]],
            "hiddens": [flat[s] for s in slices["hiddens"]],
            "ranks": flat[slices["ranks"]]}


def component_weights(config: ModelConfig) -> np.ndarray:
    """Size weight per component in canonical order: heads 4*d/H, hidden units 2, ranks 1."""
    head_w = 4.0 * config.model_dim / config.n_heads
    return np.concatenate([np.full(config.n_layers * config.n_heads, head_w),
                           np.full(config.n_layers * config.ffn_dim, 2.0),
                           np.ones(config.model_dim)])


def component_index(components) -> dict[str, int]:
    """Position of each component name in a list of names."""
    return {name: i for i, name in enumerate(components)}


def _parse_floats(path, lineno: int, cells) -> list[float]:
    """Finite floats from the text cells of one file row, or InputError naming the row.

    The loaders parse with plain float() and call this only for a row that
    fails their own cheaper check, to name its fault.
    """
    try:
        values = list(map(float, cells))
    except ValueError:
        raise InputError(f"{path}:{lineno}: non-numeric value in {','.join(cells)!r}") from None
    if not all(map(math.isfinite, values)):
        raise InputError(f"{path}:{lineno}: non-finite value in {','.join(cells)!r}")
    return values


def _format_distinct(values: np.ndarray, fmt) -> list[str]:
    """fmt of each value of a vector, called once per distinct value.

    Gate vectors and DS tables built by bucketing hold a handful of distinct
    values.  Values are told apart by bit pattern, so 0.0 and -0.0 keep their
    own text.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    _, first, inverse = np.unique(values.view(np.int64), return_index=True,
                                  return_inverse=True)
    texts = np.array([fmt(v) for v in values[first].tolist()], dtype=object)
    return texts[inverse].tolist()


class GateSet:
    """Gate values for every component of one model, as one canonical-order vector.

    ``values`` is the float64 vector over component_universe order;
    ``heads`` and ``hiddens`` are per-layer views into it and ``ranks`` the
    view of the embedding ranks, so writing through a view writes ``values``.
    ``hard`` tells whether every value was exactly 0 or 1 at construction.
    """

    def __init__(self, config: ModelConfig, values: np.ndarray):
        """Wrap ``values`` without copying it; from_values copies."""
        self.slices = component_slices(config)
        self.values = np.asarray(values, dtype=np.float64)
        if self.values.shape != (self.slices["ranks"].stop,):
            raise ContractError(f"GateSet: expected {self.slices['ranks'].stop} gate values, "
                                f"got shape {self.values.shape}")
        views = split_gates(config, self.values)
        self.heads, self.hiddens, self.ranks = views["heads"], views["hiddens"], views["ranks"]
        if not (self.values.min() >= 0.0 and self.values.max() <= 1.0):
            raise ContractError("GateSet: gate values must lie in [0, 1]")
        self.hard = bool(np.all((self.values == 0.0) | (self.values == 1.0)))

    @classmethod
    def ones(cls, config: ModelConfig) -> "GateSet":
        return cls(config, np.ones(component_slices(config)["ranks"].stop))

    @classmethod
    def from_values(cls, config: ModelConfig, values) -> "GateSet":
        """Build from a copy of a canonical-order value vector."""
        return cls(config, np.array(values, dtype=np.float64))

    def to_vector(self) -> np.ndarray:
        """A copy of the gate values in canonical order."""
        return self.values.copy()

    def save_text(self, path, config: ModelConfig):
        """One line per component: kind,layer,index,value."""
        texts = _format_distinct(self.values, lambda v: np.format_float_positional(v, trim="-"))
        with open(path, "w") as f:
            f.write("".join(f"{name},{text}\n"
                            for name, text in zip(component_universe(config), texts)))

    @classmethod
    def load_text(cls, path, config: ModelConfig) -> "GateSet":
        """Read save_text output; every component of the model exactly once, values in [0, 1]."""
        universe = component_universe(config)
        index = component_index(universe)
        values = [None] * len(universe)
        with open(path) as f:
            for lineno, line in enumerate(f, 1):
                line = line.strip()
                if not line:
                    continue
                key, _, cell = line.rpartition(",")
                # every name has two commas, so a known key means four cells
                i = index.get(key)
                if i is None:
                    if line.count(",") != 3:
                        raise InputError(f"{path}:{lineno}: expected kind,layer,index,value")
                    raise InputError(f"{path}:{lineno}: component {key} is not in the model")
                if values[i] is not None:
                    raise InputError(f"{path}:{lineno}: second row for component {key}")
                try:
                    value = float(cell)
                except ValueError:
                    value = math.nan
                if not 0.0 <= value <= 1.0:
                    _parse_floats(path, lineno, (cell,))  # names a non-numeric or non-finite cell
                    raise InputError(f"{path}:{lineno}: gate value {value} outside [0, 1]")
                values[i] = value
        if None in values:
            raise InputError(f"{path}: missing gate value for component "
                             f"{universe[values.index(None)]}")
        return cls(config, np.array(values))


def gate_tensors(gateset: GateSet) -> Tensor:
    """A constant gate tensor for a GateSet, in the layout encoder_forward takes."""
    return Tensor(gateset.values)


# ---------------------------------------------------------------------------
# Parameters


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """The dotted name and shape of every parameter, in the order init_params draws them."""
    d, df = config.model_dim, config.ffn_dim
    shapes = {"embed.tok": (config.vocab_size, d), "embed.proj": (d, d),
              "embed.pos": (config.max_seq_len, d)}
    for i in range(config.n_layers):
        p = f"layers.{i}"
        shapes.update({f"{p}.attn.{w}": (d, d) for w in ("wq", "wk", "wv", "wo")})
        shapes.update({f"{p}.attn.{b}": (d,) for b in ("bq", "bk", "bv", "bo")})
        shapes.update({f"{p}.ln1.g": (d,), f"{p}.ln1.b": (d,), f"{p}.ffn.w1": (d, df),
                       f"{p}.ffn.b1": (df,), f"{p}.ffn.w2": (df, d), f"{p}.ffn.b2": (d,),
                       f"{p}.ln2.g": (d,), f"{p}.ln2.b": (d,)})
    return shapes


def init_params(config: ModelConfig, seed: int) -> dict[str, Tensor]:
    """Seeded parameter dictionary with dotted names, all requiring grad.

    Matrices are drawn from zero-mean normals in param_shapes order; layer
    norm gains are ones and every other vector is zeros.
    """
    rng = np.random.default_rng(seed)
    scale, ffn_scale = config.model_dim ** -0.5, config.ffn_dim ** -0.5
    params: dict[str, Tensor] = {}
    for name, shape in param_shapes(config).items():
        if name == "embed.pos":
            value = rng.normal(0.0, 0.02, size=shape)
        elif len(shape) == 2:
            value = rng.normal(0.0, ffn_scale if name.endswith(".w2") else scale, size=shape)
        else:
            value = np.ones(shape) if name.endswith(".g") else np.zeros(shape)
        params[name] = Tensor(value, requires_grad=True)
    return params


class Model:
    """Config plus named parameter tensors."""

    def __init__(self, config: ModelConfig, params: dict[str, Tensor]):
        self.config = config
        self.params = params

    @classmethod
    def init(cls, config: ModelConfig, seed: int) -> "Model":
        return cls(config, init_params(config, seed))

    def save(self, run_dir):
        T.save_checkpoint(f"{run_dir}/weights.gcpt", self.params)
        with open(f"{run_dir}/model.json", "w") as f:
            json.dump(self.config.to_dict(), f, indent=2)

    @classmethod
    def load(cls, run_dir) -> "Model":
        """The model a run saved; weights.gcpt must hold exactly the tensors of model.json."""
        config = ModelConfig.load(run_dir)
        path = f"{run_dir}/weights.gcpt"
        arrays = T.load_checkpoint(path)
        shapes = param_shapes(config)
        for name, shape in shapes.items():
            if name not in arrays:
                raise InputError(f"{path}: no tensor {name}, which model.json implies")
            if arrays[name].shape != shape:
                raise InputError(f"{path}: tensor {name} has shape {arrays[name].shape}, "
                                 f"model.json implies {shape}")
        extra = sorted(set(arrays) - set(shapes))
        if extra:
            raise InputError(f"{path}: tensor {extra[0]} is not a parameter of the model")
        params = {k: Tensor(v, requires_grad=True) for k, v in arrays.items()}
        return cls(config, params)

    def copy(self) -> "Model":
        return Model(
            self.config,
            {k: Tensor(v.data.copy(), requires_grad=True) for k, v in self.params.items()},
        )


# ---------------------------------------------------------------------------
# Forward passes


def _check_gate(g: Tensor, n: int, what: str):
    if g.shape != (n,):
        raise ContractError(f"{what} gate vector must have shape ({n},), got {g.shape}")


def embed_forward(ids: np.ndarray, params, config: ModelConfig, g_rank: Tensor | None) -> Tensor:
    """Low-rank factored token embedding plus ungated positional embedding, as one tape node.

    The rank count is the width of the token table; g_rank None leaves the
    ranks ungated.  The backward scatter-adds the rows of repeated ids.
    """
    op = "embed_forward"
    tok, proj, pos = params["embed.tok"], params["embed.proj"], params["embed.pos"]
    if g_rank is not None:
        _check_gate(g_rank, tok.shape[1], "rank")
    ids = np.asarray(ids)
    if ids.ndim != 2:
        raise ContractError(f"token ids must be (batch, seq), got shape {ids.shape}")
    s, limit = ids.shape[1], min(config.max_seq_len, pos.shape[0])
    if s > limit:
        raise InputError(f"sequence length {s} exceeds max {limit}")
    if not np.issubdtype(ids.dtype, np.integer):
        raise InputError(f"{op}: ids must be integers")
    if ids.size and (ids.min() < 0 or ids.max() >= tok.shape[0]):
        raise InputError(f"{op}: id out of range for table with {tok.shape[0]} rows")
    ok = _finite(op)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        rows = ok(tok.data[ids])
        gated = rows if g_rank is None else ok(rows * g_rank.data)
        out = ok(ok(gated @ proj.data) + ok(pos.data[:s]))

    def backward(g):
        g_pos = np.zeros_like(pos.data)
        # each position once, so this adds each row to zero once
        g_pos[:s] += T._unbroadcast(g, g.shape[1:])
        grads = [(pos, g_pos),
                 (proj, T._unbroadcast(np.swapaxes(gated, -1, -2) @ g, proj.shape))]
        g_rows = g @ np.swapaxes(proj.data, -1, -2)
        if g_rank is not None:
            if g_rank.requires_grad:
                grads.append((g_rank, T._unbroadcast(g_rows * rows, g_rank.shape)))
            g_rows = g_rows * g_rank.data
        g_tok = np.zeros_like(tok.data)
        np.add.at(g_tok, ids.reshape(-1), g_rows.reshape(-1, tok.shape[1]))
        return [*grads, (tok, g_tok)]

    inputs = (tok, proj, pos) if g_rank is None else (tok, proj, pos, g_rank)
    return T._make(op, out, inputs, backward)


def _finite(op: str):
    """A function that returns its array argument once it is checked finite."""
    def check(a):
        T._finite_or_raise(op, a)
        return a

    return check


def _affine(x: np.ndarray, w: np.ndarray, bias: np.ndarray, ok) -> np.ndarray:
    """x @ w + bias, each of the two results checked by ok."""
    out = ok(x @ w)
    out += bias
    return ok(out)


def _layer_norm(r: np.ndarray, gain: np.ndarray, shift: np.ndarray, ok):
    """Last-axis layer norm of an array; returns (out, xhat, inv) and overwrites r.

    Mean and variance take numpy's own steps (sum, then divide by the width)
    over one centred difference, so they equal ``mean`` and ``var`` bit for bit.
    The variance is checked by ok: a row spread beyond about 1e154 squares to
    an infinite variance, which would make ``inv`` 0 and the output finite.
    """
    n = r.shape[-1]
    r -= np.add.reduce(r, axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(ok(np.add.reduce(r * r, axis=-1, keepdims=True) / n) + _LN_EPS)
    xhat = r
    xhat *= inv
    out = xhat * gain
    out += shift
    return out, xhat, inv


def _layer_norm_grad(g: np.ndarray, gain: np.ndarray, xhat: np.ndarray, inv: np.ndarray):
    """Gradients of _layer_norm wrt its input, gain and shift."""
    dxhat = g * gain
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
    lead = tuple(range(g.ndim - 1))
    return (dxhat - m1 - xhat * m2) * inv, (g * xhat).sum(axis=lead), g.sum(axis=lead)


def _softmax(z: np.ndarray) -> np.ndarray:
    """Last-axis softmax of an array, shifted by the row max, computed in z."""
    z -= z.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def _check_input(op: str, x: Tensor, width: int):
    if x.ndim != 3 or x.shape[2] != width:
        raise DimensionError(f"{op}: input must be (batch, seq, {width}), got {x.shape}")


# Each fused node computes what a chain of single tape ops (matmul, add,
# softmax, gelu, layer norm, ...) would, with the same numpy expressions in the
# same order, so the golden runs keep every bit.  That includes C-order copies
# of transposed operands, because BLAS may round a product with a transposed
# operand differently.  An intermediate that no later step reads is updated in
# place, which does the same arithmetic and spares allocating large
# temporaries.  A node owns every consumer of its input x, so its backward
# adds x's gradient parts in the order that chain's reverse pass would:
# ((residual + v) + k) + q for attention, residual + FFN for the FFN.


def attention_block(x: Tensor, params, config: ModelConfig, layer: int,
                    g_head: Tensor | None = None, attn_bias: np.ndarray | None = None,
                    rows: int | None = None) -> Tensor:
    """One post-LN attention sublayer, LN(x + MHA(x)), as one tape node.

    x has shape (batch, seq, d).  The head count is the width of wq over the
    head size, so a compacted layer runs the same code.  Each head's context is
    scaled by its gate before the output projection; g_head None leaves the
    heads ungated.  attn_bias, when given, is an additive (batch, 1, 1, seq)
    array applied to the pre-softmax scores.

    rows, when given, computes only the first ``rows`` query positions: keys
    and values still cover the whole sequence, and the output is
    (batch, rows, d).  Those rows equal the full block's bit for bit as long
    as rows >= 2, which keeps every product a matrix-matrix one.  It is for
    inference only: under a recording tape whose inputs need gradients it
    raises ContractError.
    """
    op = "attention_block"
    p = f"layers.{layer}"
    wq, bq, wk, bk, wv, bv, wo, bo = (params[f"{p}.attn.{n}"] for n in
                                      ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo"))
    gain, shift = params[f"{p}.ln1.g"], params[f"{p}.ln1.b"]
    inputs = (x, wq, bq, wk, bk, wv, bv, wo, bo, gain, shift)
    _check_input(op, x, wq.shape[0])
    hd = config.head_dim
    nh = wq.shape[1] // hd
    if g_head is not None:
        _check_gate(g_head, nh, "head")
        inputs = (*inputs, g_head)
    b, s, _ = x.shape
    xd = x.data
    xq = xd
    if rows is not None:
        if not 1 <= rows <= s:
            raise ContractError(f"{op}: rows must lie in [1, {s}], got {rows}")
        if T.active_tape().enabled and any(t.requires_grad for t in inputs):
            raise ContractError(f"{op}: rows is for inference only; run it under no_grad")
        xq = xd[:, :rows]
    n = xq.shape[1]
    scale = hd ** -0.5
    gate = None if g_head is None else g_head.data.reshape(1, nh, 1, 1)

    def heads(t):
        # (b, n, nh * hd) -> C-order (b, nh, n, hd)
        return np.ascontiguousarray(t.reshape(b, t.shape[1], nh, hd).transpose(0, 2, 1, 3))

    ok = _finite(op)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        q, k, v = (heads(_affine(xin, w.data, bias.data, ok))
                   for xin, w, bias in ((xq, wq, bq), (xd, wk, bk), (xd, wv, bv)))
        kt = np.ascontiguousarray(k.transpose(0, 1, 3, 2))
        scores = ok(q @ kt)
        scores *= scale
        ok(scores)
        if attn_bias is not None:
            scores += attn_bias
            ok(scores)
        probs = ok(_softmax(scores))
        ctx = ok(probs @ v)
        gated = ctx if gate is None else ok(ctx * gate)
        merged = np.ascontiguousarray(gated.transpose(0, 2, 1, 3)).reshape(b, n, nh * hd)
        r = _affine(merged, wo.data, bo.data, ok)
        r += xq
        out, xhat, inv = _layer_norm(ok(r), gain.data, shift.data, ok)

    def backward(g):
        gr, g_gain, g_shift = _layer_norm_grad(g, gain.data, xhat, inv)
        grads = [(wo, T._unbroadcast(np.swapaxes(merged, -1, -2) @ gr, wo.shape)),
                 (bo, T._unbroadcast(gr, bo.shape)), (gain, g_gain), (shift, g_shift)]
        g_gated = (gr @ np.swapaxes(wo.data, -1, -2)).reshape(b, s, nh, hd).transpose(0, 2, 1, 3)
        g_ctx = g_gated
        if gate is not None:
            g_ctx = g_gated * gate
            if g_head.requires_grad:
                grads.append((g_head, T._unbroadcast(g_gated * ctx, gate.shape).reshape(nh)))
        g_probs = g_ctx @ np.swapaxes(v, -1, -2)
        g_v = np.swapaxes(probs, -1, -2) @ g_ctx
        g_qk = (g_probs - (g_probs * probs).sum(axis=-1, keepdims=True)) * probs * scale
        g_q = g_qk @ np.swapaxes(kt, -1, -2)
        g_k = (np.swapaxes(q, -1, -2) @ g_qk).transpose(0, 1, 3, 2)
        gx = gr
        for g_t, w, bias in ((g_v, wv, bv), (g_k, wk, bk), (g_q, wq, bq)):
            g_lin = g_t.transpose(0, 2, 1, 3).reshape(b, s, nh * hd)
            gx = gx + g_lin @ np.swapaxes(w.data, -1, -2)
            grads += [(w, T._unbroadcast(np.swapaxes(xd, -1, -2) @ g_lin, w.shape)),
                      (bias, T._unbroadcast(g_lin, bias.shape))]
        return [(x, gx), *grads]

    return T._make(op, out, inputs, backward)


def ffn_block(x: Tensor, params, config: ModelConfig, layer: int,
              g_hidden: Tensor | None = None) -> Tensor:
    """One post-LN FFN sublayer, LN(x + FFN(x)), as one tape node.

    The GeLU activations are gated columnwise between the two linear maps;
    g_hidden None leaves them ungated.  The width is that of w1, so a
    compacted layer runs the same code.
    """
    op = "ffn_block"
    p = f"layers.{layer}"
    w1, b1, w2, b2 = (params[f"{p}.ffn.{n}"] for n in ("w1", "b1", "w2", "b2"))
    gain, shift = params[f"{p}.ln2.g"], params[f"{p}.ln2.b"]
    _check_input(op, x, w1.shape[0])
    if g_hidden is not None:
        _check_gate(g_hidden, w1.shape[1], "hidden")
    xd = x.data
    ok = _finite(op)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        hp = _affine(xd, w1.data, b1.data, ok)
        cdf = hp / _SQRT2
        erf(cdf, out=cdf)
        cdf += 1.0
        cdf *= 0.5
        h = ok(hp * cdf)
        gated = h if g_hidden is None else ok(h * g_hidden.data)
        r = _affine(gated, w2.data, b2.data, ok)
        r += xd
        out, xhat, inv = _layer_norm(ok(r), gain.data, shift.data, ok)

    def backward(g):
        gr, g_gain, g_shift = _layer_norm_grad(g, gain.data, xhat, inv)
        grads = [(w2, T._unbroadcast(np.swapaxes(gated, -1, -2) @ gr, w2.shape)),
                 (b2, T._unbroadcast(gr, b2.shape)), (gain, g_gain), (shift, g_shift)]
        g_h = gr @ np.swapaxes(w2.data, -1, -2)
        if g_hidden is not None:
            if g_hidden.requires_grad:
                grads.append((g_hidden, T._unbroadcast(g_h * h, g_hidden.shape)))
            g_h = g_h * g_hidden.data
        pdf = np.exp(-0.5 * hp * hp) * _INV_SQRT_2PI
        g_hp = g_h * (cdf + hp * pdf)
        grads += [(w1, T._unbroadcast(np.swapaxes(xd, -1, -2) @ g_hp, w1.shape)),
                  (b1, T._unbroadcast(g_hp, b1.shape))]
        return [(x, gr + g_hp @ np.swapaxes(w1.data, -1, -2)), *grads]

    inputs = (x, w1, b1, w2, b2, gain, shift)
    return T._make(op, out, inputs if g_hidden is None else (*inputs, g_hidden), backward)


def mlm_head(x: Tensor, params, g_rank: Tensor | None = None) -> Tensor:
    """MLM logits (batch, seq, vocab) from hidden states, as one tape node.

    The projection is tied to the factored embedding: (x @ proj.T) * g_rank
    @ tok.T, so a rank gate switches off the same inner dimension in both;
    g_rank None leaves the ranks ungated.
    """
    op = "mlm_head"
    proj, tok = params["embed.proj"], params["embed.tok"]
    _check_input(op, x, proj.shape[1])
    if g_rank is not None:
        _check_gate(g_rank, tok.shape[1], "rank")
    ok = _finite(op)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        proj_t = np.ascontiguousarray(proj.data.T)
        z = ok(x.data @ proj_t)
        gated = z if g_rank is None else ok(z * g_rank.data)
        tok_t = np.ascontiguousarray(tok.data.T)
        logits = gated @ tok_t

    def backward(g):
        grads = [(tok, T._unbroadcast(np.swapaxes(gated, -1, -2) @ g, tok_t.shape).T)]
        g_z = g @ np.swapaxes(tok_t, -1, -2)
        if g_rank is not None:
            if g_rank.requires_grad:
                grads.append((g_rank, T._unbroadcast(g_z * z, g_rank.shape)))
            g_z = g_z * g_rank.data
        grads += [(x, g_z @ np.swapaxes(proj_t, -1, -2)),
                  (proj, T._unbroadcast(np.swapaxes(x.data, -1, -2) @ g_z, proj_t.shape).T)]
        return grads

    inputs = (x, proj, tok) if g_rank is None else (x, proj, tok, g_rank)
    return T._make(op, logits, inputs, backward)


def attention_bias(ids: np.ndarray, pad_id: int) -> np.ndarray | None:
    """Additive pre-softmax bias (batch, 1, 1, seq) masking padded key positions."""
    pad = ids == pad_id
    if not pad.any():
        return None
    return np.where(pad, ATTN_MASK_FILL, 0.0)[:, None, None, :]


def encoder_hidden(model: Model, ids: np.ndarray, gates: dict | None,
                   pad_id: int | None = None, final_rows: int | None = None) -> Tensor:
    """Token ids to final hidden states (batch, seq, d) under per-block gates.

    gates is in the split_gates layout, or None to run the model ungated.
    Each layer's head count, FFN width and the rank count are read from the
    weight shapes, so a compacted model runs here too.  final_rows, when
    given, computes the last layer at the first final_rows positions only and
    returns (batch, final_rows, d); see attention_block's rows, which makes it
    inference-only.
    """
    config, params = model.config, model.params
    if gates is None:
        gates = {"heads": [None] * config.n_layers, "hiddens": [None] * config.n_layers,
                 "ranks": None}
    bias = attention_bias(np.asarray(ids), pad_id) if pad_id is not None else None
    x = embed_forward(ids, params, config, gates["ranks"])
    last = config.n_layers - 1
    for i in range(config.n_layers):
        rows = final_rows if i == last else None
        x = attention_block(x, params, config, i, gates["heads"][i], bias, rows)
        x = ffn_block(x, params, config, i, gates["hiddens"][i])
    return x


def encoder_forward(model: Model, ids: np.ndarray, gates: Tensor | None,
                    pad_id: int | None = None) -> Tensor:
    """Token ids to MLM logits (batch, seq, vocab) under the given gates.

    gates is one canonical-order gate tensor, such as gate_tensors gives or
    a learned vector, or None for an ungated forward, which equals the
    all-ones gates bit for bit.  The MLM projection reuses the gated
    embedding factorization.
    """
    if gates is not None:
        n = component_slices(model.config)["ranks"].stop
        if not (isinstance(gates, Tensor) and gates.shape == (n,)):
            shape = gates.shape if isinstance(gates, Tensor) else type(gates).__name__
            raise ContractError(f"gates must be None or a Tensor of shape ({n},), got {shape}")
        gates = split_gates(model.config, gates)
    x = encoder_hidden(model, ids, gates, pad_id)
    return mlm_head(x, model.params, None if gates is None else gates["ranks"])


def mlm_loss(logits: Tensor, mask_positions: np.ndarray, gold_ids: np.ndarray) -> Tensor:
    """Mean cross entropy over masked positions only, as one tape node."""
    op = "mlm_loss"
    b, s, v = logits.shape
    mask_positions = np.asarray(mask_positions, dtype=bool)
    gold_ids = np.asarray(gold_ids)
    if mask_positions.shape != (b, s) or gold_ids.shape != (b, s):
        raise ContractError(
            f"mask/gold shapes {mask_positions.shape}/{gold_ids.shape} do not match logits {(b, s)}"
        )
    flat_idx = np.flatnonzero(mask_positions.reshape(-1))
    if flat_idx.size == 0:
        raise InputError("mlm_loss: batch contains no masked positions")
    gold = gold_ids.reshape(-1)[flat_idx]
    if gold.min() < 0 or gold.max() >= v:
        raise InputError("mlm_loss: gold token id out of vocabulary range")
    onehot = np.zeros((flat_idx.size, v))
    onehot[np.arange(flat_idx.size), gold] = 1.0
    scale = -1.0 / flat_idx.size
    ok = _finite(op)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        rows = ok(logits.data.reshape(b * s, v)[flat_idx])
        shifted = rows - rows.max(axis=-1, keepdims=True)
        logp = ok(shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True)))
        value = ok(ok(logp * onehot).sum()) * scale

    def backward(g):
        g_logp = (g * scale) * onehot
        g_rows = g_logp - np.exp(logp) * g_logp.sum(axis=-1, keepdims=True)
        g_logits = np.zeros((b * s, v))
        # flat_idx has no repeats, so this adds each row to zero once
        g_logits[flat_idx] += g_rows
        return [(logits, g_logits.reshape(b, s, v))]

    return T._make(op, value, (logits,), backward)


# ---------------------------------------------------------------------------
# Accounting


def count_params(config: ModelConfig, gateset: GateSet) -> dict[str, int]:
    """Parameter counts under a hard GateSet.

    Embedding: vocab * active_ranks + active_ranks * d + positional table.
    Encoder per layer: attention matrices scaled by the active-head fraction,
    FFN matrices scaled by active hidden units, biases and layernorms whole.
    """
    if not gateset.hard:
        raise ContractError("count_params requires a hard GateSet")
    d, df, v = config.model_dim, config.ffn_dim, config.vocab_size
    k = int(gateset.ranks.sum())
    embedding = v * k + k * d + config.max_seq_len * d
    encoder = 0
    for i in range(config.n_layers):
        h = int(gateset.heads[i].sum())
        n = int(gateset.hiddens[i].sum())
        attn = 4 * d * config.head_dim * h + 4 * d
        ffn = 2 * d * n + df + d
        encoder += attn + ffn + 4 * d
    return {
        "embedding_params": int(embedding),
        "encoder_params": int(encoder),
        "total_params": int(embedding + encoder),
    }


def encoder_sparsity(gateset: GateSet, weights: np.ndarray) -> float:
    """Weighted fraction of encoder units removed; embedding ranks excluded."""
    if not gateset.hard:
        raise ContractError("encoder_sparsity requires a hard GateSet")
    encoder = slice(0, gateset.slices["ranks"].start)
    w = np.asarray(weights, dtype=np.float64)[encoder]
    total = float(w.sum())
    if total == 0.0:
        raise ContractError("encoder_sparsity: weight table has no encoder components")
    active = float((w * gateset.values[encoder]).sum())
    return 1.0 - active / total


def retained_fraction(values: np.ndarray, weights: np.ndarray) -> float:
    """Weighted fraction of all components kept, embedding ranks included."""
    return float((values * weights).sum() / weights.sum())
