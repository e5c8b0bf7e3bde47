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

from . import tensor as T
from .exceptions import ConfigError, ContractError, InputError
from .tensor import Tensor

ATTN_MASK_FILL = -1e9

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


@dataclass(frozen=True, order=False)
class ComponentId:
    """Identity of one prunable unit. ``layer`` is None for embedding ranks."""

    kind: str
    layer: int | None
    index: int

    def __post_init__(self):
        if self.kind not in _KIND_ORDER:
            raise ContractError(f"unknown component kind {self.kind!r}")
        if (self.kind == KIND_RANK) != (self.layer is None):
            raise ContractError("layer must be None exactly for rank components")

    def sort_key(self):
        return (_KIND_ORDER[self.kind], -1 if self.layer is None else self.layer, self.index)

    def __str__(self):
        layer = "" if self.layer is None else str(self.layer)
        return f"{self.kind},{layer},{self.index}"


def component_universe(config: ModelConfig) -> list[ComponentId]:
    """All prunable components of a model, in canonical order.

    Canonical order is heads layer-major, then FFN units layer-major, then
    embedding ranks; every per-component vector and file row follows it.
    """
    return ([ComponentId(KIND_HEAD, layer, h)
             for layer in range(config.n_layers) for h in range(config.n_heads)]
            + [ComponentId(KIND_HIDDEN, layer, j)
               for layer in range(config.n_layers) for j in range(config.ffn_dim)]
            + [ComponentId(KIND_RANK, None, k) for k in range(config.model_dim)])


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


def component_weights(config: ModelConfig) -> np.ndarray:
    """Size weight per component in canonical order: heads 4*d/H, hidden units 2, ranks 1."""
    head_w = 4.0 * config.model_dim / config.n_heads
    return np.concatenate([np.full(config.n_layers * config.n_heads, head_w),
                           np.full(config.n_layers * config.ffn_dim, 2.0),
                           np.ones(config.model_dim)])


def component_index(components) -> dict[str, int]:
    """Position of each component by its text key ``kind,layer,index``."""
    return {str(cid): i for i, cid in enumerate(components)}


def _parse_floats(path, lineno: int, cells) -> list[float]:
    """Finite floats from the text cells of one file row, or InputError naming the row."""
    try:
        values = list(map(float, cells))
    except ValueError:
        raise InputError(f"{path}:{lineno}: non-numeric value in {','.join(cells)!r}") from None
    if not all(map(math.isfinite, values)):
        raise InputError(f"{path}:{lineno}: non-finite value in {','.join(cells)!r}")
    return values


class GateSet:
    """Gate values for every component of one model, as one canonical-order vector.

    ``values`` is the float64 vector over component_universe order;
    ``heads`` and ``hiddens`` are per-layer views into it and ``ranks`` the
    view of the embedding ranks, so writing through a view writes ``values``.
    ``hard`` asserts every value is exactly 0 or 1.
    """

    def __init__(self, config: ModelConfig, values: np.ndarray, hard: bool):
        """Wrap ``values`` without copying it; from_values copies."""
        self.slices = component_slices(config)
        self.values = np.asarray(values, dtype=np.float64)
        if self.values.shape != (self.slices["ranks"].stop,):
            raise ContractError(f"GateSet: expected {self.slices['ranks'].stop} gate values, "
                                f"got shape {self.values.shape}")
        self.heads = [self.values[s] for s in self.slices["heads"]]
        self.hiddens = [self.values[s] for s in self.slices["hiddens"]]
        self.ranks = self.values[self.slices["ranks"]]
        self.hard = bool(hard)
        if not (self.values.min() >= 0.0 and self.values.max() <= 1.0):
            raise ContractError("GateSet: gate values must lie in [0, 1]")
        if self.hard and not np.all((self.values == 0.0) | (self.values == 1.0)):
            raise ContractError("GateSet: hard gates must be exactly 0 or 1")

    @classmethod
    def ones(cls, config: ModelConfig) -> "GateSet":
        return cls(config, np.ones(component_slices(config)["ranks"].stop), hard=True)

    @classmethod
    def zeros(cls, config: ModelConfig) -> "GateSet":
        return cls(config, np.zeros(component_slices(config)["ranks"].stop), hard=True)

    @classmethod
    def from_values(cls, config: ModelConfig, values, hard: bool) -> "GateSet":
        """Build from a copy of a canonical-order value vector."""
        return cls(config, np.array(values, dtype=np.float64), hard)

    def to_vector(self) -> np.ndarray:
        """A copy of the gate values in canonical order."""
        return self.values.copy()

    def save_text(self, path, config: ModelConfig):
        """One line per component: kind,layer,index,value."""
        with open(path, "w") as f:
            for cid, v in zip(component_universe(config), self.values.tolist()):
                f.write(f"{cid},{np.format_float_positional(v, trim='-')}\n")

    @classmethod
    def load_text(cls, path, config: ModelConfig) -> "GateSet":
        """Read save_text output; every component of the model exactly once, values in [0, 1]."""
        universe = component_universe(config)
        index = component_index(universe)
        values = np.full(len(universe), np.nan)
        with open(path) as f:
            for lineno, line in enumerate(f, 1):
                line = line.strip()
                if not line:
                    continue
                parts = line.split(",")
                if len(parts) != 4:
                    raise InputError(f"{path}:{lineno}: expected kind,layer,index,value")
                key = ",".join(parts[:3])
                if key not in index:
                    raise InputError(f"{path}:{lineno}: component {key} is not in the model")
                i = index[key]
                if not np.isnan(values[i]):
                    raise InputError(f"{path}:{lineno}: second row for component {key}")
                (value,) = _parse_floats(path, lineno, parts[3:])
                if not 0.0 <= value <= 1.0:
                    raise InputError(f"{path}:{lineno}: gate value {value} outside [0, 1]")
                values[i] = value
        missing = np.flatnonzero(np.isnan(values))
        if missing.size:
            raise InputError(f"{path}: missing gate value for component {universe[missing[0]]}")
        return cls(config, values, hard=bool(np.all((values == 0.0) | (values == 1.0))))


def gate_tensors(gateset: GateSet) -> dict:
    """Constant tensors for a GateSet, in the layout the forwards expect."""
    return {
        "heads": [Tensor(h) for h in gateset.heads],
        "hiddens": [Tensor(h) for h in gateset.hiddens],
        "ranks": Tensor(gateset.ranks),
    }


def ones_gate_tensors(config: ModelConfig, requires_grad: bool = False) -> dict:
    """All-ones gate tensors; set requires_grad to read gate gradients."""
    return {
        "heads": [
            Tensor(np.ones(config.n_heads), requires_grad=requires_grad)
            for _ in range(config.n_layers)
        ],
        "hiddens": [
            Tensor(np.ones(config.ffn_dim), requires_grad=requires_grad)
            for _ in range(config.n_layers)
        ],
        "ranks": Tensor(np.ones(config.model_dim), requires_grad=requires_grad),
    }


# ---------------------------------------------------------------------------
# Parameters


def init_params(config: ModelConfig, seed: int) -> dict[str, Tensor]:
    """Seeded parameter dictionary with dotted names, all requiring grad."""
    rng = np.random.default_rng(seed)
    d, df, v = config.model_dim, config.ffn_dim, config.vocab_size
    scale = d ** -0.5
    params: dict[str, Tensor] = {}

    def leaf(name, value):
        params[name] = Tensor(value, requires_grad=True)

    leaf("embed.tok", rng.normal(0.0, scale, size=(v, d)))
    leaf("embed.proj", rng.normal(0.0, scale, size=(d, d)))
    leaf("embed.pos", rng.normal(0.0, 0.02, size=(config.max_seq_len, d)))
    for i in range(config.n_layers):
        p = f"layers.{i}"
        for w in ("wq", "wk", "wv", "wo"):
            leaf(f"{p}.attn.{w}", rng.normal(0.0, scale, size=(d, d)))
        for b in ("bq", "bk", "bv", "bo"):
            leaf(f"{p}.attn.{b}", np.zeros(d))
        leaf(f"{p}.ln1.g", np.ones(d))
        leaf(f"{p}.ln1.b", np.zeros(d))
        leaf(f"{p}.ffn.w1", rng.normal(0.0, scale, size=(d, df)))
        leaf(f"{p}.ffn.b1", np.zeros(df))
        leaf(f"{p}.ffn.w2", rng.normal(0.0, df ** -0.5, size=(df, d)))
        leaf(f"{p}.ffn.b2", np.zeros(d))
        leaf(f"{p}.ln2.g", np.ones(d))
        leaf(f"{p}.ln2.b", np.zeros(d))
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
        config = ModelConfig.load(run_dir)
        arrays = T.load_checkpoint(f"{run_dir}/weights.gcpt")
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


def mha_forward(x: Tensor, params, config: ModelConfig, layer: int, g_head: Tensor | None,
                attn_bias=None) -> Tensor:
    """Multi-head attention block; output is sum of gated head contributions.

    x has shape (batch, seq, d).  The head count is the width of wq over the
    head size, so a compacted layer runs the same code; g_head None leaves
    the heads ungated.  attn_bias, when given, is an additive
    (batch, 1, 1, seq) tensor applied to the pre-softmax scores.
    """
    p = f"layers.{layer}.attn"
    b, s, _ = x.shape
    hd = config.head_dim
    nh = params[f"{p}.wq"].shape[1] // hd
    if g_head is not None:
        _check_gate(g_head, nh, "head")

    def split(t):
        # (b, s, nh * hd) -> (b, heads, s, head_dim)
        return t.reshape((b, s, nh, hd)).transpose((0, 2, 1, 3))

    q = split(T.matmul(x, params[f"{p}.wq"]) + params[f"{p}.bq"])
    k = split(T.matmul(x, params[f"{p}.wk"]) + params[f"{p}.bk"])
    v = split(T.matmul(x, params[f"{p}.wv"]) + params[f"{p}.bv"])
    scores = T.multiply(T.matmul(q, k.transpose((0, 1, 3, 2))), hd ** -0.5)
    if attn_bias is not None:
        scores = scores + attn_bias
    ctx = T.matmul(T.softmax(scores), v)
    if g_head is not None:
        ctx = T.multiply(ctx, g_head.reshape((1, nh, 1, 1)))
    merged = ctx.transpose((0, 2, 1, 3)).reshape((b, s, nh * hd))
    return T.matmul(merged, params[f"{p}.wo"]) + params[f"{p}.bo"]


def ffn_forward(x: Tensor, params, config: ModelConfig, layer: int,
                g_hidden: Tensor | None) -> Tensor:
    """Position-wise FFN with gated GeLU activations; g_hidden None leaves them ungated."""
    p = f"layers.{layer}.ffn"
    if g_hidden is not None:
        _check_gate(g_hidden, params[f"{p}.w1"].shape[1], "hidden")
    h = T.gelu(T.matmul(x, params[f"{p}.w1"]) + params[f"{p}.b1"])
    if g_hidden is not None:
        h = T.multiply(h, g_hidden)
    return T.matmul(h, params[f"{p}.w2"]) + params[f"{p}.b2"]


def embed_forward(ids: np.ndarray, params, config: ModelConfig, g_rank: Tensor | None) -> Tensor:
    """Low-rank factored token embedding plus ungated positional embedding.

    The rank count is the width of the token table; g_rank None leaves the
    ranks ungated.
    """
    if g_rank is not None:
        _check_gate(g_rank, params["embed.tok"].shape[1], "rank")
    ids = np.asarray(ids)
    if ids.ndim != 2:
        raise ContractError(f"token ids must be (batch, seq), got shape {ids.shape}")
    if ids.shape[1] > config.max_seq_len:
        raise InputError(f"sequence length {ids.shape[1]} exceeds max {config.max_seq_len}")
    tok = T.embedding_gather(params["embed.tok"], ids)
    if g_rank is not None:
        tok = T.multiply(tok, g_rank)
    x = T.matmul(tok, params["embed.proj"])
    pos = T.embedding_gather(params["embed.pos"], np.arange(ids.shape[1]))
    return x + pos


def attention_bias(ids: np.ndarray, pad_id: int) -> Tensor | None:
    """Additive pre-softmax bias masking padded key positions."""
    pad = ids == pad_id
    if not pad.any():
        return None
    bias = np.where(pad, ATTN_MASK_FILL, 0.0)
    return Tensor(bias[:, None, None, :])


def encoder_hidden(model: Model, ids: np.ndarray, gates: dict | None,
                   pad_id: int | None = None) -> Tensor:
    """Token ids to final hidden states (batch, seq, d) under the given gates.

    Each layer's head count, FFN width and the rank count are read from the
    weight shapes, so a compacted model runs here too; gates None runs the
    model ungated.
    """
    config, params = model.config, model.params
    if gates is None:
        gates = {"heads": [None] * config.n_layers, "hiddens": [None] * config.n_layers,
                 "ranks": None}
    elif len(gates["heads"]) != config.n_layers or len(gates["hiddens"]) != config.n_layers:
        raise ContractError("gate tensors do not match the model layer count")
    bias = attention_bias(np.asarray(ids), pad_id) if pad_id is not None else None
    x = embed_forward(ids, params, config, gates["ranks"])
    for i in range(config.n_layers):
        a = mha_forward(x, params, config, i, gates["heads"][i], bias)
        x = T.layer_norm(x + a, params[f"layers.{i}.ln1.g"], params[f"layers.{i}.ln1.b"])
        f = ffn_forward(x, params, config, i, gates["hiddens"][i])
        x = T.layer_norm(x + f, params[f"layers.{i}.ln2.g"], params[f"layers.{i}.ln2.b"])
    return x


def encoder_forward(model: Model, ids: np.ndarray, gates: dict | None,
                    pad_id: int | None = None) -> Tensor:
    """Token ids to MLM logits (batch, seq, vocab) under the given gates.

    gates holds tensors as produced by gate_tensors / ones_gate_tensors, or
    is None for an ungated forward, which equals the all-ones gates bit for
    bit.  The MLM projection reuses the gated embedding factorization.
    """
    params = model.params
    x = encoder_hidden(model, ids, gates, pad_id)
    z = T.matmul(x, T.transpose(params["embed.proj"], (1, 0)))
    if gates is not None:
        z = T.multiply(z, gates["ranks"])
    return T.matmul(z, T.transpose(params["embed.tok"], (1, 0)))


def mlm_loss(logits: Tensor, mask_positions: np.ndarray, gold_ids: np.ndarray) -> Tensor:
    """Mean cross entropy over masked positions only."""
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
    rows = T.embedding_gather(logits.reshape((b * s, v)), flat_idx)
    logp = T.log_softmax(rows)
    onehot = np.zeros((flat_idx.size, v))
    onehot[np.arange(flat_idx.size), gold] = 1.0
    return T.multiply(T.multiply(logp, onehot).sum(), -1.0 / flat_idx.size)


def cross_entropy(logits: Tensor, gold: np.ndarray) -> Tensor:
    """Mean cross entropy for (rows, classes) logits against integer labels."""
    n, c = logits.shape
    gold = np.asarray(gold)
    if gold.shape != (n,):
        raise ContractError(f"labels must have shape ({n},), got {gold.shape}")
    onehot = np.zeros((n, c))
    onehot[np.arange(n), gold] = 1.0
    return T.multiply(T.multiply(T.log_softmax(logits), onehot).sum(), -1.0 / n)


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
