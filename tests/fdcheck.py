"""Central finite-difference gradient oracle shared by the test suite.

The oracle perturbs raw input arrays and re-runs the forward computation,
so it is independent of the backward implementation it checks.
"""

import numpy as np

from prunelab import tensor as T
from prunelab.encoder import (ATTN_MASK_FILL, ModelConfig, attention_block, embed_forward,
                              ffn_block, mlm_head, mlm_loss)
from prunelab.l0 import (HC_BETA, ONE_THRESHOLD, ZERO_THRESHOLD, diversity_loss,
                         expected_gate, l0_penalty, sample_gate, sparsity_constraint_loss)

# the gate objectives' fixed inputs: a target size and a same-family pair in the prior
TARGET = 0.3
# multiply's constant factor
SCALE = -1.7


def _noise_u(n):
    return (np.arange(n) + 0.5) / n


def _weights(n):
    return 1.0 + np.arange(n) % 3


def _prior(n):
    prior = 1.0 - np.eye(n)
    prior[0, 1] = prior[1, 0] = 0.0
    return prior


def fd_grad(build_loss, arrays, which, h=1e-5):
    """Numerical gradient of build_loss wrt arrays[which] by central differences.

    build_loss receives the list of arrays and must return a float.
    """
    base = [a.copy() for a in arrays]
    target = base[which]
    g = np.zeros_like(target)
    it = np.nditer(target, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = target[idx]
        target[idx] = orig + h
        up = build_loss(base)
        target[idx] = orig - h
        down = build_loss(base)
        target[idx] = orig
        g[idx] = (up - down) / (2.0 * h)
        it.iternext()
    return g


def max_rel_err(analytic, numeric):
    denom = np.maximum(np.abs(numeric), 1.0)
    return float(np.max(np.abs(analytic - numeric) / denom))


def weighted_scalar(out, weights):
    """sum(out * weights) for fixed weights, recorded as one tape node.

    The tape's generic ops only add equal shapes and scale by constants, so
    the tests reduce an op's output to a loss through this node of their own.
    """
    weights = np.broadcast_to(np.asarray(weights, dtype=np.float64), out.shape)

    def grad(g):
        return [(out, g * weights)]

    return T._make("weighted_scalar", (out.data * weights).sum(), (out,), grad)


def _attention(xs, n_heads, gated, bias):
    """attention_block of layer 0 built from x, the eight weights, the norm and the gate."""
    names = ("attn.wq", "attn.bq", "attn.wk", "attn.bk", "attn.wv", "attn.bv",
             "attn.wo", "attn.bo", "ln1.g", "ln1.b")
    params = {f"layers.0.{n}": t for n, t in zip(names, xs[1:11])}
    b, s, dm = xs[0].shape
    config = ModelConfig(1, n_heads, dm, 1, 1, s)
    return attention_block(xs[0], params, config, 0, xs[11] if gated else None, bias)


def _ffn(xs, gated):
    names = ("ffn.w1", "ffn.b1", "ffn.w2", "ffn.b2", "ln2.g", "ln2.b")
    params = {f"layers.0.{n}": t for n, t in zip(names, xs[1:7])}
    config = ModelConfig(1, 1, xs[0].shape[2], xs[1].shape[1], 1, xs[0].shape[1])
    return ffn_block(xs[0], params, config, 0, xs[7] if gated else None)


def _embed(xs, ids, gated):
    params = {"embed.tok": xs[0], "embed.proj": xs[1], "embed.pos": xs[2]}
    config = ModelConfig(1, 1, xs[1].shape[1], 1, xs[0].shape[0], xs[2].shape[0])
    return embed_forward(ids, params, config, xs[3] if gated else None)


def _head(xs, gated):
    params = {"embed.proj": xs[1], "embed.tok": xs[2]}
    return mlm_head(xs[0], params, xs[3] if gated else None)


# Each case: name -> (builder, n_inputs). The builder maps a list of input
# Tensors to the op output Tensor; input shapes come from shapes_for.
def op_cases(rng):
    d = int(rng.integers(2, 5))
    m = int(rng.integers(2, 5))
    k = int(rng.integers(2, 5))
    b = int(rng.integers(1, 3))
    ids = rng.integers(0, m, size=(b, d))
    axis_pick = int(rng.integers(0, 2))
    # the fused nodes' fixed inputs are drawn from no generator, so adding a
    # case leaves every other case's random inputs as they were
    dm = 2 * k
    attn = [(b, m, dm)] + [(dm, dm), (dm,)] * 4 + [(dm,), (dm,)]
    pad = np.zeros((b, 1, 1, m))
    pad[..., -1] = ATTN_MASK_FILL
    ffn = [(b, m, d), (d, k), (k,), (k, d), (d,), (d,), (d,)]
    head = [(b, m, d), (k, d), (d + 3, k)]
    mask = np.arange(b * m).reshape(b, m) % 2 == 0
    gold = (3 * np.arange(b * m) % d).reshape(b, m)
    embed = [(m, k), (k, dm), (d, dm)]
    return {
        "add": (lambda xs: T.add(xs[0], xs[1]), [(b, m, d), (b, m, d)]),
        "multiply": (lambda xs: T.multiply(xs[0], SCALE), [(b, m, d)]),
        "slice": (
            lambda xs: T.basic_slice(xs[0], (slice(None), axis_pick, slice(1, None, 2))),
            [(b, m, d)],
        ),
        "fold_sum": (lambda xs: T.fold_sum(xs[0]), [(m * d,)]),
        "embed_forward": (lambda xs: _embed(xs, ids, False), embed),
        "embed_forward_gated": (lambda xs: _embed(xs, ids, True), embed + [(k,)]),
        "attention_block": (lambda xs: _attention(xs, 2, False, None), attn),
        "attention_block_gated": (lambda xs: _attention(xs, 2, True, None), attn + [(2,)]),
        "attention_block_padded": (lambda xs: _attention(xs, 2, False, pad), attn),
        "attention_block_gated_padded": (lambda xs: _attention(xs, 2, True, pad),
                                         attn + [(2,)]),
        "ffn_block": (lambda xs: _ffn(xs, False), ffn),
        "ffn_block_gated": (lambda xs: _ffn(xs, True), ffn + [(k,)]),
        "mlm_head": (lambda xs: _head(xs, False), head),
        "mlm_head_gated": (lambda xs: _head(xs, True), head + [(k,)]),
        "mlm_loss": (lambda xs: mlm_loss(xs[0], mask, gold), [(b, m, d)]),
        "sample_gate": (lambda xs: sample_gate(xs[0], _noise_u(m * d)), [(m * d,)]),
        "expected_gate": (lambda xs: expected_gate(xs[0]), [(m, d)]),
        "l0_penalty": (lambda xs: l0_penalty(xs[0], _weights(d)), [(m, d)]),
        "sparsity_constraint_loss": (lambda xs: sparsity_constraint_loss(xs[0], TARGET),
                                     [(m * d,)]),
        "diversity_loss": (lambda xs: diversity_loss(xs[0], _prior(m)), [(m, d)]),
    }


def _off_kinks(op_name, arrays):
    """Move samples at least 1e-3 off the points where a subgradient jumps."""
    a = arrays[0]
    if op_name == "sparsity_constraint_loss":
        a[np.abs(a - TARGET) < 1e-3] += 0.01
    elif op_name == "diversity_loss":
        # |gram| at 0 on a penalised pair: lift one row of the pair
        gram = a @ a.T
        for i, j in zip(*np.nonzero((np.abs(gram) < 1e-3) & (_prior(len(a)) > 0))):
            a[i] += 0.01 * np.sign(a[j])
    elif op_name in ("sample_gate", "expected_gate"):
        # the clip edges of the gate lie at fixed values of its sigmoid's argument
        z = a
        if op_name == "sample_gate":
            u = _noise_u(a.size)
            z = (a + np.log(u / (1.0 - u))) / HC_BETA
        for edge in (ZERO_THRESHOLD, ONE_THRESHOLD):
            a[np.abs(z - edge) < 1e-3] += 0.01


def run_case(op_name, rng):
    """One seeded gradient check; returns the max relative error."""
    builder, shapes = op_cases(rng)[op_name]
    arrays = [rng.normal(size=s) for s in shapes]
    _off_kinks(op_name, arrays)
    tensors = [T.Tensor(a, requires_grad=True) for a in arrays]
    out = builder(tensors)
    w = rng.normal(size=out.shape)
    loss = weighted_scalar(out, w)
    T.backward(loss)

    def forward(arrs):
        with T.no_grad():
            val = builder([T.Tensor(a) for a in arrs])
            return float((val.data * w).sum())

    worst = 0.0
    for i, t in enumerate(tensors):
        numeric = fd_grad(forward, arrays, i)
        analytic = t.grad if t.grad is not None else np.zeros_like(arrays[i])
        worst = max(worst, max_rel_err(analytic, numeric))
    return worst


ALL_OPS = (
    "add",
    "multiply",
    "slice",
    "fold_sum",
    "embed_forward",
    "embed_forward_gated",
    "attention_block",
    "attention_block_gated",
    "attention_block_padded",
    "attention_block_gated_padded",
    "ffn_block",
    "ffn_block_gated",
    "mlm_head",
    "mlm_head_gated",
    "mlm_loss",
    "sample_gate",
    "expected_gate",
    "l0_penalty",
    "sparsity_constraint_loss",
    "diversity_loss",
)
