"""Hard-concrete gates and the relaxed L0 objective.

A gate is sampled by stretching a binary concrete variable over (l, r)
with l < 0 < 1 < r and clipping to [0, 1]:

    s    = sigmoid((log(u / (1 - u)) + alpha) / beta),   u ~ U(0, 1)
    shat = s * (r - l) + l
    g    = min(1, max(0, shat))

At inference the noise is dropped: g = clip(sigmoid(alpha) * (r - l) + l).
The expected number of active gates has the closed form
sigmoid(alpha - log(-l / r)), which never passes through the clip, so the
penalty keeps a gradient even when sampled gates saturate.

The improved objective adds a per-language sparsity constraint
sum_i |size_i - t| over weighted expected sizes and a diversity term that
penalizes the L1 mass of the language-by-language gram matrix of gates,
masked so same-family pairs and the diagonal are exempt.
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit, logit

from . import tensor as T
from .encoder import _finite
from .exceptions import ContractError, InputError
from .tensor import Tensor


# stretch limits l < 0 < 1 < r and temperature of the hard-concrete gate
# (Louizos et al., 2018)
HC_L = -0.1
HC_R = 1.1
HC_BETA = 2.0 / 3.0
# largest alpha whose inference gate is exactly 0, smallest whose gate is exactly 1
ZERO_THRESHOLD = float(logit(-HC_L / (HC_R - HC_L)))
ONE_THRESHOLD = float(logit((1.0 - HC_L) / (HC_R - HC_L)))
# log(-l / r), subtracted from alpha inside the expected-L0 sigmoid
PENALTY_SHIFT = float(np.log(-HC_L / HC_R))

ALPHA_INIT_STD = 0.1


def save_alphas(path, languages, alphas: np.ndarray, components):
    """One row per (language, component) of a (languages x components) alpha matrix.

    Row i of alphas belongs to languages[i]; the file lists languages sorted.
    """
    if alphas.shape != (len(languages), len(components)):
        raise ContractError(f"alphas {alphas.shape} need one row per language of {languages} "
                            f"and one column per component ({len(components)})")
    with open(path, "w") as f:
        f.write("language,kind,layer,index,alpha\n")
        for lang in sorted(languages):
            values = alphas[languages.index(lang)].tolist()
            for name, a in zip(components, values):
                f.write(f"{lang},{name},{a!r}\n")


def _check_u(u: np.ndarray):
    u = np.asarray(u, dtype=np.float64)
    if u.size == 0 or np.any(u <= 0.0) or np.any(u >= 1.0):
        raise ContractError("noise draws must lie strictly inside (0, 1)")
    return u


def _hard_concrete(z):
    """(g, s, shat) for s = sigmoid(z), shat = s * (r - l) + l, g = clip(shat, 0, 1)."""
    s = expit(z)
    shat = s * (HC_R - HC_L) + HC_L
    return np.clip(shat, 0.0, 1.0), s, shat


# Each objective below is one tape node.  Like encoder's fused nodes, it
# computes what a chain of single tape ops (add, multiply, sigmoid, clip, abs,
# matmul, sum) would, with the same numpy expressions in the same order and a
# finite check on each intermediate, so the golden runs keep every bit.


def _gate_node(op: str, alpha: Tensor, noise) -> Tensor:
    """The gate of z = (alpha + noise) / beta, or of z = alpha when noise is None."""
    ok = _finite(op)
    with np.errstate(over="ignore", invalid="ignore"):
        z = alpha.data if noise is None else ok(ok(alpha.data + noise) * (1.0 / HC_BETA))
        gate, s, shat = map(ok, _hard_concrete(z))

    def backward(g):
        # zero outside [0, 1], where the clip saturates
        gz = g * ((shat >= 0.0) & (shat <= 1.0)) * (HC_R - HC_L) * s * (1.0 - s)
        return [(alpha, gz if noise is None else gz * (1.0 / HC_BETA))]

    return T._make(op, gate, (alpha,), backward)


def sample_gate(alpha: Tensor, u) -> Tensor:
    """Differentiable stochastic gate; u holds uniform draws, one per gate."""
    u = _check_u(u)
    if u.shape != alpha.shape:
        raise ContractError(f"noise shape {u.shape} does not match alpha {alpha.shape}")
    return _gate_node("sample_gate", alpha, np.log(u / (1.0 - u)))


def inference_gate(alpha):
    """Deterministic gate value; numpy in, numpy out."""
    return _hard_concrete(np.asarray(alpha, dtype=np.float64))[0]


def expected_gate(alpha: Tensor) -> Tensor:
    """Differentiable inference-mode gate, used by the diversity term."""
    return _gate_node("expected_gate", alpha, None)


def l0_penalty(alpha: Tensor, weights) -> Tensor:
    """Weighted expected number of nonzero gates, sum_g w_g * sigmoid(alpha - log(-l/r)).

    alpha is one gate vector or a (languages x components) matrix; the sum
    runs over components, so a matrix gives one expected size per row.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if alpha.ndim not in (1, 2) or weights.shape != alpha.shape[-1:]:
        raise ContractError(f"weight shape {weights.shape} does not match alpha {alpha.shape}")
    if np.any(weights <= 0.0):
        raise ContractError("component weights must be positive")
    ok = _finite("l0_penalty")
    with np.errstate(over="ignore", invalid="ignore"):
        probs = ok(expit(ok(alpha.data - PENALTY_SHIFT)))
        value = ok(ok(probs * weights).sum(axis=-1))

    def backward(g):
        return [(alpha, np.expand_dims(g, -1) * weights * probs * (1.0 - probs))]

    return T._make("l0_penalty", value, (alpha,), backward)


def sparsity_constraint_loss(sizes: Tensor, target: float) -> Tensor:
    """sum_i |size_i - t| over a vector of per-language expected sizes.

    The terms are added left to right, ((d_0 + d_1) + d_2) + ..., whatever
    the number of languages.
    """
    if not 0.0 <= target <= 1.0:
        raise ContractError(f"target size must be in [0, 1], got {target}")
    sizes = T.as_tensor(sizes)
    if sizes.ndim != 1 or sizes.size == 0:
        raise ContractError(f"sparsity constraint needs a non-empty vector of sizes, "
                            f"got shape {sizes.shape}")
    ok = _finite("sparsity_constraint_loss")
    with np.errstate(over="ignore", invalid="ignore"):
        diff = ok(sizes.data - target)
        value = ok(np.add.accumulate(ok(np.abs(diff)))[-1])

    def backward(g):
        # the subgradient of |d| at 0 is 0
        return [(sizes, g * np.sign(diff))]

    return T._make("sparsity_constraint_loss", value, (sizes,), backward)


MISSING_FAMILY = "Missing"


def build_prior(families: dict[str, str], languages) -> np.ndarray:
    """The 0/1 diversity mask over languages, in that order, from language -> family labels.

    Same-family pairs and the diagonal are 0.  The label 'Missing' puts a
    language in its own singleton family, so two 'Missing' languages still
    count as cross-family.
    """
    if not families:
        raise InputError("build_prior: no languages given")
    missing = [l for l in languages if l not in families]
    if missing:
        raise InputError(f"unknown language ids in prior: {missing}")
    labels = [families[l] for l in languages]
    mat = np.ones((len(labels), len(labels)))
    for i, a in enumerate(labels):
        for j, b in enumerate(labels):
            if i == j or (a == b and a != MISSING_FAMILY):
                mat[i, j] = 0.0
    return mat


def diversity_loss(gate_matrix: Tensor, prior: np.ndarray) -> Tensor:
    """L1 mass of the gate gram matrix under the prior mask.

    gate_matrix has one row of gate values per language; prior is the
    matching square 0/1 mask (diagonal already zero).
    """
    n_lang = gate_matrix.shape[0] if gate_matrix.ndim == 2 else -1
    prior = np.asarray(prior, dtype=np.float64)
    if gate_matrix.ndim != 2 or prior.shape != (n_lang, n_lang):
        raise ContractError(
            f"gate matrix {gate_matrix.shape} and prior {prior.shape} do not conform"
        )
    mask = prior * (1.0 - np.eye(n_lang))
    gates = gate_matrix.data
    ok = _finite("diversity_loss")
    with np.errstate(over="ignore", invalid="ignore"):
        # a C-order copy: BLAS may round a product with a transposed view differently
        gates_t = ok(np.ascontiguousarray(gates.T))
        masked = ok(ok(gates @ gates_t) * mask)
        value = ok(ok(np.abs(masked)).sum())

    def backward(g):
        g_gram = g * np.sign(masked) * mask
        g_t = np.swapaxes(gates, -1, -2) @ g_gram
        return [(gate_matrix, g_gram @ np.swapaxes(gates_t, -1, -2) + g_t.T)]

    return T._make("diversity_loss", value, (gate_matrix,), backward)


def total_loss(mlm: Tensor, l0_term: Tensor, diversity: Tensor | None,
               lambda1: float, lambda2: float) -> Tensor:
    """L = L_mlm + lambda1 * L_l0 + lambda2 * L_div."""
    if lambda1 < 0.0 or lambda2 < 0.0:
        raise ContractError("loss multipliers must be nonnegative")
    out = T.add(mlm, T.multiply(l0_term, lambda1))
    if diversity is not None:
        out = T.add(out, T.multiply(diversity, lambda2))
    return out
