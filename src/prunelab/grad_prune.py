"""Gradient-based structured pruning.

A component's importance is the mean over evaluation batches of the
absolute gradient of the masked-LM loss with respect to its gate, taken
at all-ones gates.  For an attention head this equals the inner product
of the head's (already projected) output with the loss gradient at that
output, summed over positions before the absolute value; hidden units
and embedding ranks use the same activation-times-gradient form at their
own gates.  Thresholding keeps the highest-scoring components until the
weighted size target is reached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .encoder import (
    GateSet,
    Model,
    component_universe,
    encoder_forward,
    mlm_loss,
    _component_key,
    _component_name,
    _parse_floats,
)
from .exceptions import ContractError, InputError

SHARED = "shared"
NON_SHARED = "non-shared"


@dataclass
class ImportanceTable:
    """Importance score per component name for one language, or for all (shared)."""

    scores: dict[str, float]
    language: str
    n_batches: int

    def vector(self, components) -> np.ndarray:
        """Scores in the order of ``components``, which the table must cover exactly."""
        if len(self.scores) != len(components):
            raise ContractError("importance table and weight table cover different components")
        try:
            return np.array([self.scores[name] for name in components], dtype=np.float64)
        except KeyError as e:
            raise ContractError(f"importance table has no score for component {e.args[0]}") from None

    def save_csv(self, path):
        """One row per component, kind,layer,index,score, in canonical order."""
        with open(path, "w") as f:
            f.write("kind,layer,index,score\n")
            # float() writes numpy scalar scores as plain numbers, not np.float64(...)
            f.write("".join(f"{name},{float(self.scores[name])!r}\n"
                            for name in sorted(self.scores, key=_component_key)))

    @classmethod
    def load_csv(cls, path, language: str = SHARED) -> "ImportanceTable":
        scores = {}
        with open(path) as f:
            header = f.readline().strip()
            if header != "kind,layer,index,score":
                raise InputError(f"{path}: unexpected header {header!r}")
            for lineno, line in enumerate(f, 2):
                line = line.strip()
                if not line:
                    continue
                parts = line.split(",")
                if len(parts) != 4:
                    raise InputError(f"{path}:{lineno}: expected kind,layer,index,score")
                try:
                    name = _component_name(*parts[:3])
                except ValueError:
                    raise InputError(f"{path}:{lineno}: bad component in {line!r}") from None
                if name in scores:
                    raise InputError(f"{path}:{lineno}: second row for component {name}")
                try:
                    score = float(parts[3])
                except ValueError:
                    score = math.nan
                if not math.isfinite(score):
                    _parse_floats(path, lineno, parts[3:])  # names the non-numeric or non-finite cell
                scores[name] = score
        return cls(scores, language, n_batches=0)


def importance_scores(model: Model, batches, language: str = SHARED) -> ImportanceTable:
    """Score every component on the given MLM batches.

    batches is an iterable of objects with .tokens, .mask_positions and
    .gold_ids arrays.  Scores are nonnegative; all gates are held at one
    while scoring.
    """
    universe = component_universe(model.config)
    acc = np.zeros(len(universe))
    n = 0
    for batch in batches:
        leaf = T.Tensor(np.ones(len(universe)), requires_grad=True)
        logits = encoder_forward(model, batch.tokens, leaf, pad_id=batch.pad_id)
        T.backward(mlm_loss(logits, batch.mask_positions, batch.gold_ids))
        acc += np.abs(leaf.grad)
        for p in model.params.values():
            p.zero_grad()
        n += 1
    if n == 0:
        raise InputError("importance_scores: no evaluation batches supplied")
    return ImportanceTable(dict(zip(universe, (acc / n).tolist())), language, n)


def rank_order(scores: np.ndarray) -> np.ndarray:
    """Positions by score descending; equal scores keep canonical order."""
    return np.argsort(-np.asarray(scores, dtype=np.float64), kind="stable")


def select_threshold(table: ImportanceTable, weights: np.ndarray,
                     target_size: float, config) -> GateSet:
    """Keep top-scoring components until the weighted size reaches the target.

    target_size is the retained fraction t in [0, 1] of the total component
    weight.  The component that first reaches the cumulative target is kept,
    so the achieved size overshoots by less than one component weight.
    """
    if not 0.0 <= target_size <= 1.0:
        raise ContractError(f"target_size must be in [0, 1], got {target_size}")
    scores = table.vector(component_universe(config))
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != scores.shape:
        raise ContractError("importance table and weight table cover different components")
    goal = target_size * weights.sum()
    values = np.zeros(scores.size)
    if goal > 0.0:
        order = rank_order(scores)
        # the first position whose cumulative weight reaches the goal is kept too
        last = int(np.searchsorted(np.cumsum(weights[order]), goal, side="left"))
        values[order[:last + 1]] = 1.0
    return GateSet(config, values)


def importance_tables(model: Model, batches_by_language: dict,
                      setting: str) -> dict[str, ImportanceTable]:
    """Score one table over all languages when shared, else one per language.

    batches_by_language maps language id to a non-empty list of batches; the
    shared table pools them in language order.
    """
    if setting not in (SHARED, NON_SHARED):
        raise ContractError(f"unknown setting {setting!r}")
    if not batches_by_language:
        raise InputError("importance_tables: no languages supplied")
    for lang, batches in batches_by_language.items():
        if not batches:
            raise InputError(f"importance_tables: language {lang!r} has no batches")
    langs = sorted(batches_by_language)
    if setting == SHARED:
        pooled = [b for lang in langs for b in batches_by_language[lang]]
        return {SHARED: importance_scores(model, pooled, SHARED)}
    return {lang: importance_scores(model, batches_by_language[lang], lang) for lang in langs}


def build_profile(model: Model, batches_by_language: dict, setting: str, target_size: float,
                  weights: np.ndarray) -> tuple[dict[str, GateSet], dict[str, ImportanceTable]]:
    """Score with importance_tables, then threshold each table at the target.

    Returns the hard gate set and the importance table of every language.
    """
    tables = importance_tables(model, batches_by_language, setting)
    gatesets = {lang: select_threshold(table, weights, target_size, model.config)
                for lang, table in tables.items()}
    return gatesets, tables
