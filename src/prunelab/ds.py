"""Dynamic sparsification: one parameter set serving every sparsity level.

Each component's gate becomes a function of the requested subnetwork size
t in [0, 1]:

    g(t) = f(alpha + t * theta)

where f is the deterministic hard-concrete squash (noise dropped).  Given
a boundary size t_hat at which the gate must switch on and a bucket width
delta such that g(t_hat) = 1 and g(t_hat - delta) = 0, the two-equation
linear system has the closed form

    theta = (f_inv(1) - f_inv(0)) / delta
    alpha = f_inv(1) - t_hat * theta

with f_inv(1) = logit((1 - l) / (r - l)) and f_inv(0) = logit(-l / (r - l)).
The solver widens the two logit targets by a tiny relative margin so both
boundary equations still saturate exactly after float64 rounding.

Boundaries are assigned by bucketizing an importance ranking: walk the
components in score order, accumulate normalized weight, and snap each
component's cumulative size to the smallest grid size that covers it.
delta is the component's own normalized weight share, capped at the width
of its grid cell so the on-ramp never straddles an interior grid point;
coarse toy models hit the cap, realistic shapes do not.  delta <= t_hat
holds by construction and masks are nested across the grid.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .encoder import GateSet, component_index, _component_key, _format_distinct, _parse_floats
from .exceptions import ContractError, InputError
from .grad_prune import ImportanceTable, rank_order
from .l0 import ONE_THRESHOLD, ZERO_THRESHOLD, _hard_concrete

# widening of the logit targets, relative to f_inv(1) - f_inv(0); large
# against rounding error in alpha + t * theta, negligible against the gap
# between adjacent grid sizes
BOUNDARY_MARGIN = 1e-6

DEFAULT_GRID = tuple(np.round(np.linspace(0.0, 1.0, 11), 10))

DS_COLUMNS = ("alpha", "theta", "t_hat", "delta")
DS_HEADER = "language,kind,layer,index," + ",".join(DS_COLUMNS)


def check_grid(grid) -> tuple[float, ...]:
    grid = tuple(float(g) for g in grid)
    if len(grid) < 2 or grid[0] != 0.0 or grid[-1] != 1.0:
        raise ContractError("size grid must start at 0 and end at 1")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ContractError("size grid must be strictly increasing")
    return grid


def solve_ds_params(t_hat, delta):
    """Closed-form (alpha, theta) for boundary sizes t_hat and widths delta.

    Scalars or matching arrays; every pair needs 0 < delta <= t_hat <= 1.
    """
    t_hat = np.asarray(t_hat, dtype=np.float64)
    delta = np.asarray(delta, dtype=np.float64)
    ok = (0.0 < delta) & (delta <= t_hat) & (t_hat <= 1.0)
    if not np.all(ok):
        t_bad, d_bad = (a[~ok][0] for a in np.broadcast_arrays(t_hat, delta))
        raise ContractError(f"need 0 < delta <= t_hat <= 1, got t_hat={t_bad}, delta={d_bad}")
    lo, hi = ZERO_THRESHOLD, ONE_THRESHOLD
    margin = BOUNDARY_MARGIN * (hi - lo)
    hi += margin
    lo -= margin
    theta = (hi - lo) / delta
    alpha = hi - t_hat * theta
    return alpha, theta


def ds_gate(alpha, theta, t: float):
    """Deterministic gate value at size t; numpy in, numpy out."""
    alpha = np.asarray(alpha, dtype=np.float64)
    theta = np.asarray(theta, dtype=np.float64)
    return _hard_concrete(alpha + t * theta)[0]


def bucketize(scores: np.ndarray, weights: np.ndarray, grid) -> tuple[np.ndarray, np.ndarray]:
    """Boundary size t_hat and ramp width delta per component, by cumulative weight.

    scores and weights are vectors in one component order; so are the
    results.  Components are walked in score order (ties by position); a
    component whose cumulative normalized weight lands in (grid[i-1], grid[i]]
    activates at grid[i].  Zero-score components still get a bucket, at the
    tail of the walk.
    """
    arr = np.asarray(check_grid(grid))
    scores = np.asarray(scores, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if scores.shape != weights.shape:
        raise ContractError("importance table and weight table cover different components")
    total = weights.sum()
    if total <= 0.0:
        raise ContractError("total component weight must be positive")
    order = rank_order(scores)
    w = weights[order] / total
    # snap to the smallest grid size covering the cumulative size; guard the
    # final component against rounding past 1.0
    pos = np.searchsorted(arr, np.minimum(np.cumsum(w), 1.0), side="left")
    t_hat = np.empty(scores.size)
    delta = np.empty(scores.size)
    t_hat[order] = arr[pos]
    # cap the ramp width at the grid cell so the gate saturates before the
    # previous grid point; pos >= 1 because cum > 0 and grid[0] == 0
    delta[order] = np.minimum(w, arr[pos] - arr[pos - 1])
    return t_hat, delta


@dataclass
class DSParams:
    """Per-language (alpha, theta, t_hat, delta) vectors over a list of component names."""

    components: list[str]
    grid: tuple[float, ...]
    tables: dict[str, dict[str, np.ndarray]]

    def languages(self):
        return sorted(self.tables)

    def save_csv(self, path):
        with open(path, "w") as f:
            f.write(f"{DS_HEADER}\n")
            for lang in self.languages():
                columns = (_format_distinct(self.tables[lang][k], repr) for k in DS_COLUMNS)
                f.write("".join(f"{lang},{name},{a},{th},{t},{d}\n"
                                for name, a, th, t, d in zip(self.components, *columns)))

    @classmethod
    def load_csv(cls, path, components, grid):
        """Read save_csv output: one or more languages, each listing every component once.

        The file is read line by line; a row keeps its position (language
        number times the component count plus the component's position) and
        its four values.
        """
        index = component_index(components)
        n, width = len(components), len(DS_COLUMNS)
        langs: dict[str, int] = {}
        seen = bytearray()
        pos, values = array("q"), array("d")
        with open(path) as f:
            header = f.readline().strip()
            if header != DS_HEADER:
                raise InputError(f"{path}: unexpected header {header!r}")
            for lineno, line in enumerate(f, 2):
                line = line.strip()
                if not line:
                    continue
                parts = line.split(",")
                if len(parts) != 8:
                    raise InputError(f"{path}:{lineno}: expected {DS_HEADER}")
                key = ",".join(parts[1:4])
                i = index.get(key)
                if i is None:
                    raise InputError(f"{path}:{lineno}: unknown component {key}")
                k = langs.get(parts[0])
                if k is None:
                    k = langs[parts[0]] = len(langs)
                    seen.extend(bytes(n))
                p = k * n + i
                if seen[p]:
                    raise InputError(f"{path}:{lineno}: second row for {parts[0]} {key}")
                seen[p] = 1
                pos.append(p)
                try:
                    a, th, t, d = map(float, parts[4:])
                except ValueError:
                    a = th = t = d = math.nan
                if not math.isfinite(a + th + t + d):
                    # names a non-numeric or non-finite cell; a finite row whose sum overflows passes
                    _parse_floats(path, lineno, parts[4:])
                values.extend((a, th, t, d))
        if not langs:
            raise InputError(f"{path}: no rows after the header")
        for lang, k in langs.items():
            if 0 in seen[k * n:(k + 1) * n]:
                raise InputError(f"{path}: language {lang!r} does not list every component")
        rows = np.frombuffer(values).reshape(-1, width)
        table = np.empty((width, len(langs) * n))
        table[:, pos] = rows.T
        tables = {lang: dict(zip(DS_COLUMNS, table[:, k * n:(k + 1) * n]))
                  for lang, k in langs.items()}
        return cls(list(components), check_grid(grid), tables)


def init_ds(tables: dict[str, ImportanceTable], weights: np.ndarray, grid) -> DSParams:
    """Bucketize each language's ranking and solve every component's params.

    weights is in canonical order; the tables name the components, and all
    of them must cover the same ones, which are put in canonical order.
    """
    grid = check_grid(grid)
    if not tables:
        raise InputError("init_ds: no importance tables supplied")
    components = sorted(next(iter(tables.values())).scores, key=_component_key)
    out: dict[str, dict[str, np.ndarray]] = {}
    for lang, table in tables.items():
        t_hat, delta = bucketize(table.vector(components), weights, grid)
        alpha, theta = solve_ds_params(t_hat, delta)
        out[lang] = {"alpha": alpha, "theta": theta, "t_hat": t_hat, "delta": delta}
    return DSParams(components, grid, out)


def subnetwork_at(ds: DSParams, t: float, language: str, config) -> GateSet:
    """Hard GateSet at size t; off-grid sizes binarize fractional gates at 0.5."""
    if language not in ds.tables:
        raise InputError(f"no dynamic sparsification parameters for language {language!r}")
    if not 0.0 <= t <= 1.0:
        raise ContractError(f"size t must be in [0, 1], got {t}")
    tab = ds.tables[language]
    values = ds_gate(tab["alpha"], tab["theta"], t)
    return GateSet(config, (values >= 0.5).astype(np.float64))


def gate_values_at(ds: DSParams, t: float, language: str) -> np.ndarray:
    """Raw (possibly fractional) gate values at size t, in component order."""
    if language not in ds.tables:
        raise InputError(f"no dynamic sparsification parameters for language {language!r}")
    tab = ds.tables[language]
    return ds_gate(tab["alpha"], tab["theta"], t)
