"""Brute-force grid oracle for best responses and symmetric equilibria.

Everything here answers one question by exhaustive search: which grid
thresholds come within a utility slack of the maximum. The closed-form
layers are validated against these sweeps, never the other way around.

A sweep over many population thresholds alpha is one flattened grid and
one vectorized utility pass. Every alpha gets a deviation row: n_beta
evenly spaced thresholds on [0, cap(alpha)] plus the row's own extra
points (alpha itself, the VariableHorizon window kinks, and each
discontinuity preimage with its +-eps neighbours). All rows are built
as one NaN-padded 2-D array, sorted and deduplicated along each row,
and flattened with row offsets. U(alpha_i, beta) is then evaluated over
the flat array with alpha given per element; each row's maximum comes
from a segmented reduction and its own-threshold utility by index.

The utilities come from utility.utility, the same elementwise kernel
the closed forms use, called with alpha per element and without the
strategy-cap check (every row already stops at its cap). The oracle
searches; it adds no formula of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .dynamics import (
    Belief,
    ModelParams,
    PushKind,
    Quality,
    horizon_window,
    viewcount,
)
from .utility import (
    Scenario,
    _discontinuity_preimages,
    strategy_cap,
    symmetric_cap,
    utility,
)

INF = math.inf


@dataclass(frozen=True)
class GridSpec:
    """Resolution and slack for the exhaustive sweeps.

    tol is in utility units (days of viewing); None means 1e-6 * tau,
    resolved against the model the grid is used with.
    """

    n_beta: int = 201
    n_alpha: int = 101
    tol: Optional[float] = None

    def __post_init__(self):
        if self.n_beta < 100:
            raise ValueError(f"n_beta={self.n_beta} must be at least 100")
        if self.n_alpha < 100:
            raise ValueError(f"n_alpha={self.n_alpha} must be at least 100")
        if self.tol is not None and not self.tol > 0.0:
            raise ValueError("tol must be positive")

    def resolve_tol(self, p: ModelParams) -> float:
        return self.tol if self.tol is not None else 1e-6 * p.tau


def _window_kinks(alpha: float, p: ModelParams) -> list:
    # levels where a trend window dies under the deviator's crossing
    # dynamics: pure push for the tau0 terms, population-boosted for tau1.
    # The deviation optimum sits exactly on these kinks, so a grid that
    # skips them certifies false fixed points nearby.
    push = PushKind.EXPONENTIAL_SATURATING
    out = []
    for q in (Quality.GOOD, Quality.BAD):
        t0, t1, _ = horizon_window(q, p, push)
        t0_eff = min(max(t0, 0.0), p.tau)
        t1_eff = min(max(t1, 0.0), p.tau)
        out.append(viewcount(t0_eff, q, INF, p, push))
        out.append(viewcount(t1_eff, q, alpha, p, push))
    return out


def _row_extras(alpha: float, cap: float, p: ModelParams,
                s: Scenario) -> list:
    # points a uniform grid would step over: the population threshold
    # itself, the window kinks and both sides of every discontinuity
    eps = 1e-9 * max(cap, 1e-9)
    extra = [min(alpha, cap)]
    if s is Scenario.VARIABLE_HORIZON:
        extra.extend(_window_kinks(alpha, p))
    for d in _discontinuity_preimages(alpha, p, s):
        extra.extend((d - eps, d, d + eps))
    return extra


def _beta_rows(alphas, p: ModelParams, s: Scenario,
               n_beta: int) -> Tuple[np.ndarray, np.ndarray]:
    """Deviation grids of many population thresholds, flattened.

    Returns (betas, starts): the row of alphas[i] is
    betas[starts[i]:starts[i + 1]], the last row running to the end.
    Each row equals np.unique of np.linspace(0, cap, n_beta) and the
    row's extra points clipped to [0, cap]; a row whose cap is not
    positive is the single threshold 0.
    """
    alphas = np.asarray(alphas, dtype=float)
    caps = np.array([strategy_cap(float(a), p, s) for a in alphas])
    extras = [_row_extras(float(a), cap, p, s) if cap > 0.0 else []
              for a, cap in zip(alphas, caps)]
    ext = np.full((alphas.size, max(map(len, extras), default=0)), np.nan)
    for row, e in zip(ext, extras):
        row[:len(e)] = e
    # arange * step with the cap as last column is np.linspace(0, cap,
    # n_beta) bit for bit, one row per cap (unless the step underflows)
    base = np.arange(n_beta) * (caps / (n_beta - 1))[:, None]
    base[:, -1] = caps
    grid = np.concatenate([base, np.clip(ext, 0.0, caps[:, None])], axis=1)
    empty = caps <= 0.0
    grid[empty] = np.nan
    grid[empty, 0] = 0.0
    # NaN padding sorts last; keep the first of every run of equal values
    grid.sort(axis=1)
    keep = ~np.isnan(grid)
    keep[:, 1:] &= grid[:, 1:] != grid[:, :-1]
    counts = keep.sum(axis=1)
    return grid[keep], np.cumsum(counts) - counts


def _beta_grid(alpha: float, p: ModelParams, s: Scenario,
               n_beta: int) -> np.ndarray:
    return _beta_rows([alpha], p, s, n_beta)[0]


# -- public sweeps -------------------------------------------------------------

def grid_best_response(alpha: float, belief: Belief, p: ModelParams,
                       s: Scenario, g: GridSpec) -> np.ndarray:
    """All grid thresholds within g.tol of the best achievable utility."""
    betas = _beta_grid(alpha, p, s, g.n_beta)
    us = utility(alpha, betas, belief, p, s, enforce_cap=False)
    return betas[us >= us.max() - g.resolve_tol(p)]


def deviation_sweep(alphas, belief: Belief, p: ModelParams, s: Scenario,
                    g: GridSpec) -> Tuple[np.ndarray, np.ndarray]:
    """(best, own) utility per population threshold, in one evaluation.

    best[i] is the largest U(alphas[i], beta) over the deviation grid
    of alphas[i]; own[i] is U(alphas[i], min(alphas[i], cap)), the
    payoff of following the population. All rows share one flattened
    grid and one bulk utility pass.
    """
    alphas = np.asarray(alphas, dtype=float)
    if alphas.size == 0:
        return np.empty(0), np.empty(0)
    betas, starts = _beta_rows(alphas, p, s, g.n_beta)
    counts = np.diff(starts, append=betas.size)
    us = utility(np.repeat(alphas, counts), betas, belief, p, s,
                 enforce_cap=False)
    best = np.maximum.reduceat(us, starts)
    # min(alpha, cap) is an extra point of every row (the cap is the row's
    # last), so its index is the number of row points below it
    own = np.minimum(alphas, betas[starts + counts - 1])
    below = betas < np.repeat(own, counts)
    return best, us[starts + np.add.reduceat(below.astype(np.intp), starts)]


def find_symmetric_equilibria(belief: Belief, p: ModelParams,
                              s: Scenario, g: GridSpec) -> np.ndarray:
    """All grid alphas whose own threshold is within g.tol of optimal."""
    # candidates above the self-consistent cap exceed their own strategy
    # space, so no admissible symmetric equilibrium lives there
    alphas = np.linspace(0.0, symmetric_cap(p, s), g.n_alpha)
    best, own = deviation_sweep(alphas, belief, p, s, g)
    return alphas[own >= best - g.resolve_tol(p)]
