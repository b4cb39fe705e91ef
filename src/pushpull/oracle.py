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

The bulk evaluators vectorize the same formulas the scalar utility
uses, with alpha broadcast against beta (a scalar alpha is the 0-d
case); tests pin them against each other pointwise.
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
from .numerics import lambert_w0_log_arr
from .utility import (
    Scenario,
    _discontinuity_preimages,
    _sub_params,
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


# -- vectorized utility sweeps ------------------------------------------------
#
# alpha is a scalar or an array broadcasting to the shape of betas, so one
# call can cover many population thresholds, one per element.

def _pos_arr(x):
    return np.maximum(x, 0.0)


def _tb_linear_arr(betas, alpha, lam, lpu):
    pure = betas / lam
    if lpu == 0.0:
        return pure
    boosted = alpha / lam + (betas - alpha) / (lam + lpu)
    return np.where(betas <= alpha, pure, boosted)


def _tb_pure_exp_arr(betas, lam, n):
    with np.errstate(divide="ignore", invalid="ignore"):
        t = -np.log1p(-np.minimum(betas, n) / n) / lam
    return np.where(betas >= n, INF, t)


def _tb_exp_arr(betas, alpha, lam, lpu, n):
    # elementwise dynamics._cross_plain_raw for saturating push
    t = _tb_pure_exp_arr(betas, lam, n)
    zeta = lam * n / lpu if lpu > 0.0 else INF
    boosted = (betas > alpha) & (alpha < n)
    if not math.isfinite(zeta) or not boosted.any():
        return t
    a = np.broadcast_to(alpha, boosted.shape)[boosted]
    c = -zeta * (1.0 - betas[boosted] / n) - np.log1p(-a / n)
    log_zeta = math.log(lam * n) - math.log(lpu)
    w = lambert_w0_log_arr(log_zeta - c)
    # ln(zeta) - ln(w) equals c + w but keeps its accuracy when c and w
    # cancel to leading order (large zeta, tiny pull rate)
    with np.errstate(divide="ignore"):
        t[boosted] = np.where(w <= 0.0, c / lam, (log_zeta - np.log(w)) / lam)
    return t


def _tb_side_arr(betas, alpha, lam, lpu, tau):
    x2 = (lam * tau) ** 2
    s = np.sqrt(_pos_arr(x2 - 2.0 * betas))
    pure = s / lam
    ax = np.sqrt(_pos_arr(x2 - 2.0 * alpha))
    mixed = (ax * lpu / lam + s) / (lam + lpu)
    t = np.where((betas >= alpha) | (2.0 * alpha > x2), pure, mixed)
    return np.where(betas > 0.5 * x2, INF, t)


def _window_term_arr(w, t):
    # bare window minus crossing, 0 when the crossing never happens
    return np.where(np.isfinite(t), w - t, 0.0)


def _bulk_utilities(alpha, betas: np.ndarray, belief: Belief,
                    p: ModelParams, s: Scenario) -> np.ndarray:
    """U(alpha, beta) over a beta array; must match the scalar utility."""
    betas = np.asarray(betas, dtype=float)
    alpha = np.broadcast_to(np.asarray(alpha, dtype=float), betas.shape)
    pig, pib = belief.pi_g, belief.pi_b
    if s is Scenario.TREND_VIEWCOUNT_LINEAR:
        return _bulk_utilities(alpha, betas, belief, _sub_params(p),
                               Scenario.LINEAR_FIXED_HORIZON)
    if s is Scenario.LINEAR_FIXED_HORIZON:
        tb_g = _tb_linear_arr(betas, alpha, p.lambda_ps_g, p.lambda_pu)
        tb_b = _tb_linear_arr(betas, alpha, p.lambda_ps_b, p.lambda_pu)
    elif s is Scenario.EXPONENTIAL_FIXED_HORIZON:
        n = p.require_pool()
        tb_g = _tb_exp_arr(betas, alpha, p.lambda_ps_g, p.lambda_pu, n)
        tb_b = _tb_exp_arr(betas, alpha, p.lambda_ps_b, p.lambda_pu, n)
    elif s is Scenario.SIDE_INFORMATION:
        tb_g = _tb_side_arr(betas, alpha, p.lambda_ps_g, p.lambda_pu, p.tau)
        tb_b = _tb_side_arr(betas, alpha, p.lambda_ps_b, p.lambda_pu, p.tau)
    elif s is Scenario.VARIABLE_HORIZON:
        return _bulk_variable_horizon(alpha, betas, belief, p)
    else:
        # trend*viewcount with saturating push: the strict first-passage
        # time needs a scan, so this one stays scalar
        scalar = np.vectorize(
            lambda a, b: utility(float(a), float(b), belief, p, s),
            otypes=[float])
        return scalar(alpha, betas)
    # a crossing that never happens (t = inf) collects nothing
    return pig * _pos_arr(p.tau - tb_g) - pib * _pos_arr(p.tau - tb_b)


def _bulk_variable_horizon(alpha, betas, belief, p):
    pig, pib = belief.pi_g, belief.pi_b
    n = p.require_pool()
    lam_g, lam_b = p.lambda_ps_g, p.lambda_ps_b
    push = PushKind.EXPONENTIAL_SATURATING
    w0g, t1g, xth_g = horizon_window(Quality.GOOD, p, push)
    w0b, t1b, xth_b = horizon_window(Quality.BAD, p, push)
    u = np.empty(betas.shape)
    # each branch is evaluated on its own elements only
    above = betas > alpha
    b, a = betas[above], alpha[above]
    tb_g = _tb_exp_arr(b, a, lam_g, p.lambda_pu, n)
    tb_b = _tb_exp_arr(b, a, lam_b, p.lambda_pu, n)
    u[above] = pig * _pos_arr(t1g - tb_g) - pib * _pos_arr(t1b - tb_b)
    # beta <= alpha: the deviator crosses on the push-only segment, and a
    # window can reopen when the population pulls at t_alpha
    below = ~above
    b, a = betas[below], alpha[below]
    tbp_g = _tb_pure_exp_arr(b, lam_g, n)
    tbp_b = _tb_pure_exp_arr(b, lam_b, n)
    ta_g = _tb_pure_exp_arr(a, lam_g, n)
    ta_b = _tb_pure_exp_arr(a, lam_b, n)
    good = np.where(a > xth_g,
                    _pos_arr(w0g - tbp_g) + _pos_arr(t1g - ta_g),
                    _window_term_arr(t1g, tbp_g))
    bad = np.where(a >= xth_b,
                   _pos_arr(w0b - tbp_b) + _pos_arr(t1b - ta_b),
                   _window_term_arr(t1b, ta_b))
    u[below] = pig * good - pib * bad
    return u


# -- public sweeps -------------------------------------------------------------

def grid_best_response(alpha: float, belief: Belief, p: ModelParams,
                       s: Scenario, g: GridSpec) -> np.ndarray:
    """All grid thresholds within g.tol of the best achievable utility."""
    betas = _beta_grid(alpha, p, s, g.n_beta)
    us = _bulk_utilities(alpha, betas, belief, p, s)
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
    us = _bulk_utilities(np.repeat(alphas, counts), betas, belief, p, s)
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
