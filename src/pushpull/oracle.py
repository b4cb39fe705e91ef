"""Brute-force grid oracle for best responses and symmetric equilibria.

Everything here answers one question by exhaustive search: which grid
thresholds come within a utility slack of the maximum: a fixed rule,
_SLACK tau = 1e-6 tau, and 0.01 of it in the strict re-test below. The
closed-form layers are validated against these sweeps, never the other
way around.

A sweep over many population thresholds alpha is one rectangular array
of deviation rows (_rows) and one vectorized utility pass. Every alpha
gets a row: n_beta evenly spaced thresholds on [0, cap(alpha)], or every
stride-th of them and the cap, plus the row's own extra points (alpha
itself, the VariableHorizon window kinks of utility.window_kinks, and
each discontinuity preimage with its +-eps neighbours). The caps and
the extras are computed as columns, one elementwise call each over all
alphas; where a row has no such point its column holds the own
threshold min(alpha, cap), which the row has anyway. U(alpha_i, beta)
is then evaluated over the array with alpha given per element; each
row's maximum is a row maximum, which ignores repeated thresholds, and
its own-threshold utility sits in one column.

find_symmetric_equilibria decides the same rule without the full pass
(decide_rows). Pass 1 evaluates, in one call of the kernel utility_terms,
the rows of stride _COARSE_STRIDE, and rejects the rows with own < max -
tol. Pass 2 takes the surviving rows interval by interval,
[beta_16m, beta_16(m+1)] between consecutive pass-1 points. U = pi_G
gain - pi_B cost, and each term is a function of one first-passage
time, monotone in beta, rising or falling, on every interval that holds
no activation jump of TrendViewcountExponential (decide_rows). So every
point of such an interval satisfies

    U <= pi_G max(gain_lo, gain_hi) - pi_B min(cost_lo, cost_hi),

in floating point too (rounding is monotone), whichever way each term
runs. An interval whose bound is at most own + tol - delta holds no
point that could reject the row and is certified; an interval holding a
jump is never certified. Pass 2 evaluates the interior linspace
points of the open intervals only, in one more call, and a row is
admitted iff own >= max(pass 1, pass 2) - tol. Every point evaluated is
a point of the full row, utility_terms is elementwise and does not
depend on its batch (fixed-step Lambert W, and a root finder that
freezes each element when it stops), and a maximum ignores duplicates,
so the decision is the full grid's exactly. delta = 1e-12 tau
(_CERTIFY_SLACK) is a margin, not a knob: it keeps the certificate exact
when rounding in the crossing times lets a term step against its
direction by less than that.

Every verdict of the oracle is a decide_rows verdict, and
check_equilibrium_set gives the one verdict on a classified set: sound
(every classified point is a fixed point at the slack) and complete (no
grid equilibrium outside the set). A stricter test is the same rule on
a finer grid at a tighter slack: its completeness re-test decides the
missing alphas at 0.01 of the slack with n_beta = 16 (n_beta - 1) + 1
(_STRICT_REFINE), whose pass 1 lands on the ordinary grid's points (up
to rounding) and whose pass 2 fills in 15 points per interval only
where the bound leaves the interval open, so a smooth peak between two
grid points cannot hide.

The utilities come from utility.utility and utility.utility_terms, the
same elementwise kernel the closed forms use, called with alpha per
element and without the strategy-cap check (every row already stops at
its cap). The oracle searches; it adds no formula of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .dynamics import Belief, ModelParams
from .equilibrium import EquilibriumSet
from .utility import (
    Scenario,
    discontinuity_preimages,
    strategy_cap,
    symmetric_cap,
    utility,
    utility_terms,
    window_kinks,
)


@dataclass(frozen=True)
class GridSpec:
    """Resolution of the exhaustive sweeps; their slack is _SLACK."""

    n_beta: int = 201
    n_alpha: int = 101

    def __post_init__(self):
        if not all(isinstance(v, (int, np.integer))
                   for v in (self.n_beta, self.n_alpha)):
            raise TypeError("n_beta and n_alpha must be integers")
        if self.n_beta < 100:
            raise ValueError(f"n_beta={self.n_beta} must be at least 100")
        if self.n_alpha < 100:
            raise ValueError(f"n_alpha={self.n_alpha} must be at least 100")


# the slack of every fixed-point and best-response verdict, in utility
# units (days of viewing) per unit of tau
_SLACK = 1e-6
# every _COARSE_STRIDE-th linspace point of a row is evaluated in pass 1
# of decide_rows; the points between two of them are bounded first
_COARSE_STRIDE = 16
# certified intervals stay this far (times tau) below own + tol, which
# absorbs the rounding of the bound and of the crossing times
_CERTIFY_SLACK = 1e-12


def _row_extras(alphas, caps, p: ModelParams, s: Scenario) -> np.ndarray:
    """Points a uniform grid would step over, one row per alpha: the
    population threshold itself, the window kinks and both sides of
    every discontinuity (NaN where there is none)."""
    eps = 1e-9 * np.maximum(caps, 1e-9)
    cols = [np.minimum(alphas, caps)]
    if s is Scenario.VARIABLE_HORIZON:
        cols.extend(window_kinks(alphas, p))
    for d in discontinuity_preimages(alphas, p, s):
        cols.extend((d - eps, d, d + eps))
    return np.column_stack(np.broadcast_arrays(*cols))


def _rows(alphas, p: ModelParams, s: Scenario, n_beta: int,
          stride: int = 1) -> Tuple[np.ndarray, int]:
    """(rows, k): the deviation rows of many population thresholds, one
    per alpha, and the column of each row's own threshold min(alpha, cap).

    Columns :k are columns 0, stride, 2*stride, ... and the last of
    np.linspace(0, cap, n_beta): arange * step with the cap as last
    column is that linspace bit for bit (unless the step underflows),
    and a column holds the same value whatever the stride, so a strided
    row is a subset of the full one. Columns k: are the row extras
    clipped to [0, cap], NaN taken as own, less the columns that are own
    in every row (such as alpha clipped to the cap). A row whose cap is
    not positive is the single threshold 0. Values repeat within a row,
    which a maximum ignores; np.unique of a stride-1 row is the sorted
    deviation grid.
    """
    alphas = np.asarray(alphas, dtype=float)
    caps = strategy_cap(alphas, p, s)
    cols = np.append(np.arange(0, n_beta - 1, stride), n_beta - 1)
    grid = cols * (caps / (n_beta - 1))[:, None]
    grid[:, -1] = caps
    extras = np.clip(_row_extras(alphas, caps, p, s), 0.0, caps[:, None])
    own = extras[:, :1]  # _row_extras starts with min(alpha, cap)
    extras = np.where(np.isnan(extras), own, extras)
    dup = np.all(extras[:, 1:] == own, axis=0)
    rows = np.concatenate([grid, extras[:, np.append(True, ~dup)]], axis=1)
    rows[caps <= 0.0] = 0.0
    return rows, grid.shape[1]


# -- public sweeps -------------------------------------------------------------

def grid_best_response(alpha: float, belief: Belief, p: ModelParams,
                       s: Scenario, g: GridSpec) -> np.ndarray:
    """All grid thresholds within _SLACK tau of the best utility."""
    betas = np.unique(_rows([alpha], p, s, g.n_beta)[0])
    us = utility(alpha, betas, belief, p, s, enforce_cap=False)
    return betas[us >= us.max() - _SLACK * p.tau]


def deviation_sweep(alphas, belief: Belief, p: ModelParams, s: Scenario,
                    g: GridSpec) -> Tuple[np.ndarray, np.ndarray]:
    """(best, own) utility per population threshold, in one evaluation.

    best[i] is the largest U(alphas[i], beta) over the deviation row
    of alphas[i] (_rows); own[i] is U(alphas[i], min(alphas[i], cap)),
    the payoff of following the population. All rows are evaluated in
    one utility call.

    It is the rule decide_rows decides with fewer evaluations, not a
    second one: a stricter test is decide_rows on finer rows.
    check_equilibrium_set uses it only to print the gap of a rejected
    point.
    """
    alphas = np.asarray(alphas, dtype=float)
    if alphas.size == 0:
        return np.empty(0), np.empty(0)
    rows, k = _rows(alphas, p, s, g.n_beta)
    us = utility(np.repeat(alphas, rows.shape[1]), rows.ravel(), belief, p, s,
                 enforce_cap=False).reshape(rows.shape)
    return us.max(axis=1), us[:, k]


def decide_rows(alphas, belief: Belief, p: ModelParams, s: Scenario,
                n_beta: int, tol: float) -> np.ndarray:
    """True where alphas[i] is a fixed point on rows of n_beta linspace
    points, own >= best - tol.

    The rule is deviation_sweep's, bit for bit: best is the largest
    U(alphas[i], beta) over the deviation row of _rows and own is
    U(alphas[i], min(alphas[i], cap)). Pass 1 evaluates the row of
    stride _COARSE_STRIDE (every _COARSE_STRIDE-th linspace point, the
    cap and the row extras) and rejects the rows it already can. Pass 2
    evaluates the linspace points strictly between two coarse points
    only where the interval's monotone bound does not certify that none
    of them exceeds own + tol (module docstring). A NaN utility rejects
    its row, as in the full pass.

    Only an interval holding a jump stays open whatever its bound. A
    continuous metric's passage t_beta(q) is monotone in beta across
    alpha too, and so is each term (VariableHorizon's window bonus is
    constant below alpha), so its one preimage, alpha, opens nothing;
    the jumps are TrendViewcountExponential's, at activation.
    """
    alphas = np.asarray(alphas, dtype=float)
    if alphas.size == 0:
        return np.zeros(0, dtype=bool)
    pts, k = _rows(alphas, p, s, n_beta, _COARSE_STRIDE)
    coarse, caps = pts[:, :k], pts[:, k - 1]
    gain, cost = (x.reshape(pts.shape) for x in utility_terms(
        np.repeat(alphas, pts.shape[1]), pts.ravel(), p, s))
    us = belief.pi_g * gain - belief.pi_b * cost
    u_own = us[:, k]
    best = us.max(axis=1)
    alive = u_own >= best - tol
    # pass 2: intervals [coarse m, coarse m + 1] of the live rows
    bound = (belief.pi_g * np.maximum(gain[:, :k - 1], gain[:, 1:k])
             - belief.pi_b * np.minimum(cost[:, :k - 1], cost[:, 1:k]))
    open_ = ~(bound <= (u_own + tol - _CERTIFY_SLACK * p.tau)[:, None])
    jumps = discontinuity_preimages(alphas, p, s)
    if not np.array_equal(jumps, alphas[None]):  # more than alpha itself
        lo, hi = coarse[:, :-1], coarse[:, 1:]
        for d in jumps:
            open_ |= (lo <= d[:, None]) & (d[:, None] <= hi)
    # a row whose cap is not positive is all 0, and done in pass 1
    open_ &= (alive & (caps > 0.0))[:, None]
    rows, m = np.nonzero(open_)
    # the linspace columns strictly inside each open interval
    cols = m[:, None] * _COARSE_STRIDE + np.arange(1, _COARSE_STRIDE)
    inner = cols < n_beta - 1
    rows, cols = np.broadcast_to(rows[:, None], cols.shape)[inner], cols[inner]
    if rows.size:
        # the same product as _rows, so the same grid points
        betas = cols * (caps / (n_beta - 1))[rows]
        gain, cost = utility_terms(alphas[rows], betas, p, s)
        np.maximum.at(best, rows, belief.pi_g * gain - belief.pi_b * cost)
    # pass 2 only raises best, so a row rejected in pass 1 stays rejected
    return u_own >= best - tol


def alpha_grid(p: ModelParams, s: Scenario, g: GridSpec) -> np.ndarray:
    """The candidate population thresholds of find_symmetric_equilibria:
    g.n_alpha evenly spaced on [0, symmetric_cap]."""
    # candidates above the self-consistent cap exceed their own strategy
    # space, so no admissible symmetric equilibrium lives there
    return np.linspace(0.0, symmetric_cap(p, s), g.n_alpha)


def find_symmetric_equilibria(belief: Belief, p: ModelParams,
                              s: Scenario, g: GridSpec) -> np.ndarray:
    """The grid alphas whose own threshold is within _SLACK tau of
    optimal: decide_rows' verdict, the full-grid rule's exactly."""
    alphas = alpha_grid(p, s, g)
    return alphas[decide_rows(alphas, belief, p, s, g.n_beta,
                              _SLACK * p.tau)]


def _soundness_points(eq: EquilibriumSet) -> list:
    pts = list(eq.points)
    for lo, hi in eq.intervals:
        pts.extend(np.linspace(lo, hi, 5).tolist())
    return pts


# the strict completeness re-test decides on rows this many times finer
# than the grid's; 4 already reach the peaks the grid steps over on the
# two pinned VariableHorizon families (tests/test_cli.py), 2 miss one
_STRICT_REFINE = 16


def check_equilibrium_set(eq: EquilibriumSet, belief: Belief, p: ModelParams,
                          s: Scenario, g: GridSpec) -> Optional[str]:
    """None when the set is sound and complete, else a reason string.

    Sound: every classified point (interval points sampled at 5 each)
    lies in its strategy space and is a fixed point. Complete: every
    alpha_grid fixed point outside the set, beyond 1.5 alpha spacings of
    it, fails the strict re-test.
    """
    tol = _SLACK * p.tau
    pts = np.array(_soundness_points(eq), dtype=float)
    # a negative or NaN point has no cap to be judged against
    inside = pts >= 0.0
    inside[inside] = pts[inside] <= strategy_cap(pts[inside], p, s) * (
        1.0 + 1e-9) + 1e-12
    # one row decision for the classified points and the candidates of
    # find_symmetric_equilibria
    alphas = alpha_grid(p, s, g)
    n_in = np.count_nonzero(inside)
    admitted = decide_rows(np.concatenate([pts[inside], alphas]), belief, p,
                           s, g.n_beta, tol)
    ok = inside.copy()
    ok[inside] = admitted[:n_in]
    if not ok.all():
        i = int(np.argmin(ok))
        a = pts.tolist()[i]
        if not inside[i]:
            return f"classified point {a:.6g} lies outside its strategy space"
        (u_best,), (u_own,) = deviation_sweep(pts[i:i + 1], belief, p, s, g)
        return (f"classified point {a:.6g} is not a grid best response "
                f"(gap {u_best - u_own:.3g})")
    cap_a = alphas[-1]
    tol_edge = 1.5 * (cap_a / (g.n_alpha - 1)) + 1e-9 * max(cap_a, 1.0)
    found = alphas[admitted[n_in:]]
    missing = [float(a) for a in found if not eq.contains(float(a), tol=tol_edge)]
    # near an interval edge the slack admits near-fixed points; only a
    # strict re-test makes it a completeness failure, on finer rows,
    # since the grid's can step over a smooth peak
    strict = decide_rows(missing, belief, p, s,
                         _STRICT_REFINE * (g.n_beta - 1) + 1, 0.01 * tol)
    for a, fixed in zip(missing, strict):
        if fixed:
            return f"oracle equilibrium {a:.6g} missing from the set"
    return None
