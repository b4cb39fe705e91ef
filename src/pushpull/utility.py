"""Deviator utilities and closed-form best responses, per game variant.

A population of identical players accesses the content when its metric
reaches the threshold alpha; a single deviator picks beta and collects

    U(alpha, beta) = pi_G (tau - t_beta(G))+ - pi_B (tau - t_beta(B))+

in the fixed-horizon variants, where t_beta is the deviator's access
time on the trajectory the population induces. The variable-horizon
variant replaces tau by trend-gated windows, and the look-ahead variant
rewards the remaining viewing value instead. Thresholds live in
[0, beta_tau(Bad, alpha)]: no rational deviator waits for a level the
bad content cannot reach.

utility is the one implementation of U. It is elementwise: alpha and
beta broadcast together, so the grid oracle evaluates many population
thresholds and deviations in one call and the best responses evaluate
all their candidates at once. Only TrendViewcountExponential, whose
strict first-passage time needs a scan, loops over the elements.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .dynamics import (
    Belief,
    MetricKind,
    ModelParams,
    PushKind,
    Quality,
    activation_time,
    beta_tau,
    crossing_time_raw,
    horizon_window,
    _cross_plain_raw,
    _t_ps_inverse_arr,
    _x_ps,
    _xdot_ps,
)
from .numerics import BracketedFunction, find_root, lambert_w0_log

INF = math.inf


class UtilityError(ValueError):
    """Out-of-domain strategy or unsupported parameter regime."""


class Scenario(enum.Enum):
    """Game variant: fixes the push mechanism and the access metric."""

    LINEAR_FIXED_HORIZON = "LinearFixedHorizon"
    EXPONENTIAL_FIXED_HORIZON = "ExponentialFixedHorizon"
    VARIABLE_HORIZON = "VariableHorizon"
    TREND_VIEWCOUNT_LINEAR = "TrendViewcountLinear"
    TREND_VIEWCOUNT_EXPONENTIAL = "TrendViewcountExponential"
    SIDE_INFORMATION = "SideInformation"

    @property
    def push(self) -> PushKind:
        if self in (Scenario.LINEAR_FIXED_HORIZON,
                    Scenario.TREND_VIEWCOUNT_LINEAR,
                    Scenario.SIDE_INFORMATION):
            return PushKind.LINEAR
        return PushKind.EXPONENTIAL_SATURATING

    @property
    def metric(self) -> MetricKind:
        if self in (Scenario.TREND_VIEWCOUNT_LINEAR,
                    Scenario.TREND_VIEWCOUNT_EXPONENTIAL):
            return MetricKind.TREND_TIMES_VIEWCOUNT
        if self is Scenario.SIDE_INFORMATION:
            return MetricKind.SIDE_INFORMATION
        return MetricKind.PLAIN_VIEWCOUNT

    @classmethod
    def from_tag(cls, tag: str) -> "Scenario":
        wanted = tag.replace("-", "").replace("_", "").lower()
        for s in cls:
            if s.value.lower() == wanted:
                return s
        raise UtilityError(f"unknown scenario {tag!r}; expected one of "
                           + ", ".join(s.value for s in cls))


class BestResponseKind(enum.Enum):
    POINT = "Point"
    INTERVAL_OF_OPTIMA = "IntervalOfOptima"
    EXTREMAL_PAIR = "ExtremalPair"


@dataclass(frozen=True)
class BestResponse:
    """Argmax set of the deviator utility over [0, beta_tau(Bad)].

    values holds the distinct optimal thresholds (segment endpoints when
    a whole flat segment is optimal); intervals holds those flat
    segments. ExtremalPair marks a tie between exactly two isolated
    optima. utility is the attained maximum.
    """

    kind: BestResponseKind
    values: Tuple[float, ...]
    intervals: Tuple[Tuple[float, float], ...]
    utility: float

    def as_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "values": list(self.values),
            "intervals": [list(seg) for seg in self.intervals],
            "utility": self.utility,
        }


def sub_params(p: ModelParams) -> ModelParams:
    """Squared rates: TrendViewcountLinear is LinearFixedHorizon under them.

    Under linear push trend*viewcount is lam_q * X, so every threshold
    level maps onto the plain viewcount of a game with squared rates.
    """
    return ModelParams(p.lambda_ps_g ** 2, p.lambda_ps_b ** 2,
                       p.lambda_pu ** 2, p.tau)


def strategy_cap(alpha: float, p: ModelParams, s: Scenario) -> float:
    """Largest threshold the bad content can meet: the strategy space cap."""
    if s is Scenario.SIDE_INFORMATION:
        # look-ahead value of the bad content at t=0, push audience only
        return 0.5 * (p.lambda_ps_b * p.tau) ** 2
    if s is Scenario.TREND_VIEWCOUNT_LINEAR:
        return beta_tau(Quality.BAD, alpha, sub_params(p),
                        PushKind.LINEAR, MetricKind.PLAIN_VIEWCOUNT)
    return beta_tau(Quality.BAD, alpha, p, s.push, s.metric)


def symmetric_cap(p: ModelParams, s: Scenario) -> float:
    """Largest self-consistent symmetric threshold.

    A threshold the whole population shares is crossed on the push-only
    segment (pull engages only at that very crossing), so the bound is
    the pure-push cap. Under the trend gate the bad content stops
    collecting accesses at tau1(B); a level it only reaches later is
    never acted on, which trims the candidate space to the window end.
    Above these caps a candidate exceeds its own strategy space.
    """
    if s is Scenario.VARIABLE_HORIZON:
        _, t1b, _ = horizon_window(Quality.BAD, p,
                                   PushKind.EXPONENTIAL_SATURATING)
        t_end = min(max(t1b, 0.0), p.tau)
        return p.n_pool * (1.0 - math.exp(-p.lambda_ps_b * t_end))
    return strategy_cap(INF, p, s)


# -- scenario utilities ------------------------------------------------------
#
# alpha and beta arrive as arrays of one broadcast shape, one population
# threshold per element.

def _pos(x):
    return np.maximum(x, 0.0)


def _window_term(w, t):
    # bare window minus crossing; a crossing that never happens collects
    # nothing rather than minus infinity
    return np.where(np.isfinite(t), w - t, 0.0)


def _fixed_horizon_utility(alpha, beta, belief, p, push):
    tb_g = _cross_plain_raw(beta, alpha, Quality.GOOD, p, push)
    tb_b = _cross_plain_raw(beta, alpha, Quality.BAD, p, push)
    # a crossing that never happens (t = inf) collects nothing
    return belief.pi_g * _pos(p.tau - tb_g) - belief.pi_b * _pos(p.tau - tb_b)


def _variable_horizon_utility(alpha, beta, belief, p):
    push = PushKind.EXPONENTIAL_SATURATING
    n = p.require_pool()
    lam_g, lam_b = p.lambda_ps_g, p.lambda_ps_b
    w0g, t1g, xth_g = horizon_window(Quality.GOOD, p, push)
    w0b, t1b, xth_b = horizon_window(Quality.BAD, p, push)
    pig, pib = belief.pi_g, belief.pi_b
    u = np.empty(beta.shape)
    # each branch is evaluated on its own elements only
    above = beta > alpha
    b, a = beta[above], alpha[above]
    tb_g = _cross_plain_raw(b, a, Quality.GOOD, p, push)
    tb_b = _cross_plain_raw(b, a, Quality.BAD, p, push)
    u[above] = pig * _pos(t1g - tb_g) - pib * _pos(t1b - tb_b)
    # beta <= alpha: the deviator crosses on the push-only segment, and a
    # window can reopen when the population pulls at t_alpha
    below = ~above
    b, a = beta[below], alpha[below]
    tbp_g = _t_ps_inverse_arr(b, lam_g, n)
    tbp_b = _t_ps_inverse_arr(b, lam_b, n)
    ta_g = _t_ps_inverse_arr(a, lam_g, n)
    ta_b = _t_ps_inverse_arr(a, lam_b, n)
    # alpha > xth_g: both qualities reopen their window when the
    # population pulls; xth_b <= alpha <= xth_g: good stays trending
    # throughout, bad reopens; below both: the bad-side cost window
    # closes at the population crossing, as printed
    good = np.where(a > xth_g,
                    _pos(w0g - tbp_g) + _pos(t1g - ta_g),
                    _window_term(t1g, tbp_g))
    bad = np.where(a >= xth_b,
                   _pos(w0b - tbp_b) + _pos(t1b - ta_b),
                   _window_term(t1b, ta_b))
    u[below] = pig * good - pib * bad
    return u


def _t_side_paper(beta, alpha, lam, lpu, tau):
    """Access time on the look-ahead metric, push-audience value only.

    The metric decreases from (lam*tau)^2/2, so larger thresholds are
    met earlier; thresholds above the initial value are never met. The
    deviator crosses on the push-only branch when it moves first
    (beta >= alpha) or the population never moves.
    """
    x2 = (lam * tau) ** 2
    s = np.sqrt(_pos(x2 - 2.0 * beta))
    pure = s / lam
    ax = np.sqrt(_pos(x2 - 2.0 * alpha))
    mixed = (ax * lpu / lam + s) / (lam + lpu)
    t = np.where((beta >= alpha) | (2.0 * alpha > x2), pure, mixed)
    return np.where(beta > 0.5 * x2, INF, t)


def _side_info_utility(alpha, beta, belief, p):
    tb_g = _t_side_paper(beta, alpha, p.lambda_ps_g, p.lambda_pu, p.tau)
    tb_b = _t_side_paper(beta, alpha, p.lambda_ps_b, p.lambda_pu, p.tau)
    return belief.pi_g * _pos(p.tau - tb_g) - belief.pi_b * _pos(p.tau - tb_b)


def _t_product_strict(beta, q, alpha, p):
    """First time trend*viewcount equals beta, capped at the lifetime.

    The metric jumps over (y(t_a-), y(t_a+)] at activation. A threshold
    inside that gap counts as crossed only if the post-activation curve
    comes back down to it before tau; this is what makes the utility
    surface jump at the gap edges.
    """
    push = PushKind.EXPONENTIAL_SATURATING
    metric = MetricKind.TREND_TIMES_VIEWCOUNT
    lam = p.lambda_ps(q)
    n = p.require_pool()
    lpu = p.lambda_pu
    ta = activation_time(alpha, q, p, push, metric)
    if ta == INF or lpu == 0.0:
        return crossing_time_raw(beta, q, alpha, p, push, metric)
    x_a = _x_ps(ta, lam, push, n)
    y_lo = _xdot_ps(ta, lam, push, n) * x_a
    y_hi = y_lo + lpu * x_a
    if beta <= y_lo or beta >= y_hi:
        return crossing_time_raw(beta, q, alpha, p, push, metric)
    if ta >= p.tau:
        return INF

    def y_post(t):
        return ((_xdot_ps(t, lam, push, n) + lpu)
                * (_x_ps(t, lam, push, n) + lpu * (t - ta)))

    ts = np.linspace(ta, p.tau, 4097)
    vals = np.array([y_post(t) for t in ts]) - beta
    below = np.nonzero(vals <= 0.0)[0]
    if below.size == 0:
        return INF
    k = int(below[0])
    if k == 0:
        return ta
    bf = BracketedFunction(lambda t: y_post(t) - beta, ts[k - 1], ts[k])
    return find_root(bf, 1e-13 * max(p.tau, 1.0))


def _trend_exp_utility(alpha, beta, belief, p):
    # the strict first-passage time needs a scan, so this one stays
    # scalar and loops over the elements
    def one(a, b):
        a, b = float(a), float(b)
        tb_g = _t_product_strict(b, Quality.GOOD, a, p)
        tb_b = _t_product_strict(b, Quality.BAD, a, p)
        return (belief.pi_g * _pos(p.tau - tb_g)
                - belief.pi_b * _pos(p.tau - tb_b))

    return np.vectorize(one, otypes=[float])(alpha, beta)


def utility(alpha, beta, belief: Belief, p: ModelParams,
            s: Scenario, *, enforce_cap: bool = True):
    """Expected payoff of a deviator playing beta against population alpha.

    Elementwise: alpha and beta broadcast together, and the result is a
    float for two scalars and an array of their broadcast shape
    otherwise. Set enforce_cap=False to probe thresholds beyond
    beta_tau(Bad); the strategy space proper stops at the cap.
    """
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if (alpha < 0.0).any():
        raise UtilityError("alpha must be nonnegative")
    if (beta < 0.0).any():
        raise UtilityError("beta must be nonnegative")
    if s is Scenario.TREND_VIEWCOUNT_LINEAR:
        p, s = sub_params(p), Scenario.LINEAR_FIXED_HORIZON
    alpha, beta = np.broadcast_arrays(alpha, beta)
    if enforce_cap:
        # the cap depends on alpha only: one evaluation per distinct alpha
        levels, inverse = np.unique(alpha, return_inverse=True)
        caps = np.array([strategy_cap(float(a), p, s) for a in levels])
        caps = caps[inverse].reshape(alpha.shape)
        over = beta > caps * (1.0 + 1e-12)
        if np.any(over):
            k = np.flatnonzero(over)[0]
            raise UtilityError(
                f"beta={beta.flat[k]} exceeds the bad-content cap "
                f"beta_tau(Bad)={caps.flat[k]}")
    if s in (Scenario.LINEAR_FIXED_HORIZON, Scenario.EXPONENTIAL_FIXED_HORIZON):
        u = _fixed_horizon_utility(alpha, beta, belief, p, s.push)
    elif s is Scenario.VARIABLE_HORIZON:
        u = _variable_horizon_utility(alpha, beta, belief, p)
    elif s is Scenario.TREND_VIEWCOUNT_EXPONENTIAL:
        u = _trend_exp_utility(alpha, beta, belief, p)
    else:
        u = _side_info_utility(alpha, beta, belief, p)
    return float(u) if np.ndim(u) == 0 else u


# -- best responses ----------------------------------------------------------

def _dedup(points: Sequence[float], scale: float) -> List[float]:
    out: List[float] = []
    for v in sorted(points):
        if not out or v - out[-1] > 1e-12 * max(scale, 1.0):
            out.append(v)
    return out


def _assemble(cands: List[float], us: List[float], tol: float,
              cap: float) -> BestResponse:
    """Build the argmax set from candidates between which U is monotone.

    If two adjacent candidates both tie the max, monotonicity makes the
    whole segment between them optimal within the same tolerance.
    """
    umax = max(us)
    keep = [u >= umax - tol for u in us]
    segs: List[Tuple[float, float]] = []
    for i in range(len(cands) - 1):
        if keep[i] and keep[i + 1] and cands[i + 1] > cands[i]:
            if segs and segs[-1][1] == cands[i]:
                segs[-1] = (segs[-1][0], cands[i + 1])
            else:
                segs.append((cands[i], cands[i + 1]))
    pts = _dedup([c for c, k in zip(cands, keep) if k], cap)
    if segs:
        return BestResponse(BestResponseKind.INTERVAL_OF_OPTIMA,
                            tuple(pts), tuple(segs), umax)
    if len(pts) == 1:
        return BestResponse(BestResponseKind.POINT, (pts[0],), (), umax)
    if len(pts) == 2:
        return BestResponse(BestResponseKind.EXTREMAL_PAIR,
                            tuple(pts), (), umax)
    return BestResponse(BestResponseKind.INTERVAL_OF_OPTIMA,
                        tuple(pts), (), umax)


def best_response_linear(alpha: float, belief: Belief,
                         p: ModelParams) -> BestResponse:
    """Argmax under linear push and plain viewcount.

    The utility is piecewise linear in beta with one slope change at
    alpha, so the extremes 0, min(alpha, cap) and cap carry the argmax:
    below the population threshold the crossing gap costs
    pi_B/lam_B - pi_G/lam_G per unit, above it the pull rate shifts
    both denominators.
    """
    s = Scenario.LINEAR_FIXED_HORIZON
    cap = strategy_cap(alpha, p, s)
    knee = min(alpha, cap)
    cands = _dedup([0.0, knee, cap], cap)
    us = utility(alpha, np.array(cands), belief, p, s).tolist()
    return _assemble(cands, us, 1e-9 * p.tau, cap)


def _exp_one_plus_w(beta, alpha, zeta, n):
    # 1 + W(zeta (1-alpha/n) e^{zeta (1-beta/n)}), computed in log space
    log_arg = math.log(zeta) + math.log1p(-alpha / n) + zeta * (1.0 - beta / n)
    return 1.0 + lambert_w0_log(log_arg)


def best_response_exponential(alpha: float, belief: Belief,
                              p: ModelParams) -> BestResponse:
    """Argmax under saturating push and plain viewcount.

    Below alpha the utility is monotone with the sign of
    pi_B/lam_B - pi_G/lam_G. Above alpha its derivative is positive
    while (1+W_G)/(1+W_B) exceeds pi_G/pi_B; that ratio decreases in
    beta, so the branch is unimodal and the interior optimum is the
    bisection root of the ratio condition.
    """
    n = p.require_pool()
    if not p.lambda_ps_g > p.lambda_ps_b:
        raise UtilityError(
            "requires lambda_ps(G) > lambda_ps(B): "
            f"{p.lambda_ps_g} <= {p.lambda_ps_b}")
    if not p.lambda_ps_g * n <= p.lambda_pu:
        raise UtilityError(
            "requires lambda_ps(G)*n_pool <= lambda_pu: "
            f"{p.lambda_ps_g * n} > {p.lambda_pu}")
    s = Scenario.EXPONENTIAL_FIXED_HORIZON
    cap = strategy_cap(alpha, p, s)
    knee = min(alpha, cap)
    cands = [0.0, knee, cap]
    if knee < cap and alpha < n and belief.pi_b > 0.0 and belief.pi_g > 0.0:
        rho = belief.pi_g / belief.pi_b
        zg = p.lambda_ps_g * n / p.lambda_pu
        zb = p.lambda_ps_b * n / p.lambda_pu

        def ratio_gap(b):
            return (_exp_one_plus_w(b, alpha, zg, n)
                    / _exp_one_plus_w(b, alpha, zb, n)) - rho

        if ratio_gap(knee) > 0.0 > ratio_gap(cap):
            root = find_root(BracketedFunction(ratio_gap, knee, cap),
                             1e-13 * max(cap, 1.0))
            cands.append(min(max(root, knee), cap))
    cands = _dedup(cands, cap)
    us = utility(alpha, np.array(cands), belief, p, s).tolist()
    return _assemble(cands, us, 1e-9 * p.tau, cap)


# -- side information: branch peaks ------------------------------------------

def side_info_peaks(belief: Belief, p: ModelParams) -> Tuple[float, float]:
    """Stationary thresholds (beta1, beta2) of the two utility branches.

    beta1 comes from the late branch, where the pull rate adds to both
    push rates; beta2 from the early push-only branch. beta1 equals
    beta2 at lambda_pu = 0. When the branch weights tie, the stationary
    point escapes to +-inf with the sign of the remaining numerator.
    """
    x_g = p.lambda_ps_g * p.tau
    x_b = p.lambda_ps_b * p.tau

    def peak(d_g, d_b):
        a = (belief.pi_g / d_g) ** 2
        b = (belief.pi_b / d_b) ** 2
        num = x_b * x_b * a - x_g * x_g * b
        den = a - b
        if den == 0.0:
            return INF if num < 0.0 else -INF
        return 0.5 * num / den

    beta1 = peak(p.lambda_ps_g + p.lambda_pu, p.lambda_ps_b + p.lambda_pu)
    beta2 = peak(p.lambda_ps_g, p.lambda_ps_b)
    return beta1, beta2


def side_info_lambda_pu_s(belief: Belief, p: ModelParams) -> float:
    """Pull rate at which the late-branch peak changes character.

    Solves pi_G (lam_B + x) = pi_B (lam_G + x); undefined (reported as
    -inf) for a uniform belief.
    """
    if belief.pi_g == belief.pi_b:
        return -INF
    return (belief.pi_b * (p.lambda_ps_g - p.lambda_ps_b)
            / (belief.pi_g - belief.pi_b)) - p.lambda_ps_b


def _side_info_eff_peaks(belief: Belief, p: ModelParams) -> Tuple[float, float]:
    """Branch stationary points, demoted to -inf when they are minima.

    On each branch U' > 0 iff pi_G/(d_G s_G) > pi_B/(d_B s_B) with
    s_q = sqrt(X_q^2 - 2 beta). When pi_G d_B <= pi_B d_G the branch
    decreases on the whole strategy space (its stationary point sits at
    or beyond the cap and is a minimum), so the effective peak is -inf.
    """
    beta1, beta2 = side_info_peaks(belief, p)
    pig, pib = belief.pi_g, belief.pi_b
    b2e = beta2 if pig * p.lambda_ps_b > pib * p.lambda_ps_g else -INF
    d_g = p.lambda_ps_g + p.lambda_pu
    d_b = p.lambda_ps_b + p.lambda_pu
    b1e = beta1 if pig * d_b > pib * d_g else -INF
    return b1e, b2e


def side_info_branch_candidates(alpha: float, belief: Belief,
                                p: ModelParams) -> Tuple[float, float]:
    """(late-branch, early-branch) candidate thresholds, peak clamped.

    The late branch covers beta <= alpha (small thresholds are met
    late, after the population pulls); the early branch covers
    beta >= alpha.
    """
    b1e, b2e = _side_info_eff_peaks(belief, p)
    cap = 0.5 * (p.lambda_ps_b * p.tau) ** 2
    knee = min(alpha, cap)
    down = min(max(b1e, 0.0), knee)
    up = min(max(b2e, knee), cap)
    return down, up


def best_response_side_info(alpha: float, belief: Belief,
                            p: ModelParams) -> BestResponse:
    """Argmax under linear push and the look-ahead value metric.

    Each branch is unimodal, so its clamped stationary point is the
    branch winner; branches are then compared by utility. Equal-ratio
    degeneracies leave a branch without interior peak and the clamp
    lands on the branch edge.
    """
    s = Scenario.SIDE_INFORMATION
    cap = strategy_cap(alpha, p, s)
    down, up = side_info_branch_candidates(alpha, belief, p)
    # the midpoint decides between a flat segment and a pair on a tie
    u_down, u_up, u_mid = utility(
        alpha, np.array([down, up, 0.5 * (down + up)]), belief, p, s).tolist()
    tol = 1e-9 * p.tau
    if abs(u_down - u_up) > tol:
        win, u_win = (down, u_down) if u_down > u_up else (up, u_up)
        return BestResponse(BestResponseKind.POINT, (win,), (), u_win)
    umax = max(u_down, u_up)
    pts = _dedup([down, up], cap)
    if len(pts) == 1:
        return BestResponse(BestResponseKind.POINT, (pts[0],), (), umax)
    if u_mid >= umax - tol:
        return BestResponse(BestResponseKind.INTERVAL_OF_OPTIMA, tuple(pts),
                            ((pts[0], pts[1]),), umax)
    return BestResponse(BestResponseKind.EXTREMAL_PAIR, tuple(pts), (), umax)


def closed_form_best_response(alpha: float, belief: Belief, p: ModelParams,
                              s: Scenario) -> Optional[BestResponse]:
    """The scenario's closed-form argmax set; None when it has none.

    VariableHorizon and TrendViewcountExponential have no closed form;
    callers fall back to the grid oracle or report the gap.
    """
    if s is Scenario.LINEAR_FIXED_HORIZON:
        return best_response_linear(alpha, belief, p)
    if s is Scenario.TREND_VIEWCOUNT_LINEAR:
        return best_response_linear(alpha, belief, sub_params(p))
    if s is Scenario.EXPONENTIAL_FIXED_HORIZON:
        return best_response_exponential(alpha, belief, p)
    if s is Scenario.SIDE_INFORMATION:
        return best_response_side_info(alpha, belief, p)
    return None


# -- utility surface ----------------------------------------------------------

def _discontinuity_preimages(alpha: float, p: ModelParams,
                             s: Scenario) -> List[float]:
    """Metric values at the population activation, per quality.

    For continuous metrics this is just alpha; trend*viewcount jumps at
    activation, so both one-sided values enter.
    """
    if s is Scenario.TREND_VIEWCOUNT_LINEAR:
        p = sub_params(p)
        s = Scenario.LINEAR_FIXED_HORIZON
    out: List[float] = []
    for q in (Quality.GOOD, Quality.BAD):
        ta = activation_time(alpha, q, p, s.push, s.metric)
        if ta == INF:
            continue
        if s.metric is MetricKind.TREND_TIMES_VIEWCOUNT:
            lam = p.lambda_ps(q)
            n = p.require_pool()
            x_a = _x_ps(ta, lam, s.push, n)
            y_lo = _xdot_ps(ta, lam, s.push, n) * x_a
            out.extend([y_lo, y_lo + p.lambda_pu * x_a])
        else:
            out.append(alpha)
    return out


def utility_surface(alpha: float, belief: Belief, p: ModelParams,
                    s: Scenario, n_grid: int) -> List[Tuple[float, float, str]]:
    """(beta, U, branch) rows over the strategy space.

    The grid spans [0, cap] with both endpoints; every activation image
    additionally contributes a left_limit and right_limit row, which is
    where the trend*viewcount surface jumps.
    """
    if n_grid < 2:
        raise UtilityError("n_grid must be at least 2")
    cap = strategy_cap(alpha, p, s)
    grid = np.linspace(0.0, cap, n_grid) if cap > 0.0 else np.array([0.0])
    rows = [(b, u, "below_alpha" if b <= alpha else "above_alpha", 1)
            for b, u in zip(grid.tolist(),
                            utility(alpha, grid, belief, p, s).tolist())]
    eps = 1e-9 * max(cap, 1e-9)
    jumps = [d for d in _dedup(_discontinuity_preimages(alpha, p, s), cap)
             if 0.0 < d < cap]
    if jumps:
        d = np.array(jumps)
        us = utility(alpha, np.concatenate([np.maximum(d - eps, 0.0),
                                            np.minimum(d + eps, cap)]),
                     belief, p, s).tolist()
        for d, u_left, u_right in zip(jumps, us, us[len(jumps):]):
            rows.append((d, u_left, "left_limit", 0))
            rows.append((d, u_right, "right_limit", 2))
    rows.sort(key=lambda r: (r[0], r[3]))
    return [(b, u, branch) for b, u, branch, _ in rows]
