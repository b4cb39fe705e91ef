"""Deviator utilities and closed-form best responses, per game variant.

A population of identical players accesses the content when its metric
reaches the threshold alpha; a single deviator picks beta and collects

    U(alpha, beta) = pi_G (tau - t_beta(G))+ - pi_B (tau - t_beta(B))+

in the fixed-horizon variants, where t_beta is the deviator's access
time on the trajectory the population induces. The variable-horizon
variant replaces tau by trend-gated windows; the look-ahead variant
keeps the fixed-horizon form on the crossings of its falling metric.
Thresholds live in [0, beta_tau(Bad, alpha)]: no rational deviator
waits for a level the bad content cannot reach.

utility is the one implementation of U: the belief-weighted difference
of the two per-quality terms that utility_terms returns. Both are
elementwise: alpha and beta broadcast together, so the grid oracle
evaluates many population thresholds and deviations in one call and
the best responses evaluate all their candidates at once. Both
qualities' crossing times come from one dynamics.crossings call, so
TrendViewcountExponential, which has no closed-form passage after
activation, solves every element and both qualities in one pass of the
bracketed root finder find_root_arr, and the saturating plain viewcount
in one Lambert W pass.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .dynamics import (
    Belief,
    MetricKind,
    ModelParams,
    PushKind,
    Quality,
    activation_time,
    beta_tau,
    crossings,
    horizon_window,
    viewcount,
    _float_or_array,
    _y_post,
)
from .numerics import find_root_arr, lambert_w0_log

INF = math.inf


class UtilityError(ValueError):
    """Out-of-domain strategy or unsupported parameter regime."""


class Scenario(enum.Enum):
    """Game variant: fixes the push mechanism and the access metric.

    value is the tag; push (PushKind) and metric (MetricKind) are
    member attributes, set once when the class is created.
    """

    LINEAR_FIXED_HORIZON = ("LinearFixedHorizon", PushKind.LINEAR,
                            MetricKind.PLAIN_VIEWCOUNT)
    EXPONENTIAL_FIXED_HORIZON = ("ExponentialFixedHorizon",
                                 PushKind.EXPONENTIAL_SATURATING,
                                 MetricKind.PLAIN_VIEWCOUNT)
    VARIABLE_HORIZON = ("VariableHorizon", PushKind.EXPONENTIAL_SATURATING,
                        MetricKind.PLAIN_VIEWCOUNT)
    TREND_VIEWCOUNT_LINEAR = ("TrendViewcountLinear", PushKind.LINEAR,
                              MetricKind.TREND_TIMES_VIEWCOUNT)
    TREND_VIEWCOUNT_EXPONENTIAL = ("TrendViewcountExponential",
                                   PushKind.EXPONENTIAL_SATURATING,
                                   MetricKind.TREND_TIMES_VIEWCOUNT)
    SIDE_INFORMATION = ("SideInformation", PushKind.LINEAR,
                        MetricKind.SIDE_INFORMATION)

    def __new__(cls, tag: str, push: PushKind, metric: MetricKind):
        member = object.__new__(cls)
        member._value_ = tag
        member.push = push
        member.metric = metric
        return member

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


def reduce_scenario(p: ModelParams,
                    s: Scenario) -> Tuple[ModelParams, Scenario]:
    """The (params, scenario) pair a game is solved as.

    Under linear push and before pull, trend*viewcount is lam_q * X =
    lam_q^2 t, so TrendViewcountLinear is solved as the plain
    viewcount of a LinearFixedHorizon game with squared rates, whose
    closed forms are the printed ones. It is the scenario's only game
    model: dynamics reads linear trend*viewcount up to its activation
    at alpha/lam_q^2 only, and the viewcount X(t) that trajectory and
    simulate write sees the metric only through that time. Every other
    scenario is solved as itself.
    """
    if s is Scenario.TREND_VIEWCOUNT_LINEAR:
        return (ModelParams(p.lambda_ps_g ** 2, p.lambda_ps_b ** 2,
                            p.lambda_pu ** 2, p.tau),
                Scenario.LINEAR_FIXED_HORIZON)
    return p, s


def require_exp_hypotheses(p: ModelParams, error: type) -> float:
    """The pool size, once the saturating-push closed forms apply to p.

    They need lambda_ps(G) > lambda_ps(B) and lambda_ps(G)*n_pool <=
    lambda_pu; otherwise this raises error (the classifiers pass
    EquilibriumError, the best response UtilityError).
    """
    n = p.require_pool()
    if not p.lambda_ps_g > p.lambda_ps_b:
        raise error(
            "requires lambda_ps(G) > lambda_ps(B): "
            f"{p.lambda_ps_g} <= {p.lambda_ps_b}")
    if not p.lambda_ps_g * n <= p.lambda_pu:
        raise error(
            "requires lambda_ps(G)*n_pool <= lambda_pu: "
            f"{p.lambda_ps_g * n} > {p.lambda_pu}")
    return n


def strategy_cap(alpha, p: ModelParams, s: Scenario):
    """Largest threshold the bad content can meet: the strategy space cap.

    Elementwise in alpha, for every scenario: a float for a scalar, an
    array otherwise.
    """
    p, s = reduce_scenario(p, s)
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
        push = PushKind.EXPONENTIAL_SATURATING
        _, t1b, _ = horizon_window(Quality.BAD, p, push)
        t_end = min(max(t1b, 0.0), p.tau)
        return viewcount(t_end, Quality.BAD, INF, p, push)
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


def _variable_horizon_terms(alpha, beta, p):
    push = PushKind.EXPONENTIAL_SATURATING
    plain = MetricKind.PLAIN_VIEWCOUNT
    lams = (p.lambda_ps_g, p.lambda_ps_b)
    w0g, t1g, xth_g = horizon_window(Quality.GOOD, p, push)
    w0b, t1b, xth_b = horizon_window(Quality.BAD, p, push)
    # t_alpha is the passage of alpha itself
    tb_g, tb_b = crossings(beta, alpha, lams, p, push, plain)
    ta_g, ta_b = crossings(alpha, alpha, lams, p, push, plain)
    above = beta > alpha
    # beta <= alpha: a window can reopen when the population pulls at
    # t_alpha. alpha > xth_g: both qualities reopen their window;
    # xth_b <= alpha <= xth_g: good stays trending throughout, bad
    # reopens; below both: the bad-side cost window closes at the
    # population crossing, as printed
    gain = np.where(above, _pos(t1g - tb_g), np.where(
        alpha > xth_g, _pos(w0g - tb_g) + _pos(t1g - ta_g),
        _window_term(t1g, tb_g)))
    cost = np.where(above, _pos(t1b - tb_b), np.where(
        alpha >= xth_b, _pos(w0b - tb_b) + _pos(t1b - ta_b),
        _window_term(t1b, ta_b)))
    return gain, cost


def _thresholds(alpha, beta):
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if np.count_nonzero(alpha < 0.0):
        raise UtilityError("alpha must be nonnegative")
    if np.count_nonzero(beta < 0.0):
        raise UtilityError("beta must be nonnegative")
    return alpha, beta


def _terms(alpha, beta, p: ModelParams, s: Scenario):
    # p and s already reduced; alpha and beta validated arrays
    alpha, beta = np.broadcast_arrays(alpha, beta)
    if s is Scenario.VARIABLE_HORIZON:
        return _variable_horizon_terms(alpha, beta, p)
    # both qualities at once; a threshold inside the activation jump of
    # saturating Xdot*X is met only when the curve comes back down to it,
    # which is what makes the surface jump at the gap edges
    terms = crossings(beta, alpha, (p.lambda_ps_g, p.lambda_ps_b), p,
                      s.push, s.metric)
    # (tau - t)+, in place: a new array of a long row costs page faults.
    # A crossing that never happens (t = inf) collects nothing
    for t in terms:
        np.maximum(np.subtract(p.tau, t, out=t), 0.0, out=t)
    return terms


def utility_terms(alpha, beta, p: ModelParams, s: Scenario):
    """(gain, cost): the payoffs per quality that U weighs by the belief.

    U(alpha, beta) = pi_G gain - pi_B cost, bit for bit: gain is
    (tau - t_beta(G))+ and cost (tau - t_beta(B))+ in the fixed-horizon
    variants, the trend-gated window terms in VariableHorizon. Each is
    a function of a first-passage time, so between consecutive
    discontinuity_preimages it is monotone in beta (the grid oracle
    bounds whole intervals with that). Elementwise like utility, with no
    strategy-cap check.
    """
    alpha, beta = _thresholds(alpha, beta)
    p, s = reduce_scenario(p, s)
    gain, cost = _terms(alpha, beta, p, s)
    return _float_or_array(gain), _float_or_array(cost)


def utility(alpha, beta, belief: Belief, p: ModelParams,
            s: Scenario, *, enforce_cap: bool = True):
    """Expected payoff of a deviator playing beta against population alpha.

    Elementwise: alpha and beta broadcast together, and the result is a
    float for two scalars and an array of their broadcast shape
    otherwise. Set enforce_cap=False to probe thresholds beyond
    beta_tau(Bad); the strategy space proper stops at the cap.
    """
    alpha, beta = _thresholds(alpha, beta)
    p, s = reduce_scenario(p, s)
    if enforce_cap:
        # before broadcasting: the cap depends on alpha only
        caps = strategy_cap(alpha, p, s)
        over = beta > caps * (1.0 + 1e-12)
        if np.any(over):
            k = np.flatnonzero(over)[0]
            raise UtilityError(
                f"beta={np.broadcast_to(beta, over.shape).flat[k]} exceeds "
                "the bad-content cap beta_tau(Bad)="
                f"{np.broadcast_to(caps, over.shape).flat[k]}")
    gain, cost = _terms(alpha, beta, p, s)
    return _float_or_array(belief.pi_g * gain - belief.pi_b * cost)


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
    if segs or len(pts) > 2:
        kind = BestResponseKind.INTERVAL_OF_OPTIMA
    elif len(pts) == 2:
        kind = BestResponseKind.EXTREMAL_PAIR
    else:
        kind = BestResponseKind.POINT
    return BestResponse(kind, tuple(pts), tuple(segs), umax)


def _argmax(alpha: float, belief: Belief, p: ModelParams, s: Scenario,
            extras: Callable[..., Sequence[float]]) -> BestResponse:
    """Closed-form argmax set over [0, cap].

    Candidates are 0, the knee min(alpha, cap), the cap and
    extras(cap, knee), clamped to [0, cap] (so utility skips its cap
    check); the extras make U monotone between adjacent candidates.
    """
    cap = strategy_cap(alpha, p, s)
    knee = min(alpha, cap)
    cands = _dedup([min(max(c, 0.0), cap)
                    for c in (0.0, knee, cap, *extras(cap, knee))], cap)
    us = utility(alpha, np.array(cands), belief, p, s,
                 enforce_cap=False).tolist()
    return _assemble(cands, us, 1e-9 * p.tau, cap)


def best_response_linear(alpha: float, belief: Belief,
                         p: ModelParams) -> BestResponse:
    """Argmax under linear push and plain viewcount.

    The utility is piecewise linear in beta with one slope change at
    alpha, so the extremes 0, min(alpha, cap) and cap carry the argmax:
    below the population threshold the crossing gap costs
    pi_B/lam_B - pi_G/lam_G per unit, above it the pull rate shifts
    both denominators.
    """
    return _argmax(alpha, belief, p, Scenario.LINEAR_FIXED_HORIZON,
                   lambda cap, knee: ())


def best_response_exponential(alpha: float, belief: Belief,
                              p: ModelParams) -> BestResponse:
    """Argmax under saturating push and plain viewcount.

    Below alpha U is monotone with the sign of pi_B/lam_B - pi_G/lam_G.
    Above it quality q crosses beta at speed lam_pu (1 + w_q), where
    h_q(w_q) = zeta_q (1 - beta/n), h_q(w) = ln w + w - ln zeta_q - l,
    zeta_q = lam_q n/lam_pu and l = ln(1 - alpha/n). So U' > 0 iff
    (1 + w_G)/(1 + w_B) > rho = pi_G/pi_B, a ratio that falls in beta.
    At the optimum w_G = rho (1 + w_B) - 1; eliminating beta leaves

        g(w_B) = zeta_B h_G(rho (1 + w_B) - 1) - zeta_G h_B(w_B) = 0,

    with h_G = -inf for w_G <= 0, so g < 0 while U rises. As w_B falls
    in beta, an interior optimum exists iff g(w_B(knee)) < 0 <
    g(w_B(cap)); find_root_arr solves it in w_B on the one bracket
    [w_B(cap), w_B(knee)], free of Lambert calls, and it is mapped back
    by beta = n (1 - h_B(w_B)/zeta_B).
    """
    n = require_exp_hypotheses(p, UtilityError)

    def interior(cap, knee):
        # knee < cap puts alpha below cap < n, so l is finite
        if not (knee < cap and belief.pi_b > 0.0):
            return ()
        rho = belief.pi_g / belief.pi_b
        zg = p.lambda_ps_g * n / p.lambda_pu
        zb = p.lambda_ps_b * n / p.lambda_pu
        ell = math.log1p(-alpha / n)

        # math.log, not np.log: numpy's SIMD log is not correctly
        # rounded, and an ulp in g moves the root's last digits
        def h(w, z):
            return math.log(w) + w - math.log(z) - ell if w > 0.0 else -INF

        def g(wb):
            return zb * h(rho * (1.0 + wb) - 1.0, zg) - zg * h(wb, zb)

        log_x = math.log(zb) + ell + zb * (1.0 - np.array([cap, knee]) / n)
        w_cap, w_knee = lambert_w0_log(log_x).tolist()
        if not g(w_knee) < 0.0 < g(w_cap):
            return ()
        wb = float(find_root_arr(np.vectorize(g, otypes=[float]), [w_cap],
                                 [w_knee], 1e-15 * max(w_knee, 1.0))[0])
        return (n * (1.0 - h(wb, zb) / zb),)

    return _argmax(alpha, belief, p, Scenario.EXPONENTIAL_FIXED_HORIZON,
                   interior)


# -- side information: branch peaks ------------------------------------------

def _branch_peak(belief: Belief, p: ModelParams, d_g: float,
                 d_b: float) -> float:
    """Stationary threshold of a look-ahead utility branch.

    On the branch quality q meets beta at t = (s_q + c_q)/d_q with
    s_q = sqrt((lam_q tau)^2 - 2 beta), so U' = 0 where
    pi_G/(d_G s_G) = pi_B/(d_B s_B). When the branch weights tie, the
    stationary point escapes to +-inf with the sign of the remaining
    numerator.
    """
    x_g = p.lambda_ps_g * p.tau
    x_b = p.lambda_ps_b * p.tau
    a = (belief.pi_g / d_g) ** 2
    b = (belief.pi_b / d_b) ** 2
    num = x_b * x_b * a - x_g * x_g * b
    den = a - b
    if den == 0.0:
        return INF if num < 0.0 else -INF
    return 0.5 * num / den


def side_info_peaks(belief: Belief, p: ModelParams) -> Tuple[float, float]:
    """Stationary thresholds (beta1, beta2) of the two utility branches.

    beta1 comes from the late branch, where the pull rate adds to both
    push rates; beta2 from the early push-only branch. beta1 equals
    beta2 at lambda_pu = 0.
    """
    lam_g, lam_b, lpu = p.lambda_ps_g, p.lambda_ps_b, p.lambda_pu
    return (_branch_peak(belief, p, lam_g + lpu, lam_b + lpu),
            _branch_peak(belief, p, lam_g, lam_b))


def side_info_lambda_pu_s(belief: Belief, p: ModelParams) -> float:
    """Pull rate at which the late-branch peak changes character.

    Solves pi_G (lam_B + x) = pi_B (lam_G + x), which is rho = (lam_G +
    x)/(lam_B + x): the pull-ratio edge of classify_side_info's band.
    Undefined (reported as -inf) for a uniform belief.
    """
    if belief.pi_g == belief.pi_b:
        return -INF
    return (belief.pi_b * (p.lambda_ps_g - p.lambda_ps_b)
            / (belief.pi_g - belief.pi_b)) - p.lambda_ps_b


def side_info_branch_candidates(alpha: float, belief: Belief,
                                p: ModelParams) -> Tuple[float, float]:
    """(late-branch, early-branch) candidate thresholds, peak clamped.

    The late branch covers beta <= alpha (small thresholds are met
    late, after the population pulls, if quality q's population pulls
    at all: 2 alpha <= (lam_q tau)^2); the early branch covers
    beta >= alpha. A branch with pi_G d_B <= pi_B d_G falls on the
    whole strategy space, so its candidate is its lower edge.
    """
    cap = strategy_cap(alpha, p, Scenario.SIDE_INFORMATION)
    knee = min(alpha, cap)
    peaks = []
    for pull in (p.lambda_pu, 0.0):
        d_g, d_b = (lam + pull * (2.0 * alpha <= (lam * p.tau) ** 2)
                    for lam in (p.lambda_ps_g, p.lambda_ps_b))
        peaks.append(_branch_peak(belief, p, d_g, d_b)
                     if belief.pi_g * d_b > belief.pi_b * d_g else -INF)
    return min(max(peaks[0], 0.0), knee), min(max(peaks[1], knee), cap)


def best_response_side_info(alpha: float, belief: Belief,
                            p: ModelParams) -> BestResponse:
    """Argmax under linear push and the look-ahead value metric.

    Each branch is unimodal, so U is monotone between 0, the late
    peak, the knee min(alpha, cap), the early peak and the cap (peaks
    clamped to their branch), and continuous at beta = alpha.
    """
    return _argmax(alpha, belief, p, Scenario.SIDE_INFORMATION,
                   lambda cap, knee: side_info_branch_candidates(
                       alpha, belief, p))


def closed_form_best_response(alpha: float, belief: Belief, p: ModelParams,
                              s: Scenario) -> Optional[BestResponse]:
    """The scenario's closed-form argmax set; None when it has none.

    VariableHorizon and TrendViewcountExponential have no closed form;
    callers fall back to the grid oracle or report the gap.
    """
    p, s = reduce_scenario(p, s)
    solve = {Scenario.LINEAR_FIXED_HORIZON: best_response_linear,
             Scenario.EXPONENTIAL_FIXED_HORIZON: best_response_exponential,
             Scenario.SIDE_INFORMATION: best_response_side_info}.get(s)
    return None if solve is None else solve(alpha, belief, p)


# -- utility surface ----------------------------------------------------------

def discontinuity_preimages(alpha, p: ModelParams, s: Scenario) -> np.ndarray:
    """Metric values at the population activation, one row per value.

    Elementwise in alpha: the result has shape (k,) + shape(alpha). For
    continuous metrics the one row is alpha itself. Trend*viewcount
    jumps at activation, so it gives both one-sided values per quality,
    y(ta-) = alpha and y(ta+), NaN where that quality never activates.
    """
    p, s = reduce_scenario(p, s)
    alpha = np.asarray(alpha, dtype=float)
    if s.metric is not MetricKind.TREND_TIMES_VIEWCOUNT:
        return alpha[None]
    rows = []
    for q in (Quality.GOOD, Quality.BAD):
        ta = activation_time(alpha, q, p, s.push, s.metric)
        with np.errstate(invalid="ignore"):  # ta = INF: NaN, masked below
            y_hi = _y_post(ta, ta, p.lambda_ps(q), p.lambda_pu, p.require_pool())
        rows += [np.where(np.isfinite(ta), y, np.nan) for y in (alpha, y_hi)]
    return np.array(rows)


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
    eps = 1e-9 * max(cap, 1e-9)
    jumps = _dedup([d for d in discontinuity_preimages(alpha, p, s).tolist()
                    if 0.0 < d < cap], cap)
    d = np.array(jumps)
    # one utility call over the grid and both limits of every jump, all
    # inside [0, cap] by construction
    us = utility(alpha, np.concatenate([grid, np.maximum(d - eps, 0.0),
                                        np.minimum(d + eps, cap)]),
                 belief, p, s, enforce_cap=False).tolist()
    rows = [(b, u, "below_alpha" if b <= alpha else "above_alpha", 1)
            for b, u in zip(grid.tolist(), us)]
    for d, u_left, u_right in zip(jumps, us[grid.size:],
                                  us[grid.size + len(jumps):]):
        rows.append((d, u_left, "left_limit", 0))
        rows.append((d, u_right, "right_limit", 2))
    rows.sort(key=lambda r: (r[0], r[3]))
    return [(b, u, branch) for b, u, branch, _ in rows]
