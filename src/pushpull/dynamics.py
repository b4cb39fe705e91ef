"""Viewcount trajectories under push/pull diffusion and threshold strategies.

A content of quality theta accumulates views from a push channel
(provider seeding, rate lambda_ps(theta)) from t=0, and from a pull
channel (strategic viewers, aggregate rate lambda_pu) once the
population's access metric reaches its common threshold alpha. This
module evaluates X(t), the four access metrics, metric crossing times,
and the trend window used by the variable-horizon game.

Time is in days, rates in views/day, viewcount in views.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .numerics import (
    BracketedFunction,
    find_root,
    find_root_arr,
    lambert_w0_log,
)

INF = math.inf


class DynamicsError(ValueError):
    """Invalid parameter combination for a dynamics operation."""


class InfiniteHorizonError(DynamicsError):
    """Trend gate never closes: gamma_th <= lambda_pu keeps Xdot above it."""


class Quality(enum.Enum):
    GOOD = "G"
    BAD = "B"


class PushKind(enum.Enum):
    LINEAR = "linear"
    EXPONENTIAL_SATURATING = "exp_sat"


class MetricKind(enum.Enum):
    PLAIN_VIEWCOUNT = "plain"
    TREND = "trend"
    TREND_TIMES_VIEWCOUNT = "trend_times_viewcount"
    SIDE_INFORMATION = "side_information"


@dataclass(frozen=True)
class Belief:
    """Prior (pi_g, pi_b) that a content is good/bad."""

    pi_g: float
    pi_b: float

    def __post_init__(self):
        if not (0.0 <= self.pi_g <= 1.0 and 0.0 <= self.pi_b <= 1.0):
            raise DynamicsError("Belief components must lie in [0, 1]")
        if abs(self.pi_g + self.pi_b - 1.0) > 1e-12:
            raise DynamicsError("Belief must sum to 1 within 1e-12")


@dataclass(frozen=True)
class ModelParams:
    """All rates and constants of the diffusion model.

    n_pool is the finite push audience, required for the saturating
    push mechanism. gamma_th is the trend threshold, required only for
    the variable-horizon game.
    """

    lambda_ps_g: float
    lambda_ps_b: float
    lambda_pu: float
    tau: float
    n_pool: Optional[float] = None
    gamma_th: Optional[float] = None

    def __post_init__(self):
        if self.lambda_ps_g <= 0.0 or self.lambda_ps_b <= 0.0:
            raise DynamicsError("push rates must be positive")
        if self.lambda_ps_g < self.lambda_ps_b:
            raise DynamicsError("model assumes lambda_ps(G) >= lambda_ps(B)")
        if self.lambda_pu < 0.0:
            raise DynamicsError("pull rate must be nonnegative")
        if self.tau <= 0.0:
            raise DynamicsError("lifetime tau must be positive")
        if self.n_pool is not None and self.n_pool <= 0.0:
            raise DynamicsError("push pool size must be positive")
        if self.gamma_th is not None and self.gamma_th <= 0.0:
            raise DynamicsError("trend threshold must be positive")

    def lambda_ps(self, q: Quality) -> float:
        return self.lambda_ps_g if q is Quality.GOOD else self.lambda_ps_b

    def require_pool(self) -> float:
        if self.n_pool is None:
            raise DynamicsError("saturating push requires n_pool")
        return float(self.n_pool)


@dataclass(frozen=True)
class Trajectory:
    """Sampled (t, x, xdot) for one content quality under threshold alpha."""

    quality: Quality
    alpha: float
    t: np.ndarray
    x: np.ndarray
    xdot: np.ndarray

    @property
    def samples(self) -> Sequence[tuple]:
        return list(zip(self.t.tolist(), self.x.tolist(), self.xdot.tolist()))

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write("t,x,xdot\n")
            for t, x, xd in zip(self.t, self.x, self.xdot):
                fh.write(f"{t:.12g},{x:.12g},{xd:.12g}\n")


# -- push-only primitives ---------------------------------------------------
#
# Everything from here to beta_tau is elementwise in t and alpha, except
# the look-ahead metric, which takes scalars only. The public functions
# return a float for scalars and an array otherwise.

def _float_or_array(x):
    return x if isinstance(x, np.ndarray) and x.ndim else float(x)


def _x_ps(t, lam, push: PushKind, n: float):
    if push is PushKind.LINEAR:
        return lam * t
    return n * (1.0 - np.exp(-lam * t))


def _xdot_ps(t, lam, push: PushKind, n: float):
    if push is PushKind.LINEAR:
        return lam
    return lam * n * np.exp(-lam * t)


def _y_post(t, ta, lam, lpu: float, n: float):
    """Xdot*X under saturating push once the population pulls from ta.

    Elementwise; for t >= ta the same operations as _xdot * viewcount,
    so the values at a trajectory's grid points agree bit for bit.
    """
    e = np.exp(-lam * t)
    return (lam * n * e + lpu) * (n * (1.0 - e) + lpu * (t - ta))


def _y_post_slope(t, ta, lam, lpu: float, n: float):
    """y'/Xdot^2 for _y_post: 1 - lam (push/Xdot)(X/Xdot), elementwise,
    with push = lam n e^{-lam t}.

    The sign of y' on a scale of order one: y' itself fades like
    e^{-lam t} and would meet find_root's |f| <= tol stop far from its
    roots. X/Xdot overflows only at subnormal pull rates, to -inf, which
    keeps the sign.
    """
    e = np.exp(-lam * t)
    push = lam * n * e
    xdot = push + lpu
    with np.errstate(over="ignore"):
        return 1.0 - lam * (push / xdot) * ((n * (1.0 - e) + lpu * (t - ta))
                                            / xdot)


def _t_ps_inverse(x, lam, push: PushKind, n: float):
    """First time the push-only viewcount reaches x >= 0; INF when
    unreachable."""
    if push is PushKind.LINEAR:
        return x / lam
    # x >= n: log1p(-1) = -inf, so t = INF
    with np.errstate(divide="ignore"):
        return -np.log1p(-np.minimum(x, n) / n) / lam


# -- activation time t_alpha ------------------------------------------------

def _t_alpha_product(alpha, lam, push, n):
    """First crossing of Xdot*X = alpha under push alone, elementwise."""
    alpha = np.asarray(alpha, dtype=float)
    if push is PushKind.LINEAR:
        t = alpha / (lam * lam)
    else:
        # e^{-lam t} = (1 + sqrt(1 - 4 alpha/(lam N^2)))/2, rising-side
        # root; none above the push-only peak lam N^2/4
        disc = np.maximum(1.0 - 4.0 * alpha / (lam * n * n), 0.0)
        t = np.where(alpha > lam * n * n / 4.0, INF,
                     -np.log(0.5 * (1.0 + np.sqrt(disc))) / lam)
    return np.where(alpha <= 0.0, 0.0, t)


def _t_alpha_side_info(alpha, lam, lpu, tau, push, n):
    """Self-consistent activation for the look-ahead metric.

    y(t) = (X(tau)^2 - X(t)^2)/2 where X itself gains the pull term
    after the activation we are solving for. Linear push reduces to a
    quadratic in t_a; saturating push is solved by bisection.
    """
    big = lam + lpu
    if push is PushKind.LINEAR:
        y0_pushonly = 0.5 * (lam * tau) ** 2
        # no-activation consistency: if even the push-only start value
        # stays below alpha, the population never comes in
        a2 = lpu * lpu - lam * lam
        b = -2.0 * big * tau * lpu
        c = big * big * tau * tau - 2.0 * alpha
        if c <= 0.0:
            return 0.0  # alpha at or above the activated start value
        if a2 == 0.0:
            if b == 0.0:
                return 0.0 if alpha >= y0_pushonly else INF
            t = -c / b
            return t if 0.0 <= t <= tau else (INF if alpha < y0_pushonly else 0.0)
        disc = b * b - 4.0 * a2 * c
        roots = []
        if disc >= 0.0:
            q = -0.5 * (b + math.copysign(math.sqrt(disc), b if b != 0.0 else 1.0))
            for r in (q / a2, c / q if q != 0.0 else INF):
                if 0.0 <= r <= tau:
                    roots.append(r)
        if roots:
            return min(roots)
        return INF if alpha < y0_pushonly else 0.0
    # saturating push: f(ta) = y(0 given activation at ta) - alpha is
    # monotone in ta with f(tau) = -alpha <= 0
    def f(ta: float) -> float:
        xtau = _x_ps(tau, lam, push, n) + lpu * (tau - ta)
        xa = _x_ps(ta, lam, push, n)
        return 0.5 * (xtau * xtau - xa * xa) - alpha

    if f(0.0) <= 0.0:
        return 0.0
    if f(tau) > 0.0:
        return INF
    return find_root(BracketedFunction(f, 0.0, tau), 1e-13 * tau)


def activation_time(alpha, q: Quality, p: ModelParams,
                    push: PushKind, metric: MetricKind):
    """Earliest time the population metric reaches alpha (INF if never).

    Elementwise in alpha: a float for a scalar, an array otherwise. The
    look-ahead metric (SIDE_INFORMATION) takes a scalar alpha only.
    """
    if np.count_nonzero(alpha < 0.0):
        raise DynamicsError("alpha must be nonnegative")
    lam = p.lambda_ps(q)
    n = p.require_pool() if push is PushKind.EXPONENTIAL_SATURATING else 0.0
    if metric is MetricKind.PLAIN_VIEWCOUNT:
        # pull cannot fire before activation, so only push drives X up to alpha
        ta = _t_ps_inverse(alpha, lam, push, n)
    elif metric is MetricKind.TREND:
        # push-only trend is nonincreasing; the gate opens at t=0 or never
        ta = np.where(_xdot_ps(0.0, lam, push, n) >= alpha, 0.0, INF)
    elif metric is MetricKind.TREND_TIMES_VIEWCOUNT:
        ta = _t_alpha_product(alpha, lam, push, n)
    else:
        ta = _t_alpha_side_info(alpha, lam, p.lambda_pu, p.tau, push, n)
    return _float_or_array(ta)


# -- trajectory values ------------------------------------------------------

def viewcount(t, q: Quality, alpha, p: ModelParams, push: PushKind,
              metric: MetricKind = MetricKind.PLAIN_VIEWCOUNT):
    """X(t): push views plus pull views accumulated since activation.

    Elementwise in t and alpha, which broadcast together: a float for
    scalars, an array otherwise. The look-ahead metric takes a scalar
    alpha only.
    """
    if np.count_nonzero(t < 0.0):
        raise DynamicsError("t must be nonnegative")
    lam = p.lambda_ps(q)
    n = p.require_pool() if push is PushKind.EXPONENTIAL_SATURATING else 0.0
    ta = activation_time(alpha, q, p, push, metric)
    # before ta (and for ta = INF) the pull term is lambda_pu * 0
    return _float_or_array(_x_ps(t, lam, push, n)
                           + p.lambda_pu * np.maximum(t - ta, 0.0))


def _xdot(t, q, alpha, p, push, metric):
    """Xdot(t), elementwise like viewcount; the right limit at the jump."""
    lam = p.lambda_ps(q)
    n = p.require_pool() if push is PushKind.EXPONENTIAL_SATURATING else 0.0
    ta = activation_time(alpha, q, p, push, metric)
    return _xdot_ps(t, lam, push, n) + np.where(t >= ta, p.lambda_pu, 0.0)


def metric_value(t: float, q: Quality, alpha, p: ModelParams,
                 push: PushKind, metric: MetricKind):
    """The access metric observed at time t under population threshold
    alpha; elementwise in alpha like viewcount."""
    if not 0.0 <= t <= p.tau:
        raise DynamicsError("metric_value is defined on [0, tau]")
    if metric is MetricKind.PLAIN_VIEWCOUNT:
        return viewcount(t, q, alpha, p, push, metric)
    if metric is MetricKind.TREND:
        return _float_or_array(_xdot(t, q, alpha, p, push, metric))
    if metric is MetricKind.TREND_TIMES_VIEWCOUNT:
        return _float_or_array(_xdot(t, q, alpha, p, push, metric)
                               * viewcount(t, q, alpha, p, push, metric))
    xt = viewcount(p.tau, q, alpha, p, push, metric)
    xnow = viewcount(t, q, alpha, p, push, metric)
    return 0.5 * (xt * xt - xnow * xnow)


# -- crossing times ----------------------------------------------------------

def _cross_plain_raw(beta, alpha, q, p, push):
    """Uncapped t_beta for the plain viewcount, closed form, elementwise.

    beta and alpha are float arrays of one shape, one population
    threshold per element.
    """
    lam = p.lambda_ps(q)
    lpu = p.lambda_pu
    if push is PushKind.LINEAR:
        pure = beta / lam
        if lpu == 0.0:
            return pure
        # alpha = inf makes the discarded boosted value inf - inf
        with np.errstate(invalid="ignore"):
            boosted = alpha / lam + (beta - alpha) / (lam + lpu)
        return np.where(beta <= alpha, pure, boosted)
    # saturating push plus pull: Lambert form, robust for beta past n
    n = p.require_pool()
    t = np.asarray(_t_ps_inverse(beta, lam, push, n))
    zeta = lam * n / lpu if lpu > 0.0 else INF
    boosted = (beta > alpha) & (alpha < n)
    if not math.isfinite(zeta) or not boosted.any():
        # no pull, or pull too slow to register against the pool
        # (subnormal rates): the lpu -> 0 limit is the push-only crossing
        return t
    c = -zeta * (1.0 - beta[boosted] / n) - np.log1p(-alpha[boosted] / n)
    log_zeta = math.log(lam * n) - math.log(lpu)
    w = lambert_w0_log(log_zeta - c)
    # c + w = ln(zeta) - ln(w) exactly, and the latter form stays accurate
    # when zeta blows up (tiny pull rate) and c, w cancel to leading order
    with np.errstate(divide="ignore"):
        t[boosted] = np.where(w <= 0.0, c / lam, (log_zeta - np.log(w)) / lam)
    return t


def _product_pieces(ta, lam, p):
    """Ends (r, f) of the monotone pieces of _y_post after ta, elementwise.

    y' = e^{-lam t} h(t), where h falls until t* = ln(2 lam n/lpu)/lam
    and rises after it. So y rises on [ta, r], falls on [r, f] and rises
    after f, each piece possibly empty: r is the local maximum c1 < t*,
    ta when y falls from the start and INF when it never falls; f is the
    local minimum c2 > t*, or tau when y still falls there (the falling
    piece matters only within the lifetime). Both come from one
    find_root_arr pass on the sign of y'. Needs lambda_pu > 0.
    """
    lpu, n, tau = p.lambda_pu, p.require_pool(), p.tau
    ta, lam = np.broadcast_arrays(np.asarray(ta, dtype=float), lam)
    # an activation that never happens (ta = INF) has NaN slopes, which
    # fail every test below: no pieces
    with np.errstate(invalid="ignore"):
        # log-space: 2 lam n/lpu overflows at subnormal pull rates
        t_star = (np.log(2.0 * lam * n) - math.log(lpu)) / lam
        s0 = np.maximum(t_star, ta)
        at_a = _y_post_slope(ta, ta, lam, lpu, n)
        at_s0 = _y_post_slope(s0, ta, lam, lpu, n)
        at_tau = _y_post_slope(tau, ta, lam, lpu, n)
    falls_first = at_a <= 0.0
    peak = (at_a > 0.0) & (t_star > ta) & (at_s0 < 0.0)
    # h < 0 from r up to s0 = max(t*, ta), so c2 lies past s0
    trough = (falls_first | peak) & (s0 < tau) & (at_tau > 0.0)
    r = np.where(falls_first, ta, INF)
    f = np.full(ta.shape, tau)
    if peak.any() or trough.any():
        lo = np.concatenate([ta[peak], s0[trough]])
        hi = np.concatenate([t_star[peak], f[trough]])
        t0 = np.concatenate([ta[peak], ta[trough]])
        lm = np.concatenate([lam[peak], lam[trough]])
        roots = find_root_arr(lambda t: _y_post_slope(t, t0, lm, lpu, n),
                              lo, hi, 1e-13 * max(tau, 1.0))
        k = np.count_nonzero(peak)
        r[peak] = roots[:k]
        f[trough] = roots[k:]
    return r, f


def _cross_product_sat(beta, alpha, lams, p, strict: bool):
    """First time Xdot*X reaches beta under saturating push, elementwise.

    beta and alpha are float arrays of one shape, one population
    threshold per element; the result has one row per push rate in
    lams (the utility passes both qualities at once). Before activation
    the push-only parabola is inverted in closed form. After it the
    passage lies in one monotone piece of y (_product_pieces, computed
    once per alpha and rate), and every element is bisected there in
    one find_root_arr pass.

    strict=False gives the raw inf{t : y >= beta}: a beta inside the
    activation jump (y(ta-), y(ta+)] lands on ta. With strict=True a
    beta strictly inside the jump counts as met only if the
    post-activation curve comes back down to it before tau (INF
    otherwise); this is what makes the utility surface jump at the gap
    edges.
    """
    lpu, n, tau = p.lambda_pu, p.require_pool(), p.tau
    shape = (len(lams),) + beta.shape
    lam_col = np.asarray(lams, dtype=float)[:, None]
    lam = lam_col.reshape((-1,) + (1,) * beta.ndim)
    t = _t_alpha_product(beta, lam, PushKind.EXPONENTIAL_SATURATING, n).ravel()
    if lpu == 0.0:
        return t.reshape(shape)
    levels, inverse = np.unique(alpha, return_inverse=True)
    ta_lv = _t_alpha_product(levels, lam_col,
                             PushKind.EXPONENTIAL_SATURATING, n)
    r_lv, f_lv = _product_pieces(ta_lv, lam_col, p)
    ta, r, f = (v[:, inverse.ravel()].ravel() for v in (ta_lv, r_lv, f_lv))
    beta, alpha, lam = (np.broadcast_to(v, shape).ravel()
                        for v in (beta, alpha, lam))
    with np.errstate(invalid="ignore"):  # ta = INF: no jump, NaN bound
        y_hi = _y_post(ta, ta, lam, lpu, n)
    # the jump runs from y(ta-) = alpha itself: recomputed from ta that
    # is off by an ulp either way, and the own threshold's payoff would
    # be decided by rounding
    gap = (beta > alpha) & (beta < y_hi) if strict else np.zeros(t.shape, bool)
    post = ~gap & (t > ta)
    t[post] = ta[post]  # inside the activation jump; up is past it
    up = np.flatnonzero(post & (beta > y_hi))
    down = np.flatnonzero(gap)
    t[down] = INF
    # up: the first rising piece [ta, r] when y gets to beta there, else
    # the last one; y >= lpu^2 (t - ta) bounds that by ta + beta/lpu^2.
    # Passages later than 1e9 tau count as never.
    bu, au, lu = beta[up], ta[up], lam[up]
    with np.errstate(divide="ignore", over="ignore"):  # lpu^2 underflows
        t_hi = np.minimum(au + bu / (lpu * lpu), 1e9 * tau)
    r_up = np.minimum(r[up], t_hi)
    first = _y_post(r_up, au, lu, lpu, n) >= bu
    reach_up = first | (_y_post(t_hi, au, lu, lpu, n) >= bu)
    t[up[~reach_up]] = INF
    # down: the falling piece [r, f], if it starts before tau and gets
    # down to beta
    reach_down = (r[down] < tau) & (
        _y_post(f[down], ta[down], lam[down], lpu, n) <= beta[down])
    k = np.concatenate([up[reach_up], down[reach_down]])
    if k.size:
        lo = np.concatenate([np.where(first, au, r_up)[reach_up],
                             r[down][reach_down]])
        hi = np.concatenate([np.where(first, r_up, t_hi)[reach_up],
                             f[down][reach_down]])
        ak, lk, bk = ta[k], lam[k], beta[k]
        # a passage by tau is bracketed by tau, so beta = y(tau) lands on
        # tau exactly (the strategy cap is often that value)
        by_tau = (lo < tau) & (tau < hi) & (_y_post(tau, ak, lk, lpu, n) >= bk)
        hi[by_tau] = tau
        t[k] = find_root_arr(lambda s: _y_post(s, ak, lk, lpu, n) - bk,
                             lo, hi, 1e-13 * max(tau, 1.0))
    return t.reshape(shape)


def _cross_product_raw(beta, alpha, q, p, push):
    """Uncapped first time Xdot*X >= beta (inf over a possibly jumping
    path), elementwise like _cross_plain_raw."""
    lam = p.lambda_ps(q)
    if push is PushKind.EXPONENTIAL_SATURATING:
        return _cross_product_sat(beta, alpha, [lam], p, False)[0]
    ta = _t_alpha_product(alpha, lam, push, 0.0)
    big = lam + p.lambda_pu
    xa = lam * ta
    # alpha = inf makes the discarded boosted value inf - inf
    with np.errstate(invalid="ignore"):
        boosted = np.where(beta <= big * xa, ta,  # inside the activation jump
                           ta + (beta / big - xa) / big)
    pre = beta / (lam * lam)
    return np.where(beta <= 0.0, 0.0, np.where(pre <= ta, pre, boosted))


def _cross_side_info_raw(beta, q, alpha, p, push):
    """Unique t with y(t) = beta for the decreasing look-ahead metric."""
    lam = p.lambda_ps(q)
    lpu = p.lambda_pu
    n = p.require_pool() if push is PushKind.EXPONENTIAL_SATURATING else 0.0
    ta = _t_alpha_side_info(alpha, lam, lpu, p.tau, push, n)
    xtau = _x_ps(p.tau, lam, push, n)
    if ta < INF:
        xtau += lpu * (p.tau - ta)
    y0 = 0.5 * xtau * xtau
    if beta >= y0:
        return 0.0
    target = math.sqrt(max(xtau * xtau - 2.0 * beta, 0.0))
    xa = _x_ps(ta, lam, push, n) if ta < INF else INF
    if ta == INF or target <= xa:
        return _t_ps_inverse(target, lam, push, n)
    if push is PushKind.LINEAR:
        return ta + (target - xa) / (lam + lpu)
    # invert the saturating-push-plus-pull segment; target <= X(tau)
    # guarantees the bracket [ta, tau]
    if lpu == 0.0:
        return _t_ps_inverse(target, lam, push, n)

    def f(t):
        return _x_ps(t, lam, push, n) + lpu * (t - ta) - target

    return find_root(BracketedFunction(f, ta, p.tau), 1e-13 * max(p.tau, 1.0))


def crossing_time(beta: float, q: Quality, alpha: float, p: ModelParams,
                  push: PushKind, metric: MetricKind) -> float:
    """t_beta, the earliest time the metric attains beta; INF beyond tau.

    Increasing metrics use inf{t : metric >= beta} (jumps land on the
    jump time); the decreasing look-ahead metric uses inf{t : y <= beta}.
    Crossings later than the lifetime report INF.
    """
    if beta < 0.0:
        raise DynamicsError("beta must be nonnegative")
    t = crossing_time_raw(beta, q, alpha, p, push, metric)
    if t <= p.tau:
        return t
    # inverting the value attained exactly at tau can overshoot by a few
    # ulps; snap those to the lifetime instead of reporting unreachable
    if t <= p.tau * (1.0 + 1e-12):
        return p.tau
    return INF


def crossing_time_raw(beta, q: Quality, alpha, p: ModelParams,
                      push: PushKind, metric: MetricKind):
    """Crossing time without the lifetime cap (utility algebra needs it).

    For the plain viewcount and trend*viewcount, beta and alpha may be
    arrays that broadcast together, one population threshold per
    element: the result is a float for two scalars and an array
    otherwise. The trend and look-ahead metrics take scalars only.
    """
    # np.less, not <: beta may also be a list
    if np.count_nonzero(np.less(beta, 0.0)):
        raise DynamicsError("beta must be nonnegative")
    if metric in (MetricKind.PLAIN_VIEWCOUNT, MetricKind.TREND_TIMES_VIEWCOUNT):
        beta, alpha = np.broadcast_arrays(np.asarray(beta, dtype=float),
                                          np.asarray(alpha, dtype=float))
        cross = (_cross_plain_raw if metric is MetricKind.PLAIN_VIEWCOUNT
                 else _cross_product_raw)
        return _float_or_array(cross(beta, alpha, q, p, push))
    if metric is MetricKind.TREND:
        # the trend is largest at t = 0, where any activation happens too
        return 0.0 if beta <= beta_tau(q, alpha, p, push, metric) else INF
    return _cross_side_info_raw(beta, q, alpha, p, push)


def beta_tau(q: Quality, alpha, p: ModelParams,
             push: PushKind, metric: MetricKind):
    """Largest threshold quality q can meet within the lifetime.

    Plain viewcount peaks at tau, the look-ahead metric at 0. The trend
    is largest at 0, and trend*viewcount at one of its breakpoints: the
    push-only peak, the activation jump, the local maximum of the
    post-activation curve (see _product_pieces) or tau.

    Elementwise in alpha: a float for a scalar, an array otherwise. The
    look-ahead metric takes a scalar alpha only.
    """
    if metric in (MetricKind.TREND, MetricKind.SIDE_INFORMATION):
        return metric_value(0.0, q, alpha, p, push, metric)  # decreasing
    lam, lpu, tau = p.lambda_ps(q), p.lambda_pu, p.tau
    n = p.require_pool() if push is PushKind.EXPONENTIAL_SATURATING else 0.0
    y_tau = metric_value(tau, q, alpha, p, push, metric)
    if metric is MetricKind.PLAIN_VIEWCOUNT or push is PushKind.LINEAR:
        return y_tau  # increasing
    # without pull the push-only curve is the whole path
    ta = activation_time(alpha, q, p, push, metric) if lpu > 0.0 else INF
    # push-only, y rises to lam n^2/4 at ln 2/lam and falls after it
    y = np.maximum(y_tau, np.where(math.log(2.0) / lam <= np.minimum(ta, tau),
                                   lam * n * n / 4.0, -INF))
    if lpu > 0.0:
        # y(ta+) >= y(ta-): the jump adds lpu * X(ta); r >= ta
        r, _ = _product_pieces(ta, lam, p)
        with np.errstate(invalid="ignore"):  # ta = INF: NaN, never taken
            for t in (ta, r):
                y = np.maximum(y, np.where(t <= tau, _y_post(t, ta, lam, lpu, n),
                                           -INF))
    return _float_or_array(y)


def horizon_window(q: Quality, p: ModelParams, push: PushKind) -> tuple:
    """(tau0, tau1, x_th) for the trend-gated utility window.

    tau0 is when push-only growth alone would fall to gamma_th (clamped
    at 0), tau1 when growth including pull falls to it, and x_th the
    viewcount at the gate. Requires saturating push and gamma_th > lambda_pu;
    otherwise the window never closes.
    """
    if push is not PushKind.EXPONENTIAL_SATURATING:
        raise DynamicsError("horizon window applies to saturating push only")
    if p.gamma_th is None:
        raise DynamicsError("gamma_th is required for the horizon window")
    if p.gamma_th <= p.lambda_pu:
        raise InfiniteHorizonError(
            f"gamma_th={p.gamma_th} <= lambda_pu={p.lambda_pu}: window never closes")
    lam = p.lambda_ps(q)
    n = p.require_pool()
    tau0 = max(math.log(lam * n / p.gamma_th) / lam, 0.0)
    tau1 = math.log(lam * n / (p.gamma_th - p.lambda_pu)) / lam
    x_th = n - p.gamma_th / lam
    return tau0, tau1, x_th


def sample_trajectory(q: Quality, alpha: float, p: ModelParams,
                      push: PushKind, metric: MetricKind = MetricKind.PLAIN_VIEWCOUNT,
                      n_samples: int = 10_000) -> Trajectory:
    """Sample (t, X, Xdot) on [0, tau]: uniform grid plus exact breakpoints."""
    pts = [np.linspace(0.0, p.tau, n_samples)]
    for quality in (Quality.GOOD, Quality.BAD):
        pts.append([activation_time(alpha, quality, p, push, metric)])
    if p.gamma_th is not None and push is PushKind.EXPONENTIAL_SATURATING \
            and p.gamma_th > p.lambda_pu:
        pts.append(horizon_window(q, p, push)[:2])
    t = np.concatenate(pts)
    t = np.unique(t[(t >= 0.0) & (t <= p.tau)])
    return Trajectory(quality=q, alpha=alpha, t=t,
                      x=viewcount(t, q, alpha, p, push, metric),
                      xdot=_xdot(t, q, alpha, p, push, metric))
