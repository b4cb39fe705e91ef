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

from .numerics import BracketedFunction, find_root, lambert_w0_log_arr

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

def _x_ps(t: float, lam: float, push: PushKind, n: float) -> float:
    if push is PushKind.LINEAR:
        return lam * t
    return n * (1.0 - math.exp(-lam * t))


def _xdot_ps(t: float, lam: float, push: PushKind, n: float) -> float:
    if push is PushKind.LINEAR:
        return lam
    return lam * n * math.exp(-lam * t)


def _y_post(t: float, ta: float, lam: float, lpu: float, n: float) -> float:
    """Xdot*X under saturating push once the population pulls from ta.

    _xdot_ps and _x_ps written out on one shared exponential, same bits:
    called per scan point, the two helpers cost a third of the speed.
    """
    e = math.exp(-lam * t)
    return (lam * n * e + lpu) * (n * (1.0 - e) + lpu * (t - ta))


def _first_passage(g, t0: float, t1: float, n_grid: int, tol: float) -> float:
    """First t in [t0, t1] with g(t) >= 0: a scan of n_grid points, then
    bisection inside the first bracket; INF when no grid point gets there."""
    ts = np.linspace(t0, t1, n_grid)
    hit = np.flatnonzero(np.array([g(t) for t in ts]) >= 0.0)
    if hit.size == 0:
        return INF
    k = int(hit[0])
    if k == 0:
        return t0
    return find_root(BracketedFunction(g, ts[k - 1], ts[k]), tol)


def _t_ps_inverse(x: float, lam: float, push: PushKind, n: float) -> float:
    """First time the push-only viewcount reaches x; INF when unreachable."""
    if x <= 0.0:
        return 0.0
    if push is PushKind.LINEAR:
        return x / lam
    if x >= n:
        return INF
    return -math.log(1.0 - x / n) / lam


def _t_ps_inverse_arr(x, lam: float, n: float):
    """_t_ps_inverse for saturating push, elementwise over levels x >= 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        t = -np.log1p(-np.minimum(x, n) / n) / lam
    return np.where(x >= n, INF, t)


# -- activation time t_alpha ------------------------------------------------

def _t_alpha_trend(alpha, lam, push, n):
    # push-only trend is nonincreasing; the gate opens at t=0 or never
    return 0.0 if _xdot_ps(0.0, lam, push, n) >= alpha else INF


def _t_alpha_product(alpha, lam, push, n):
    """First crossing of Xdot*X = alpha under push alone."""
    if alpha <= 0.0:
        return 0.0
    if push is PushKind.LINEAR:
        return alpha / (lam * lam)
    peak = lam * n * n / 4.0
    if alpha > peak:
        return INF
    # e^{-lam t} = (1 + sqrt(1 - 4 alpha/(lam N^2)))/2, rising-side root
    u = 0.5 * (1.0 + math.sqrt(max(1.0 - 4.0 * alpha / (lam * n * n), 0.0)))
    return -math.log(u) / lam


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


def activation_time(alpha: float, q: Quality, p: ModelParams,
                    push: PushKind, metric: MetricKind) -> float:
    """Earliest time the population metric reaches alpha (INF if never)."""
    if alpha < 0.0:
        raise DynamicsError("alpha must be nonnegative")
    lam = p.lambda_ps(q)
    n = p.require_pool() if push is PushKind.EXPONENTIAL_SATURATING else 0.0
    if metric is MetricKind.PLAIN_VIEWCOUNT:
        # pull cannot fire before activation, so only push drives X up to alpha
        return _t_ps_inverse(alpha, lam, push, n)
    if metric is MetricKind.TREND:
        return _t_alpha_trend(alpha, lam, push, n)
    if metric is MetricKind.TREND_TIMES_VIEWCOUNT:
        return _t_alpha_product(alpha, lam, push, n)
    return _t_alpha_side_info(alpha, lam, p.lambda_pu, p.tau, push, n)


# -- trajectory values ------------------------------------------------------

def viewcount(t: float, q: Quality, alpha: float, p: ModelParams,
              push: PushKind, metric: MetricKind = MetricKind.PLAIN_VIEWCOUNT) -> float:
    """X(t): push views plus pull views accumulated since activation."""
    if t < 0.0:
        raise DynamicsError("t must be nonnegative")
    lam = p.lambda_ps(q)
    n = p.require_pool() if push is PushKind.EXPONENTIAL_SATURATING else 0.0
    ta = activation_time(alpha, q, p, push, metric)
    x = _x_ps(t, lam, push, n)
    if t >= ta:
        x += p.lambda_pu * (t - ta)
    return x


def _xdot(t, q, alpha, p, push, metric):
    lam = p.lambda_ps(q)
    n = p.require_pool() if push is PushKind.EXPONENTIAL_SATURATING else 0.0
    ta = activation_time(alpha, q, p, push, metric)
    xd = _xdot_ps(t, lam, push, n)
    if t >= ta:  # right limit at the jump
        xd += p.lambda_pu
    return xd


def metric_value(t: float, q: Quality, alpha: float, p: ModelParams,
                 push: PushKind, metric: MetricKind) -> float:
    """The access metric observed at time t under population threshold alpha."""
    if not 0.0 <= t <= p.tau:
        raise DynamicsError("metric_value is defined on [0, tau]")
    if metric is MetricKind.PLAIN_VIEWCOUNT:
        return viewcount(t, q, alpha, p, push, metric)
    if metric is MetricKind.TREND:
        return _xdot(t, q, alpha, p, push, metric)
    if metric is MetricKind.TREND_TIMES_VIEWCOUNT:
        return _xdot(t, q, alpha, p, push, metric) * viewcount(t, q, alpha, p, push, metric)
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
    t = _t_ps_inverse_arr(beta, lam, n)
    zeta = lam * n / lpu if lpu > 0.0 else INF
    boosted = (beta > alpha) & (alpha < n)
    if not math.isfinite(zeta) or not boosted.any():
        # no pull, or pull too slow to register against the pool
        # (subnormal rates): the lpu -> 0 limit is the push-only crossing
        return t
    c = -zeta * (1.0 - beta[boosted] / n) - np.log1p(-alpha[boosted] / n)
    log_zeta = math.log(lam * n) - math.log(lpu)
    w = lambert_w0_log_arr(log_zeta - c)
    # c + w = ln(zeta) - ln(w) exactly, and the latter form stays accurate
    # when zeta blows up (tiny pull rate) and c, w cancel to leading order
    with np.errstate(divide="ignore"):
        t[boosted] = np.where(w <= 0.0, c / lam, (log_zeta - np.log(w)) / lam)
    return t


def _cross_product_raw(beta, q, alpha, p, push):
    """Uncapped first time Xdot*X >= beta (inf over a possibly jumping path)."""
    lam = p.lambda_ps(q)
    lpu = p.lambda_pu
    n = p.require_pool() if push is PushKind.EXPONENTIAL_SATURATING else 0.0
    ta = _t_alpha_product(alpha, lam, push, n)
    if beta <= 0.0:
        return 0.0
    if push is PushKind.LINEAR:
        pre = beta / (lam * lam)
        if pre <= ta:
            return pre
        if ta == INF:
            return INF
        big = lam + lpu
        xa = lam * ta
        if beta <= big * xa:
            return ta  # lands inside the activation jump
        return ta + (beta / big - xa) / big
    # saturating push: rising-side closed form while the push parabola
    # still governs, scan plus bisection after the activation jump
    t_pre = _t_alpha_product(beta, lam, push, n)
    if t_pre <= ta or lpu == 0.0:
        return t_pre
    if ta == INF:
        return INF

    def gap(t):
        return _y_post(t, ta, lam, lpu, n) - beta

    if gap(ta) >= 0.0:
        return ta  # lands inside the activation jump
    # the curve eventually grows like lpu^2 t; scan forward for a bracket
    t_hi = max(p.tau, ta + 1.0)
    while gap(t_hi) < 0.0:
        t_hi = 2.0 * t_hi + 1.0
        if t_hi > 1e9 * p.tau:
            return INF
    return _first_passage(gap, ta, t_hi, 4096, 1e-13 * max(p.tau, 1.0))


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

    For the plain viewcount beta and alpha may be arrays that broadcast
    together, one population threshold per element: the result is a
    float for two scalars and an array otherwise. The other metrics
    take scalars only.
    """
    if np.any(np.less(beta, 0.0)):
        raise DynamicsError("beta must be nonnegative")
    if metric is MetricKind.PLAIN_VIEWCOUNT:
        beta, alpha = np.broadcast_arrays(np.asarray(beta, dtype=float),
                                          np.asarray(alpha, dtype=float))
        t = _cross_plain_raw(beta, alpha, q, p, push)
        return float(t) if np.ndim(t) == 0 else t
    if metric is MetricKind.TREND:
        lam = p.lambda_ps(q)
        n = p.require_pool() if push is PushKind.EXPONENTIAL_SATURATING else 0.0
        ta = _t_alpha_trend(alpha, lam, push, n)
        base = _xdot_ps(0.0, lam, push, n)
        if beta <= base:
            return 0.0
        if ta < INF and beta <= base + p.lambda_pu:
            return ta  # trend jumps by lambda_pu at activation (t=0 here)
        return INF
    if metric is MetricKind.TREND_TIMES_VIEWCOUNT:
        return _cross_product_raw(beta, q, alpha, p, push)
    return _cross_side_info_raw(beta, q, alpha, p, push)


def beta_tau(q: Quality, alpha: float, p: ModelParams,
             push: PushKind, metric: MetricKind) -> float:
    """Largest threshold quality q can meet within the lifetime.

    Plain viewcount peaks at tau, the look-ahead metric at 0; the trend
    metrics are not monotone, so those take a max over the sampling grid.
    """
    if metric is MetricKind.PLAIN_VIEWCOUNT:
        return metric_value(p.tau, q, alpha, p, push, metric)
    if metric is MetricKind.SIDE_INFORMATION:
        return metric_value(0.0, q, alpha, p, push, metric)
    traj = sample_trajectory(q, alpha, p, push, metric)
    if metric is MetricKind.TREND:
        return float(np.max(traj.xdot))
    return float(np.max(traj.xdot * traj.x))


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
    pts = set(np.linspace(0.0, p.tau, n_samples).tolist())
    for quality in (Quality.GOOD, Quality.BAD):
        ta = activation_time(alpha, quality, p, push, metric)
        if 0.0 <= ta <= p.tau:
            pts.add(ta)
    if p.gamma_th is not None and push is PushKind.EXPONENTIAL_SATURATING \
            and p.gamma_th > p.lambda_pu:
        t0, t1, _ = horizon_window(q, p, push)
        for b in (t0, t1):
            if 0.0 <= b <= p.tau:
                pts.add(b)
    t = np.array(sorted(pts))
    lam = p.lambda_ps(q)
    n = p.require_pool() if push is PushKind.EXPONENTIAL_SATURATING else 0.0
    ta = activation_time(alpha, q, p, push, metric)
    if push is PushKind.LINEAR:
        x = lam * t
        xd = np.full_like(t, lam)
    else:
        x = n * (1.0 - np.exp(-lam * t))
        xd = lam * n * np.exp(-lam * t)
    active = t >= ta
    x = x + np.where(active, p.lambda_pu * (t - ta), 0.0)
    xd = xd + np.where(active, p.lambda_pu, 0.0)
    return Trajectory(quality=q, alpha=alpha, t=t, x=x, xdot=xd)
