"""Viewcount trajectories under push/pull diffusion and threshold strategies.

A content of quality theta accumulates views from a push channel
(provider seeding, rate lambda_ps(theta)) from t=0, and from a pull
channel (strategic viewers, aggregate rate lambda_pu) once the
population's access metric reaches its common threshold alpha. This
module evaluates X(t), the three access metrics, metric crossing times,
and the trend window used by the variable-horizon game.

The metrics are the viewcount X, the product Xdot*X of trend and
viewcount, and the printed push-audience look-ahead value
((lam tau)^2 - X^2)/2, which falls from (lam tau)^2/2 and is met on the
way down; it is defined for linear push only.

Before pull starts every metric is a function of the push-only count,
so a level is met when that count reaches the level's gate (_gate).
crossings, the one crossing-time kernel, takes every passage before
activation from it, one row per push rate, and past alpha one passage
for both linear-push metrics; saturating Xdot*X meets a level inside
its activation jump only when it comes back down. crossing_time_raw is
its checked front for one quality. Linear Xdot*X, whose game is
utility.reduce_scenario's, stops at activation: crossings and beta_tau
refuse it.

Every threshold and time that enters from outside passes one check,
_nonnegative: a negative or NaN entry raises the caller's typed error,
and INF, a level never met, passes.

Time is in days, rates in views/day, viewcount in views.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .numerics import find_root_arr, lambert_w0_log

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
        # NaN passes every comparison below, and JSON reads NaN and Infinity
        for name in ("lambda_ps_g", "lambda_ps_b", "lambda_pu", "tau",
                     "n_pool", "gamma_th"):
            v = getattr(self, name)
            if v is not None and not math.isfinite(v):
                raise DynamicsError(f"{name} must be finite, not {v}")
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


# rows formatted per write. Each block's lists and strings are freed
# before the next; blocks of 512 rows and more left the heap fragmented
# enough to raise the benchmark's peak RSS by up to 5 MB on some
# scalar_cli pools, 256 rows no more than a row-by-row write
_CSV_BLOCK = 256
# a file of _G12_MIN_ROWS rows or more whose every column is "%.12g" is
# written in blocks of _G12_BLOCK rows, and each block of at least
# _G12_MIN_ROWS rows goes through the numpy kernel (g12.g12_block). Its
# largest temporaries (32 bytes a field) stay at ~100 KB, which the
# allocator reuses: 2048-row blocks took ~240 page faults a call, 1024
# rows none. The kernel's fixed cost (~75 us) loses to the % path below
# ~100 rows of three columns (64 rows took 1.2x the % path's time, 128
# rows 0.7x, 256 rows 0.5x, 1024 rows 0.3x); the cutover keeps a margin
_G12_BLOCK = 1024
_G12_MIN_ROWS = 256


def write_csv(path, header: str, row_fmt: str, *columns) -> None:
    """Write a CSV file: the header line, then one row_fmt line per row.

    row_fmt is a %-format of one row including its newline, with one
    conversion per column, e.g. "%.12g,%.12g,%s\n". The columns are
    equal-length sequences (arrays, lists, tuples). The bytes are those
    of formatting row by row with the same specs in f-strings:
    "%.12g" % x == f"{x:.12g}" for every float, 0.0, -0.0, subnormals,
    inf and nan included, and np.float64 is a float.

    Rows are formatted a block at a time, which keeps the peak memory at
    one block whatever the file length. Where every column is "%.12g" (a
    sampled path), a block of _G12_MIN_ROWS rows or more goes through
    g12.g12_block: a numpy kernel that produces the bytes of "%.12g" for
    the whole block and hands each element it cannot certify to "%.12g"
    itself. Every other block, of any file and below that cutover, where
    the kernel's fixed cost loses, is `row_fmt * len(block) % values`
    over Python scalars (`.tolist()`): the kernel's fallback applied to
    the whole block.
    """
    m, n = len(columns), len(columns[0])
    kernel = (n >= _G12_MIN_ROWS
              and row_fmt == ",".join(["%.12g"] * m) + "\n")
    step = _CSV_BLOCK
    if kernel:
        # imported on first use: a process that writes no long path
        # neither compiles the kernel nor builds its tables
        from .g12 import g12_block
        step = _G12_BLOCK
        block = np.empty((step, m))
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        for i in range(0, n, step):
            k = min(step, n - i)
            if kernel and k >= _G12_MIN_ROWS:
                for j, col in enumerate(columns):
                    block[:k, j] = col[i:i + k]
                # the first field's opener is a "\n" the header wrote
                fh.write(g12_block(block[:k])[1:])
                fh.write(b"\n")
                continue
            flat = [None] * (k * m)
            for j, col in enumerate(columns):
                flat[j::m] = np.asarray(col[i:i + k]).tolist()
            fh.write((row_fmt * k % tuple(flat)).encode())


@dataclass(frozen=True)
class Trajectory:
    """Sampled (t, x, xdot) for one content quality under threshold alpha."""

    quality: Quality
    alpha: float
    t: np.ndarray
    x: np.ndarray
    xdot: np.ndarray

    def to_csv(self, path) -> None:
        """Write the samples as "t,x,xdot" rows, 12 significant digits
        each, through write_csv: blocks of _G12_MIN_ROWS rows or more go
        through its numpy %.12g kernel, shorter paths and tails through
        the % format, and every byte is the one "%.12g" % x gives."""
        write_csv(path, "t,x,xdot", "%.12g,%.12g,%.12g\n",
                  self.t, self.x, self.xdot)


# -- push-only primitives ---------------------------------------------------
#
# Everything from here to beta_tau is elementwise in t and alpha. The
# public functions return a float for scalars and an array otherwise.

def _float_or_array(x):
    return x if isinstance(x, np.ndarray) and x.ndim else float(x)


def _nonnegative(x, name: str, error: type = DynamicsError) -> np.ndarray:
    """x as a float array, or error where an entry is negative or NaN
    (x >= 0 is false for both); INF, a level never met, passes."""
    x = np.asarray(x, dtype=float)
    if np.count_nonzero(x >= 0.0) != x.size:
        raise error(f"{name} must be nonnegative")
    return x


def _square(x, name: str, error: type = DynamicsError) -> float:
    """x ** 2 for a real x, or error naming x where the square is past
    the largest double (Python's ** raises a bare OverflowError there)."""
    try:
        return float(x) ** 2
    except OverflowError:
        raise error(f"the square of {name} = {x:.6g} overflows a double") \
            from None


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

    Elementwise; for t >= ta the same operations as _xdot * _x,
    so the values at a trajectory's grid points agree bit for bit.
    """
    e = np.exp(-lam * t)
    return (lam * n * e + lpu) * (n * (1.0 - e) + lpu * (t - ta))


def _y_post_slope(t, ta, lam, lpu: float, n: float):
    """y'/Xdot^2 for _y_post: 1 - lam (push/Xdot)(X/Xdot), elementwise,
    with push = lam n e^{-lam t}.

    The sign of y' on a scale of order one: y' itself fades like
    e^{-lam t}, so find_root_arr's |f| <= tol stop would end on it far
    from its roots. X/Xdot overflows only at subnormal pull rates, to
    -inf, which keeps the sign.
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

def _gate(y, lam, p: ModelParams, push: PushKind, metric: MetricKind):
    """Push-only count at which the metric reaches y >= 0 before pull
    starts, INF where push alone never does; elementwise, unchecked.

    y for the plain viewcount; y/lam for linear Xdot*X = lam X; for
    saturating Xdot*X = lam X (n - X) the rising root y/(lam (n/2 +
    sqrt(n^2/4 - y/lam))), which does not cancel at small y the way
    n/2 - sqrt(...) does; sqrt((lam tau)^2 - 2 y) for the look-ahead
    value ((lam tau)^2 - X^2)/2.
    """
    if metric is MetricKind.PLAIN_VIEWCOUNT:
        return y
    if metric is MetricKind.SIDE_INFORMATION:
        d = _square(lam * p.tau, "lambda_ps*tau") - 2.0 * y
        return np.where(d < 0.0, INF, np.sqrt(np.maximum(d, 0.0)))
    if push is PushKind.LINEAR:
        return y / lam
    n = p.require_pool()
    return np.where(y > lam * n * n / 4.0, INF, y / (
        lam * (0.5 * n + np.sqrt(np.maximum(0.25 * n * n - y / lam, 0.0)))))


def _rates(q: Quality, p: ModelParams, push: PushKind, metric: MetricKind):
    """(lam, n): quality q's push rate and the pool, 0 under linear push.

    Rejects the one (push, metric) pair no scenario uses: saturating
    push on the look-ahead metric, whose crossing after activation has
    no closed form.
    """
    if push is PushKind.LINEAR:
        return p.lambda_ps(q), 0.0
    if metric is MetricKind.SIDE_INFORMATION:
        raise DynamicsError("the look-ahead metric applies to linear push only")
    return p.lambda_ps(q), p.require_pool()


def _rates_past_alpha(q: Quality, p: ModelParams, push: PushKind,
                      metric: MetricKind):
    """_rates for crossings and beta_tau, which read the metric past
    alpha: they also refuse linear Xdot*X."""
    if push is PushKind.LINEAR and metric is MetricKind.TREND_TIMES_VIEWCOUNT:
        raise DynamicsError("linear trend*viewcount stops at activation; "
                            "its game is utility.reduce_scenario's")
    return _rates(q, p, push, metric)


def activation_count(alpha, q: Quality, p: ModelParams,
                     push: PushKind, metric: MetricKind):
    """Push-only viewcount at which the population metric reaches alpha
    (INF if it never does): alpha's gate (_gate), checked.

    Elementwise in alpha: a float for a scalar, an array otherwise.
    """
    alpha = _nonnegative(alpha, "alpha")
    # the plain viewcount needs no pool: a count above it is never reached
    lam = (p.lambda_ps(q) if metric is MetricKind.PLAIN_VIEWCOUNT
           else _rates(q, p, push, metric)[0])
    return _float_or_array(_gate(alpha, lam, p, push, metric))


def activation_time(alpha, q: Quality, p: ModelParams,
                    push: PushKind, metric: MetricKind):
    """Earliest time the population metric reaches alpha (INF if never):
    the push-only passage of activation_count, as pull cannot fire
    before it.

    Elementwise in alpha: a float for a scalar, an array otherwise.
    """
    lam, n = _rates(q, p, push, metric)
    return _float_or_array(_t_ps_inverse(
        activation_count(alpha, q, p, push, metric), lam, push, n))


# -- trajectory values ------------------------------------------------------

def _x(t, ta, lam, lpu: float, push: PushKind, n: float):
    """X(t) once the population pulls from ta, elementwise."""
    # before ta (and for ta = INF) the pull term is lambda_pu * 0
    return _x_ps(t, lam, push, n) + lpu * np.maximum(t - ta, 0.0)


def _xdot(t, ta, lam, lpu: float, push: PushKind, n: float):
    """Xdot(t), elementwise like _x; the right limit at the jump."""
    return _xdot_ps(t, lam, push, n) + np.where(t >= ta, lpu, 0.0)


def _metric_at(t, ta, lam, p: ModelParams, push: PushKind, n: float,
               metric: MetricKind):
    """A rising metric, the plain viewcount or Xdot*X, at t once the
    population pulls from ta, elementwise."""
    x = _x(t, ta, lam, p.lambda_pu, push, n)
    if metric is MetricKind.PLAIN_VIEWCOUNT:
        return x
    return _xdot(t, ta, lam, p.lambda_pu, push, n) * x


def viewcount(t, q: Quality, alpha, p: ModelParams, push: PushKind,
              metric: MetricKind = MetricKind.PLAIN_VIEWCOUNT):
    """X(t): push views plus pull views accumulated since activation.

    Elementwise in t and alpha, which broadcast together: a float for
    scalars, an array otherwise.
    """
    t = _nonnegative(t, "t")
    lam, n = _rates(q, p, push, metric)
    ta = activation_time(alpha, q, p, push, metric)
    return _float_or_array(_x(t, ta, lam, p.lambda_pu, push, n))


# -- crossing times ----------------------------------------------------------

def _product_pieces(ta, lam, p):
    """Ends (r, f) of the monotone pieces of _y_post after ta, elementwise.

    y' = e^{-lam t} h(t), where h falls until t* = ln(2 lam n/lpu)/lam
    and rises after it. So y rises on [ta, r], falls on [r, f] and rises
    after f, each piece possibly empty: r is the local maximum c1 < t*,
    ta when y falls from the start and INF when it never falls; f is the
    local minimum c2 > t*, or tau when y still falls there (the falling
    piece matters only within the lifetime). Both are roots of
    _y_post_slope, bracketed by [ta, t*] and [max(t*, ta), tau], from one
    find_root_arr pass. Needs lambda_pu > 0.
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


def _cross_product_sat(t, beta, alpha, lam, p):
    """crossings past alpha for saturating Xdot*X, flattened: t holds
    the push-only passages, one row per rate of the column lam.

    The passage lies in one monotone piece of y (_product_pieces,
    computed once per alpha and rate), which brackets it for one
    find_root_arr pass over every element.

    A beta strictly inside the activation jump (y(ta-), y(ta+)) is met
    when the post-activation curve first comes back down to it before
    tau, else never (INF), so the utility surface jumps at the gap
    edges; y(ta+) itself is met at ta.
    """
    lpu, n, tau = p.lambda_pu, p.require_pool(), p.tau
    sat = PushKind.EXPONENTIAL_SATURATING
    levels, inverse = np.unique(alpha, return_inverse=True)
    ta_lv = _t_ps_inverse(_gate(levels, lam, p, sat,
                                MetricKind.TREND_TIMES_VIEWCOUNT), lam, sat, n)
    r_lv, f_lv = _product_pieces(ta_lv, lam, p)
    ta, r, f = (v[:, inverse].ravel() for v in (ta_lv, r_lv, f_lv))
    beta, alpha, lam = (np.broadcast_to(v, t.shape).ravel()
                        for v in (beta, alpha, lam))
    t = t.ravel()
    with np.errstate(invalid="ignore"):  # ta = INF: no jump, NaN bound
        y_hi = _y_post(ta, ta, lam, lpu, n)
    # the jump runs from y(ta-) = alpha itself: recomputed from ta that
    # is off by an ulp either way, and the own threshold's payoff would
    # be decided by rounding
    gap = (beta > alpha) & (beta < y_hi)
    post = ~gap & (beta > alpha)
    t[post] = ta[post]  # the jump top y(ta+); up is past it
    up = np.flatnonzero(post & (beta > y_hi))
    down = np.flatnonzero(gap)
    t[down] = INF
    # up: the first rising piece [ta, r] when y gets to beta there, else
    # the last one; y >= lpu^2 (t - ta) bounds that by ta + beta/lpu^2.
    # Passages later than 1e9 tau count as never.
    bu, au, lu = beta[up], ta[up], lam[up]
    with np.errstate(divide="ignore", over="ignore"):  # lpu^2 underflows
        end = au + bu / (lpu * lpu)
    t_hi = np.minimum(end, 1e9 * tau)
    r_up = np.minimum(r[up], t_hi)
    first = _y_post(r_up, au, lu, lpu, n) >= bu
    reach_up = first | (_y_post(t_hi, au, lu, lpu, n) >= bu)
    # an end that rounds to ta (a subnormal beta at ta = 0) leaves the
    # passage on ta
    t[up[~reach_up & (end > au)]] = INF
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
    return t


def crossing_time_raw(beta, q: Quality, alpha, p: ModelParams,
                      push: PushKind, metric: MetricKind):
    """t_beta of quality q under population threshold alpha, uncapped:
    the one checked front of crossings, whose rule utility charges.

    Increasing metrics use inf{t : metric >= beta}, but a beta strictly
    inside the activation jump of saturating Xdot*X is met only when the
    curve comes back down to it before tau; the jump top at ta. The
    decreasing look-ahead metric meets beta on its way down, never above
    its start y(0). A passage past tau, INF among them, is one utility
    charges nothing for: (tau - t)+ = 0.

    beta and alpha may be array-likes that broadcast together, one
    population threshold per element: the result is a float for two
    scalars and an array otherwise.
    """
    beta, alpha = np.broadcast_arrays(_nonnegative(beta, "beta"),
                                      _nonnegative(alpha, "alpha"))
    return _float_or_array(
        crossings(beta, alpha, [p.lambda_ps(q)], p, push, metric)[0])


def crossings(beta, alpha, lam, p: ModelParams, push: PushKind,
              metric: MetricKind):
    """Uncapped crossing times t_beta, one row per push rate in lam.

    beta and alpha are nonnegative float arrays of one shape, one
    population threshold per element, unchecked; each row is a fresh
    array of that shape, so the utility gets both qualities from one call.

    Before activation the passage is the push-only one of beta's gate
    count, as for activation_time, so a beta equal to alpha lands on the
    activation time by construction. A threshold past alpha on the
    metric's way (beta > alpha for the rising metrics, beta < alpha for
    the falling look-ahead value) is met after activation: under linear
    push at (x_a lambda_pu/lam + x_b)/(lam + lambda_pu) for both metrics,
    x_a and x_b the gate counts of alpha and beta; the Lambert form for
    the saturating plain viewcount (one lambert_w0_log pass over every
    row), and _cross_product_sat for saturating Xdot*X, which meets a
    beta inside the activation jump only when y comes back down to it.
    Without pull every crossing is the push-only passage.
    """
    _, n = _rates_past_alpha(Quality.GOOD, p, push, metric)
    lpu = p.lambda_pu
    shape = beta.shape
    beta, alpha = beta.ravel(), alpha.ravel()
    # one array per row, computed row by row outside the two kernels that
    # take every row in one pass: an array of all rows of a long input is
    # large enough for the allocator to map it afresh on every call
    x = [_gate(beta, lq, p, push, metric) for lq in lam]
    t = [_t_ps_inverse(xq, lq, push, n) for xq, lq in zip(x, lam)]
    sat = push is PushKind.EXPONENTIAL_SATURATING
    falls = metric is MetricKind.SIDE_INFORMATION
    past = beta < alpha if falls else beta > alpha
    col = np.asarray(lam, dtype=float)[:, None] if sat else None
    if lpu == 0.0:
        pass
    elif metric is MetricKind.TREND_TIMES_VIEWCOUNT:
        t = _cross_product_sat(np.array(t), beta, alpha, col,
                               p).reshape(len(lam), -1)
    elif sat:
        # the Lambert form, robust for beta past n. A population at or
        # past the pool never activates, and a pull too slow to register
        # against it (lam n/lpu overflows at subnormal rates) leaves the
        # lpu -> 0 limit, the push-only passage
        zeta = np.array([[lq * n / lpu] for lq in lam])
        k = np.flatnonzero(past & (alpha < n))
        if k.size and np.isfinite(zeta).all():
            b, a = beta[k], alpha[k]
            # math.log, not np.log: numpy's SIMD log can differ from
            # libm's in the last bit
            log_zeta = np.array([[math.log(lq * n) - math.log(lpu)]
                                 for lq in lam])
            c = -zeta * (1.0 - b / n) - np.log1p(-a / n)
            w = lambert_w0_log(log_zeta - c)
            # c + w = ln(zeta) - ln(w) exactly, and the latter form stays
            # accurate when zeta blows up (tiny pull rate) and c, w cancel
            # to leading order; there the discarded c/col can overflow
            with np.errstate(divide="ignore", over="ignore"):
                tk = np.where(w <= 0.0, c / col, (log_zeta - np.log(w)) / col)
            for tq, v in zip(t, tk):
                tq[k] = v
    else:
        # cheaper over every element than on the ones past alpha; a gate
        # never met (xa = INF) gives INF or NaN, and fmin keeps tq there
        with np.errstate(invalid="ignore"):
            for tq, xq, lq in zip(t, x, lam):
                xa = _gate(alpha, lq, p, push, metric)
                np.copyto(tq, np.fmin(tq, (xa * (lpu / lq) + xq) / (lq + lpu)),
                          where=past)
    return [tq.reshape(shape) for tq in t]


def beta_tau(q: Quality, alpha, p: ModelParams,
             push: PushKind, metric: MetricKind):
    """Largest threshold quality q can meet within the lifetime.

    Plain viewcount peaks at tau, the look-ahead metric at 0, and
    saturating trend*viewcount at one of its breakpoints: the push-only
    peak, the activation jump, the local maximum of the post-activation
    curve (see _product_pieces) or tau.

    Elementwise in alpha: a float for a scalar, an array otherwise.
    """
    lam, n = _rates_past_alpha(q, p, push, metric)
    lpu, tau = p.lambda_pu, p.tau
    if metric is MetricKind.SIDE_INFORMATION:
        # decreasing from y(0): X(0) = 0 whatever the activation time
        shape = _nonnegative(alpha, "alpha").shape
        y0 = 0.5 * _square(lam * tau, "lambda_ps*tau")
        return np.full(shape, y0) if shape else y0
    ta = activation_time(alpha, q, p, push, metric)
    y_tau = _metric_at(tau, ta, lam, p, push, n, metric)
    if metric is MetricKind.PLAIN_VIEWCOUNT:
        return _float_or_array(y_tau)  # increasing
    # without pull the push-only curve is the whole path
    ta = ta if lpu > 0.0 else INF
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


def horizon_window(q: Quality, p: ModelParams) -> tuple:
    """(tau0, tau1, x_th) for the trend-gated window of saturating push.

    tau0 is when push-only growth alone would fall to gamma_th (clamped
    at 0), tau1 when growth including pull falls to it, and x_th the
    viewcount at the gate. Requires n_pool and gamma_th > lambda_pu;
    otherwise the window never closes.
    """
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
    lam, n = _rates(q, p, push, metric)
    ta = {qq: activation_time(alpha, qq, p, push, metric) for qq in Quality}
    pts = [np.linspace(0.0, p.tau, n_samples), list(ta.values())]
    if p.gamma_th is not None and push is PushKind.EXPONENTIAL_SATURATING \
            and p.gamma_th > p.lambda_pu:
        pts.append(horizon_window(q, p)[:2])
    t = np.concatenate(pts)
    t = np.unique(t[(t >= 0.0) & (t <= p.tau)])
    return Trajectory(quality=q, alpha=alpha, t=t,
                      x=_x(t, ta[q], lam, p.lambda_pu, push, n),
                      xdot=_xdot(t, ta[q], lam, p.lambda_pu, push, n))
