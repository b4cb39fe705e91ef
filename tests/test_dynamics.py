"""Viewcount dynamics, crossing times and trend windows.

The closed forms are checked against independent oracles: an ODE
integrator for the trajectory, scipy's brentq on the forward map for
the crossing times (also those TrendViewcountExponential solves
numerically), and finite differences for the trend.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
import scipy.optimize
from scipy.integrate import solve_ivp

from pushpull import (
    Belief,
    DynamicsError,
    InfiniteHorizonError,
    MetricKind,
    ModelParams,
    PushKind,
    Quality,
    Scenario,
    activation_time,
    beta_tau,
    crossing_time,
    crossing_time_raw,
    horizon_window,
    metric_value,
    sample_trajectory,
    strategy_cap,
    viewcount,
)
from pushpull.dynamics import (
    _product_pieces,
    _t_ps_inverse,
    activation_count,
    crossings,
    _y_post,
    _y_post_slope,
)
from pushpull.g12 import g12_block

INF = math.inf
PLAIN = MetricKind.PLAIN_VIEWCOUNT
SI = MetricKind.SIDE_INFORMATION
TV = MetricKind.TREND_TIMES_VIEWCOUNT
LIN = PushKind.LINEAR
EXP = PushKind.EXPONENTIAL_SATURATING

# the worked saturating-push setting used throughout: a pool of 1000
# push followers, good content spreading at 0.1/day, pull at 150/day
FIG_PARAMS = ModelParams(0.1, 0.01, 150.0, 10.0, n_pool=1000.0)


def test_pure_linear_push_value():
    p = ModelParams(0.02, 0.01, 5.0, 10.0)
    assert viewcount(5.0, Quality.BAD, INF, p, LIN) == pytest.approx(0.05)


def test_viewcount_zero_at_birth():
    p = ModelParams(0.2, 0.1, 1.0, 10.0)
    for push, pp in ((LIN, p), (EXP, FIG_PARAMS)):
        for q in Quality:
            assert viewcount(0.0, q, 0.0, pp, push) == 0.0
            assert viewcount(0.0, q, INF, pp, push) == 0.0


def test_saturating_push_matches_ode_integration():
    """Closed form against an event-split ODE solve of the same model."""
    p, alpha, q = FIG_PARAMS, 400.0, Quality.GOOD
    lam, n = p.lambda_ps_g, p.n_pool

    def rhs(t, y):
        return [lam * (n - y[0])]

    def hit_alpha(t, y):
        return y[0] - alpha

    hit_alpha.terminal = True
    hit_alpha.direction = 1.0
    first = solve_ivp(rhs, (0.0, p.tau), [0.0], rtol=1e-10, atol=1e-12,
                      events=hit_alpha, dense_output=True)
    assert first.t_events[0].size == 1
    t_a = first.t_events[0][0]
    second = solve_ivp(rhs, (t_a, p.tau), [alpha], rtol=1e-10, atol=1e-12)
    x_ode = second.y[0][-1] + p.lambda_pu * (p.tau - t_a)

    x_closed = viewcount(p.tau, q, alpha, p, EXP)
    assert x_closed == pytest.approx(x_ode, rel=1e-6)
    # cross-check the event time against the analytic activation time
    assert t_a == pytest.approx(activation_time(alpha, q, p, EXP, PLAIN),
                                rel=1e-8)


@pytest.mark.parametrize("s", list(Scenario))
def test_activation_count_is_reached_at_the_activation_time(s):
    # the push-only count gate of the event simulation opens at the
    # activation time. The thresholds run to 1.2 times the most push
    # alone reaches, where saturating push and the look-ahead metric
    # never activate (INF); they skip that peak itself, where the
    # saturating Xdot*X root is a square root of rounding error
    p = FIG_PARAMS if s.push is EXP else ModelParams(0.2, 0.1, 1.0, 10.0)
    for q in Quality:
        lam = p.lambda_ps(q)
        n = p.n_pool if s.push is EXP else 0.0
        reach = {PLAIN: p.n_pool if s.push is EXP else lam * p.tau,
                 SI: 0.5 * (lam * p.tau) ** 2}.get(
            s.metric, lam * p.n_pool ** 2 / 4.0 if s.push is EXP
            else lam * lam * p.tau)
        alphas = np.array([0.0, 0.05, 0.3, 0.6, 0.9, 0.99, 1.1, 1.2]) * reach
        gates = activation_count(alphas, q, p, s.push, s.metric)
        t = activation_time(alphas, q, p, s.push, s.metric)
        assert _t_ps_inverse(gates, lam, s.push, n).tolist() == t.tolist()
        # the deviator playing alpha itself crosses at the activation;
        # linear Xdot*X has no crossings (its game is the reduction's)
        if (s.push, s.metric) == (LIN, TV):
            with pytest.raises(DynamicsError, match="reduce_scenario"):
                crossing_time_raw(alphas, q, alphas, p, s.push, s.metric)
            continue
        assert crossing_time_raw(alphas, q, alphas, p, s.push,
                                 s.metric).tolist() == t.tolist()


@pytest.mark.parametrize("push, metric", [
    (LIN, PLAIN), (EXP, PLAIN), (EXP, MetricKind.TREND_TIMES_VIEWCOUNT),
    (LIN, SI)], ids=["lin-plain", "sat-plain", "sat-product", "lin-look"])
def test_crossings_without_pull_are_the_push_only_passages(push, metric):
    # at lambda_pu = 0 the population's activation adds no view, so every
    # threshold is met on the push-only path whatever alpha is, bit for bit
    p = ModelParams(0.1, 0.01, 0.0, 10.0, n_pool=1000.0)
    for q in Quality:
        top = beta_tau(q, INF, p, push, metric)
        betas = np.linspace(0.0, 1.2 * top, 401)
        push_only = crossing_time_raw(betas, q, INF, p, push, metric)
        for alpha in np.linspace(0.0, top, 9).tolist():
            got = crossing_time_raw(betas, q, alpha, p, push, metric)
            assert got.tolist() == push_only.tolist(), (q, alpha)


def test_trend_exp_push_only_passage_meets_its_threshold():
    # before activation Xdot*X = lam n^2 (1 - e) e with e = 1 - e^{-lam t};
    # the times solving it for small thresholds come from the count root,
    # which does not cancel the way -log((1 + sqrt(1 - 4 y/(lam n^2)))/2)
    # does (relative residual up to 1e-4 at y/peak = 1e-12)
    s = Scenario.TREND_VIEWCOUNT_EXPONENTIAL
    p = FIG_PARAMS
    for q in Quality:
        lam, n = p.lambda_ps(q), p.n_pool
        ys = lam * n * n / 4.0 * np.concatenate(
            [np.logspace(-12.0, -1.0, 45), np.linspace(0.1, 0.98, 45)])
        for t in (activation_time(ys, q, p, s.push, s.metric),
                  crossing_time_raw(ys, q, INF, p, s.push, s.metric)):
            e = -np.expm1(-lam * t)
            assert np.all(np.abs(lam * n * n * (1.0 - e) * e - ys)
                          <= 1e-14 * ys)


def _look_ahead_at_lifetime(q, alpha, p):
    # ((lam tau)^2 - X(tau)^2)/2, the population pulling from
    # t_a = sqrt((lam tau)^2 - 2 alpha)/lam when alpha is at most y(0)
    x2 = (p.lambda_ps(q) * p.tau) ** 2
    pull = 0.0
    if 2.0 * alpha <= x2:
        pull = p.lambda_pu * (p.tau - math.sqrt(x2 - 2.0 * alpha)
                              / p.lambda_ps(q))
    return 0.5 * (x2 - (math.sqrt(x2) + pull) ** 2)


def test_side_information_metric_vanishes_at_lifetime():
    # pull views carry X(tau) past lam*tau and the metric below 0; it
    # vanishes at tau when the population never pulls
    p = ModelParams(0.2, 0.1, 1.0, 10.0)
    p_no_pull = ModelParams(0.2, 0.1, 0.0, 10.0)
    for q in Quality:
        y0 = 0.5 * (p.lambda_ps(q) * p.tau) ** 2
        y = metric_value(p.tau, q, 0.5, p, LIN, SI)
        assert y < 0.0
        assert y == pytest.approx(_look_ahead_at_lifetime(q, 0.5, p),
                                  rel=1e-12)
        for pp, alpha in ((p_no_pull, 0.5), (p, 1.2 * y0)):
            assert metric_value(pp.tau, q, alpha, pp, LIN, SI) == \
                pytest.approx(0.0, abs=1e-12)


def test_plain_metric_is_the_viewcount():
    p = ModelParams(0.2, 0.1, 1.0, 10.0)
    for t in (0.0, 1.5, 7.0, 10.0):
        assert metric_value(t, Quality.GOOD, 0.7, p, LIN, PLAIN) == \
            viewcount(t, Quality.GOOD, 0.7, p, LIN)


def test_trend_times_viewcount_below_activation():
    p = ModelParams(0.1, 0.05, 1.0, 10.0, n_pool=1000.0)
    got = metric_value(2.0, Quality.GOOD, INF, p, EXP, TV)
    e = math.exp(-0.2)
    assert got == pytest.approx(100.0 * e * 1000.0 * (1.0 - e), rel=1e-12)
    # independent check: centered finite difference for xdot
    h = 1e-6
    x_hi = viewcount(2.0 + h, Quality.GOOD, INF, p, EXP)
    x_lo = viewcount(2.0 - h, Quality.GOOD, INF, p, EXP)
    xdot = (x_hi - x_lo) / (2.0 * h)
    x = viewcount(2.0, Quality.GOOD, INF, p, EXP)
    assert got == pytest.approx(xdot * x, rel=1e-8)


def test_linear_crossings_past_alpha_invert_the_metric():
    # past alpha both linear metrics are read off X(t), which viewcount
    # gives without crossings: the passage reaches beta, and never later
    # than push alone would. A look-ahead alpha above y(0) never
    # activates and leaves the push-only passage
    rng = np.random.default_rng(31)
    for _ in range(40):
        lg = rng.uniform(0.05, 2.0)
        p = ModelParams(lg, lg * rng.uniform(0.1, 1.0),
                        rng.uniform(0.01, 5.0), rng.uniform(2.0, 30.0))
        for q, metric in itertools.product(Quality, (PLAIN, SI)):
            lam = p.lambda_ps(q)
            y0 = 0.5 * (lam * p.tau) ** 2
            if metric is PLAIN:
                alpha = rng.uniform(0.0, lam * p.tau)
                betas = alpha + np.linspace(0.0, 2.0 * lam * p.tau, 33)[1:]
            else:
                alpha = rng.uniform(0.0, 1.2 * y0)
                betas = np.linspace(0.0, min(alpha, y0), 33)[:-1]
            t = crossing_time_raw(betas, q, alpha, p, LIN, metric)
            x = viewcount(t, q, alpha, p, LIN, metric)
            y = x if metric is PLAIN else 0.5 * ((lam * p.tau) ** 2 - x * x)
            assert y == pytest.approx(betas, rel=1e-10, abs=1e-10 * lam * p.tau)
            push_only = crossing_time_raw(betas, q, INF, p, LIN, metric)
            assert np.all(t <= push_only)
            if alpha > y0 and metric is SI:
                assert t.tolist() == push_only.tolist()
    # a pull so slow that lpu/lam underflows to 0 and an alpha no gate
    # meets: INF * 0 must not leak into the push-only passage
    p = ModelParams(2.0, 1.0, 5e-324, 10.0)
    for q in Quality:
        lam = p.lambda_ps(q)
        betas = np.linspace(0.0, 0.5 * (lam * p.tau) ** 2, 9)
        for alpha in (INF, 1e9):
            t = crossing_time_raw(betas, q, alpha, p, LIN, SI)
            assert t == pytest.approx(
                np.sqrt((lam * p.tau) ** 2 - 2.0 * betas) / lam, rel=1e-15)


def test_crossing_time_at_zero_threshold():
    p = ModelParams(0.2, 0.1, 1.0, 10.0)
    for push, pp in ((LIN, p), (EXP, FIG_PARAMS)):
        assert crossing_time(0.0, Quality.BAD, 3.0, pp, push, PLAIN) == 0.0


def test_linear_crossing_is_inverse_rate():
    p = ModelParams(0.2, 0.1, 1.0, 1000.0)
    t = crossing_time(50.0, Quality.BAD, INF, p, LIN, PLAIN)
    assert t == pytest.approx(500.0, rel=1e-12)


def test_crossing_unreachable_is_infinite():
    p = ModelParams(0.2, 0.1, 0.0, 10.0)
    # lambda_ps(B) * tau = 1, so 50 views never happen in this lifetime
    assert crossing_time(50.0, Quality.BAD, INF, p, LIN, PLAIN) == INF


def test_crossing_rejects_negative_threshold():
    p = ModelParams(0.2, 0.1, 0.0, 10.0)
    with pytest.raises(DynamicsError):
        crossing_time(-1.0, Quality.BAD, INF, p, LIN, PLAIN)


def test_saturating_crossing_matches_root_finding():
    # threshold above the activation level, so the Lambert branch is used
    p, alpha, beta = FIG_PARAMS, 400.0, 700.0
    t = crossing_time(beta, Quality.GOOD, alpha, p, EXP, PLAIN)
    f = lambda s: viewcount(s, Quality.GOOD, alpha, p, EXP) - beta
    t_a = activation_time(alpha, Quality.GOOD, p, EXP, PLAIN)
    ref = scipy.optimize.brentq(f, t_a, p.tau, xtol=1e-13)
    assert t > t_a
    assert t == pytest.approx(ref, rel=1e-9)


@pytest.mark.parametrize("lpu", [1e-9, 1e-12, 1.1e-308])
def test_crossing_inverts_viewcount_at_vanishing_pull(lpu):
    # lam*n/lpu is huge, or overflows at the subnormal rate: the crossing
    # needs the cancellation-safe Lambert form and the push-only limit
    p = ModelParams(0.1, 0.05, lpu, 8.0, n_pool=1000.0)
    alphas = np.array([[0.0], [100.0], [250.0]])
    betas = np.linspace(0.0, 600.0, 61)
    for push, q in itertools.product((LIN, EXP), (Quality.GOOD, Quality.BAD)):
        ts = crossing_time_raw(betas, q, alphas, p, push, PLAIN)
        assert ts.shape == (3, betas.size)
        for alpha, row in zip(alphas[:, 0], ts):
            xs = [viewcount(float(t), q, float(alpha), p, push) for t in row]
            assert xs == pytest.approx(betas, rel=1e-9, abs=1e-9)
            t_one = crossing_time_raw(300.0, q, float(alpha), p, push, PLAIN)
            assert isinstance(t_one, float)
            assert t_one == pytest.approx(row[30], rel=1e-12)
        if lpu == 1.1e-308:
            push_only = crossing_time_raw(betas, q, INF, p, push, PLAIN)
            assert ts == pytest.approx(np.broadcast_to(push_only, ts.shape),
                                       rel=1e-12)


def test_beta_tau_linear_push_only():
    p = ModelParams(0.2, 0.1, 0.0, 10.0)
    assert beta_tau(Quality.BAD, INF, p, LIN, PLAIN) == pytest.approx(1.0)


def test_beta_tau_round_trips_through_crossing():
    cap = beta_tau(Quality.BAD, 400.0, FIG_PARAMS, EXP, PLAIN)
    # bad content never reaches 400 views, so the cap is the push plateau
    assert cap == pytest.approx(1000.0 * (1.0 - math.exp(-0.1)), rel=1e-12)
    t = crossing_time(cap, Quality.BAD, 400.0, FIG_PARAMS, EXP, PLAIN)
    assert t == pytest.approx(FIG_PARAMS.tau, rel=1e-9)


# -- trend window ------------------------------------------------------------

def test_window_opens_at_birth_when_threshold_is_initial_trend():
    p = ModelParams(0.1, 0.05, 50.0, 10.0, n_pool=1000.0, gamma_th=100.0)
    tau0, tau1, x_th = horizon_window(Quality.GOOD, p, EXP)
    assert tau0 == pytest.approx(0.0, abs=1e-12)
    assert tau1 > tau0
    assert x_th == pytest.approx(p.n_pool - p.gamma_th / p.lambda_ps_g)


def test_window_degenerates_without_pull():
    p = ModelParams(0.1, 0.05, 0.0, 10.0, n_pool=1000.0, gamma_th=60.0)
    tau0, tau1, _ = horizon_window(Quality.GOOD, p, EXP)
    assert tau0 == pytest.approx(tau1, rel=1e-12)


def test_window_close_solves_trend_equation():
    p = ModelParams(0.1, 0.05, 150.0, 8.0, n_pool=1000.0, gamma_th=160.0)
    tau0, tau1, _ = horizon_window(Quality.GOOD, p, EXP)
    # the content is born hot: raw tau0 would be negative, clamped at 0
    assert tau0 == 0.0
    assert tau1 == pytest.approx(math.log(10.0) / 0.1, rel=1e-12)
    # tau1 is where push trend decays to gamma_th - lambda_pu
    lam, n = p.lambda_ps_g, p.n_pool
    f = lambda t: lam * n * math.exp(-lam * t) + p.lambda_pu - p.gamma_th
    ref = scipy.optimize.brentq(f, 0.0, 100.0, xtol=1e-12)
    assert tau1 == pytest.approx(ref, rel=1e-9)


def test_window_requires_saturating_push_and_threshold():
    p = ModelParams(0.1, 0.05, 150.0, 8.0, n_pool=1000.0, gamma_th=400.0)
    with pytest.raises(DynamicsError):
        horizon_window(Quality.GOOD, p, LIN)
    p_no = ModelParams(0.1, 0.05, 150.0, 8.0, n_pool=1000.0)
    with pytest.raises(DynamicsError):
        horizon_window(Quality.GOOD, p_no, EXP)


def test_window_never_closes_when_pull_sustains_trend():
    p = ModelParams(0.1, 0.05, 150.0, 8.0, n_pool=1000.0, gamma_th=150.0)
    with pytest.raises(InfiniteHorizonError):
        horizon_window(Quality.GOOD, p, EXP)


# -- invariants ---------------------------------------------------------------

param_draws = st.tuples(
    st.floats(min_value=0.02, max_value=0.5),   # lambda_ps_g
    st.floats(min_value=0.3, max_value=1.0),    # lambda_ps_b as fraction of g
    st.floats(min_value=0.0, max_value=200.0),  # lambda_pu
    st.floats(min_value=2.0, max_value=30.0),   # tau
    st.floats(min_value=0.0, max_value=1.5),    # alpha as fraction of pool
)


@settings(max_examples=60, deadline=None)
@given(param_draws, st.sampled_from([LIN, EXP]))
def test_viewcount_monotone_and_quality_ordered(draw, push):
    lg, frac, lpu, tau, afrac = draw
    p = ModelParams(lg, frac * lg, lpu, tau, n_pool=1000.0)
    alpha = afrac * 1000.0
    ts = np.linspace(0.0, tau, 97)
    xg = [viewcount(t, Quality.GOOD, alpha, p, push) for t in ts]
    xb = [viewcount(t, Quality.BAD, alpha, p, push) for t in ts]
    assert all(b <= a + 1e-9 for a, b in zip(xg[1:], xg[:-1]) for b in [b])
    assert np.all(np.diff(xg) >= -1e-9)
    assert np.all(np.diff(xb) >= -1e-9)
    assert all(g >= b - 1e-9 for g, b in zip(xg, xb))


@settings(max_examples=60, deadline=None)
@given(param_draws, st.sampled_from([LIN, EXP]))
# subnormal pull rate: lam*n/lpu overflows, the crossing is the push-only limit
@example((0.02, 0.5, 1.1e-308, 10.0, 0.5), EXP)
# lam*n/lpu is just finite, and c/lam, which np.where discards, overflows
@example((0.25, 1.0, 1.950103687493726e-306, 2.0, 0.0), EXP)
def test_crossing_monotone_in_threshold(draw, push):
    lg, frac, lpu, tau, afrac = draw
    p = ModelParams(lg, frac * lg, lpu, tau, n_pool=1000.0)
    alpha = afrac * 1000.0
    cap = beta_tau(Quality.GOOD, alpha, p, push, PLAIN)
    betas = np.linspace(0.0, 1.2 * cap + 1.0, 41)
    ts = [crossing_time(float(b), Quality.GOOD, alpha, p, push, PLAIN)
          for b in betas]
    finite = [t for t in ts if math.isfinite(t)]
    assert np.all(np.diff(finite) >= -1e-9)
    # once infinite, later thresholds stay infinite
    seen_inf = False
    for t in ts:
        if seen_inf:
            assert t == INF
        seen_inf = seen_inf or t == INF


@settings(max_examples=60, deadline=None)
@given(param_draws, st.sampled_from([LIN, EXP]))
def test_pull_rate_invisible_before_activation(draw, push):
    lg, frac, _, tau, afrac = draw
    alpha = afrac * 1000.0 + 1.0
    p_lo = ModelParams(lg, frac * lg, 0.5, tau, n_pool=1000.0)
    p_hi = ModelParams(lg, frac * lg, 180.0, tau, n_pool=1000.0)
    t_a = activation_time(alpha, Quality.GOOD, p_lo, push, PLAIN)
    for t in np.linspace(0.0, min(t_a, tau), 17)[:-1]:
        a = viewcount(float(t), Quality.GOOD, alpha, p_lo, push)
        b = viewcount(float(t), Quality.GOOD, alpha, p_hi, push)
        assert a == pytest.approx(b, rel=1e-12, abs=1e-12)


def test_side_information_metric_decreases():
    p = ModelParams(0.2, 0.1, 1.0, 10.0)
    ts = np.linspace(0.0, p.tau, 50)
    ys = [metric_value(float(t), Quality.GOOD, 0.6, p, LIN, SI) for t in ts]
    assert np.all(np.diff(ys) <= 1e-12)
    assert ys[0] == pytest.approx(2.0, rel=1e-12)
    assert ys[-1] == pytest.approx(
        _look_ahead_at_lifetime(Quality.GOOD, 0.6, p), rel=1e-12)


def test_closed_form_crossings_match_bisection():
    # small randomized cross-check; the acceptance suite runs the full sweep
    rng = np.random.default_rng(7)
    for _ in range(50):
        lg = rng.uniform(0.02, 0.4)
        lb = lg * rng.uniform(0.3, 1.0)
        lpu = rng.uniform(0.0, 150.0)
        tau = rng.uniform(2.0, 25.0)
        p = ModelParams(lg, lb, lpu, tau, n_pool=1000.0)
        push = EXP if rng.random() < 0.5 else LIN
        alpha = rng.uniform(0.0, 800.0)
        q = Quality.GOOD if rng.random() < 0.5 else Quality.BAD
        cap = beta_tau(q, alpha, p, push, PLAIN)
        beta = rng.uniform(0.0, cap)
        t = crossing_time(beta, q, alpha, p, push, PLAIN)
        f = lambda s: viewcount(s, q, alpha, p, push) - beta
        ref = scipy.optimize.brentq(f, 0.0, tau, xtol=1e-13)
        assert t == pytest.approx(ref, rel=1e-9, abs=1e-9)


# -- trajectories -------------------------------------------------------------

def test_trajectory_shape_and_monotonicity():
    tr = sample_trajectory(Quality.GOOD, 400.0, FIG_PARAMS, EXP,
                           n_samples=2000)
    t = np.array([s[0] for s in tr.samples])
    x = np.array([s[1] for s in tr.samples])
    xd = np.array([s[2] for s in tr.samples])
    assert np.all(np.diff(t) > 0)
    assert t[0] == 0.0 and x[0] == 0.0
    assert np.all(np.diff(x) >= -1e-9)
    assert np.all(xd >= 0.0)
    # activation time appears exactly in the grid
    t_a = activation_time(400.0, Quality.GOOD, FIG_PARAMS, EXP, PLAIN)
    assert np.min(np.abs(t - t_a)) == 0.0


def test_trajectory_grid_is_the_sorted_union_of_its_points():
    # reference: the uniform grid and every breakpoint inside [0, tau]
    # as a set of Python floats, sorted
    p = ModelParams(0.1, 0.05, 110.0, 8.0, n_pool=1000.0, gamma_th=140.0)
    for metric, alpha in ((PLAIN, 400.0), (MetricKind.TREND_TIMES_VIEWCOUNT,
                                           1500.0)):
        for q in Quality:
            tr = sample_trajectory(q, alpha, p, EXP, metric, n_samples=301)
            pts = set(np.linspace(0.0, p.tau, 301).tolist())
            pts.update(activation_time(alpha, qq, p, EXP, metric)
                       for qq in Quality)
            pts.update(horizon_window(q, p, EXP)[:2])
            ref = np.array(sorted(t for t in pts if 0.0 <= t <= p.tau))
            assert tr.t.tobytes() == ref.tobytes()
            assert tr.t.size > 301


def test_trajectory_csv_format(tmp_path):
    tr = sample_trajectory(Quality.BAD, 1.0, ModelParams(0.2, 0.1, 1.0, 10.0),
                           LIN, n_samples=50)
    out = tmp_path / "traj.csv"
    tr.to_csv(out)
    text = out.read_text()
    lines = text.splitlines()
    assert lines[0] == "t,x,xdot"
    assert len(lines) == 1 + len(tr.samples)
    assert "\r" not in text
    row = lines[1].split(",")
    assert len(row) == 3
    assert float(row[0]) == 0.0
    # 12 significant digits via %g formatting
    assert "%.12g" % math.pi == "3.14159265359"


# -- the %.12g kernel of write_csv, element by element against "%.12g" % x

def g12_strings(values):
    # one column: every field opens with "\n"
    vals = np.asarray(values, dtype=float).reshape(-1, 1)
    text = g12_block(vals).tobytes().decode("ascii")
    assert text[0] == "\n"
    return text[1:].split("\n")


def assert_g12_matches(values):
    values = np.asarray(values, dtype=float).ravel()
    got = g12_strings(values)
    want = ["%.12g" % x for x in values.tolist()]
    bad = [(x, g, w) for x, g, w in zip(values.tolist(), got, want) if g != w]
    assert len(got) == len(want) and not bad, bad[:5]


def _ulps_around(x, k):
    out = [x]
    lo = hi = x
    for _ in range(k):
        lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
        out += [lo, hi]
    return out


def test_g12_kernel_at_powers_of_ten():
    # every decade edge, where log10 and the 12-digit rounding can cross
    vals = [v for e in range(-6, 15) for v in _ulps_around(10.0 ** e, 4)]
    # just below the fixed-notation range at both ends, and on it
    vals += _ulps_around(1e-4, 4) + _ulps_around(1e12, 4)
    vals += [9.99999999999949e-5, 9.9999999999995e-5, 999999999999.4,
             999999999999.5, 999999999999.6, 0.000999999999999949]
    assert_g12_matches(vals + [-v for v in vals])


def test_g12_kernel_at_exact_ties():
    # r 2^(d - 12) with r odd is |v| 10^(11 - d) = (r 5^(11 - d)) / 2,
    # half-way between two 12-digit mantissas: half-even decides
    assert g12_strings([12345678901.25]) == ["12345678901.2"]
    assert g12_strings([123456789012.5, 123456789013.5]) == [
        "123456789012", "123456789014"]
    rng = np.random.default_rng(5)
    ties = []
    for d in range(-4, 12):
        lo, hi = 10.0 ** d * 2.0 ** (12 - d), 10.0 ** (d + 1) * 2.0 ** (12 - d)
        r = rng.integers(math.ceil(lo), math.floor(hi), 40) | 1
        ties += [math.ldexp(float(x), d - 12) for x in r]
    ties = np.array(ties)
    assert np.all(np.modf(np.abs(ties) * 10.0 ** (11 - np.floor(
        np.log10(ties))))[0] == 0.5)
    assert_g12_matches(np.concatenate([ties, -ties]))


def test_g12_kernel_specials_and_integers():
    tiny = np.finfo(float).tiny
    vals = [0.0, -0.0, 5e-324, -5e-324, tiny, np.nextafter(tiny, 0.0),
            1e-310, np.inf, -np.inf, np.nan, 1e300, -1e-300, 1.5, -7.25,
            1.0 / 3.0, 2.0 / 3.0, 0.1, 0.3, 1e16, 123456789012345.0]
    ints = [0.0, 1.0, 9.0, 10.0, 99.0, 1e11 - 1, 1e11, 1e11 + 1, 1e12 - 1,
            1e12, 1e12 + 1, 2.0 ** 40]
    rng = np.random.default_rng(7)
    ints += np.floor(rng.uniform(0.0, 1e12, 2000)).tolist()
    ints += np.floor(10.0 ** rng.uniform(0.0, 12.0, 2000)).tolist()
    assert_g12_matches(vals + ints + [-v for v in ints])


def test_g12_kernel_on_random_decades_and_bit_patterns():
    rng = np.random.default_rng(11)
    n = 30_000
    spread = rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.uniform(-8.0, 16.0, n)
    bits = rng.integers(0, 2 ** 63, n, dtype=np.uint64).view(np.float64)
    assert_g12_matches(np.concatenate([spread, -bits, bits]))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=40),
       st.lists(st.floats(min_value=1e-5, max_value=1e13), max_size=40))
def test_g12_kernel_matches_percent_format(anything, fixed_range):
    assert_g12_matches(anything + fixed_range + [-x for x in fixed_range])


def test_g12_kernel_on_every_exponent_and_digit_count():
    # N 10^(d - 11) with exactly L significant digits, for each keep row
    # (d, sign, L): L = d + 1 prints no point, L < d + 1 an integer
    # with trailing zeros, d < 0 leading zeros after "0."
    rng = np.random.default_rng(13)
    vals = []
    for d in range(-4, 12):
        for n_sig in range(1, 13):
            for _ in range(6):
                digits = rng.integers(0, 10, n_sig)
                digits[0], digits[-1] = rng.integers(1, 10, 2)
                big = int("".join(map(str, digits))) * 10 ** (12 - n_sig)
                x = big / 10.0 ** (11 - d)
                text = "%.12g" % x
                assert "e" not in text
                assert len(text.replace(".", "").strip("0")) == n_sig
                vals += [x, -x]
    assert_g12_matches(vals)


def test_g12_kernel_block_with_negative_first_column_and_fallbacks():
    # the first column's fields open with "\n" and its sign; the widest
    # fallback fields ("%.12g" in exponent notation, 19 characters) sit
    # among certified ones in every column
    rng = np.random.default_rng(17)
    block = np.column_stack([-rng.uniform(1e-4, 1e6, 600),
                             rng.uniform(0.0, 1e5, 600),
                             rng.uniform(-1e3, 1e3, 600)])
    wide = -1.23456789012e-300
    assert len("%.12g" % wide) == 19
    block[[200, 201, 350], 0] = wide
    block[[201, 300, 301], 1] = wide
    block[[299, 300, 450], 2] = [wide, -wide, 9.87654321098e+300]
    want = "".join("\n" + ",".join("%.12g" % x for x in row)
                   for row in block.tolist())
    assert g12_block(block).tobytes().decode("ascii") == want


def test_belief_and_params_validation():
    with pytest.raises(DynamicsError):
        Belief(0.5, 0.6)
    with pytest.raises(DynamicsError):
        Belief(-0.1, 1.1)
    with pytest.raises(DynamicsError):
        ModelParams(0.1, 0.2, 0.0, 10.0)     # good slower than bad
    with pytest.raises(DynamicsError):
        ModelParams(0.1, 0.05, -1.0, 10.0)   # negative pull
    with pytest.raises(DynamicsError):
        ModelParams(0.1, 0.05, 0.0, 0.0)     # zero lifetime
    with pytest.raises(DynamicsError):
        ModelParams(0.1, 0.05, 1.0, 10.0, n_pool=-5.0)
    with pytest.raises(DynamicsError):
        ModelParams(0.1, 0.05, 1.0, 10.0, n_pool=100.0, gamma_th=0.0)
    b = Belief(0.25, 0.75)
    assert b.pi_g + b.pi_b == 1.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["lambda_ps_g", "lambda_ps_b", "lambda_pu",
                                   "tau", "n_pool", "gamma_th"])
def test_params_reject_non_finite_values(field, bad):
    # NaN passes the ordering checks, and inf would slip past them too
    ok = dict(lambda_ps_g=0.1, lambda_ps_b=0.05, lambda_pu=1.0, tau=10.0,
              n_pool=100.0, gamma_th=5.0)
    ModelParams(**ok)
    with pytest.raises(DynamicsError, match=field):
        ModelParams(**dict(ok, **{field: bad}))


def test_metric_value_requires_time_in_lifetime():
    p = ModelParams(0.2, 0.1, 1.0, 10.0)
    with pytest.raises(DynamicsError):
        metric_value(10.5, Quality.GOOD, 0.5, p, LIN, PLAIN)
    with pytest.raises(DynamicsError):
        metric_value(-0.5, Quality.GOOD, 0.5, p, LIN, PLAIN)


# -- trend*viewcount under saturating push ------------------------------------


def _y_after(t, ta, lam, lpu, n):
    # Xdot * X once the population pulls from ta, written from X and Xdot
    x = -n * np.expm1(-lam * t) + lpu * (t - ta)
    return (lam * n * np.exp(-lam * t) + lpu) * x


def _slope_after(t, ta, lam, lpu, n):
    # y' = Xdot^2 + Xddot * X
    push = lam * n * np.exp(-lam * t)
    return (push + lpu) ** 2 - lam * push * (-n * np.expm1(-lam * t)
                                             + lpu * (t - ta))


def _bisect(g, lo, hi):
    # g(lo) < 0 <= g(hi); halve down to adjacent doubles
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        if g(mid) >= 0.0:
            hi = mid
        else:
            lo = mid
    return hi


def _dense_passages(betas, ta, lam, p, t_end, down):
    """Reference first passages of y through each beta on [ta, t_end],
    from below (or from above when down): a scan of 10**6 + 1 points,
    then bisection in the first bracket; INF where the scan never gets
    there."""
    n, lpu = p.n_pool, p.lambda_pu
    sign = -1.0 if down else 1.0
    ts = np.linspace(ta, t_end, 1_000_001)
    # the first scan point past each beta, from the running extreme
    reach = np.maximum.accumulate(sign * _y_after(ts, ta, lam, lpu, n))
    out = []
    for beta in betas:
        k = int(np.searchsorted(reach, sign * beta))
        if k == ts.size:
            out.append(INF)
        elif k == 0:
            out.append(ta)
        else:
            out.append(_bisect(
                lambda t: sign * (_y_after(t, ta, lam, lpu, n) - beta),
                ts[k - 1], ts[k]))
    return np.array(out)


def _weak_pull_draws(count, seed):
    # lpu << lam n: after activation y rises to a local maximum before
    # t* = ln(2 lam n/lpu)/lam, falls to a local minimum after it, and
    # tau lies past both
    rng = np.random.default_rng(seed)
    for _ in range(count):
        lg = rng.uniform(0.05, 0.4)
        lb = lg * rng.uniform(0.3, 0.9)
        n = rng.uniform(200.0, 3000.0)
        lpu = lb * n * rng.uniform(0.01, 0.1)
        tau = rng.uniform(1.5, 3.0) * math.log(2.0 * lg * n / lpu) / lg
        yield ModelParams(lg, lb, lpu, tau, n_pool=n), \
            rng.uniform(0.02, 0.5) * lb * n * n / 4.0


def _strong_pull_draws(count, seed):
    # the verify families, lpu >= lam_g n: y only rises after activation
    rng = np.random.default_rng(seed)
    for _ in range(count):
        lg = rng.uniform(0.05, 0.4)
        lb = lg * rng.uniform(0.2, 0.9)
        n = rng.uniform(200.0, 3000.0)
        p = ModelParams(lg, lb, lg * n * rng.uniform(1.0, 1.6),
                        rng.uniform(2.0, 40.0), n_pool=n)
        yield p, rng.uniform(0.05, 0.95) * lb * n * n / 4.0


def _product_draws():
    return itertools.chain(_weak_pull_draws(5, 2024),
                           _strong_pull_draws(3, 4242))


def test_product_passages_match_dense_reference():
    two_extrema = finite_down = 0
    for p, alpha in _product_draws():
        n, lpu, tol = p.n_pool, p.lambda_pu, 1e-13 * max(p.tau, 1.0)
        lams = [p.lambda_ps_g, p.lambda_ps_b]
        for q, lam in zip((Quality.GOOD, Quality.BAD), lams):
            ta = activation_time(alpha, q, p, EXP, TV)
            ts = np.linspace(ta, 4.0 * p.tau, 1_000_001)
            ys = _y_after(ts, ta, lam, lpu, n)
            inside = ts <= p.tau
            flips = np.count_nonzero(np.diff(np.sign(np.diff(ys[inside]))))
            two_extrema += flips == 2
            # up: levels above the jump top y(ta+) and below the largest
            # by 4 tau (the passage through a maximum is ill-conditioned)
            up = np.linspace(ys[0], ys.max(), 27)[1:-1]
            got = crossing_time_raw(up, q, alpha, p, EXP, TV)
            ref = _dense_passages(up, ta, lam, p, 4.0 * p.tau, down=False)
            assert np.all(np.abs(got - ref) <= tol)
            # down: levels inside the jump are met only when y comes back
            # to them before tau, by the public front as by the utility
            x_a = -n * math.expm1(-lam * ta)
            y_lo = lam * n * math.exp(-lam * ta) * x_a
            gap = np.linspace(y_lo, y_lo + lpu * x_a, 27)[1:-1]
            got = crossing_time_raw(gap, q, alpha, p, EXP, TV)
            ref = _dense_passages(gap, ta, lam, p, p.tau, down=True)
            assert np.array_equal(np.isinf(got), np.isinf(ref))
            finite = np.isfinite(ref)
            assert np.all(np.abs(got[finite] - ref[finite]) <= tol)
            finite_down += np.count_nonzero(finite)
        # both qualities in one pass give the per-quality rows
        betas = np.linspace(0.0, 1.5 * beta_tau(Quality.GOOD, alpha, p, EXP, TV),
                            40)
        both = crossings(betas, np.full(betas.shape, alpha), lams,
                         p, EXP, TV)
        for row, lam in zip(both, lams):
            one = crossings(betas, np.full(betas.shape, alpha), [lam],
                            p, EXP, TV)[0]
            assert np.array_equal(row, one)
    assert two_extrema >= 5 and finite_down >= 100


def test_product_cap_is_the_dense_maximum():
    # the analytic cap against 2*10**6 samples of y on [0, tau] plus the
    # activation time, with the best interior sample refined by bisection
    # on y'
    for p, alpha in _product_draws():
        n, lpu = p.n_pool, p.lambda_pu
        for q in Quality:
            lam = p.lambda_ps(q)
            ta = activation_time(alpha, q, p, EXP, TV)
            cap = beta_tau(q, alpha, p, EXP, TV)
            t = np.union1d(np.linspace(0.0, p.tau, 2_000_000),
                           [ta] if ta <= p.tau else [])
            pull = np.where(t >= ta, lpu, 0.0)
            ys = ((lam * n * np.exp(-lam * t) + pull)
                  * (-n * np.expm1(-lam * t) + pull * (t - np.minimum(t, ta))))
            k = int(np.argmax(ys))
            dense = ys[k]
            assert cap >= dense
            if 0 < k < t.size - 1 and t[k - 1] >= ta:
                g = lambda s: -_slope_after(s, ta, lam, lpu, n)
                if g(t[k - 1]) < 0.0 <= g(t[k + 1]):
                    dense = max(dense, _y_after(_bisect(g, t[k - 1], t[k + 1]),
                                                ta, lam, lpu, n))
            assert cap == pytest.approx(dense, rel=1e-12)


@pytest.mark.parametrize("lpu", [1e-12, 1.1e-308])
def test_product_passage_at_vanishing_pull(lpu):
    # the pull term fades against the push parabola: passages and caps
    # tend to the push-only ones, also where lpu^2 and lam n/lpu leave
    # the double range
    p = ModelParams(0.1, 0.05, lpu, 8.0, n_pool=1000.0)
    betas = np.linspace(0.0, 30000.0, 31)
    for q in Quality:
        t = crossing_time_raw(betas, q, 5000.0, p, EXP, TV)
        push_only = crossing_time_raw(betas, q, INF, p, EXP, TV)
        assert t == pytest.approx(push_only, rel=1e-6)
        assert beta_tau(q, 5000.0, p, EXP, TV) == pytest.approx(
            beta_tau(q, INF, p, EXP, TV), rel=1e-12)


def _tve_surface_draws(count, seed):
    # the families of a TrendViewcountExponential surface: rates
    # 0.05-0.4, pool 200-3000, pull 1-1.6 x lam_G n, tau 2-40, alpha a
    # share of the push-only peak of y for the bad content
    rng = np.random.default_rng(seed)
    for _ in range(count):
        lg = rng.uniform(0.05, 0.4)
        lb = lg * rng.uniform(0.2, 0.9)
        n = rng.uniform(200.0, 3000.0)
        p = ModelParams(lg, lb, lg * n * rng.uniform(1.0, 1.6),
                        rng.uniform(2.0, 40.0), n_pool=n)
        u = max(math.exp(-lb * p.tau), 0.5)
        yield p, rng.uniform(0.05, 0.95) * lb * n * n * u * (1.0 - u)


def _brentq(g, lo, hi):
    return scipy.optimize.brentq(g, lo, hi, xtol=1e-300,
                                 rtol=4.0 * np.finfo(float).eps)


def _reference_pieces(ta, lam, p):
    """(r, f, shape) of _product_pieces, the ends found by brentq on the
    sign of y' (_y_post_slope) in the brackets its docstring derives."""
    lpu, n, tau = p.lambda_pu, p.n_pool, p.tau
    slope = lambda t: float(_y_post_slope(t, ta, lam, lpu, n))
    t_star = math.log(2.0 * lam * n / lpu) / lam
    s0 = max(t_star, ta)
    if slope(ta) <= 0.0:
        r, shape = ta, "falls-first"
    elif t_star > ta and slope(t_star) < 0.0:
        r, shape = _brentq(slope, ta, t_star), "peak"
    else:
        return INF, tau, "rises"
    if s0 < tau and slope(tau) > 0.0:
        return r, _brentq(slope, s0, tau), shape + "+trough"
    return r, tau, shape


def _reference_passage(beta, alpha, ta, lam, p, r, f):
    """First passage of y = Xdot*X through beta > alpha after ta, by
    brentq on _y_post - beta inside one monotone piece of y."""
    lpu, n, tau = p.lambda_pu, p.n_pool, p.tau
    y = lambda t: float(_y_post(t, ta, lam, lpu, n)) - beta
    if y(ta) > 0.0:
        # strictly inside the activation jump: met only if y comes back
        # down to beta on its falling piece before tau (the top y(ta+)
        # is met at ta, below)
        if r < tau and y(f) <= 0.0:
            return _brentq(y, r, f)
        return INF
    # up: within the first rising piece if y gets to beta there; else y
    # stays below beta up to the trough and rises past it for good, and
    # y >= lpu^2 (t - ta) puts the passage before ta + beta/lpu^2.
    # Passages later than 1e9 tau count as never
    if r < INF and y(r) >= 0.0:
        return _brentq(y, ta, r)
    t_hi = min(ta + beta / (lpu * lpu), 1e9 * tau)
    return _brentq(y, ta, t_hi) if y(t_hi) >= 0.0 else INF


def test_product_crossings_match_brentq():
    # 30 surface families plus the TrendViewcountExponential surface smoke
    # case, and weak-pull cases for the other shapes of y: every
    # passage that find_root_arr solves, and every piece end, within the
    # solver's tol of brentq on the same function
    cases = list(_tve_surface_draws(30, 1515))
    cases.append((ModelParams(0.1, 0.05, 110.0, 8.0, n_pool=1000.0), 1000.0))
    cases += list(_weak_pull_draws(6, 99))
    # alpha at the bad content's push-only peak lam n^2/4 and a pull too
    # weak to register: y falls from the activation on
    cases.append((ModelParams(0.125, 0.0625, 1e-15, 40.0, n_pool=1024.0),
                  0.0625 * 1024.0 ** 2 / 4.0))
    shapes = set()
    solved = 0
    for p, alpha in cases:
        tol = 1e-13 * max(p.tau, 1.0)
        lams = [p.lambda_ps_g, p.lambda_ps_b]
        ta = np.array([activation_time(alpha, q, p, EXP, TV) for q in Quality])
        if not np.all(np.isfinite(ta)):
            continue
        r, f = _product_pieces(ta[:, None], np.array(lams)[:, None], p)
        cap = beta_tau(Quality.GOOD, alpha, p, EXP, TV)
        y_top = [float(_y_post(t, t, lam, p.lambda_pu, p.n_pool))
                 for t, lam in zip(ta, lams)]
        # surface levels past alpha, and levels inside each jump and at
        # its top
        betas = np.concatenate([np.linspace(alpha, 1.5 * cap, 41)[1:]]
                               + [np.linspace(alpha, top, 13)[1:]
                                  for top in y_top])
        got = crossings(betas, np.full(betas.shape, alpha), lams,
                        p, EXP, TV)
        for k, lam in enumerate(lams):
            r_ref, f_ref, shape = _reference_pieces(ta[k], lam, p)
            shapes.add(shape)
            # find_root_arr's stop rule: within tol of the root, or
            # |y'/Xdot^2| <= tol where that slope is flat
            slope = lambda t: abs(_y_post_slope(t, ta[k], lam, p.lambda_pu,
                                                p.n_pool))
            for end, end_ref in ((r[k, 0], r_ref), (f[k, 0], f_ref)):
                assert (end == end_ref or abs(end - end_ref) <= tol
                        or slope(end) <= tol)
            for beta, t in zip(betas, got[k]):
                ref = _reference_passage(beta, alpha, ta[k], lam, p,
                                         r_ref, f_ref)
                if ref == INF:
                    assert t == INF
                else:
                    assert (abs(t - ref) <= tol or abs(_y_post(
                        t, ta[k], lam, p.lambda_pu, p.n_pool) - beta) <= tol)
                    solved += ref > ta[k]
    assert {"falls-first", "peak", "peak+trough", "rises"} <= shapes
    assert solved >= 1000


# -- elementwise front: arrays against loops of scalar calls ------------------

# (params, push): linear, saturating, and both without pull
FRONT_CASES = [
    (ModelParams(0.2, 0.1, 1.0, 10.0), LIN),
    (ModelParams(0.2, 0.1, 0.0, 10.0), LIN),
    (ModelParams(0.1, 0.05, 110.0, 8.0, n_pool=1000.0, gamma_th=140.0), EXP),
    (ModelParams(0.1, 0.05, 0.0, 8.0, n_pool=1000.0), EXP),
]


def _front_params(with_rejected=False):
    """(metric, p, push) for every metric on every FRONT_CASES entry, the
    look-ahead metric on linear push only unless ``with_rejected``; ids as
    stacked parametrize decorators over the two lists name them."""
    return [pytest.param(metric, p, push, id=f"{metric}-p{k}-{push}")
            for metric in MetricKind
            for k, (p, push) in enumerate(FRONT_CASES)
            if with_rejected or not (metric is SI and push is EXP)]


def _front_alphas(p, push, metric):
    # 0, interior levels, the push-only top of the metric, and for
    # saturating push thresholds at and past the pool. Linear Xdot*X has
    # no beta_tau; its push-only top is lam X(tau)
    if (push, metric) == (LIN, TV):
        top = p.lambda_ps_g * (p.lambda_ps_g * p.tau)
    else:
        top = beta_tau(Quality.GOOD, INF, p, push, metric)
    alphas = [0.0, 0.3 * top, 0.7 * top, top, 2.0 * top]
    if push is EXP:
        alphas += [p.n_pool, 1.5 * p.n_pool]
    return np.array(alphas)


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


@pytest.mark.parametrize("metric, p, push", _front_params())
def test_front_on_arrays_equals_scalar_loops(metric, p, push):
    alphas = _front_alphas(p, push, metric)
    ts = np.linspace(0.0, p.tau, alphas.size)
    for q in Quality:
        # each entry point as a function of (t, alpha); linear Xdot*X has
        # no beta_tau (test_linear_trend_is_activation_only)
        calls = {
            "activation_time":
                lambda t, a: activation_time(a, q, p, push, metric),
            "viewcount": lambda t, a: viewcount(t, q, a, p, push, metric)}
        if (push, metric) != (LIN, TV):
            calls["beta_tau"] = lambda t, a: beta_tau(q, a, p, push, metric)
        for name, f in calls.items():
            arr = f(ts, alphas)
            one = [f(float(t), float(a)) for t, a in zip(ts, alphas)]
            assert isinstance(arr, np.ndarray), name
            assert all(isinstance(v, float) for v in one), name
            assert _bits(arr) == _bits(one), name
        # t and alpha broadcast against each other
        grid = viewcount(ts[:, None], q, alphas, p, push, metric)
        assert grid.shape == (ts.size, alphas.size)
        assert _bits(grid[:, 2]) == _bits(viewcount(ts, q, alphas[2], p,
                                                    push, metric))


def test_look_ahead_metric_rejects_saturating_push():
    # no scenario uses the pair, and its passage after activation has no
    # closed form
    p = FRONT_CASES[2][0]
    for q in Quality:
        calls = (
            lambda: activation_time(1.0, q, p, EXP, SI),
            lambda: crossing_time_raw(1.0, q, 1.0, p, EXP, SI),
            lambda: crossing_time(1.0, q, 1.0, p, EXP, SI),
            lambda: beta_tau(q, 1.0, p, EXP, SI),
            lambda: viewcount(1.0, q, 1.0, p, EXP, SI),
            lambda: metric_value(1.0, q, 1.0, p, EXP, SI),
            lambda: sample_trajectory(q, 1.0, p, EXP, SI, n_samples=11))
        for call in calls:
            with pytest.raises(DynamicsError):
                call()


def test_linear_trend_is_activation_only():
    # TrendViewcountLinear's game is reduce_scenario's; dynamics keeps
    # the pair's activation and the viewcount after it, and refuses
    # every reading of the metric past alpha
    p = FRONT_CASES[0][0]
    for q in Quality:
        assert activation_time(0.5, q, p, LIN, TV) == \
            0.5 / p.lambda_ps(q) / p.lambda_ps(q)
        assert activation_count(0.5, q, p, LIN, TV) == 0.5 / p.lambda_ps(q)
        viewcount(1.0, q, 0.5, p, LIN, TV)
        sample_trajectory(q, 0.5, p, LIN, TV, n_samples=11)
        calls = (
            lambda: crossings(np.ones(2), np.ones(2), [p.lambda_ps(q)], p,
                              LIN, TV),
            lambda: crossing_time_raw(1.0, q, 0.5, p, LIN, TV),
            lambda: crossing_time(1.0, q, 0.5, p, LIN, TV),
            lambda: beta_tau(q, 0.5, p, LIN, TV),
            lambda: metric_value(1.0, q, 0.5, p, LIN, TV))
        for call in calls:
            with pytest.raises(DynamicsError, match="reduce_scenario"):
                call()


def test_front_rejects_negative_inputs_on_arrays():
    p = ModelParams(0.2, 0.1, 1.0, 10.0)
    for bad in (np.array([1.0, -1.0]), [1.0, -1.0]):
        with pytest.raises(DynamicsError):
            activation_time(bad, Quality.GOOD, p, LIN, PLAIN)
        with pytest.raises(DynamicsError):
            viewcount(bad, Quality.GOOD, 0.5, p, LIN)
    # a crossing under a negative population threshold, which would
    # activate before t = 0
    for metric in MetricKind:
        with pytest.raises(DynamicsError):
            crossing_time_raw(1.0, Quality.GOOD, np.array([1.0, -1.0]), p, LIN,
                              metric)


_SAT_P = ModelParams(0.1, 0.05, 110.0, 8.0, n_pool=1000.0, gamma_th=140.0)


@pytest.mark.parametrize("call, past_alpha", [
    pytest.param(lambda x, s, p: activation_count(
        x, Quality.GOOD, p, s.push, s.metric), False, id="activation_count"),
    pytest.param(lambda x, s, p: activation_time(
        x, Quality.GOOD, p, s.push, s.metric), False, id="activation_time"),
    pytest.param(lambda x, s, p: viewcount(
        x, Quality.BAD, 1.0, p, s.push, s.metric), False, id="viewcount-t"),
    pytest.param(lambda x, s, p: viewcount(
        3.0, Quality.GOOD, x, p, s.push, s.metric), False,
        id="viewcount-alpha"),
    pytest.param(lambda x, s, p: metric_value(
        3.0, Quality.GOOD, x, p, s.push, s.metric), True, id="metric_value"),
    pytest.param(lambda x, s, p: beta_tau(
        Quality.BAD, x, p, s.push, s.metric), True, id="beta_tau"),
    pytest.param(lambda x, s, p: strategy_cap(x, p, s), False,
                 id="strategy_cap"),
])
def test_list_input_equals_array_input(call, past_alpha):
    # elementwise entry points take any array-like, as crossing_time_raw
    # and utility do; those reading the metric past alpha refuse linear
    # Xdot*X on either
    for s in Scenario:
        p = (_SAT_P if s.push is EXP else ModelParams(0.2, 0.1, 1.0, 10.0))
        if past_alpha and s is Scenario.TREND_VIEWCOUNT_LINEAR:
            for x in ([1.0, 2.0], np.array([1.0, 2.0])):
                with pytest.raises(DynamicsError, match="reduce_scenario"):
                    call(x, s, p)
            continue
        got = call([1.0, 2.0], s, p)
        ref = call(np.array([1.0, 2.0]), s, p)
        assert isinstance(got, np.ndarray)
        assert got.tobytes() == ref.tobytes()


def _inline_trajectory(q, alpha, p, push, metric, t):
    # the formulas sample_trajectory evaluated on its grid before it
    # called viewcount and _xdot; kept as the reference
    lam = p.lambda_ps(q)
    n = p.require_pool() if push is EXP else 0.0
    ta = activation_time(alpha, q, p, push, metric)
    if push is LIN:
        x = lam * t
        xd = np.full_like(t, lam)
    else:
        x = n * (1.0 - np.exp(-lam * t))
        xd = lam * n * np.exp(-lam * t)
    active = t >= ta
    with np.errstate(invalid="ignore"):  # lambda_pu = 0 with ta = inf
        x = x + np.where(active, p.lambda_pu * (t - ta), 0.0)
    xd = xd + np.where(active, p.lambda_pu, 0.0)
    return x, xd


@pytest.mark.parametrize("metric, p, push", _front_params(with_rejected=True))
def test_trajectory_equals_inline_formulas(metric, p, push):
    if metric is SI and push is EXP:
        # the pair has no trajectory to sample
        for q in Quality:
            with pytest.raises(DynamicsError):
                sample_trajectory(q, 1.0, p, push, metric, n_samples=101)
        return
    for q in Quality:
        for alpha in _front_alphas(p, push, metric).tolist():
            tr = sample_trajectory(q, alpha, p, push, metric, n_samples=101)
            x, xd = _inline_trajectory(q, alpha, p, push, metric, tr.t)
            assert tr.x.tobytes() == x.tobytes()
            assert tr.xdot.tobytes() == xd.tobytes()
