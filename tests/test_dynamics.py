"""Viewcount dynamics, crossing times and trend windows.

The closed forms are checked against independent oracles: an ODE
integrator for the trajectory, bisection on the forward map for the
crossing times, and finite differences for the trend.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from pushpull import (
    Belief,
    BracketedFunction,
    DynamicsError,
    InfiniteHorizonError,
    MetricKind,
    ModelParams,
    PushKind,
    Quality,
    activation_time,
    beta_tau,
    crossing_time,
    crossing_time_raw,
    find_root,
    horizon_window,
    metric_value,
    sample_trajectory,
    viewcount,
)

INF = math.inf
PLAIN = MetricKind.PLAIN_VIEWCOUNT
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


def test_side_information_metric_vanishes_at_lifetime():
    p = ModelParams(0.2, 0.1, 1.0, 10.0)
    for q in Quality:
        y = metric_value(p.tau, q, 0.5, p, LIN, MetricKind.SIDE_INFORMATION)
        assert y == pytest.approx(0.0, abs=1e-12)


def test_plain_metric_is_the_viewcount():
    p = ModelParams(0.2, 0.1, 1.0, 10.0)
    for t in (0.0, 1.5, 7.0, 10.0):
        assert metric_value(t, Quality.GOOD, 0.7, p, LIN, PLAIN) == \
            viewcount(t, Quality.GOOD, 0.7, p, LIN)


def test_trend_times_viewcount_below_activation():
    p = ModelParams(0.1, 0.05, 1.0, 10.0)
    got = metric_value(2.0, Quality.GOOD, INF, p, LIN,
                       MetricKind.TREND_TIMES_VIEWCOUNT)
    assert got == pytest.approx(0.02, rel=1e-12)
    # independent check: centered finite difference for xdot
    h = 1e-6
    x_hi = viewcount(2.0 + h, Quality.GOOD, INF, p, LIN)
    x_lo = viewcount(2.0 - h, Quality.GOOD, INF, p, LIN)
    xdot = (x_hi - x_lo) / (2.0 * h)
    x = viewcount(2.0, Quality.GOOD, INF, p, LIN)
    assert got == pytest.approx(xdot * x, rel=1e-8)


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
    ref = find_root(BracketedFunction(f, t_a, p.tau), tol=1e-13)
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
    ref = find_root(BracketedFunction(f, 0.0, 100.0), tol=1e-12)
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
    ys = [metric_value(float(t), Quality.GOOD, 0.6, p, LIN,
                       MetricKind.SIDE_INFORMATION) for t in ts]
    assert np.all(np.diff(ys) <= 1e-12)
    assert ys[-1] == pytest.approx(0.0, abs=1e-12)


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
        ref = find_root(BracketedFunction(f, 0.0, tau), tol=1e-13)
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


def test_metric_value_requires_time_in_lifetime():
    p = ModelParams(0.2, 0.1, 1.0, 10.0)
    with pytest.raises(DynamicsError):
        metric_value(10.5, Quality.GOOD, 0.5, p, LIN, PLAIN)
    with pytest.raises(DynamicsError):
        metric_value(-0.5, Quality.GOOD, 0.5, p, LIN, PLAIN)
