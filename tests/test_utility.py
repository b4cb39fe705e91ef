"""Deviator utility U(alpha, beta) and closed-form best responses."""

import math

import numpy as np
import pytest
import scipy.optimize
import scipy.special

from pushpull.cli import _draw_model
from pushpull.utility import (reduce_scenario, side_info_branch_candidates,
                              utility_terms)
from pushpull import (
    Belief,
    BestResponseKind,
    GridSpec,
    ModelParams,
    MetricKind,
    PushKind,
    Quality,
    Scenario,
    UtilityError,
    activation_time,
    best_response_exponential,
    best_response_linear,
    best_response_side_info,
    crossing_time,
    crossing_time_raw,
    viewcount,
    grid_best_response,
    horizon_window,
    side_info_lambda_pu_s,
    side_info_peaks,
    strategy_cap,
    symmetric_cap,
    utility,
    utility_surface,
)

INF = math.inf
LIN_S = Scenario.LINEAR_FIXED_HORIZON
EXP_S = Scenario.EXPONENTIAL_FIXED_HORIZON
FIG_PARAMS = ModelParams(0.1, 0.01, 150.0, 10.0, n_pool=1000.0)


def test_linear_utility_two_routes_agree_on_worked_case():
    p = ModelParams(0.2, 0.1, 1.0, 10.0)
    b = Belief(0.6, 0.4)
    u = utility(0.5, 0.2, b, p, LIN_S)
    # crossing route: 0.6*(10 - 1) - 0.4*(10 - 2)
    assert u == pytest.approx(2.2, rel=1e-12)
    # affine route: tau*(pi_g - pi_b) - beta*(pi_g/l_g - pi_b/l_b)
    assert u == pytest.approx(10.0 * 0.2 - 0.2 * (3.0 - 4.0), rel=1e-12)


def test_linear_utility_routes_agree_randomized():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        lg = rng.uniform(0.05, 0.5)
        lb = lg * rng.uniform(0.3, 1.0)
        tau = rng.uniform(2.0, 30.0)
        p = ModelParams(lg, lb, rng.uniform(0.0, 5.0), tau)
        pi_g = rng.uniform(0.05, 0.95)
        b = Belief(pi_g, 1.0 - pi_g)
        beta = rng.uniform(0.0, lb * tau)   # reachable for both qualities
        alpha = beta + rng.uniform(0.0, 1.0)  # pure-push region
        u = utility(alpha, beta, b, p, LIN_S)
        ref = tau * (pi_g - (1.0 - pi_g)) - beta * (pi_g / lg - (1.0 - pi_g) / lb)
        assert u == pytest.approx(ref, rel=1e-9, abs=1e-9)


def test_certain_good_belief_drops_the_cost_term():
    b = Belief(1.0, 0.0)
    for s, p in ((LIN_S, ModelParams(0.2, 0.1, 1.0, 10.0)),
                 (EXP_S, FIG_PARAMS)):
        alpha = 0.4 * strategy_cap(INF, p, s)
        for frac in (0.0, 0.3, 0.9):
            beta = frac * strategy_cap(alpha, p, s)
            t_g = crossing_time(beta, Quality.GOOD, alpha, p,
                                PushKind.LINEAR if s is LIN_S else
                                PushKind.EXPONENTIAL_SATURATING,
                                MetricKind.PLAIN_VIEWCOUNT)
            want = max(p.tau - t_g, 0.0)
            assert utility(alpha, beta, b, p, s) == pytest.approx(want, abs=1e-12)


def test_certain_bad_belief_peaks_at_cap_with_zero_utility():
    b = Belief(0.0, 1.0)
    alpha = 400.0
    cap = strategy_cap(alpha, FIG_PARAMS, EXP_S)
    us = [utility(alpha, beta, b, FIG_PARAMS, EXP_S)
          for beta in np.linspace(0.0, cap, 200)]
    assert us[-1] == pytest.approx(0.0, abs=1e-12)
    assert np.argmax(us) == len(us) - 1
    assert all(u <= 1e-12 for u in us)


def test_utility_rejects_out_of_range_thresholds():
    p = ModelParams(0.2, 0.1, 1.0, 10.0)
    b = Belief(0.6, 0.4)
    cap = strategy_cap(0.5, p, LIN_S)
    with pytest.raises(UtilityError):
        utility(0.5, cap * 1.01, b, p, LIN_S)
    with pytest.raises(UtilityError):
        utility(0.5, -0.1, b, p, LIN_S)


def test_utility_at_cap_matches_boundary_form():
    # at beta = beta_tau(B) the bad term vanishes and only the good
    # quality still pays out
    p = ModelParams(0.2, 0.1, 1.0, 10.0)
    b = Belief(0.6, 0.4)
    alpha = 0.5
    cap = strategy_cap(alpha, p, LIN_S)
    t_g = crossing_time(cap, Quality.GOOD, alpha, p, PushKind.LINEAR,
                        MetricKind.PLAIN_VIEWCOUNT)
    assert utility(alpha, cap, b, p, LIN_S) == \
        pytest.approx(b.pi_g * (p.tau - t_g), rel=1e-12)


# -- closed-form best responses ----------------------------------------------

def test_linear_best_response_certain_good_is_zero():
    p = ModelParams(0.2, 0.1, 1.0, 10.0)
    r = best_response_linear(0.5, Belief(1.0, 0.0), p)
    assert r.kind is BestResponseKind.POINT
    assert r.values == (0.0,)


def test_linear_best_response_middle_case_is_alpha():
    p = ModelParams(0.1, 0.01, 150.0, 10.0)
    r = best_response_linear(0.05, Belief(0.75, 0.25), p)
    assert r.kind is BestResponseKind.POINT
    assert r.values == (0.05,)
    assert r.utility == pytest.approx(5.875, rel=1e-12)
    assert r.as_dict() == {"kind": "Point", "values": [0.05],
                           "intervals": [], "utility": 5.875}


def test_linear_best_response_last_case_is_cap():
    p = ModelParams(0.2, 0.1, 1.0, 10.0)
    alpha = 0.5
    r = best_response_linear(alpha, Belief(0.5, 0.5), p)
    assert r.kind is BestResponseKind.POINT
    assert r.values == (strategy_cap(alpha, p, LIN_S),)
    assert r.values == (6.0,)


def test_linear_best_response_agrees_with_grid():
    rng = np.random.default_rng(11)
    g = GridSpec(n_beta=801, n_alpha=101)
    for _ in range(25):
        lg = rng.uniform(0.05, 0.4)
        p = ModelParams(lg, lg * rng.uniform(0.3, 0.95),
                        rng.uniform(0.0, 3.0), rng.uniform(4.0, 20.0))
        pi_g = rng.uniform(0.1, 0.9)
        b = Belief(pi_g, 1.0 - pi_g)
        alpha = rng.uniform(0.0, 1.2) * strategy_cap(INF, p, LIN_S)
        r = best_response_linear(alpha, b, p)
        grid = grid_best_response(alpha, b, p, LIN_S, g)
        cap = strategy_cap(alpha, p, LIN_S)
        spacing = cap / (g.n_beta - 1)
        best = set(r.values)
        for lo, hi in r.intervals:
            best.update((lo, hi))
        assert any(abs(v - w) <= spacing + 1e-9
                   for v in best for w in grid)


def test_exponential_best_response_even_belief_is_cap():
    alpha = 300.0
    r = best_response_exponential(alpha, Belief(0.5, 0.5), FIG_PARAMS)
    assert r.kind is BestResponseKind.POINT
    assert r.values == (strategy_cap(alpha, FIG_PARAMS, EXP_S),)


def test_exponential_best_response_requires_ordered_rates():
    b = Belief(0.5, 0.5)
    with pytest.raises(UtilityError, match="lambda_ps"):
        best_response_exponential(
            100.0, b, ModelParams(0.1, 0.1, 150.0, 10.0, n_pool=1000.0))
    with pytest.raises(UtilityError, match="lambda_pu"):
        best_response_exponential(
            100.0, b, ModelParams(0.1, 0.05, 50.0, 10.0, n_pool=1000.0))


def test_exponential_best_response_agrees_with_grid():
    rng = np.random.default_rng(5)
    g = GridSpec(n_beta=801, n_alpha=101)
    for _ in range(15):
        lg = rng.uniform(0.05, 0.2)
        n = rng.uniform(500.0, 2000.0)
        p = ModelParams(lg, lg * rng.uniform(0.3, 0.9),
                        lg * n * rng.uniform(1.05, 2.0),
                        rng.uniform(4.0, 15.0), n_pool=n)
        pi_g = rng.uniform(0.1, 0.9)
        b = Belief(pi_g, 1.0 - pi_g)
        alpha = rng.uniform(0.0, 1.1) * strategy_cap(INF, p, EXP_S)
        r = best_response_exponential(alpha, b, p)
        grid = grid_best_response(alpha, b, p, EXP_S, g)
        cap = strategy_cap(alpha, p, EXP_S)
        spacing = cap / (g.n_beta - 1)
        best = set(r.values)
        for lo, hi in r.intervals:
            best.update((lo, hi))
        assert any(abs(v - w) <= spacing + 1e-9
                   for v in best for w in grid)


def test_exponential_interior_optimum_matches_scipy():
    # reference: brentq on the ratio condition (1+W_G)/(1+W_B) = rho with
    # scipy's Lambert W, within 2e-14 of 50-digit arithmetic on these draws
    rng = np.random.default_rng(1)
    checked = 0
    for _ in range(60):
        b, p = _draw_model(EXP_S, rng)
        n = p.n_pool
        rho = b.pi_g / b.pi_b
        for alpha in np.linspace(0.0, 1.0, 13) * symmetric_cap(p, EXP_S):
            alpha = float(alpha)
            cap = strategy_cap(alpha, p, EXP_S)
            knee = min(alpha, cap)
            inner = [v for v in best_response_exponential(alpha, b, p).values
                     if knee < v < cap]
            if not inner:
                continue

            def one_plus_w(beta, lam):
                z = lam * n / p.lambda_pu
                x = z * (1.0 - alpha / n) * math.exp(z * (1.0 - beta / n))
                return 1.0 + scipy.special.lambertw(x).real

            ref = scipy.optimize.brentq(
                lambda beta: (one_plus_w(beta, p.lambda_ps_g)
                              / one_plus_w(beta, p.lambda_ps_b)) - rho,
                knee, cap, xtol=1e-14 * cap, rtol=1e-15)
            assert inner == [pytest.approx(ref, rel=1e-12)]
            checked += 1
    assert checked >= 10


def test_exponential_interior_optimum_is_pinned():
    # the CI best-response family; the interior root's bits, and its
    # utility's, as the closed form gave them before any change to the
    # root finder
    p = ModelParams(0.2, 0.1, 260.0, 10.0, n_pool=1000.0)
    r = best_response_exponential(100.0, Belief(0.55, 0.45), p)
    assert r.kind is BestResponseKind.POINT
    assert r.values == (352.3621974901069,)
    assert r.utility == 1.1889235081276288


def test_huge_pool_favors_deferred_access():
    """N=50000 pins the grid argmax at the cap, not at beta=0."""
    p = ModelParams(0.1, 0.01, 150.0, 10.0, n_pool=50000.0)
    b = Belief(0.75, 0.25)
    alpha = 700.0
    cap = strategy_cap(alpha, p, EXP_S)
    assert cap == pytest.approx(6046.645232509499, rel=1e-12)
    grid = grid_best_response(alpha, b, p, EXP_S,
                              GridSpec(n_beta=2001, n_alpha=101))
    assert max(grid) == pytest.approx(cap, rel=1e-9)
    u0 = utility(alpha, 0.0, b, p, EXP_S)
    ucap = utility(alpha, cap, b, p, EXP_S)
    assert u0 == pytest.approx(5.0, rel=1e-12)
    assert ucap == pytest.approx(6.5616552253728955, rel=1e-12)
    assert ucap > u0


# -- trend-gated utilities ----------------------------------------------------

def test_trend_linear_equals_squared_rate_substitution():
    rng = np.random.default_rng(17)
    for _ in range(50):
        lg = rng.uniform(0.1, 0.6)
        lb = lg * rng.uniform(0.4, 1.0)
        lpu = rng.uniform(0.0, 2.0)
        tau = rng.uniform(3.0, 20.0)
        p = ModelParams(lg, lb, lpu, tau)
        p_sq = ModelParams(lg * lg, lb * lb, lpu * lpu, tau)
        pi_g = rng.uniform(0.1, 0.9)
        b = Belief(pi_g, 1.0 - pi_g)
        alpha = rng.uniform(0.0, 1.1) * strategy_cap(INF, p_sq, LIN_S)
        cap = strategy_cap(alpha, p, Scenario.TREND_VIEWCOUNT_LINEAR)
        assert cap == pytest.approx(strategy_cap(alpha, p_sq, LIN_S), rel=1e-12)
        for beta in np.linspace(0.0, cap, 21):
            u_trend = utility(alpha, float(beta), b, p,
                              Scenario.TREND_VIEWCOUNT_LINEAR)
            u_lin = utility(alpha, float(beta), b, p_sq, LIN_S)
            assert u_trend == pytest.approx(u_lin, rel=1e-12, abs=1e-12)


def test_trend_linear_models_activate_at_the_same_time():
    # dynamics reads linear trend*viewcount up to activation only, and
    # the reduction activates at the same alpha/lam_q^2: X(t), which sees
    # the metric only through that time, is what trajectory and simulate
    # write
    rng = np.random.default_rng(29)
    for _ in range(2000):
        lg = rng.uniform(0.01, 3.0)
        p = ModelParams(lg, lg * rng.uniform(0.05, 1.0), rng.uniform(0.0, 3.0),
                        rng.uniform(1.0, 40.0))
        p_sq, s_sq = reduce_scenario(p, Scenario.TREND_VIEWCOUNT_LINEAR)
        alpha = rng.uniform(0.0, 1.2) * (lg * p.tau) ** 2
        for q in Quality:
            assert activation_time(alpha, q, p, PushKind.LINEAR,
                                   MetricKind.TREND_TIMES_VIEWCOUNT) == \
                pytest.approx(activation_time(alpha, q, p_sq, s_sq.push,
                                              s_sq.metric), rel=1e-15, abs=0)

def test_trend_exponential_surface_has_jump_rows():
    # threshold at one percent of the initial push trend image
    p = ModelParams(0.1, 0.05, 150.0, 10.0, n_pool=1000.0)
    alpha = 0.01 * p.n_pool * p.lambda_ps_g
    rows = utility_surface(alpha, Belief(0.5, 0.5), p,
                           Scenario.TREND_VIEWCOUNT_EXPONENTIAL, 64)
    betas = [r[0] for r in rows]
    assert betas == sorted(betas)
    branches = {r[2] for r in rows}
    assert "left_limit" in branches and "right_limit" in branches
    # at least one genuine jump: paired limit rows with distinct utilities
    jumps = []
    for a, bb in zip(rows, rows[1:]):
        if a[2] == "left_limit" and bb[2] == "right_limit" and a[0] == bb[0]:
            jumps.append(abs(a[1] - bb[1]))
    assert jumps and max(jumps) > 1e-6


# -- variable horizon ----------------------------------------------------------

VH_PARAMS = ModelParams(0.1, 0.05, 110.0, 8.0, n_pool=1000.0, gamma_th=140.0)


def test_variable_horizon_flat_below_alpha_when_born_cold():
    # gamma_th above the initial good trend: tau0 = 0 for both qualities,
    # so a deviation below alpha never meets an open window
    s = Scenario.VARIABLE_HORIZON
    b = Belief(0.4, 0.6)
    alpha = 150.0
    us = [utility(alpha, beta, b, VH_PARAMS, s)
          for beta in np.linspace(0.0, alpha, 23)]
    assert max(us) - min(us) <= 1e-12


def test_variable_horizon_rewards_only_inside_windows():
    # short good window: tau1(G) = 10*ln(100/80) = 2.23 days
    s = Scenario.VARIABLE_HORIZON
    p = ModelParams(0.1, 0.05, 60.0, 8.0, n_pool=1000.0, gamma_th=140.0)
    b = Belief(1.0, 0.0)
    alpha = 150.0
    t0g, t1g, _ = horizon_window(Quality.GOOD, p,
                                 PushKind.EXPONENTIAL_SATURATING)
    assert t0g == 0.0 and t1g < p.tau
    # a threshold first met after the good window closes earns nothing
    beta_late = viewcount(t1g + 0.5, Quality.GOOD, alpha, p,
                          PushKind.EXPONENTIAL_SATURATING)
    assert beta_late <= strategy_cap(alpha, p, s)
    assert utility(alpha, beta_late, b, p, s) == pytest.approx(0.0, abs=1e-12)
    # whereas one met inside the window pays the remaining window length
    beta_in = viewcount(t1g - 0.5, Quality.GOOD, alpha, p,
                        PushKind.EXPONENTIAL_SATURATING)
    assert beta_in > alpha
    assert utility(alpha, beta_in, b, p, s) == pytest.approx(0.5, rel=1e-9)


@pytest.mark.parametrize("s", [LIN_S, EXP_S, Scenario.SIDE_INFORMATION,
                               Scenario.TREND_VIEWCOUNT_EXPONENTIAL])
def test_utility_is_built_from_the_dynamics_crossings(s):
    # gain and cost are (tau - t_beta(q))+ with the public uncapped
    # crossing time of each quality, bit for bit, over a grid of the
    # whole strategy space (U is their weighted difference, bit for bit:
    # tests/test_oracle.py). The weak-pull trend family puts grid levels
    # inside activation jumps, some met on the way back down, some never
    p = {EXP_S: FIG_PARAMS,
         Scenario.TREND_VIEWCOUNT_EXPONENTIAL: ModelParams(
             0.1, 0.05, 5.0, 40.0, n_pool=1000.0)}.get(
        s, ModelParams(0.2, 0.1, 1.0, 10.0))
    for alpha in np.linspace(0.0, symmetric_cap(p, s), 7).tolist():
        betas = np.linspace(0.0, strategy_cap(alpha, p, s), 9)
        for q, got in zip((Quality.GOOD, Quality.BAD),
                          utility_terms(alpha, betas, p, s)):
            t = crossing_time_raw(betas, q, alpha, p, s.push, s.metric)
            assert got.tolist() == np.maximum(p.tau - t, 0.0).tolist(), (
                alpha, q)


def test_variable_horizon_four_case_agreement_above_alpha():
    # above alpha the utility is the windowed payoff of each quality,
    # with the window end tau1 used as printed (no lifetime clamp)
    s = Scenario.VARIABLE_HORIZON
    b = Belief(0.55, 0.45)
    alpha = 120.0
    push = PushKind.EXPONENTIAL_SATURATING
    for beta in (121.0, 180.0, 250.0):
        want = 0.0
        for q, sign, pi in ((Quality.GOOD, 1.0, b.pi_g),
                            (Quality.BAD, -1.0, b.pi_b)):
            _, t1, _ = horizon_window(q, VH_PARAMS, push)
            tb = crossing_time_raw(beta, q, alpha, VH_PARAMS, push,
                                   MetricKind.PLAIN_VIEWCOUNT)
            want += sign * pi * max(t1 - tb, 0.0)
        got = utility(alpha, beta, b, VH_PARAMS, s)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_symmetric_cap_matches_strategy_cap_on_fixed_horizons():
    p = ModelParams(0.2, 0.1, 1.0, 10.0)
    for s in (LIN_S, Scenario.TREND_VIEWCOUNT_LINEAR, Scenario.SIDE_INFORMATION):
        assert symmetric_cap(p, s) == strategy_cap(INF, p, s)
    assert symmetric_cap(FIG_PARAMS, EXP_S) == strategy_cap(INF, FIG_PARAMS, EXP_S)


def test_symmetric_cap_trimmed_by_early_window_close():
    p = ModelParams(0.1, 0.05, 100.0, 8.0, n_pool=1000.0, gamma_th=140.0)
    _, t1b, _ = horizon_window(Quality.BAD, p, PushKind.EXPONENTIAL_SATURATING)
    assert t1b < p.tau
    got = symmetric_cap(p, Scenario.VARIABLE_HORIZON)
    assert got == pytest.approx(1000.0 * (1.0 - math.exp(-0.05 * t1b)), rel=1e-12)
    assert got < strategy_cap(INF, p, Scenario.VARIABLE_HORIZON)


def test_symmetric_cap_full_when_window_outlives_lifetime():
    _, t1b, _ = horizon_window(Quality.BAD, VH_PARAMS,
                               PushKind.EXPONENTIAL_SATURATING)
    assert t1b > VH_PARAMS.tau
    assert symmetric_cap(VH_PARAMS, Scenario.VARIABLE_HORIZON) == \
        pytest.approx(strategy_cap(INF, VH_PARAMS, Scenario.VARIABLE_HORIZON),
                      rel=1e-12)


# -- side information ----------------------------------------------------------

SI = Scenario.SIDE_INFORMATION


def test_side_info_equal_weighted_rates_collapse_early_branch_to_alpha():
    # pi_g/lambda(G) == pi_b/lambda(B): the early branch loses its interior
    # peak and its candidate lands on the branch edge alpha
    p = ModelParams(0.2, 0.1, 1.0, 10.0)
    b = Belief(2.0 / 3.0, 1.0 / 3.0)
    assert b.pi_g / 0.2 == b.pi_b / 0.1
    alpha = 0.3 * strategy_cap(INF, p, SI)
    _, up = side_info_branch_candidates(alpha, b, p)
    assert up == alpha
    # the overall winner is still chosen by utility across both branches
    r = best_response_side_info(alpha, b, p)
    assert r.utility >= utility(alpha, up, b, p, SI) - 1e-12


def test_side_info_peaks_coincide_without_pull():
    p = ModelParams(0.2, 0.05, 0.0, 10.0)
    b = Belief(0.7, 0.3)
    b1, b2 = side_info_peaks(b, p)
    assert b1 == pytest.approx(b2, rel=1e-12)


def test_side_info_best_response_agrees_with_grid():
    rng = np.random.default_rng(23)
    g = GridSpec(n_beta=801, n_alpha=101)
    for _ in range(20):
        lg = rng.uniform(0.1, 0.5)
        p = ModelParams(lg, lg * rng.uniform(0.3, 0.95),
                        rng.uniform(0.0, 2.0), rng.uniform(4.0, 15.0))
        pi_g = rng.uniform(0.1, 0.9)
        b = Belief(pi_g, 1.0 - pi_g)
        alpha = rng.uniform(0.0, 1.0) * strategy_cap(INF, p, SI)
        r = best_response_side_info(alpha, b, p)
        grid = grid_best_response(alpha, b, p, SI, g)
        cap = strategy_cap(alpha, p, SI)
        spacing = cap / (g.n_beta - 1)
        best = set(r.values)
        for lo, hi in r.intervals:
            best.update((lo, hi))
        assert any(abs(v - w) <= spacing + 1e-9
                   for v in best for w in grid)


def test_side_info_best_response_above_the_cap():
    # above (lam_B tau)^2/2 the bad population never pulls, and above
    # (lam_G tau)^2/2 neither does: the late branch keeps the push rate
    # of a quality that does not activate
    p = ModelParams(0.2, 0.1, 0.5, 10.0)
    b = Belief(0.75, 0.25)
    r = best_response_side_info(1.0, b, p)
    assert r.values == (0.0,)
    assert r.utility == pytest.approx(utility(1.0, 0.0, b, p, SI), rel=1e-12)
    rng = np.random.default_rng(29)
    for _ in range(40):
        lg = rng.uniform(0.1, 0.5)
        lb = lg * rng.uniform(0.3, 0.95)
        p = ModelParams(lg, lb, rng.uniform(0.0, 2.0), rng.uniform(4.0, 15.0))
        pi_g = rng.uniform(0.1, 0.9)
        b = Belief(pi_g, 1.0 - pi_g)
        cap = strategy_cap(INF, p, SI)
        alpha = cap * rng.uniform(1.0, 1.2 * (lg / lb) ** 2)
        r = best_response_side_info(alpha, b, p)
        grid = utility(alpha, np.linspace(0.0, cap, 2001), b, p, SI)
        assert r.utility >= grid.max() - 1e-9 * p.tau


def test_side_info_pull_premium_sign():
    # lambda_pu_s is the pull rate where the interval regime switches on;
    # it is positive exactly when 1 < rho < lambda_g/lambda_b
    p = ModelParams(0.2, 0.05, 1.0, 10.0)
    assert side_info_lambda_pu_s(Belief(2.0 / 3.0, 1.0 / 3.0), p) > 0.0
    assert side_info_lambda_pu_s(Belief(0.5, 0.5), p) == -INF
    assert side_info_lambda_pu_s(Belief(0.9, 0.1), p) <= 0.0


# -- surfaces ------------------------------------------------------------------

def test_surface_two_point_grid_keeps_endpoints():
    p = ModelParams(0.2, 0.1, 1.0, 10.0)
    b = Belief(0.6, 0.4)
    rows = utility_surface(0.5, b, p, LIN_S, 2)
    betas = [r[0] for r in rows]
    cap = strategy_cap(0.5, p, LIN_S)
    assert betas[0] == 0.0
    assert betas[-1] == pytest.approx(cap, rel=1e-12)
    assert all(r[2] in {"below_alpha", "above_alpha", "left_limit",
                        "right_limit"} for r in rows)


def test_surface_max_matches_best_response():
    p = ModelParams(0.1, 0.01, 150.0, 10.0)
    b = Belief(0.75, 0.25)
    alpha = 0.05
    rows = utility_surface(alpha, b, p, LIN_S, 512)
    r = best_response_linear(alpha, b, p)
    assert max(u for _, u, _ in rows) == pytest.approx(r.utility, abs=1e-6)


def test_surface_is_sorted_and_belief_consistent():
    rows = utility_surface(400.0, Belief(0.5, 0.5), FIG_PARAMS, EXP_S, 128)
    betas = [r[0] for r in rows]
    assert betas == sorted(betas)
    us = [utility(400.0, beta, Belief(0.5, 0.5), FIG_PARAMS, EXP_S)
          for beta in betas]
    for (beta, u, branch), u_ref in zip(rows, us):
        if branch in ("below_alpha", "above_alpha"):
            assert u == pytest.approx(u_ref, rel=1e-12, abs=1e-12)


# -- scenario plumbing ----------------------------------------------------------

@pytest.mark.parametrize("tag, want", [
    ("linear-fixed-horizon", Scenario.LINEAR_FIXED_HORIZON),
    ("Linear_Fixed_Horizon", Scenario.LINEAR_FIXED_HORIZON),
    ("LinearFixedHorizon", Scenario.LINEAR_FIXED_HORIZON),
    ("exponential-fixed-horizon", Scenario.EXPONENTIAL_FIXED_HORIZON),
    ("variable-horizon", Scenario.VARIABLE_HORIZON),
    ("trend-viewcount-linear", Scenario.TREND_VIEWCOUNT_LINEAR),
    ("Trend-Viewcount-Exponential", Scenario.TREND_VIEWCOUNT_EXPONENTIAL),
    ("side_information", Scenario.SIDE_INFORMATION),
])
def test_scenario_tags_round_trip(tag, want):
    assert Scenario.from_tag(tag) is want


def test_scenario_unknown_tag_raises():
    with pytest.raises(UtilityError, match="unknown scenario"):
        Scenario.from_tag("quadratic-horizon")
