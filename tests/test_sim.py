"""Event simulator and best-response dynamics."""

import numpy as np
import pytest

from pushpull import (
    Belief,
    MetricKind,
    ModelParams,
    PushKind,
    Quality,
    Scenario,
    SimConfig,
    UtilityError,
    best_response_dynamics,
    simulate_views,
    viewcount,
)

SAT = PushKind.EXPONENTIAL_SATURATING
EXP_FH = Scenario.EXPONENTIAL_FIXED_HORIZON


def test_simulate_views_is_seeded():
    p = ModelParams(0.1, 0.05, 20.0, 10.0, n_pool=500.0)
    runs = [simulate_views(Quality.GOOD, 100.0, p, EXP_FH,
                           SimConfig(seed=seed, n_push_pool=500))
            for seed in (7, 7, 8)]
    for field in ("t", "x", "xdot"):
        assert np.array_equal(getattr(runs[0], field), getattr(runs[1], field))
    assert not np.array_equal(runs[0].t, runs[2].t)


def test_simulated_final_count_approaches_the_mean_field():
    # relative error of the final count, averaged over seeds: it shrinks
    # like 1/sqrt(n) as the pool grows
    errors = []
    for n in (100, 1000, 10000):
        p = ModelParams(0.1, 0.05, 0.05 * n, 10.0, n_pool=float(n))
        alpha = 0.2 * n
        mean_field = viewcount(p.tau, Quality.GOOD, alpha, p, SAT)
        finals = [simulate_views(Quality.GOOD, alpha, p, EXP_FH,
                                 SimConfig(seed=seed, n_push_pool=n)).x[-1]
                  for seed in range(20)]
        errors.append(np.mean(np.abs(np.array(finals) - mean_field))
                      / mean_field)
    assert errors[0] > errors[1] > errors[2]
    assert errors[2] < errors[0] / 4.0


def test_side_information_views_follow_the_look_ahead_gate():
    # lam 2, tau 10, alpha 150: the look-ahead value (20^2 - X^2)/2 falls
    # to alpha at X = 10, so pull starts at t_a = 5 and X(tau) = 45,
    # where a raw-count gate at 150 would never open. Scaling the rates
    # by k and alpha by k^2 keeps t_a. The seeds' mean final count lies
    # within 3 standard errors of the mean field, and the per-seed error
    # shrinks like 1/sqrt(k)
    errors = []
    for k in (1, 10, 100):
        p = ModelParams(2.0 * k, 1.0 * k, 5.0 * k, 10.0)
        alpha = 150.0 * k * k
        mean_field = viewcount(p.tau, Quality.GOOD, alpha, p,
                               PushKind.LINEAR, MetricKind.SIDE_INFORMATION)
        assert mean_field == pytest.approx(45.0 * k, rel=1e-12)
        finals = np.array([
            simulate_views(Quality.GOOD, alpha, p, Scenario.SIDE_INFORMATION,
                           SimConfig(seed=seed, n_push_pool=1000)).x[-1]
            for seed in range(40)])
        std_err = np.std(finals, ddof=1) / np.sqrt(finals.size)
        assert abs(np.mean(finals) - mean_field) <= 3.0 * std_err
        errors.append(np.mean(np.abs(finals - mean_field)) / mean_field)
        # above (lam tau)^2/2 the gate never opens: push alone, ~20k views
        push_only = simulate_views(Quality.GOOD, 201.0 * k * k, p,
                                   Scenario.SIDE_INFORMATION,
                                   SimConfig(seed=0, n_push_pool=1000))
        assert push_only.x[-1] < 30.0 * k
    assert errors[0] > errors[1] > errors[2]
    assert errors[2] < errors[0] / 4.0


def test_trend_linear_views_follow_the_product_gate():
    # lam 2, lpu 5, tau 10, alpha 20: Xdot*X = 2X under push alone meets
    # alpha at X = 10, so pull starts at t_a = 5 and X(tau) = 45, where a
    # raw-count gate at 20 opens only at t = 10
    p = ModelParams(2.0, 1.0, 5.0, 10.0)
    mean_field = viewcount(p.tau, Quality.GOOD, 20.0, p, PushKind.LINEAR,
                           MetricKind.TREND_TIMES_VIEWCOUNT)
    assert mean_field == pytest.approx(45.0, rel=1e-12)
    finals = np.array([
        simulate_views(Quality.GOOD, 20.0, p, Scenario.TREND_VIEWCOUNT_LINEAR,
                       SimConfig(seed=seed, n_push_pool=1000)).x[-1]
        for seed in range(1, 101)])
    std_err = np.std(finals, ddof=1) / np.sqrt(finals.size)
    assert abs(np.mean(finals) - mean_field) <= 3.0 * std_err


def test_best_response_dynamics_needs_a_closed_form():
    p = ModelParams(0.1, 0.05, 110.0, 8.0, n_pool=1000.0, gamma_th=140.0)
    with pytest.raises(UtilityError, match="no closed-form best response"):
        best_response_dynamics(Belief(0.3, 0.7), p, Scenario.VARIABLE_HORIZON,
                               SimConfig(seed=0, n_push_pool=1000))



@pytest.mark.parametrize("start, rounds, settled", [
    ([0.07] * 3, 1, 0.07), ([0.02, 0.03, 0.04], 2, 0.03),
    ([5.0] * 3, 1, 0.1)])  # clipped to the cap before round 1
def test_best_response_dynamics_settles_where_it_started_near(
        start, rounds, settled):
    # all of [0, 0.1] is an equilibrium: the median stays where it starts
    res = best_response_dynamics(
        Belief(0.75, 0.25), ModelParams(0.1, 0.01, 150.0, 10.0),
        Scenario.LINEAR_FIXED_HORIZON, SimConfig(
            seed=0, n_push_pool=1, n_agents=3, initial_thresholds=start))
    assert (res.status, res.rounds_run, res.snapshots[-1].tolist()) == (
        "converged", rounds, [settled] * 3)
