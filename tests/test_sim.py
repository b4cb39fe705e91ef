"""Event simulator and best-response dynamics."""

import numpy as np
import pytest

from pushpull import (
    Belief,
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


def test_simulate_views_is_seeded():
    p = ModelParams(0.1, 0.05, 20.0, 10.0, n_pool=500.0)
    runs = [simulate_views(Quality.GOOD, 100.0, p, SAT,
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
        finals = [simulate_views(Quality.GOOD, alpha, p, SAT,
                                 SimConfig(seed=seed, n_push_pool=n)).x[-1]
                  for seed in range(20)]
        errors.append(np.mean(np.abs(np.array(finals) - mean_field))
                      / mean_field)
    assert errors[0] > errors[1] > errors[2]
    assert errors[2] < errors[0] / 4.0


def test_best_response_dynamics_needs_a_closed_form():
    p = ModelParams(0.1, 0.05, 110.0, 8.0, n_pool=1000.0, gamma_th=140.0)
    with pytest.raises(UtilityError, match="no closed-form best response"):
        best_response_dynamics(Belief(0.3, 0.7), p, Scenario.VARIABLE_HORIZON,
                               SimConfig(seed=0, n_push_pool=1000))
