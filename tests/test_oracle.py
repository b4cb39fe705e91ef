"""Brute-force grid oracle: batched evaluation, best responses, fixed points."""

import math

import numpy as np
import pytest

from pushpull import (
    Belief,
    GridSpec,
    ModelParams,
    Scenario,
    classify_exponential,
    classify_linear,
    find_symmetric_equilibria,
    grid_best_response,
    strategy_cap,
    symmetric_cap,
    utility,
)
from pushpull.oracle import _beta_grid, _beta_rows

INF = math.inf
ALL_SCENARIOS = list(Scenario)
CLOSED_FORM = [s for s in Scenario
               if s is not Scenario.TREND_VIEWCOUNT_EXPONENTIAL]
EXP_P = ModelParams(0.1, 0.05, 110.0, 8.0, n_pool=1000.0)
VH_P = ModelParams(0.1, 0.05, 110.0, 8.0, n_pool=1000.0, gamma_th=140.0)


def params_for(s):
    if s in (Scenario.EXPONENTIAL_FIXED_HORIZON,
             Scenario.TREND_VIEWCOUNT_EXPONENTIAL):
        return EXP_P
    if s is Scenario.VARIABLE_HORIZON:
        return VH_P
    return ModelParams(0.2, 0.1, 1.0, 10.0)


@pytest.mark.parametrize("s", ALL_SCENARIOS)
def test_bulk_evaluation_matches_scalar_utility(s):
    # one utility call over several deviation rows, alpha given per
    # element, against one call per row and one scalar call per row
    p = params_for(s)
    b = Belief(0.6, 0.4)
    cap = strategy_cap(INF, p, s)
    alphas = np.array([0.0, 0.4 * cap, cap])
    betas, starts = _beta_rows(alphas, p, s, 45)
    counts = np.diff(starts, append=betas.size)
    batched = utility(np.repeat(alphas, counts), betas, b, p, s,
                      enforce_cap=False)
    assert batched.shape == betas.shape
    for alpha, lo, k in zip(alphas, starts, counts):
        row = betas[lo:lo + k]
        assert np.array_equal(row, _beta_grid(alpha, p, s, 45))
        per_alpha = utility(alpha, row, b, p, s, enforce_cap=False)
        # the array Lambert iteration stops on the whole batch, so a larger
        # batch can take one more Halley step: equal up to a few ulps
        assert batched[lo:lo + k] == pytest.approx(per_alpha, rel=1e-12,
                                                   abs=1e-12)
        one = utility(float(alpha), float(row[k // 2]), b, p, s,
                      enforce_cap=False)
        assert isinstance(one, float)
        assert one == pytest.approx(per_alpha[k // 2], rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("s", CLOSED_FORM)
@pytest.mark.parametrize("belief", [Belief(0.4, 0.6), Belief(0.75, 0.25)])
def test_batched_sweep_matches_per_alpha_reference(s, belief):
    # reference: one grid best response per alpha, as the sweep did before
    # it was batched; alpha is a fixed point when its own threshold ties
    p = params_for(s)
    g = GridSpec()
    ref = [a for a in np.linspace(0.0, symmetric_cap(p, s), g.n_alpha)
           if np.any(grid_best_response(a, belief, p, s, g)
                     == min(a, strategy_cap(a, p, s)))]
    found = find_symmetric_equilibria(belief, p, s, g)
    assert len(ref) > 0
    assert np.array_equal(found, ref)


@pytest.mark.parametrize("s", ALL_SCENARIOS)
def test_beta_grid_covers_the_strategy_space(s):
    p = params_for(s)
    alpha = 0.35 * strategy_cap(INF, p, s)
    betas = _beta_grid(alpha, p, s, 150)
    cap = strategy_cap(alpha, p, s)
    assert betas[0] == 0.0
    assert betas[-1] == pytest.approx(cap, rel=1e-12)
    assert np.all(np.diff(betas) > 0)
    # the deviator can always stop exactly at the population threshold
    assert np.min(np.abs(betas - alpha)) <= 1e-9 * max(1.0, alpha)


def test_grid_best_response_reports_all_ties():
    # certain-bad belief: utility is maximal only at the cap
    p = ModelParams(0.1, 0.01, 150.0, 10.0, n_pool=1000.0)
    s = Scenario.EXPONENTIAL_FIXED_HORIZON
    g = GridSpec(n_beta=501, n_alpha=101)
    alpha = 400.0
    bad = grid_best_response(alpha, Belief(0.0, 1.0), p, s, g)
    assert bad[-1] == pytest.approx(strategy_cap(alpha, p, s), rel=1e-12)
    # certain-good: everything from zero up to the alpha knee ties at the
    # fixed-horizon maximum only when pull dominates; at least zero wins
    good = grid_best_response(alpha, Belief(1.0, 0.0), p, s, g)
    assert good[0] == 0.0


def test_grid_best_response_respects_tolerance():
    p = ModelParams(0.1, 0.01, 150.0, 10.0)
    b = Belief(0.75, 0.25)
    s = Scenario.LINEAR_FIXED_HORIZON
    alpha = 0.05
    tight = grid_best_response(alpha, b, p, s, GridSpec(tol=1e-12))
    loose = grid_best_response(alpha, b, p, s, GridSpec(tol=1e6))
    # at +inf tol every grid point ties, including injected knee/limit points
    assert len(loose) == len(_beta_grid(alpha, p, s, GridSpec().n_beta))
    assert set(np.round(tight, 12)).issubset(set(np.round(loose, 12)))


def test_gridspec_validates_resolution():
    with pytest.raises(ValueError, match="n_beta"):
        GridSpec(n_beta=99)
    with pytest.raises(ValueError, match="n_alpha"):
        GridSpec(n_alpha=99)
    p = ModelParams(0.1, 0.05, 1.0, 10.0)
    assert GridSpec().resolve_tol(p) == pytest.approx(1e-5)
    assert GridSpec(tol=0.5).resolve_tol(p) == 0.5


def test_oracle_finds_the_full_linear_interval():
    p = ModelParams(0.1, 0.01, 150.0, 10.0)
    b = Belief(0.75, 0.25)
    g = GridSpec(n_beta=201, n_alpha=101)
    found = find_symmetric_equilibria(b, p, Scenario.LINEAR_FIXED_HORIZON, g)
    # theorem: every alpha in [0, cap] is an equilibrium here
    assert len(found) == g.n_alpha
    assert found[0] == 0.0
    assert found[-1] == pytest.approx(0.1, rel=1e-12)


def test_oracle_matches_exponential_cap_classification():
    b = Belief(0.4, 0.6)
    g = GridSpec(n_beta=301, n_alpha=151)
    found = find_symmetric_equilibria(b, EXP_P, Scenario.EXPONENTIAL_FIXED_HORIZON, g)
    es = classify_exponential(b, EXP_P)
    cap = es.points[0]
    spacing = symmetric_cap(EXP_P, Scenario.EXPONENTIAL_FIXED_HORIZON) / (g.n_alpha - 1)
    assert len(found) >= 1
    assert all(abs(a - cap) <= spacing + 1e-9 for a in found)


def test_oracle_alpha_domain_is_the_symmetric_cap():
    for s in (Scenario.EXPONENTIAL_FIXED_HORIZON, Scenario.VARIABLE_HORIZON):
        p = params_for(s)
        found = find_symmetric_equilibria(Belief(0.4, 0.6), p, s,
                                          GridSpec(n_beta=151, n_alpha=101))
        cap = symmetric_cap(p, s)
        assert all(a <= cap + 1e-12 for a in found)


def test_oracle_refinement_is_stable():
    # doubling the deviation grid must not dislodge a true equilibrium
    b = Belief(0.4, 0.6)
    s = Scenario.EXPONENTIAL_FIXED_HORIZON
    results = []
    for n_beta in (151, 301, 601):
        g = GridSpec(n_beta=n_beta, n_alpha=101)
        results.append(find_symmetric_equilibria(b, EXP_P, s, g))
    cap = classify_exponential(b, EXP_P).points[0]
    for found in results:
        assert len(found) >= 1
        assert any(abs(a - cap) <= cap / 100 + 1e-9 for a in found)


def test_oracle_is_deterministic():
    b = Belief(0.56, 0.44)
    g = GridSpec(n_beta=201, n_alpha=101)
    s = Scenario.EXPONENTIAL_FIXED_HORIZON
    a1 = find_symmetric_equilibria(b, EXP_P, s, g)
    a2 = find_symmetric_equilibria(b, EXP_P, s, g)
    assert np.array_equal(a1, a2)
    r1 = grid_best_response(200.0, b, EXP_P, s, g)
    r2 = grid_best_response(200.0, b, EXP_P, s, g)
    assert np.array_equal(r1, r2)


def test_oracle_confirms_upper_subinterval_band():
    # classified [knee, cap] band: grid fixed points stay inside it and
    # reach both ends at grid resolution.  The deviation gain vanishes
    # quadratically at the knee, so the default utility slack would admit
    # points a couple of grid steps below it; pin tol down instead.
    b = Belief(0.56, 0.44)
    g = GridSpec(n_beta=401, n_alpha=201, tol=1e-9)
    found = find_symmetric_equilibria(b, EXP_P, Scenario.EXPONENTIAL_FIXED_HORIZON, g)
    (lo, hi), = classify_exponential(b, EXP_P).intervals
    spacing = symmetric_cap(EXP_P, Scenario.EXPONENTIAL_FIXED_HORIZON) / (g.n_alpha - 1)
    assert len(found) > 10
    assert found[0] >= lo - spacing and found[-1] <= hi + spacing
    assert found[0] <= lo + spacing and found[-1] >= hi - spacing


def test_variable_horizon_beta_grid_contains_window_kinks():
    from pushpull.oracle import _window_kinks
    alpha = 150.0
    kinks = _window_kinks(alpha, VH_P)
    betas = _beta_grid(alpha, VH_P, Scenario.VARIABLE_HORIZON, 120)
    cap = strategy_cap(alpha, VH_P, Scenario.VARIABLE_HORIZON)
    for k in kinks:
        if 0.0 <= k <= cap:
            assert np.min(np.abs(betas - k)) <= 1e-9 * max(1.0, k)


def test_zero_pull_oracle_is_alpha_independent():
    # with no pull audience the population threshold cannot matter
    p = ModelParams(0.2, 0.1, 0.0, 10.0)
    b = Belief(0.7, 0.3)
    g = GridSpec(n_beta=151, n_alpha=101)
    u1 = grid_best_response(0.3, b, p, Scenario.LINEAR_FIXED_HORIZON, g)
    u2 = grid_best_response(1.7, b, p, Scenario.LINEAR_FIXED_HORIZON, g)
    assert u1[0] == u2[0]
    assert abs(u1[-1] - u2[-1]) <= 1e-12
