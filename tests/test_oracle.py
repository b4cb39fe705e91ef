"""Brute-force grid oracle: batched evaluation, best responses, fixed points."""

import dataclasses
import math

import numpy as np
import pytest

from pushpull import (
    Belief,
    GridSpec,
    ModelParams,
    PushKind,
    Quality,
    Scenario,
    activation_time,
    classify_exponential,
    classify_linear,
    decide_rows,
    deviation_sweep,
    find_symmetric_equilibria,
    grid_best_response,
    strategy_cap,
    symmetric_cap,
    utility,
)
from pushpull import oracle
from pushpull.cli import _draw_model
from pushpull.oracle import _COARSE_STRIDE, _SLACK, _rows, alpha_grid
from pushpull.utility import (discontinuity_preimages, utility_terms,
                              window_kinks)

INF = math.inf
ALL_SCENARIOS = list(Scenario)
LIN_S = Scenario.LINEAR_FIXED_HORIZON
EXP_P = ModelParams(0.1, 0.05, 110.0, 8.0, n_pool=1000.0)
VH_P = ModelParams(0.1, 0.05, 110.0, 8.0, n_pool=1000.0, gamma_th=140.0)


def _grid(alpha, p, s, n_beta):
    # the sorted distinct thresholds of one alpha's deviation row
    return np.unique(_rows([alpha], p, s, n_beta)[0])


def _grid_size(alphas, p, s, n_beta):
    # distinct thresholds over all rows: the evaluations of the full grid
    return sum(np.unique(row).size for row in _rows(alphas, p, s, n_beta)[0])


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
    rows, _ = _rows(alphas, p, s, 45)
    batched = utility(np.repeat(alphas, rows.shape[1]), rows.ravel(), b, p, s,
                      enforce_cap=False)
    assert batched.shape == (rows.size,)
    for alpha, row, got in zip(alphas, rows, batched.reshape(rows.shape)):
        # the rows of a batch hold the thresholds of single-alpha rows
        assert np.array_equal(np.unique(row), _grid(alpha, p, s, 45))
        per_alpha = utility(alpha, row, b, p, s, enforce_cap=False)
        # U does not depend on its batch: the two-pass row decision of
        # find_symmetric_equilibria relies on it being bit-equal
        assert np.array_equal(got, per_alpha)
        k = row.size // 2
        one = utility(float(alpha), float(row[k]), b, p, s, enforce_cap=False)
        assert isinstance(one, float)
        assert one == per_alpha[k]


@pytest.mark.parametrize("s", ALL_SCENARIOS)
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
    betas = _grid(alpha, p, s, 150)
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
    # the set is every row threshold within the fixed slack 1e-6 tau of
    # the row maximum: U peaks at alpha, and of the +-eps extras around
    # it the one above trails by 2.5e-9, the one below by 1.3e-5
    p = ModelParams(0.1, 0.01, 150.0, 10.0)
    b = Belief(0.75, 0.25)
    s = Scenario.LINEAR_FIXED_HORIZON
    alpha = 0.05
    g = GridSpec()
    row = _grid(alpha, p, s, g.n_beta)
    us = utility(alpha, row, b, p, s, enforce_cap=False)
    got = grid_best_response(alpha, b, p, s, g)
    assert got.tobytes() == row[us >= us.max() - 1e-6 * p.tau].tobytes()
    eps = 1e-9 * strategy_cap(alpha, p, s)
    assert got.tolist() == [alpha, pytest.approx(alpha + eps, rel=1e-15)]


def test_gridspec_validates_resolution():
    with pytest.raises(ValueError, match="n_beta"):
        GridSpec(n_beta=99)
    with pytest.raises(ValueError, match="n_alpha"):
        GridSpec(n_alpha=99)
    # the slack is the module's rule, not a field
    assert [f.name for f in dataclasses.fields(GridSpec)] == ["n_beta",
                                                             "n_alpha"]
    assert _SLACK == 1e-6


@pytest.mark.parametrize("tol", [math.inf, -math.inf, math.nan, 0.0, -1.0, True])
def test_gridspec_rejects_a_tol_that_is_not_positive_and_finite(tol):
    # no slack is taken from a GridSpec, whatever its value: an infinite
    # one made every grid point tie, and a smaller one was floored
    with pytest.raises(TypeError, match="tol"):
        GridSpec(tol=tol)


def test_sweeps_of_no_thresholds_are_empty():
    p, b, g = params_for(LIN_S), Belief(0.6, 0.4), GridSpec()
    best, own = deviation_sweep([], b, p, LIN_S, g)
    assert best.shape == own.shape == (0,)
    assert decide_rows([], b, p, LIN_S, g.n_beta, 1e-6).shape == (0,)


def test_oracle_finds_the_full_linear_interval():
    p = ModelParams(0.1, 0.01, 150.0, 10.0)
    b = Belief(0.75, 0.25)
    g = GridSpec(n_beta=201, n_alpha=101)
    found = find_symmetric_equilibria(b, p, Scenario.LINEAR_FIXED_HORIZON, g)
    # theorem: every alpha in [0, cap] is an equilibrium here
    assert len(found) == g.n_alpha
    assert found[0] == 0.0
    assert found[-1] == pytest.approx(0.1, rel=1e-12)


def _full_grid_equilibria(belief, p, s, g, tol=None):
    # the decision rule without its two passes: every alpha gets its full
    # row; tol defaults to the slack of find_symmetric_equilibria
    alphas = alpha_grid(p, s, g)
    best, own = deviation_sweep(alphas, belief, p, s, g)
    return alphas[own >= best - (_SLACK * p.tau if tol is None else tol)]


def _decided(belief, p, s, g, tol):
    # find_symmetric_equilibria at another slack
    alphas = alpha_grid(p, s, g)
    return alphas[decide_rows(alphas, belief, p, s, g.n_beta, tol)]


def _families(s, n, seed):
    # verify's random families; TrendViewcountExponential, which verify
    # does not draw, takes the saturating ones of ExponentialFixedHorizon
    rng = np.random.default_rng(seed)
    drawn = (Scenario.EXPONENTIAL_FIXED_HORIZON
             if s is Scenario.TREND_VIEWCOUNT_EXPONENTIAL else s)
    out = [_draw_model(drawn, rng) for _ in range(n)]
    p = params_for(s)
    out.append((Belief(0.6, 0.4),
                ModelParams(p.lambda_ps_g, p.lambda_ps_b, 0.0, p.tau,
                            n_pool=p.n_pool, gamma_th=p.gamma_th)))
    return out


# n_beta - 1 is no multiple of the coarse stride, so the cap is a column
# of its own in every pass-1 row
SCREEN_GRIDS = (100, 201, 317)


@pytest.mark.parametrize("s", ALL_SCENARIOS)
@pytest.mark.parametrize("tol", [1e-3, 1e-9, 1e-12])
def test_screened_sweep_equals_the_full_grid_rule(s, tol):
    for n_beta in SCREEN_GRIDS:
        assert (n_beta - 1) % _COARSE_STRIDE != 0
        g = GridSpec(n_beta=n_beta)
        for belief, p in _families(s, 3, seed=1 + ALL_SCENARIOS.index(s)):
            found = _decided(belief, p, s, g, tol)
            ref = _full_grid_equilibria(belief, p, s, g, tol)
            assert found.tobytes() == ref.tobytes()


@pytest.mark.parametrize("s", ALL_SCENARIOS)
def test_screen_keeps_rows_whose_cap_is_not_positive(s, monkeypatch):
    # such a row is the single threshold 0, which is its own best; the
    # caps are set per alpha value, so both passes see the same rows
    p, belief, g = params_for(s), Belief(0.4, 0.6), GridSpec(n_beta=100)
    alphas = np.linspace(0.0, symmetric_cap(p, s), g.n_alpha)
    zero, negative = alphas[::3], alphas[1::5]
    real = oracle.strategy_cap

    def cap(a, p, s):
        return np.select([np.isin(a, zero), np.isin(a, negative)],
                         [0.0, -1.0], real(a, p, s))

    monkeypatch.setattr(oracle, "strategy_cap", cap)
    found = find_symmetric_equilibria(belief, p, s, g)
    assert found.tobytes() == _full_grid_equilibria(belief, p, s, g).tobytes()
    assert set(zero) | set(negative) <= set(found)


def _count_betas(monkeypatch):
    # thresholds reaching the utility kernel through the oracle, one entry
    # per call
    seen = []
    real = oracle.utility_terms

    def counting(alpha, beta, *args, **kwargs):
        seen.append(np.size(beta))
        return real(alpha, beta, *args, **kwargs)

    monkeypatch.setattr(oracle, "utility_terms", counting)
    return seen


@pytest.mark.parametrize("s, p, belief", [
    (Scenario.EXPONENTIAL_FIXED_HORIZON, EXP_P, Belief(0.4, 0.6)),
    (Scenario.TREND_VIEWCOUNT_EXPONENTIAL, EXP_P, Belief(0.4, 0.6)),
    (Scenario.LINEAR_FIXED_HORIZON, ModelParams(0.2, 0.1, 1.0, 10.0),
     Belief(0.9, 0.1)),
])
def test_screen_evaluates_few_points_when_the_set_is_an_end(s, p, belief,
                                                           monkeypatch):
    # the set is {0} or {cap}: nearly every row is rejected by pass 1,
    # so a silent fall-back to full rows fails here
    g = GridSpec()
    alphas = np.linspace(0.0, symmetric_cap(p, s), g.n_alpha)
    full = _grid_size(alphas, p, s, g.n_beta)
    seen = _count_betas(monkeypatch)
    found = find_symmetric_equilibria(belief, p, s, g)
    assert found.tolist() in ([0.0], [alphas[-1]])
    assert 1 <= len(seen) <= 2
    assert sum(seen) <= 0.3 * full


def test_screen_keeps_every_row_of_the_linear_tie(monkeypatch):
    # every alpha ties (test_oracle_finds_the_full_linear_interval), so
    # every row survives pass 1; the bound certifies most of each row, so
    # pass 2 evaluates a fraction of the full grid
    p, b, g = ModelParams(0.1, 0.01, 150.0, 10.0), Belief(0.75, 0.25), GridSpec()
    s = Scenario.LINEAR_FIXED_HORIZON
    alphas = np.linspace(0.0, symmetric_cap(p, s), g.n_alpha)
    seen = _count_betas(monkeypatch)
    found = find_symmetric_equilibria(b, p, s, g)
    assert found.tobytes() == alphas.tobytes()
    monkeypatch.undo()
    assert found.tobytes() == _full_grid_equilibria(b, p, s, g).tobytes()
    assert sum(seen) <= 0.25 * _grid_size(alphas, p, s, g.n_beta)


def test_row_extras_reject_trend_exp_rows_in_pass_1(monkeypatch):
    # every rejected row of this family has its maximum at a row extra
    # (a discontinuity preimage +-eps), never on the linspace; pass 1
    # holds the extras, so only the admitted rows and a few others reach
    # pass 2
    p, b, g = EXP_P, Belief(0.75, 0.25), GridSpec()
    s = Scenario.TREND_VIEWCOUNT_EXPONENTIAL
    calls = []
    real = oracle.utility_terms

    def recording(alpha, beta, *args, **kwargs):
        calls.append(np.asarray(alpha))
        return real(alpha, beta, *args, **kwargs)

    monkeypatch.setattr(oracle, "utility_terms", recording)
    found = find_symmetric_equilibria(b, p, s, g)
    monkeypatch.undo()
    assert found.tobytes() == _full_grid_equilibria(b, p, s, g).tobytes()
    assert len(calls) <= 2
    assert sum(np.unique(a).size for a in calls[1:]) <= 4


@pytest.mark.parametrize("s", ALL_SCENARIOS)
def test_gain_and_cost_are_monotone_between_discontinuities(s):
    # the premise of the interval bound in oracle.decide_rows: on dense
    # rows, each term is monotone (either way) between consecutive
    # discontinuity preimages, and U is their weighted difference
    for belief, p in _families(s, 3, seed=11 + ALL_SCENARIOS.index(s)):
        for alpha in np.linspace(0.0, symmetric_cap(p, s), 9):
            cap = strategy_cap(alpha, p, s)
            if not cap > 0.0:
                continue
            betas = np.linspace(0.0, cap, 4001)
            gain, cost = utility_terms(alpha, betas, p, s)
            u = utility(alpha, betas, belief, p, s, enforce_cap=False)
            assert np.array_equal(u, belief.pi_g * gain - belief.pi_b * cost)
            d = discontinuity_preimages(alpha, p, s)
            d = np.sort(d[~np.isnan(d)])
            # points on a preimage belong to neither side
            piece = np.searchsorted(d, betas)
            off = ~np.isin(betas, d)
            for k in np.unique(piece):
                for x in (gain, cost):
                    step = np.diff(x[(piece == k) & off])
                    assert np.all(step >= 0.0) or np.all(step <= 0.0)


def _synthetic_gain_cost(rule, caps, beta, belief, n_beta):
    # terms on column coordinates x = beta / grid step; the coarse points
    # of pass 1 are the columns 0, 16, 32, ...
    x = beta / (caps / (n_beta - 1))
    k = belief.pi_g / belief.pi_b
    if rule == "bound":
        # both terms fall on [32, 48]: U = pi_G (g - g^2) peaks at x = 40,
        # above both ends, which only max(gain) - min(cost) bounds
        gain = np.clip((48.0 - x) / 16.0, 0.0, 1.0)
        return gain, k * gain ** 2
    if rule == "discontinuity":
        # zero up to the jump at x = 40, then the same hump on (40, 48]:
        # the ends of [32, 48] bound nothing across the jump
        gain = np.where(x > 40.0, np.clip((48.0 - x) / 8.0, 0.0, 1.0), 0.0)
        return gain, k * gain ** 2
    # "slack": flat zero but for a rise of 5e-12 at column 1, above tol
    # and below the slack of 1e-12 * tau that absorbs rounding
    gain = np.where(beta == caps / (n_beta - 1), 5e-12 / belief.pi_g, 0.0)
    return gain, np.zeros_like(gain)


@pytest.mark.parametrize("rule", ["bound", "discontinuity", "slack"])
def test_certificate_needs_each_of_its_rules(rule, monkeypatch):
    # synthetic terms on which dropping one rule of the pass-2 certificate
    # (the mixed max/min bound, opening intervals around a discontinuity,
    # the slack below own + tol) admits rows the full grid rejects; the
    # rows at alpha 0 pay 0 against a hump or a rise inside [0, cap]
    s = Scenario.LINEAR_FIXED_HORIZON
    p, b, g = params_for(s), Belief(0.75, 0.25), GridSpec()
    tol = 1e-12 if rule == "slack" else 1e-3
    assert 1e-12 < 5e-12 < oracle._CERTIFY_SLACK * p.tau

    def terms(alpha, beta, p, s):
        caps = strategy_cap(np.asarray(alpha, dtype=float), p, s)
        return _synthetic_gain_cost(rule, caps, np.asarray(beta, dtype=float),
                                    b, g.n_beta)

    def u(alpha, beta, belief, p, s, enforce_cap=True):
        gain, cost = terms(alpha, beta, p, s)
        return belief.pi_g * gain - belief.pi_b * cost

    monkeypatch.setattr(oracle, "utility_terms", terms)
    monkeypatch.setattr(oracle, "utility", u)
    if rule == "discontinuity":
        monkeypatch.setattr(oracle, "discontinuity_preimages",
                            lambda a, p, s: (40 * (strategy_cap(a, p, s)
                                                   / (g.n_beta - 1)))[None])
    found = _decided(b, p, s, g, tol)
    ref = _full_grid_equilibria(b, p, s, g, tol)
    assert found.tobytes() == ref.tobytes()
    assert 0.0 not in ref


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
    # quadratically at the knee, so the fixed slack would admit points a
    # couple of grid steps below it; decide the rows at 1e-9 instead.
    b = Belief(0.56, 0.44)
    g = GridSpec(n_beta=401, n_alpha=201)
    found = _decided(b, EXP_P, Scenario.EXPONENTIAL_FIXED_HORIZON, g, 1e-9)
    (lo, hi), = classify_exponential(b, EXP_P).intervals
    spacing = symmetric_cap(EXP_P, Scenario.EXPONENTIAL_FIXED_HORIZON) / (g.n_alpha - 1)
    assert len(found) > 10
    assert found[0] >= lo - spacing and found[-1] <= hi + spacing
    assert found[0] <= lo + spacing and found[-1] >= hi - spacing


def test_variable_horizon_beta_grid_contains_window_kinks():
    alpha = 150.0
    kinks = window_kinks(alpha, VH_P)
    betas = _grid(alpha, VH_P, Scenario.VARIABLE_HORIZON, 120)
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


def _scalar_row(alpha, p, s, n_beta):
    # reference: one row from scalar calls, the extras gathered one alpha
    # at a time as the rows were built before the extras became columns
    cap = strategy_cap(alpha, p, s)
    if cap <= 0.0:
        return np.array([0.0])
    eps = 1e-9 * max(cap, 1e-9)
    extra = [min(alpha, cap)]
    if s is Scenario.VARIABLE_HORIZON:
        extra.extend(window_kinks(alpha, p))
    for d in discontinuity_preimages(alpha, p, s).tolist():
        if not math.isnan(d):
            extra.extend((d - eps, d, d + eps))
    row = np.concatenate([np.linspace(0.0, cap, n_beta), extra])
    return np.unique(np.clip(row, 0.0, cap))


def _row_alphas(p, s):
    cap = strategy_cap(INF, p, s)
    alphas = [0.0, 0.4 * cap, cap]
    if s.push is PushKind.EXPONENTIAL_SATURATING:
        alphas.append(1.5 * p.n_pool)
    return np.array(alphas)


@pytest.mark.parametrize("s", ALL_SCENARIOS)
def test_beta_rows_equal_scalar_row_reference(s):
    p = params_for(s)
    alphas = _row_alphas(p, s)
    rows, k = _rows(alphas, p, s, 45)
    coarse, _ = _rows(alphas, p, s, 45, _COARSE_STRIDE)
    for alpha, row, sub in zip(alphas, rows, coarse):
        ref = _scalar_row(float(alpha), p, s, 45)
        assert np.unique(row).tobytes() == ref.tobytes()
        # the strided row keeps the cap and the extras of the full one
        assert np.all(np.isin(sub, ref)) and sub.max() == ref[-1]
        own = min(alpha, strategy_cap(alpha, p, s)) if ref[-1] > 0.0 else 0.0
        assert row[k] == own


@pytest.mark.parametrize("s", ALL_SCENARIOS)
@pytest.mark.parametrize("no_pull", [False, True])
def test_strategy_cap_on_arrays_equals_scalar_loop(s, no_pull):
    p = params_for(s)
    if no_pull:
        p = ModelParams(p.lambda_ps_g, p.lambda_ps_b, 0.0, p.tau,
                        n_pool=p.n_pool, gamma_th=p.gamma_th)
    alphas = _row_alphas(p, s)
    caps = strategy_cap(alphas, p, s)
    one = [strategy_cap(float(a), p, s) for a in alphas]
    assert isinstance(caps, np.ndarray)
    assert all(isinstance(c, float) for c in one)
    assert caps.tobytes() == np.array(one).tobytes()


@pytest.mark.parametrize("belief, at_zero", [(Belief(0.4, 0.6), False),
                                             (Belief(0.75, 0.25), True)])
def test_trend_exp_own_threshold_payoff_is_exact(belief, at_zero):
    # with the population at alpha the deviator playing alpha crosses
    # exactly at each quality's activation: y(ta-) = alpha, not a value
    # recomputed from ta that rounding puts on either side of the jump
    s = Scenario.TREND_VIEWCOUNT_EXPONENTIAL
    cap = symmetric_cap(EXP_P, s)
    alphas = np.linspace(0.0, cap, 62)[1:-1]
    ref = []
    for a in alphas.tolist():
        ta_g, ta_b = (activation_time(a, q, EXP_P, s.push, s.metric)
                      for q in Quality)
        ref.append(belief.pi_g * max(EXP_P.tau - ta_g, 0.0)
                   - belief.pi_b * max(EXP_P.tau - ta_b, 0.0))
        assert utility(a, a, belief, EXP_P, s) == ref[-1]
    assert utility(alphas, alphas, belief, EXP_P, s).tolist() == ref
    # so the grid fixed points no longer scatter with the resolution
    for n_alpha in (101, 401):
        found = find_symmetric_equilibria(belief, EXP_P, s,
                                          GridSpec(n_alpha=n_alpha))
        assert found.tolist() == ([0.0, cap] if at_zero else [cap])
