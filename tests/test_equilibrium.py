"""Closed-form symmetric-equilibrium classification for every scenario."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pushpull import (
    Belief,
    BestResponse,
    BestResponseKind,
    EquilibriumError,
    EquilibriumKind,
    EquilibriumSet,
    GridSpec,
    InfiniteHorizonError,
    ModelParams,
    Scenario,
    UtilityError,
    check_equilibrium_set,
    classify,
    classify_exponential,
    classify_linear,
    classify_side_info,
    classify_variable_horizon,
    find_symmetric_equilibria,
    make_report,
    side_info_lambda_pu_s,
    strategy_cap,
    symmetric_cap,
    utility,
)
from pushpull.cli import _draw_model
from pushpull.equilibrium import pull_ratio
from pushpull.utility import reduce_scenario

INF = math.inf


def equilibrium_candidates(es):
    """Representative alphas of a classified set: points plus interval
    endpoints and midpoints."""
    out = list(es.points)
    for lo, hi in es.intervals:
        out.extend((lo, 0.5 * (lo + hi), hi))
    return out


def assert_sound(es, belief, p, s, n_beta=2000):
    """Every classified alpha must be a grid fixed point."""
    g = GridSpec(n_beta=n_beta, n_alpha=101)
    tol = 1e-6 * p.tau
    for alpha in equilibrium_candidates(es):
        betas = np.linspace(0.0, strategy_cap(alpha, p, s), g.n_beta)
        us = utility(alpha, betas, belief, p, s)
        u_self = utility(alpha, alpha, belief, p, s)
        assert u_self >= us.max() - tol, f"alpha={alpha} loses to a deviation"


# -- linear -------------------------------------------------------------------

def test_linear_certain_good_puts_everyone_at_zero():
    es = classify_linear(Belief(1.0, 0.0), ModelParams(0.2, 0.1, 1.0, 10.0))
    assert es.kind is EquilibriumKind.FINITE_POINTS
    assert es.points == (0.0,)


def test_linear_middle_case_is_a_full_interval():
    p = ModelParams(0.1, 0.01, 150.0, 10.0)
    b = Belief(0.75, 0.25)
    es = classify_linear(b, p)
    assert es.kind is EquilibriumKind.INTERVAL
    assert es.intervals == ((0.0, 0.1),)
    assert_sound(es, b, p, Scenario.LINEAR_FIXED_HORIZON)


def test_linear_last_case_is_the_cap():
    p = ModelParams(0.1, 0.1, 0.1, 10.0)
    b = Belief(0.2, 0.8)
    es = classify_linear(b, p)
    assert es.kind is EquilibriumKind.FINITE_POINTS
    assert es.points == (1.0,)
    assert_sound(es, b, p, Scenario.LINEAR_FIXED_HORIZON)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.05, max_value=0.95),
       st.floats(min_value=0.02, max_value=0.4),
       st.floats(min_value=0.25, max_value=1.0),
       st.floats(min_value=0.0, max_value=10.0),
       st.floats(min_value=2.0, max_value=20.0))
def test_linear_classification_is_sound(pi_g, lg, frac, lpu, tau):
    b = Belief(pi_g, 1.0 - pi_g)
    p = ModelParams(lg, lg * frac, lpu, tau)
    es = classify_linear(b, p)
    assert es.kind in (EquilibriumKind.FINITE_POINTS, EquilibriumKind.INTERVAL)
    assert_sound(es, b, p, Scenario.LINEAR_FIXED_HORIZON, n_beta=400)


# -- exponential, fixed horizon -------------------------------------------------

EXP_P = ModelParams(0.1, 0.05, 110.0, 8.0, n_pool=1000.0)
EXP_CAP = 329.67995396436066  # 1000*(1 - exp(-0.05*8))


def test_exponential_pessimistic_belief_settles_at_cap():
    es = classify_exponential(Belief(0.4, 0.6), EXP_P)
    assert es.kind is EquilibriumKind.FINITE_POINTS
    assert es.case == "i"
    assert es.points == (EXP_CAP,)
    assert dict(es.aux)["beta_tau_b"] == pytest.approx(EXP_CAP, rel=1e-12)
    assert_sound(es, Belief(0.4, 0.6), EXP_P, Scenario.EXPONENTIAL_FIXED_HORIZON)


def test_exponential_middle_band_is_a_full_interval():
    b = Belief(0.62, 0.38)
    es = classify_exponential(b, EXP_P)
    assert es.case == "ii-a"
    assert es.kind is EquilibriumKind.INTERVAL
    assert es.intervals == ((0.0, EXP_CAP),)
    assert_sound(es, b, EXP_P, Scenario.EXPONENTIAL_FIXED_HORIZON)


def test_exponential_upper_subinterval_with_closed_form_knee():
    b = Belief(0.56, 0.44)
    es = classify_exponential(b, EXP_P)
    assert es.case == "ii-b"
    assert es.kind is EquilibriumKind.INTERVAL
    (lo, hi), = es.intervals
    # knee: n - lambda_pu*(pi_g - pi_b)/(pi_b*lambda_g - pi_g*lambda_b)
    knee = 1000.0 - 110.0 * 0.12 / (0.44 * 0.1 - 0.56 * 0.05)
    assert knee == pytest.approx(175.0, rel=1e-9)
    assert lo == pytest.approx(knee, rel=1e-9)
    assert hi == pytest.approx(EXP_CAP, rel=1e-12)
    assert_sound(es, b, EXP_P, Scenario.EXPONENTIAL_FIXED_HORIZON)


def test_exponential_confident_belief_rushes_to_zero():
    p = ModelParams(0.2, 0.05, 220.0, 10.0, n_pool=1000.0)
    es = classify_exponential(Belief(0.9, 0.1), p)
    assert es.case == "iii-a"
    assert es.points == (0.0,)
    assert_sound(es, Belief(0.9, 0.1), p, Scenario.EXPONENTIAL_FIXED_HORIZON)


def test_exponential_knife_edge_tie_reports_both_extremes():
    # pi_g/pi_b == lambda_g/lambda_b == 4 exactly, which makes the
    # below-alpha utility branch exactly flat: the printed answer is the
    # two extremes, and each is a genuine fixed point. Completeness is
    # not asserted here because on this measure-zero tie the whole
    # segment [0, cap] consists of equally good fixed points.
    b = Belief(0.8, 0.2)
    p = ModelParams(0.2, 0.05, 220.0, 10.0, n_pool=1000.0)
    es = classify_exponential(b, p)
    assert es.case == "iii-b"
    assert es.kind is EquilibriumKind.FINITE_POINTS
    assert es.points == (0.0, pytest.approx(393.46934028736655, rel=1e-12))
    assert_sound(es, b, p, Scenario.EXPONENTIAL_FIXED_HORIZON)


def test_exponential_rejects_violated_hypotheses():
    b = Belief(0.5, 0.5)
    with pytest.raises(EquilibriumError, match="lambda_ps"):
        classify_exponential(b, ModelParams(0.1, 0.1, 150.0, 8.0, n_pool=1000.0))
    with pytest.raises(EquilibriumError, match="lambda_pu"):
        classify_exponential(b, ModelParams(0.1, 0.05, 50.0, 8.0, n_pool=1000.0))


# -- variable horizon -----------------------------------------------------------

VH_P = ModelParams(0.1, 0.05, 110.0, 8.0, n_pool=1000.0, gamma_th=140.0)


def test_variable_horizon_settles_at_the_window_cap():
    es = classify_variable_horizon(Belief(0.4, 0.6), VH_P)
    assert es.kind is EquilibriumKind.FINITE_POINTS
    assert es.case == "cap-only"
    assert es.points == (pytest.approx(EXP_CAP, rel=1e-12),)
    aux = dict(es.aux)
    # the bad window outlives the lifetime here, so both cap symbols agree
    assert aux["tau1_g"] == pytest.approx(12.03972804325936, rel=1e-12)
    assert aux["tau1_b"] == pytest.approx(10.216512475319814, rel=1e-12)
    assert aux["tau1_b"] > VH_P.tau
    assert aux["beta_tau1_b"] == aux["beta_tau_b"]
    assert_sound(es, Belief(0.4, 0.6), VH_P, Scenario.VARIABLE_HORIZON)


def test_variable_horizon_oracle_matches_classified_point():
    b = Belief(0.4, 0.6)
    g = GridSpec(n_beta=301, n_alpha=121)
    found = find_symmetric_equilibria(b, VH_P, Scenario.VARIABLE_HORIZON, g)
    es = classify_variable_horizon(b, VH_P)
    spacing = EXP_CAP / (g.n_alpha - 1)
    assert len(found) >= 1
    assert all(abs(a - es.points[0]) <= spacing + 1e-9 for a in found)


def test_variable_horizon_short_bad_window_regression():
    # the deviation optimum hugs the window-death kink here; a plain
    # uniform beta grid used to certify spurious fixed points below cap
    b = Belief(0.5111440821348444, 0.4888559178651556)
    p = ModelParams(0.09828882550343437, 0.0738766054364869,
                    324.9572741502501, 27.473702195894383,
                    n_pool=2486.8620207150425, gamma_th=496.336244769147)
    es = classify_variable_horizon(b, p)
    assert es.kind is EquilibriumKind.FINITE_POINTS
    assert es.points == (pytest.approx(167.06173202643166, rel=1e-9),)
    g = GridSpec(n_beta=161, n_alpha=121)
    found = find_symmetric_equilibria(b, p, Scenario.VARIABLE_HORIZON, g)
    spacing = 167.06173202643166 / (g.n_alpha - 1)
    assert found
    assert all(abs(a - es.points[0]) <= spacing + 1e-9 for a in found)


def test_variable_horizon_degenerate_bad_window_keeps_zero():
    # gamma so high the bad content is never trending: tau1(B) < 0
    p = ModelParams(0.1, 0.05, 100.0, 8.0, n_pool=1000.0, gamma_th=200.0)
    es = classify_variable_horizon(Belief(0.4, 0.6), p)
    assert es.case == "degenerate-window"
    assert es.points == (0.0,)
    assert dict(es.aux)["tau1_b"] < 0.0


def test_variable_horizon_degenerate_window_boundary():
    # tau1(B) = ln(lam_B n/(gamma - lam_pu))/lam_B = ln(128/128)/0.125 is
    # 0.0 exactly at gamma 448 and ~0.063 one unit below (FAMILIES)
    for gamma in (447.0, 448.0, 449.0):
        p = _sat(0.25, 0.125, 320.0, 8.0, 1024.0, gamma)
        t1b = dict(classify_variable_horizon(Belief(0.5, 0.5), p).aux)["tau1_b"]
        assert np.sign(t1b) == np.sign(448.0 - gamma)
        assert abs(t1b) < 0.07


def test_variable_horizon_guard_order_and_messages():
    b = Belief(0.4, 0.6)
    with pytest.raises(EquilibriumError, match="gamma_th is required"):
        classify_variable_horizon(b, ModelParams(0.1, 0.05, 110.0, 8.0,
                                                 n_pool=1000.0))
    with pytest.raises(InfiniteHorizonError, match="never closes"):
        classify_variable_horizon(b, ModelParams(0.1, 0.05, 150.0, 8.0,
                                                 n_pool=1000.0, gamma_th=140.0))
    with pytest.raises(EquilibriumError, match="lambda_ps"):
        classify_variable_horizon(b, ModelParams(0.1, 0.1, 110.0, 8.0,
                                                 n_pool=1000.0, gamma_th=140.0))


# -- side information -----------------------------------------------------------

SI_P = ModelParams(0.2, 0.1, 1.0, 10.0)
SI_B = Belief(0.75, 0.25)


def test_side_info_interval_regime_worked_example():
    es, diag = classify_side_info(SI_B, SI_P)
    assert diag.lambda_pu_s == pytest.approx(-0.05, rel=1e-12)
    assert diag.L == pytest.approx(0.1)
    assert diag.x == pytest.approx(1.2)
    assert es.kind is EquilibriumKind.INTERVAL
    assert es.case == "interval-regime"
    (lo, hi), = es.intervals
    assert lo == 0.0
    assert hi == pytest.approx(0.27142857142857146, rel=1e-12)
    assert hi == diag.beta1
    assert diag.mu_positive
    assert_sound(es, SI_B, SI_P, Scenario.SIDE_INFORMATION)


def test_side_info_without_pull_collapses_the_bracket():
    es, diag = classify_side_info(SI_B, ModelParams(0.2, 0.1, 0.0, 10.0))
    assert diag.beta1 == pytest.approx(diag.beta2, rel=1e-12)
    # both peaks sit below zero here, so membership falls back to the
    # endpoint check and keeps the early-access equilibrium
    assert es.case == "endpoint-regime"
    assert es.points == (0.0,)


def test_side_info_uniform_belief_reports_singular_rate():
    # the singular pull rate is undefined at pi_g == pi_b; classification
    # proceeds as if above it instead of dividing by zero
    es, diag = classify_side_info(Belief(0.5, 0.5), SI_P)
    assert math.isnan(diag.lambda_pu_s)
    assert diag.as_dict()["lambda_pu_s"] is None
    assert es.case in ("interval-regime", "endpoint-regime")
    assert es.kind in (EquilibriumKind.FINITE_POINTS, EquilibriumKind.INTERVAL)


def test_side_info_pull_sweep_flips_the_kind():
    b = Belief(2.0 / 3.0, 1.0 / 3.0)
    lo_kinds = set()
    hi_kinds = set()
    for lpu in (0.02, 0.05, 0.08):
        es, diag = classify_side_info(b, ModelParams(0.2, 0.05, lpu, 10.0))
        assert diag.lambda_pu_s == pytest.approx(0.1, rel=1e-12)
        lo_kinds.add((es.kind, es.points))
    for lpu in (0.12, 0.3, 1.0):
        es, _ = classify_side_info(b, ModelParams(0.2, 0.05, lpu, 10.0))
        hi_kinds.add((es.kind, es.intervals))
    assert lo_kinds == {(EquilibriumKind.FINITE_POINTS, (0.0,))}
    assert hi_kinds == {(EquilibriumKind.INTERVAL, ((0.0, 0.125),))}


def test_side_info_full_cap_bracket_is_the_documented_exception():
    """Inside the band d_G/d_B <= rho <= lambda_G/lambda_B (d_q = lambda_q
    + lambda_pu) the printed form can emit the whole strategy space even
    though the grid only certifies zero. The band is closed at the push
    ratio; at the pull ratio it depends on the family (FAMILIES)."""
    s = Scenario.SIDE_INFORMATION
    b = Belief(2.0 / 3.0, 1.0 / 3.0)
    p = ModelParams(0.2, 0.05, 1.0, 10.0)
    assert (0.2 + 1.0) / (0.05 + 1.0) < 2.0 < 0.2 / 0.05
    es, _ = classify_side_info(b, p)
    cap = 0.5 * (0.05 * 10.0) ** 2
    assert es.intervals == ((0.0, cap),)
    found = find_symmetric_equilibria(b, p, s,
                                      GridSpec(n_beta=401, n_alpha=161))
    assert len(found) > 0
    assert max(found) <= cap / 160 + 1e-12
    # the singularity lambda_pu_s is the band's pull edge (FAMILIES)
    assert side_info_lambda_pu_s(Belief(0.625, 0.375),
                                 ModelParams(0.375, 0.125, 0.25, 4.0)) == 0.25


def test_side_info_mu_positive_with_unfavorable_belief():
    # pi_g < pi_b forces beta1 >= cap, with equality only at equal push
    # rates, so that is where the printed positive-measure test bites
    es, diag = classify_side_info(Belief(0.3, 0.7),
                                  ModelParams(0.2, 0.2, 0.5, 10.0))
    cap = 0.5 * (0.2 * 10.0) ** 2
    assert diag.beta1 == pytest.approx(cap, rel=1e-12)
    assert diag.mu_positive
    es2, diag2 = classify_side_info(Belief(0.3, 0.7), SI_P)
    assert diag2.beta1 > 0.5
    assert not diag2.mu_positive


# -- dispatcher and reports -------------------------------------------------------

def test_classify_dispatcher_covers_all_closed_forms():
    b = Belief(0.75, 0.25)
    p_lin = ModelParams(0.1, 0.01, 150.0, 10.0)
    es, diag = classify(Scenario.LINEAR_FIXED_HORIZON, b, p_lin)
    assert diag is None
    assert es.intervals == classify_linear(b, p_lin).intervals
    es, _ = classify(Scenario.EXPONENTIAL_FIXED_HORIZON, Belief(0.4, 0.6), EXP_P)
    assert es.points == classify_exponential(Belief(0.4, 0.6), EXP_P).points
    es, _ = classify(Scenario.VARIABLE_HORIZON, Belief(0.4, 0.6), VH_P)
    assert es.points == classify_variable_horizon(Belief(0.4, 0.6), VH_P).points
    es, diag = classify(Scenario.SIDE_INFORMATION, SI_B, SI_P)
    want, _ = classify_side_info(SI_B, SI_P)
    assert es.intervals == want.intervals
    assert diag is not None


def test_classify_trend_linear_matches_squared_rate_classification():
    b = Belief(0.75, 0.25)
    p = ModelParams(0.4, 0.1, 12.0, 10.0)
    p_sq = ModelParams(0.4 ** 2, 0.1 ** 2, 12.0 ** 2, 10.0)
    got, _ = classify(Scenario.TREND_VIEWCOUNT_LINEAR, b, p)
    want = classify_linear(b, p_sq)
    assert got.kind is want.kind
    assert got.points == want.points
    assert got.intervals == want.intervals


def test_classify_trend_exponential_has_no_closed_form():
    with pytest.raises(UtilityError, match="grid oracle"):
        classify(Scenario.TREND_VIEWCOUNT_EXPONENTIAL, Belief(0.5, 0.5),
                 ModelParams(0.1, 0.05, 150.0, 10.0, n_pool=1000.0))


def test_equilibrium_set_membership_and_dict():
    es = classify_linear(SI_B, ModelParams(0.1, 0.01, 150.0, 10.0))
    assert es.contains(0.05, 1e-9)
    assert es.contains(0.1, 1e-9)
    assert not es.contains(0.11, 1e-9)
    d = es.as_dict()
    assert d["kind"] == "Interval"
    assert d["intervals"] == [[0.0, 0.1]]
    es2 = classify_exponential(Belief(0.4, 0.6), EXP_P)
    assert es2.contains(EXP_CAP, 1e-9)
    assert not es2.contains(0.0, 1e-9)


@pytest.mark.parametrize("made, kind", [
    pytest.param(*row[1:], id=row[0]) for row in [
        ("empty", EquilibriumSet(case="endpoint-regime"),
         EquilibriumKind.EMPTY),
        ("points", EquilibriumSet(points=(0.0, 1.0)),
         EquilibriumKind.FINITE_POINTS),
        ("interval", EquilibriumSet(points=(0.0,), intervals=((0.5, 1.0),)),
         EquilibriumKind.INTERVAL),
        ("point", BestResponse((0.5,), (), 1.0), BestResponseKind.POINT),
        ("pair", BestResponse((0.0, 1.0), (), 1.0),
         BestResponseKind.EXTREMAL_PAIR),
        ("three-values", BestResponse((0.0, 0.5, 1.0), (), 1.0),
         BestResponseKind.INTERVAL_OF_OPTIMA),
        ("segment", BestResponse((0.0, 1.0), ((0.0, 1.0),), 1.0),
         BestResponseKind.INTERVAL_OF_OPTIMA)]])
def test_a_set_kind_is_read_off_the_set(made, kind):
    assert made.kind is kind
    assert made.as_dict()["kind"] == kind.value


@pytest.mark.parametrize("point", [-0.01, math.nan])
@pytest.mark.parametrize("s", [s for s in Scenario
                               if s is not Scenario.TREND_VIEWCOUNT_EXPONENTIAL])
def test_verdict_fails_a_point_outside_the_strategy_space(s, point):
    # a negative or NaN point has no cap: the verdict says so, where the
    # cap it had evaluated first raised instead
    b, p = _draw_model(s, np.random.default_rng(0))
    eq = EquilibriumSet(points=(point,))
    assert check_equilibrium_set(eq, b, p, s, GridSpec()) == \
        f"classified point {point:.6g} lies outside its strategy space"


def test_report_is_json_ready_and_complete():
    es = classify_variable_horizon(Belief(0.4, 0.6), VH_P)
    rep = make_report(Scenario.VARIABLE_HORIZON, Belief(0.4, 0.6), VH_P, es,
                      oracle_checked=True)
    assert rep["scenario"] == "VariableHorizon"
    assert rep["params"]["n_pool"] == 1000.0
    assert rep["params"]["gamma_th"] == 140.0
    assert rep["belief"] == {"pi_g": 0.4, "pi_b": 0.6}
    assert rep["kind"] == "FinitePoints"
    assert rep["points"] == [pytest.approx(EXP_CAP, rel=1e-12)]
    assert rep["oracle_checked"] is True
    assert rep["case"] == "cap-only"
    assert "diagnostics" not in rep or rep["diagnostics"] is None
    import json
    json.dumps(rep)  # must not raise

    es_si, diag = classify_side_info(SI_B, SI_P)
    rep_si = make_report(Scenario.SIDE_INFORMATION, SI_B, SI_P, es_si, diag)
    assert rep_si["diagnostics"]["lambda_pu_s"] == pytest.approx(-0.05)
    assert rep_si["oracle_checked"] is False
    assert "gamma_th" not in rep_si["params"]
    json.dumps(rep_si)


# -- boundary families against the oracle's verdict ---------------------------
#
# A row: scenario, params, belief, the ratio that pi_G/pi_B equals bit for
# bit on the reduced params (a row without a belief is put on it), case,
# printed set (eq.intervals or eq.points, "cap" for symmetric_cap), verdict.

RATIOS = {
    "push": lambda p, cap: p.lambda_ps_g / p.lambda_ps_b,
    "pull": lambda p, cap: ((p.lambda_ps_g + p.lambda_pu)
                            / (p.lambda_ps_b + p.lambda_pu)),
    "R(0)": lambda p, cap: pull_ratio(0.0, p.n_pool, p),
    "R(cap)": lambda p, cap: pull_ratio(cap, p.n_pool, p),
}
LFH, EFH = Scenario.LINEAR_FIXED_HORIZON, Scenario.EXPONENTIAL_FIXED_HORIZON
VH, SI = Scenario.VARIABLE_HORIZON, Scenario.SIDE_INFORMATION
TVL = Scenario.TREND_VIEWCOUNT_LINEAR
P, FULL = ModelParams, ((0.0, "cap"),)


def _sat(lg, lb, lpu, tau, n, gamma=None):
    return P(lg, lb, lpu, tau, n_pool=n, gamma_th=gamma)


def _gap(point, gap):
    return f"classified point {point} is not a grid best response (gap {gap})"


def _belief_at_ratio(rho):
    # a belief whose pi_G/pi_B rounds to rho exactly: pi_B at 1/(1 + rho)
    # or a few doubles below it, pi_G = rho pi_B or 1 - pi_B
    pib = 1.0 / (1.0 + rho)
    for _ in range(8):
        for pig in (rho * pib, 1.0 - pib):
            if pig / pib == rho:
                return pig, pib
        pib = np.nextafter(pib, 0.0)
    raise AssertionError(f"no belief at ratio {rho!r}")


# rho at the push ratio flattens the lower branch (to 0 in the first row):
# case ii, the whole [0, cap]
PUSH_TIES = [
    ("lin-push-tie-equal-rates", LFH, (0.1, 0.1, 0.5, 10.0), (0.5, 0.5)),
    *[(f"lin-push-tie-pull-{lpu:g}", LFH, (0.375, 0.125, lpu, 8.0),
       (0.75, 0.25)) for lpu in (0.0, 0.5, 1.0)],
    ("lin-push-tie-rho-7", LFH, (0.875, 0.125, 0.125, 8.0), (0.875, 0.125)),
    ("trend-lin-push-tie", TVL, (0.5, 0.25, 1.0, 8.0), (0.8, 0.2)),
]
VH_384 = _sat(0.25, 0.125, 320.0, 8.0, 1024.0, 384.0)
SI_3, LPU_S = (0.375, 0.125), 0.25  # lambda_pu_s at belief 0.625/0.375
FAMILIES = [pytest.param(*r[1:], id=r[0]) for r in [
    *[(id, s, P(*rates), b, "push", "ii", FULL, None)
      for id, s, rates, b in PUSH_TIES],
    # and at the pull ratio the upper one
    ("lin-pull-tie", LFH, P(0.875, 0.125, 0.125, 8.0), (0.8, 0.2), "pull",
     "ii", FULL, None),
    # R(0) = 640/384, which 0.625/0.375 rounds to: the lower end leaves 0
    *[(f"{tag}-R0-tie-tau-{tau:g}", s, _sat(0.28125, 0.03125, 352.0, tau,
                                            1024.0, gamma),
       (0.625, 0.375), "R(0)", case, FULL, None)
      for tag, s, gamma, case in [("exp", EFH, None, "ii-a"),
                                  ("vh", VH, 368.0, "interval-window")]
      for tau in (8.0, 2.0)],
    # R(cap) = 448/384 = 7/6 at the window cap 512; at the exponential cap
    # 1024 (1 - e^-1), not dyadic, [alpha_bar, cap] degenerates to the cap
    ("vh-push-ratio", VH, VH_384, _belief_at_ratio(2.0), "push",
     "interval-full", ((0.0, 512.0),), None),
    ("vh-R-cap", VH, VH_384, _belief_at_ratio(7.0 / 6.0), "R(cap)",
     "interval-pull", ((pytest.approx(512.0, rel=1e-12), 512.0),), None),
    ("exp-R-cap", EFH, _sat(0.25, 0.125, 320.0, 8.0, 1024.0), None,
     "R(cap)", "ii-b", ((-1024.0 * np.expm1(-1.0),) * 2,), None),
    # tau1(B) = 0 at gamma 448: the bad window is empty from there up
    *[(f"vh-window-gamma-{gamma:g}-pi_g-{b[0]:g}", VH,
       _sat(0.25, 0.125, 320.0, 8.0, 1024.0, gamma), b, None, case,
       {"degenerate-window": (0.0,), "cap-only": ("cap",),
        "interval-full": FULL}[case], None)
      for gamma, cases in [(448.0, ["degenerate-window"] * 3),
                           (449.0, ["degenerate-window"] * 3),
                           (447.0, ["interval-full", "cap-only", "cap-only"])]
      for b, case in zip([(0.75, 0.25), (0.5, 0.5), (0.25, 0.75)], cases)],
    # a known gap: the below-alpha branch of case iii-b is flat, and the
    # strict re-test finds interior fixed points that {0, cap} omits
    ("exp-push-tie", EFH, _sat(0.2, 0.05, 220.0, 10.0, 1000.0), (0.8, 0.2),
     "push", "iii-b", (0.0, "cap"),
     "oracle equilibrium 7.86939 missing from the set"),
    ("exp-push-tie-dyadic", EFH, _sat(0.375, 0.125, 400.0, 4.0, 1024.0),
     (0.75, 0.25), "push", "iii-b", (0.0, "cap"),
     "oracle equilibrium 8.05825 missing from the set"),
    # SideInformation's band of pull ratio <= rho <= push ratio, where the
    # printed bracket can be [0, cap] and the true set {0}; the pull edge
    # is lambda_pu_s, and one ulp above it rho exceeds the pull ratio
    ("si-push-edge", SI, P(0.5, 0.25, 1.0, 8.0), (2 / 3, 1 / 3), "push",
     "interval-regime", ((0.0, 2.0),), _gap(0.5, 0.015)),
    ("si-pull-edge", SI, P(0.5, 0.25, 1.0, 8.0), (6 / 11, 5 / 11), "pull",
     "endpoint-regime", (0.0,), None),
    ("si-push-edge-rho-3", SI, P(*SI_3, 2.0, 4.0), (0.75, 0.25), "push",
     "interval-regime", ((0.0, 0.125),), _gap(0.03125, 0.00126)),
    ("si-pull-edge-rho-3", SI, P(*SI_3, 2.0, 4.0), (19 / 36, 17 / 36),
     "pull", "interval-regime", ((0.0, 0.125),), _gap(0.03125, 0.0102)),
    ("si-lambda-pu-s", SI, P(*SI_3, LPU_S, 4.0), (0.625, 0.375), "pull",
     "endpoint-regime", (0.0,), None),
    ("si-lambda-pu-s-ulp-below", SI, P(*SI_3, math.nextafter(LPU_S, 0), 4.0),
     (0.625, 0.375), None, "endpoint-regime", (0.0,), None),
    ("si-lambda-pu-s-ulp-above", SI, P(*SI_3, math.nextafter(LPU_S, 1), 4.0),
     (0.625, 0.375), None, "interval-regime", ((0.0, 0.125),),
     _gap(0.03125, 0.046)),
    # a saturated pool: both sets hold in exact arithmetic (dU/dbeta =
    # (pi_B/lam_B - pi_G/lam_G)/(n - beta) > 0 below alpha = cap), but 1 -
    # alpha/n keeps few digits: the cap is n - 9.4e-11 at tau 300, n at 380
    ("exp-saturated-pool", EFH, _sat(0.2, 0.1, 240.0, 300.0, 1000.0),
     (0.3, 0.7), None, "i", ("cap",), _gap(1000, 0.000666)),
    ("exp-saturated-pool-cap-n", EFH, _sat(0.2, 0.1, 240.0, 380.0, 1000.0),
     (0.6, 0.4), None, "ii-a", ((0.0, 1000.0),), _gap(1000, 96.7)),
]]


def _with_cap(printed, cap):
    if isinstance(printed, tuple):
        return tuple(_with_cap(v, cap) for v in printed)
    return cap if isinstance(printed, str) else printed


@pytest.mark.parametrize("s, p, b, ratio, case, printed, verdict", FAMILIES)
def test_boundary_family_verdict(s, p, b, ratio, case, printed, verdict):
    cap = symmetric_cap(p, s)
    rho = ratio and RATIOS[ratio](reduce_scenario(p, s)[0], cap)
    b = Belief(*(b or _belief_at_ratio(rho)))
    assert ratio is None or b.pi_g / b.pi_b == rho
    eq, _ = classify(s, b, p)
    assert eq.case == case
    assert (eq.intervals or eq.points) == _with_cap(printed, cap)
    assert check_equilibrium_set(eq, b, p, s, GridSpec()) == verdict
