"""Closed-form classification of symmetric Wardrop equilibria.

A threshold alpha is a symmetric Wardrop equilibrium when it is a best
response to the trajectory generated by the whole population playing
alpha: U(alpha, alpha) >= max_beta U(alpha, beta). Each classifier
returns the full fixed-point set in closed form; the oracle module
cross-checks every emitted set against a brute-force grid.

Candidate thresholds live in [0, utility.symmetric_cap]: a threshold
the whole population shares is met on the push-only segment, so the
bound is the bad content's pure-push cap, trimmed to the end of its
trending window (dynamics.horizon_window) under the trend gate. The
classifiers take these caps, the window ends and the saturating-push
hypotheses (utility.require_exp_hypotheses) from those functions
rather than restating them.
"""

from __future__ import annotations

import enum
import math
from dataclasses import asdict, dataclass
from typing import Optional, Tuple

from .dynamics import Belief, ModelParams, Quality, horizon_window
from .utility import (
    Scenario,
    UtilityError,
    best_response_side_info,
    reduce_scenario,
    require_exp_hypotheses,
    side_info_lambda_pu_s,
    side_info_peaks,
    symmetric_cap,
)

INF = math.inf


class EquilibriumKind(enum.Enum):
    EMPTY = "Empty"
    FINITE_POINTS = "FinitePoints"
    INTERVAL = "Interval"


@dataclass(frozen=True)
class EquilibriumSet:
    """Fixed-point set with symbolic endpoint labels for auditing.

    points/intervals hold the numeric set; point_labels and
    interval_labels name each value (0, alpha_bar, beta_tau_b, ...);
    case records which branch of the classification fired; aux carries
    extra computed quantities worth reporting.
    """

    points: Tuple[float, ...] = ()
    intervals: Tuple[Tuple[float, float], ...] = ()
    point_labels: Tuple[str, ...] = ()
    interval_labels: Tuple[Tuple[str, str], ...] = ()
    case: str = ""
    aux: Tuple[Tuple[str, float], ...] = ()

    @property
    def kind(self) -> EquilibriumKind:
        """Interval if the set holds an interval, else FinitePoints, or
        Empty when it holds no point either."""
        if self.intervals:
            return EquilibriumKind.INTERVAL
        if self.points:
            return EquilibriumKind.FINITE_POINTS
        return EquilibriumKind.EMPTY

    def contains(self, alpha: float, tol: float) -> bool:
        for v in self.points:
            if abs(alpha - v) <= tol:
                return True
        for lo, hi in self.intervals:
            if lo - tol <= alpha <= hi + tol:
                return True
        return False

    def as_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "points": [_json_num(v) for v in self.points],
            "intervals": [[_json_num(lo), _json_num(hi)]
                          for lo, hi in self.intervals],
            "point_labels": list(self.point_labels),
            "interval_labels": [list(pair) for pair in self.interval_labels],
            "case": self.case,
            "aux": {k: _json_num(v) for k, v in self.aux},
        }


@dataclass(frozen=True)
class SideInfoDiagnostics:
    """Branch peaks and the pull-rate singularity of the look-ahead game.

    beta1 belongs to the late (pull-weighted) branch and varies with
    lambda_pu; beta2 to the early push-only branch. lambda_pu_s is the
    pull rate where beta1's denominator changes sign (NaN for a uniform
    belief, where it never does). L and x restate the rate gap
    lambda_G - lambda_B and the pulled good rate lambda_G + lambda_pu.
    mu_positive evaluates the printed sufficient condition for the
    equilibrium set to have positive measure.
    """

    beta1: float
    beta2: float
    lambda_pu_s: float
    L: float
    x: float
    mu_positive: bool

    def as_dict(self) -> dict:
        return {k: _json_num(v) for k, v in asdict(self).items()}


def _json_num(v: float):
    if isinstance(v, float) and not math.isfinite(v):
        return None
    return v


class EquilibriumError(ValueError):
    """Classification asked outside a theorem's hypotheses."""


# -- linear push, plain viewcount ---------------------------------------------

def classify_linear(belief: Belief, p: ModelParams) -> EquilibriumSet:
    """Fixed points under linear push: one of {0}, [0, cap], {cap}.

    The deviator utility is piecewise linear in beta, so everything is
    decided by two slope signs. When waiting is cheap for good relative
    to bad content below the population threshold (pi_G/lam_G >
    pi_B/lam_B) the unique equilibrium is immediate access; when the
    pulled rates also keep the upper branch non-increasing every
    threshold up to the cap (symmetric_cap) is a fixed point; otherwise
    only the cap. At the tie pi_G/lam_G = pi_B/lam_B the lower branch
    is flat, so every threshold up to the cap is a fixed point again.
    """
    cap = symmetric_cap(p, Scenario.LINEAR_FIXED_HORIZON)
    pig, pib = belief.pi_g, belief.pi_b
    if pig / p.lambda_ps_g > pib / p.lambda_ps_b:
        return EquilibriumSet(points=(0.0,), point_labels=("0",), case="i",
                              aux=(("beta_tau_b", cap),))
    if (pig / (p.lambda_ps_g + p.lambda_pu)
            >= pib / (p.lambda_ps_b + p.lambda_pu)):
        return EquilibriumSet(
            intervals=((0.0, cap),), interval_labels=(("0", "beta_tau_b"),),
            case="ii", aux=(("beta_tau_b", cap),))
    return EquilibriumSet(points=(cap,), point_labels=("beta_tau_b",),
                          case="iii", aux=(("beta_tau_b", cap),))


# -- saturating push, plain viewcount -----------------------------------------

def pull_ratio(a: float, n: float, p: ModelParams) -> float:
    """R(a) = (lam_pu + lam_G (n-a)) / (lam_pu + lam_B (n-a)).

    The crossing-speed ratio right above a population playing a; the
    saturating-push classifications compare the belief ratio with it.
    """
    return ((p.lambda_pu + p.lambda_ps_g * (n - a))
            / (p.lambda_pu + p.lambda_ps_b * (n - a)))


def _alpha_bar(belief: Belief, n: float, p: ModelParams) -> float:
    # the inverse of pull_ratio: R(alpha_bar) = pi_G/pi_B, unclamped
    pig, pib = belief.pi_g, belief.pi_b
    return n - p.lambda_pu * (pig - pib) / (
        pib * p.lambda_ps_g - pig * p.lambda_ps_b)


def classify_exponential(belief: Belief, p: ModelParams) -> EquilibriumSet:
    """Fixed points under saturating push and plain viewcount.

    With rho = pi_G/pi_B and R(a) the pulled crossing-speed ratio at
    population threshold a (R decreases in a):

      rho >  lam_G/lam_B          -> {0}
      rho >= R(0)                 -> [0, cap]
      rho >= R(cap)               -> [alpha_bar, cap], R(alpha_bar)=rho
      else                        -> {cap}

    with cap = symmetric_cap and the boundary rho = lam_G/lam_B giving
    exactly {0, cap}: there the payoff of joining the crowd at the cap
    ties the payoff of immediate access.
    """
    n = require_exp_hypotheses(p, EquilibriumError)
    cap = symmetric_cap(p, Scenario.EXPONENTIAL_FIXED_HORIZON)
    pig, pib = belief.pi_g, belief.pi_b
    aux = (("beta_tau_b", cap),)
    rho = INF if pib == 0.0 else pig / pib
    rate_ratio = p.lambda_ps_g / p.lambda_ps_b
    if rho > rate_ratio:
        return EquilibriumSet(points=(0.0,), point_labels=("0",),
                              case="iii-a", aux=aux)
    if rho == rate_ratio:
        # tau*pi_B = pi_G*t_cap(G): both extremes are fixed points
        return EquilibriumSet(points=(0.0, cap),
                              point_labels=("0", "beta_tau_b"), case="iii-b",
                              aux=aux)
    if rho >= pull_ratio(0.0, n, p):
        return EquilibriumSet(
            intervals=((0.0, cap),), interval_labels=(("0", "beta_tau_b"),),
            case="ii-a", aux=aux)
    if rho >= pull_ratio(cap, n, p):
        alpha_bar = min(max(_alpha_bar(belief, n, p), 0.0), cap)
        return EquilibriumSet(
            intervals=((alpha_bar, cap),),
            interval_labels=(("alpha_bar", "beta_tau_b"),), case="ii-b",
            aux=aux + (("alpha_bar", alpha_bar),))
    return EquilibriumSet(points=(cap,), point_labels=("beta_tau_b",),
                          case="i", aux=aux)


# -- saturating push, trend-gated windows --------------------------------------

def classify_variable_horizon(belief: Belief, p: ModelParams) -> EquilibriumSet:
    """Fixed points when rewards accrue only inside the trending window.

    Same tree as classify_exponential, with the candidate cap moved to
    the bad window's effective end T1B = min(tau1(B), tau) (tau1 from
    horizon_window, the cap from symmetric_cap) and the interval's lower
    end alpha_0 solving the bare window comparison
    pi_G (tau1G - t_a(G)) = pi_B (T1B - t_a(B)) in closed form.
    """
    if p.gamma_th is None:
        raise EquilibriumError("gamma_th is required for the variable horizon")
    _, t1g, _ = horizon_window(Quality.GOOD, p)
    _, t1b, _ = horizon_window(Quality.BAD, p)
    n = require_exp_hypotheses(p, EquilibriumError)
    t1b_eff = min(t1b, p.tau)
    if t1b_eff <= 0.0:
        # the bad content never trends: waiting costs nothing and pays
        # nothing, immediate access keeps the whole good window
        return EquilibriumSet(points=(0.0,), point_labels=("0",),
                              case="degenerate-window",
                              aux=(("tau1_b", t1b),))
    cap = symmetric_cap(p, Scenario.VARIABLE_HORIZON)
    cap_tau = symmetric_cap(p, Scenario.EXPONENTIAL_FIXED_HORIZON)  # no gate
    aux = (("beta_tau1_b", cap), ("beta_tau_b", cap_tau),
           ("tau1_g", t1g), ("tau1_b", t1b))
    pig, pib = belief.pi_g, belief.pi_b
    rho = INF if pib == 0.0 else pig / pib

    def alpha_0():
        # t_a(q) = -ln(1 - a/n)/lam_q turns the window comparison into
        # ln(1 - a/n) = d. Below rho = lam_G/lam_B the denominator is
        # negative; next to that boundary it can round to 0, where d takes
        # its one-sided limit. d >= 0 clamps to 0 (1 - e^d <= 0).
        num = pib * t1b_eff - pig * t1g
        den = pig / p.lambda_ps_g - pib / p.lambda_ps_b
        d = num / den if den != 0.0 else (-INF if num > 0.0 else 0.0)
        return -n * math.expm1(d) if d < 0.0 else 0.0

    if rho >= p.lambda_ps_g / p.lambda_ps_b:
        return EquilibriumSet(
            intervals=((0.0, cap),), interval_labels=(("0", "beta_tau1_b"),),
            case="interval-full", aux=aux)
    if rho >= pull_ratio(0.0, n, p):
        a0 = min(alpha_0(), cap)
        return EquilibriumSet(
            intervals=((a0, cap),),
            interval_labels=(("alpha_0", "beta_tau1_b"),),
            case="interval-window", aux=aux + (("alpha_0", a0),))
    if rho >= pull_ratio(cap, n, p):
        a0, alpha_bar = alpha_0(), _alpha_bar(belief, n, p)
        lo = min(max(alpha_bar, a0, 0.0), cap)
        return EquilibriumSet(
            intervals=((lo, cap),),
            interval_labels=(("alpha_bar", "beta_tau1_b"),),
            case="interval-pull",
            aux=aux + (("alpha_0", a0), ("alpha_bar", alpha_bar)))
    return EquilibriumSet(points=(cap,), point_labels=("beta_tau1_b",),
                          case="cap-only", aux=aux)


# -- linear push, look-ahead metric --------------------------------------------

def classify_side_info(belief: Belief,
                       p: ModelParams) -> Tuple[EquilibriumSet,
                                                SideInfoDiagnostics]:
    """Fixed points under the look-ahead value metric.

    Above the pull-rate singularity lambda_pu_s, the pull-ratio edge of
    the band below, (and for a uniform belief) emits the bracket between
    the two branch peaks intersected with [0, cap], cap = symmetric_cap.
    When that bracket misses [0, cap] entirely, both peaks are spurious
    (the underlying branch derivatives never vanish inside the strategy
    space), so the set reduces to endpoint membership exactly as at or
    below the singularity: whichever of {0, cap} the branch best
    responses confirm.

    The bracket is kept even when it covers all of [0, cap] with both
    peaks outside; the grid oracle refutes that stretch of the printed
    form (the true set there is {0}), so oracle agreement is only
    promised outside it: the band (lam_G + lam_pu)/(lam_B + lam_pu) <=
    pi_G/pi_B <= lam_G/lam_B, closed at the push ratio and at the pull
    ratio in some families, that verify's draws (cli._draw_model) skip.
    """
    pig, pib = belief.pi_g, belief.pi_b
    cap = symmetric_cap(p, Scenario.SIDE_INFORMATION)
    beta1, beta2 = side_info_peaks(belief, p)
    s = side_info_lambda_pu_s(belief, p)
    mu_flag = ((p.lambda_pu > s and beta1 >= 0.0 > beta2)
               or (pig < pib and beta1 <= cap))
    diags = SideInfoDiagnostics(
        beta1=beta1, beta2=beta2,
        lambda_pu_s=(math.nan if pig == pib else s),
        L=p.lambda_ps_g - p.lambda_ps_b,
        x=p.lambda_ps_g + p.lambda_pu,
        mu_positive=bool(mu_flag),
    )
    aux = (("beta_tau_b", cap), ("beta1", beta1), ("beta2", beta2),
           ("lambda_pu_s", diags.lambda_pu_s))
    lo_raw, hi_raw = min(beta1, beta2), max(beta1, beta2)
    overlaps = hi_raw >= 0.0 and lo_raw <= cap
    if (pig == pib or p.lambda_pu > s) and overlaps:
        lo = min(max(lo_raw, 0.0), cap)
        hi = min(max(hi_raw, 0.0), cap)
        lo_lab = _clamp_label(lo_raw, lo, cap,
                              "beta1" if lo_raw == beta1 else "beta2")
        hi_lab = _clamp_label(hi_raw, hi, cap,
                              "beta1" if hi_raw == beta1 else "beta2")
        if hi == lo:
            eq = EquilibriumSet(points=(lo,), point_labels=(lo_lab,),
                                case="interval-regime", aux=aux)
        else:
            eq = EquilibriumSet(
                intervals=((lo, hi),), interval_labels=((lo_lab, hi_lab),),
                case="interval-regime", aux=aux)
        return eq, diags
    pts = []
    labels = []
    tol = 1e-12 * max(cap, 1.0)
    for endpoint, lab in ((0.0, "0"), (cap, "beta_tau_b")):
        br = best_response_side_info(endpoint, belief, p)
        if any(abs(endpoint - v) <= tol for v in br.values):
            pts.append(endpoint)
            labels.append(lab)
    # neither endpoint confirmed leaves the set Empty
    return EquilibriumSet(points=tuple(pts), point_labels=tuple(labels),
                          case="endpoint-regime", aux=aux), diags


def _clamp_label(raw: float, clamped: float, cap: float, name: str) -> str:
    if clamped != raw:
        return "0" if clamped == 0.0 else "beta_tau_b"
    return name


def classify(scenario: Scenario, belief: Belief, p: ModelParams):
    """Dispatch to the closed-form classifier for scenarios that have one.

    Returns (EquilibriumSet, Optional[SideInfoDiagnostics]). The
    trend-times-viewcount games have no closed-form classification; use
    the grid oracle for those.
    """
    p, scenario = reduce_scenario(p, scenario)
    if scenario is Scenario.LINEAR_FIXED_HORIZON:
        return classify_linear(belief, p), None
    if scenario is Scenario.EXPONENTIAL_FIXED_HORIZON:
        return classify_exponential(belief, p), None
    if scenario is Scenario.VARIABLE_HORIZON:
        return classify_variable_horizon(belief, p), None
    if scenario is Scenario.SIDE_INFORMATION:
        return classify_side_info(belief, p)
    raise UtilityError(
        f"no closed-form classification for {scenario.value}; "
        "use the grid oracle")


def make_report(scenario: Scenario, belief: Belief, p: ModelParams,
                eq: EquilibriumSet,
                diags: Optional[SideInfoDiagnostics] = None,
                oracle_checked: bool = False) -> dict:
    """Equilibrium report in the documented JSON shape.

    The set's as_dict plus the inputs, the diagnostics and the oracle flag.
    """
    report = eq.as_dict()
    report.update({
        "scenario": scenario.value,
        "params": {k: v for k, v in asdict(p).items() if v is not None},
        "belief": asdict(belief),
        "diagnostics": diags.as_dict() if diags is not None else None,
        "oracle_checked": bool(oracle_checked),
    })
    return report
