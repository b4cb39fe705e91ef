"""Batch front door: JSON config in, CSV/JSON artifacts out.

Every command is a pure function from (config, seed) to files, so
rerunning with the same inputs reproduces the outputs byte for byte.
Units are fixed globally: time in days, rates in views/day, viewcount
in views.

Exit codes: 0 success, 1 numeric or verification failure, 2 usage or
config error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from typing import Optional

import numpy as np

from .dynamics import (
    Belief,
    DynamicsError,
    ModelParams,
    Quality,
    sample_trajectory,
)
from .equilibrium import (
    EquilibriumError,
    EquilibriumSet,
    classify,
    make_report,
    pull_ratio,
)
from .numerics import NumericsError
from .oracle import (
    GridSpec,
    deviation_sweep,
    find_symmetric_equilibria,
    grid_best_response,
)
from .sim import SimConfig, best_response_dynamics, simulate_views
from .utility import (
    Scenario,
    UtilityError,
    closed_form_best_response,
    strategy_cap,
    sub_params,
    symmetric_cap,
    utility,
    utility_surface,
)

EXIT_OK = 0
EXIT_NUMERIC = 1
EXIT_CONFIG = 2

_UNITS = ("Units: time in days, rates in views/day, viewcount in views. "
          "Config is a single JSON document; flags override config keys.")


class ConfigError(ValueError):
    """Bad or missing configuration; maps to exit code 2."""


# -- config plumbing -----------------------------------------------------------

_SCHEMAS = {
    "trajectory": {"scenario", "params", "alpha", "out", "n_samples"},
    "surface": {"scenario", "params", "belief", "alpha", "n_grid", "out"},
    "best-response": {"scenario", "params", "belief", "alpha", "out", "grid"},
    "classify": {"scenario", "params", "belief", "out", "sweep_lambda_pu",
                 "oracle_check", "grid"},
    "verify": {"scenario", "n_draws", "seed", "grid", "corrupt", "out"},
    "simulate": {"mode", "scenario", "params", "belief", "alpha", "quality",
                 "sim", "out"},
}

_REQUIRED = {
    "trajectory": {"scenario", "params", "alpha", "out"},
    "surface": {"scenario", "params", "belief", "alpha", "out"},
    "best-response": {"scenario", "params", "belief", "alpha", "out"},
    "classify": {"scenario", "params", "belief", "out"},
    "verify": {"scenario"},
    "simulate": {"mode", "scenario", "params", "sim", "out"},
}

_PARAM_KEYS = {"lambda_ps_g", "lambda_ps_b", "lambda_pu", "tau",
               "n_pool", "gamma_th"}
_GRID_KEYS = {"n_beta", "n_alpha", "tol"}
_SIM_KEYS = {"seed", "n_push_pool", "n_agents", "rounds", "update_fraction",
             "initial_thresholds"}


def _check_keys(d: dict, allowed: set, required: set, what: str) -> None:
    if not isinstance(d, dict):
        raise ConfigError(f"{what} must be a JSON object")
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"unknown {what} field(s): {', '.join(sorted(unknown))}")
    missing = required - set(d)
    if missing:
        raise ConfigError(f"missing {what} field(s): {', '.join(sorted(missing))}")


def _load_config(args) -> dict:
    cfg: dict = {}
    if args.config is not None:
        try:
            with open(args.config) as fh:
                cfg = json.load(fh)
        except OSError as e:
            raise ConfigError(f"cannot read config: {e}")
        except json.JSONDecodeError as e:
            raise ConfigError(f"config is not valid JSON: {e}")
    if args.out is not None:
        cfg["out"] = args.out
    if args.scenario is not None:
        cfg["scenario"] = args.scenario
    if getattr(args, "seed", None) is not None:
        if args.command == "simulate":
            cfg.setdefault("sim", {})["seed"] = args.seed
        else:
            cfg["seed"] = args.seed
    _check_keys(cfg, _SCHEMAS[args.command], _REQUIRED[args.command],
                f"{args.command} config")
    return cfg


def _params_from(cfg: dict) -> ModelParams:
    _check_keys(cfg["params"], _PARAM_KEYS,
                {"lambda_ps_g", "lambda_ps_b", "lambda_pu", "tau"}, "params")
    try:
        return ModelParams(**{k: float(v) for k, v in cfg["params"].items()})
    except (DynamicsError, TypeError) as e:
        raise ConfigError(f"bad params: {e}")


def _belief_from(cfg: dict) -> Belief:
    b = cfg["belief"]
    _check_keys(b, {"pi_g", "pi_b"}, {"pi_g", "pi_b"}, "belief")
    try:
        return Belief(float(b["pi_g"]), float(b["pi_b"]))
    except DynamicsError as e:
        raise ConfigError(f"bad belief: {e}")


def _scenario_from(cfg: dict) -> Scenario:
    try:
        return Scenario.from_tag(str(cfg["scenario"]))
    except UtilityError as e:
        raise ConfigError(str(e))


def _grid_from(cfg: dict) -> GridSpec:
    g = cfg.get("grid", {})
    _check_keys(g, _GRID_KEYS, set(), "grid")
    try:
        return GridSpec(**g)
    except ValueError as e:
        raise ConfigError(f"bad grid: {e}")


def _sim_from(cfg: dict) -> SimConfig:
    s = cfg["sim"]
    _check_keys(s, _SIM_KEYS, {"seed", "n_push_pool"}, "sim")
    try:
        return SimConfig(**s)
    except (ValueError, TypeError) as e:
        raise ConfigError(f"bad sim config: {e}")


def _alpha_from(cfg: dict) -> float:
    try:
        a = float(cfg["alpha"])
    except (TypeError, ValueError):
        raise ConfigError("alpha must be a number")
    if a < 0.0 or not math.isfinite(a):
        raise ConfigError("alpha must be finite and nonnegative")
    return a


def _out_base(cfg: dict) -> str:
    out = str(cfg["out"])
    return out[:-4] if out.endswith(".csv") else out


def _write_json(path: str, obj) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(json.dumps(obj, sort_keys=True, indent=2))
        fh.write("\n")


def _fmt(x: float) -> str:
    return f"{x:.12g}"


# -- commands ------------------------------------------------------------------

def cmd_trajectory(cfg: dict) -> int:
    s = _scenario_from(cfg)
    p = _params_from(cfg)
    alpha = _alpha_from(cfg)
    n = int(cfg.get("n_samples", 2001))
    if n < 2:
        raise ConfigError("n_samples must be at least 2")
    base = _out_base(cfg)
    for q, tag in ((Quality.GOOD, "good"), (Quality.BAD, "bad")):
        traj = sample_trajectory(q, alpha, p, s.push, s.metric, n_samples=n)
        traj.to_csv(f"{base}_{tag}.csv")
    return EXIT_OK


def cmd_surface(cfg: dict) -> int:
    s = _scenario_from(cfg)
    p = _params_from(cfg)
    belief = _belief_from(cfg)
    alpha = _alpha_from(cfg)
    n_grid = int(cfg.get("n_grid", 512))
    if n_grid < 2:
        raise ConfigError("n_grid must be at least 2")
    rows = utility_surface(alpha, belief, p, s, n_grid)
    out = str(cfg["out"])
    with open(out, "w", newline="") as fh:
        fh.write("beta,utility,branch\n")
        for beta, u, branch in rows:
            fh.write(f"{_fmt(beta)},{_fmt(u)},{branch}\n")
    return EXIT_OK


def cmd_best_response(cfg: dict) -> int:
    s = _scenario_from(cfg)
    p = _params_from(cfg)
    belief = _belief_from(cfg)
    alpha = _alpha_from(cfg)
    br = closed_form_best_response(alpha, belief, p, s)
    if br is not None:
        payload = br.as_dict()
        method = "closed-form"
    else:
        # no closed form for this variant: report the grid argmax set
        g = _grid_from(cfg)
        pts = grid_best_response(alpha, belief, p, s, g)
        payload = {
            "kind": "GridSet",
            "values": [float(v) for v in pts],
            "utility": utility(alpha, float(pts[0]), belief, p, s),
        }
        method = "grid"
    _write_json(str(cfg["out"]), {
        "alpha": alpha,
        "belief": {"pi_g": belief.pi_g, "pi_b": belief.pi_b},
        "best_response": payload,
        "method": method,
        "scenario": s.value,
    })
    return EXIT_OK


def _soundness_points(eq: EquilibriumSet) -> list:
    pts = list(eq.points)
    for lo, hi in eq.intervals:
        pts.extend(np.linspace(lo, hi, 5).tolist())
    return pts


def _check_equilibrium_set(eq: EquilibriumSet, belief: Belief, p: ModelParams,
                           s: Scenario, g: GridSpec) -> Optional[str]:
    """None when the set is sound and complete, else a reason string."""
    tol_sound = max(g.resolve_tol(p), 1e-6 * p.tau)
    pts = _soundness_points(eq)
    inside = [0.0 <= a <= strategy_cap(a, p, s) * (1.0 + 1e-9) + 1e-12
              for a in pts]
    sweep = zip(*deviation_sweep([a for a, ok in zip(pts, inside) if ok],
                                 belief, p, s, g))
    for a, ok in zip(pts, inside):
        if not ok:
            return f"classified point {a:.6g} lies outside its strategy space"
        u_best, u_own = next(sweep)
        if u_own < u_best - tol_sound:
            return (f"classified point {a:.6g} is not a grid best response "
                    f"(gap {u_best - u_own:.3g})")
    cap_a = symmetric_cap(p, s)
    tol_edge = 1.5 * (cap_a / (g.n_alpha - 1)) + 1e-9 * max(cap_a, 1.0)
    found = find_symmetric_equilibria(belief, p, s, g)
    missing = [float(a) for a in found if not eq.contains(float(a), tol=tol_edge)]
    # near an interval edge the grid tolerance admits near-fixed points;
    # only a strict re-test makes it a completeness failure
    for a, u_best, u_own in zip(missing, *deviation_sweep(missing, belief, p, s, g)):
        if u_own >= u_best - 0.01 * tol_sound:
            return f"oracle equilibrium {a:.6g} missing from the set"
    return None


def _report_sweep(s: Scenario, belief: Belief, cfg: dict) -> list:
    rows = []
    base = dict(cfg["params"])
    for lpu in cfg["sweep_lambda_pu"]:
        sub = dict(base)
        sub["lambda_pu"] = float(lpu)
        p = _params_from({"params": sub})
        eq, diags = classify(s, belief, p)
        row = {
            "lambda_pu": float(lpu),
            "kind": eq.kind.value,
            "points": [float(v) for v in eq.points],
            "intervals": [[float(lo), float(hi)] for lo, hi in eq.intervals],
        }
        if diags is not None:
            row["lambda_pu_s"] = (None if math.isnan(diags.lambda_pu_s)
                                  else diags.lambda_pu_s)
        rows.append(row)
    return rows


def cmd_classify(cfg: dict) -> int:
    s = _scenario_from(cfg)
    if s is Scenario.TREND_VIEWCOUNT_EXPONENTIAL:
        raise ConfigError(
            "classify does not support TrendViewcountExponential "
            "(no closed form); use best-response with a grid instead")
    p = _params_from(cfg)
    belief = _belief_from(cfg)
    eq, diags = classify(s, belief, p)
    oracle_checked = False
    if cfg.get("oracle_check", False):
        g = _grid_from(cfg)
        reason = _check_equilibrium_set(eq, belief, p, s, g)
        if reason is not None:
            print(f"oracle check failed: {reason}", file=sys.stderr)
            return EXIT_NUMERIC
        oracle_checked = True
    report = make_report(s, belief, p, eq, diags, oracle_checked=oracle_checked)
    if "sweep_lambda_pu" in cfg:
        report["sweep"] = _report_sweep(s, belief, cfg)
    _write_json(str(cfg["out"]), report)
    return EXIT_OK


# -- verify --------------------------------------------------------------------

def _draw_model(s: Scenario, rng: np.random.Generator):
    """Random admissible family with margins away from case boundaries."""
    for _ in range(1000):
        lam_g = rng.uniform(0.05, 0.4)
        lam_b = lam_g * rng.uniform(0.2, 0.9)
        tau = rng.uniform(2.0, 40.0)
        pi_g = rng.uniform(0.05, 0.95)
        belief = Belief(pi_g, 1.0 - pi_g)
        rho = pi_g / (1.0 - pi_g)
        if s in (Scenario.LINEAR_FIXED_HORIZON, Scenario.TREND_VIEWCOUNT_LINEAR):
            lpu = rng.uniform(0.0, 3.0)
            p = ModelParams(lam_g, lam_b, lpu, tau)
            eff = sub_params(p) if s is Scenario.TREND_VIEWCOUNT_LINEAR else p
            r1 = (eff.lambda_ps_g + eff.lambda_pu) / (eff.lambda_ps_b + eff.lambda_pu)
            margins = (abs(rho - eff.lambda_ps_g / eff.lambda_ps_b),
                       abs(rho - r1))
            if min(margins) > 0.05:
                return belief, p
            continue
        if s is Scenario.SIDE_INFORMATION:
            lpu = rng.uniform(0.0, 3.0)
            p = ModelParams(lam_g, lam_b, lpu, tau)
            # between these two ratios the printed bracket covers [0, cap]
            # while the true set is {0}; draws stay clear of that band
            ratio_push = lam_g / lam_b
            ratio_pull = (lam_g + lpu) / (lam_b + lpu)
            if rho >= 1.05 * ratio_push or rho <= 0.95 * ratio_pull:
                return belief, p
            continue
        n = rng.uniform(200.0, 3000.0)
        lpu = lam_g * n * rng.uniform(1.0, 1.6)
        if s is Scenario.EXPONENTIAL_FIXED_HORIZON:
            p = ModelParams(lam_g, lam_b, lpu, tau, n_pool=n)
        else:
            gth = lpu + rng.uniform(0.05, 0.95) * lam_b * n
            p = ModelParams(lam_g, lam_b, lpu, tau, n_pool=n, gamma_th=gth)
        margins = (abs(rho - lam_g / lam_b), abs(rho - pull_ratio(0.0, n, p)),
                   abs(rho - pull_ratio(symmetric_cap(p, s), n, p)))
        if min(margins) > 0.05:
            return belief, p
    raise NumericsError("could not draw an admissible verification family")


def _corrupt_set(eq: EquilibriumSet, p: ModelParams, s: Scenario) -> EquilibriumSet:
    # negative control: shift everything up by a tenth of the cap, which
    # pushes at least one classified point off the equilibrium set
    shift = 0.1 * max(symmetric_cap(p, s), 1e-6)
    return dataclasses.replace(
        eq,
        points=tuple(v + shift for v in eq.points),
        intervals=tuple((lo + shift, hi + shift) for lo, hi in eq.intervals),
    )


def cmd_verify(cfg: dict) -> int:
    s = _scenario_from(cfg)
    if s is Scenario.TREND_VIEWCOUNT_EXPONENTIAL:
        raise ConfigError(
            "verify does not support TrendViewcountExponential (no closed form)")
    n_draws = int(cfg.get("n_draws", 100))
    if n_draws < 1:
        raise ConfigError("n_draws must be positive")
    seed = int(cfg.get("seed", 0))
    corrupt = bool(cfg.get("corrupt", False))
    g = _grid_from(cfg)
    rng = np.random.default_rng(seed)
    lines = []
    failures = 0
    for k in range(n_draws):
        belief, p = _draw_model(s, rng)
        eq, _ = classify(s, belief, p)
        if corrupt:
            eq = _corrupt_set(eq, p, s)
        reason = _check_equilibrium_set(eq, belief, p, s, g)
        if reason is None:
            lines.append(f"draw {k:03d}: PASS kind={eq.kind.value} "
                         f"case={eq.case}")
        else:
            failures += 1
            lines.append(f"draw {k:03d}: FAIL {reason}")
    lines.append(f"{n_draws - failures}/{n_draws} draws passed"
                 + (" (corrupted closed form)" if corrupt else ""))
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if "out" in cfg:
        with open(str(cfg["out"]), "w", newline="") as fh:
            fh.write(text)
    return EXIT_NUMERIC if failures else EXIT_OK


def cmd_simulate(cfg: dict) -> int:
    mode = str(cfg.get("mode", ""))
    if mode not in ("views", "dynamics"):
        raise ConfigError("mode must be 'views' or 'dynamics'")
    s = _scenario_from(cfg)
    p = _params_from(cfg)
    sim = _sim_from(cfg)
    if mode == "views":
        if "alpha" not in cfg or "quality" not in cfg:
            raise ConfigError("views mode needs alpha and quality")
        qtag = str(cfg["quality"]).lower()
        if qtag not in ("good", "bad"):
            raise ConfigError("quality must be 'good' or 'bad'")
        q = Quality.GOOD if qtag == "good" else Quality.BAD
        traj = simulate_views(q, _alpha_from(cfg), p, s.push, sim)
        out = str(cfg["out"])
        traj.to_csv(out if out.endswith(".csv") else out + ".csv")
        return EXIT_OK
    if "belief" not in cfg:
        raise ConfigError("dynamics mode needs a belief")
    belief = _belief_from(cfg)
    res = best_response_dynamics(belief, p, s, sim)
    base = _out_base(cfg)
    res.write_snapshots(f"{base}_snapshots.csv")
    _write_json(f"{base}_summary.json", res.summary())
    return EXIT_OK


_HANDLERS = {
    "trajectory": cmd_trajectory,
    "surface": cmd_surface,
    "best-response": cmd_best_response,
    "classify": cmd_classify,
    "verify": cmd_verify,
    "simulate": cmd_simulate,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pushpull",
        description="Numerical toolkit for push/pull content diffusion games.",
        epilog=_UNITS)
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "trajectory": "write good/bad viewcount trajectories as CSV",
        "surface": "write the deviator utility over the strategy space",
        "best-response": "write the best-response set for one threshold",
        "classify": "write the symmetric-equilibrium report as JSON",
        "verify": "cross-check the closed forms against the grid oracle",
        "simulate": "run the stochastic simulators",
    }
    for name, h in helps.items():
        sp = sub.add_parser(name, help=h, epilog=_UNITS)
        sp.add_argument("--config", help="path to a JSON config document")
        sp.add_argument("--out", help="output path (overrides config)")
        sp.add_argument("--seed", type=int, help="seed (overrides config)")
        sp.add_argument("--scenario", help="scenario tag (overrides config)")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_CONFIG if e.code not in (0, None) else EXIT_OK
    try:
        cfg = _load_config(args)
        return _HANDLERS[args.command](cfg)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (DynamicsError, UtilityError, EquilibriumError, NumericsError) as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
