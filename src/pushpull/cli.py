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
import functools
import json
import math
import sys
from typing import Callable, NamedTuple, Optional

import numpy as np

from .dynamics import (
    Belief,
    DynamicsError,
    ModelParams,
    PushKind,
    Quality,
    sample_trajectory,
    write_csv,
)
from .equilibrium import (
    EquilibriumError,
    EquilibriumSet,
    classify,
    make_report,
)
from .numerics import NumericsError
from .oracle import (
    GridSpec,
    alpha_grid,
    decide_rows,
    deviation_sweep,
    grid_best_response,
)
from .sim import SimConfig, best_response_dynamics, simulate_views
from .utility import (
    Scenario,
    UtilityError,
    closed_form_best_response,
    strategy_cap,
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

def _check_keys(d: dict, allowed: set, required: set, what: str) -> None:
    if not isinstance(d, dict):
        raise ConfigError(f"{what} must be a JSON object")
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"unknown {what} field(s): {', '.join(sorted(unknown))}")
    missing = required - set(d)
    if missing:
        raise ConfigError(f"missing {what} field(s): {', '.join(sorted(missing))}")


def _check_fields(d: dict, cls, what: str) -> None:
    """_check_keys against the fields of dataclass cls; a field without a
    default is required."""
    fields = dataclasses.fields(cls)
    _check_keys(d, {f.name for f in fields},
                {f.name for f in fields if f.default is dataclasses.MISSING},
                what)


def _int_field(d: dict, key: str, default: int, least: int) -> int:
    """d[key] (default when absent), which must be an integer >= least."""
    v = d.get(key, default)
    # bool is a subclass of int, but a JSON true is not a count
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{key} must be an integer")
    if v < least:
        raise ConfigError(f"{key} must be at least {least}")
    return v


def _bool_field(d: dict, key: str, default: bool) -> bool:
    """d[key] (default when absent), which must be a JSON boolean."""
    v = d.get(key, default)
    # a string "false" is truthy, and 1 is not a switch
    if not isinstance(v, bool):
        raise ConfigError(f"{key} must be true or false, not {json.dumps(v)}")
    return v


def _float(v, key: str) -> float:
    # bool is a subclass of int, but a JSON true is not a number
    if isinstance(v, bool):
        raise TypeError(f"{key} must be a number, not {json.dumps(v)}")
    return float(v)


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
        if args.command != "simulate":
            cfg["seed"] = args.seed
        elif isinstance(cfg.setdefault("sim", {}), dict):
            # a sim that is not an object is reported by _sim_from
            cfg["sim"]["seed"] = args.seed
    cmd = _COMMANDS[args.command]
    required = set(cmd.required.split())
    _check_keys(cfg, required | set(cmd.optional.split()), required,
                f"{args.command} config")
    return cfg


def _params_from(cfg: dict) -> ModelParams:
    _check_fields(cfg["params"], ModelParams, "params")
    try:
        return ModelParams(**{k: _float(v, k) for k, v in cfg["params"].items()})
    except (ValueError, TypeError) as e:
        raise ConfigError(f"bad params: {e}")


def _belief_from(cfg: dict) -> Belief:
    b = cfg["belief"]
    _check_fields(b, Belief, "belief")
    try:
        return Belief(_float(b["pi_g"], "pi_g"), _float(b["pi_b"], "pi_b"))
    except (ValueError, TypeError) as e:
        raise ConfigError(f"bad belief: {e}")


def _scenario_from(cfg: dict) -> Scenario:
    try:
        return Scenario.from_tag(str(cfg["scenario"]))
    except UtilityError as e:
        raise ConfigError(str(e))


def _grid_from(cfg: dict) -> GridSpec:
    g = cfg.get("grid", {})
    _check_fields(g, GridSpec, "grid")
    try:
        return GridSpec(**g)
    except (ValueError, TypeError) as e:
        raise ConfigError(f"bad grid: {e}")


def _sim_from(cfg: dict) -> SimConfig:
    s = cfg["sim"]
    _check_fields(s, SimConfig, "sim")
    try:
        return SimConfig(**s)
    except (ValueError, TypeError) as e:
        raise ConfigError(f"bad sim config: {e}")


def _alpha_from(cfg: dict) -> float:
    try:
        a = _float(cfg["alpha"], "alpha")
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


# -- commands ------------------------------------------------------------------

def cmd_trajectory(cfg: dict) -> int:
    s = _scenario_from(cfg)
    p = _params_from(cfg)
    alpha = _alpha_from(cfg)
    n = _int_field(cfg, "n_samples", 2001, 2)
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
    n_grid = _int_field(cfg, "n_grid", 512, 2)
    rows = utility_surface(alpha, belief, p, s, n_grid)
    write_csv(str(cfg["out"]), "beta,utility,branch", "%.12g,%.12g,%s\n",
              *zip(*rows))
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
        "belief": dataclasses.asdict(belief),
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


# the strict completeness re-test decides on rows this many times finer
# than the grid's; 4 already reach the peaks the grid steps over on the
# two VariableHorizon families the CLI tests pin, 2 miss one of them
_STRICT_REFINE = 16


def _check_equilibrium_set(eq: EquilibriumSet, belief: Belief, p: ModelParams,
                           s: Scenario, g: GridSpec) -> Optional[str]:
    """None when the set is sound and complete, else a reason string."""
    tol_sound = max(g.resolve_tol(p), 1e-6 * p.tau)
    pts = np.array(_soundness_points(eq), dtype=float)
    inside = (0.0 <= pts) & (
        pts <= strategy_cap(pts, p, s) * (1.0 + 1e-9) + 1e-12)
    # one row decision for the classified points and the candidates of
    # find_symmetric_equilibria, at the grid's tol; a point admitted
    # there is admitted at tol_sound >= tol too, so only the others are
    # judged again
    alphas = alpha_grid(p, s, g)
    n_in = np.count_nonzero(inside)
    admitted = decide_rows(np.concatenate([pts[inside], alphas]), belief, p,
                           s, g)
    ok = inside.copy()
    ok[inside] = admitted[:n_in]
    again = inside & ~ok
    if again.any() and tol_sound > g.resolve_tol(p):
        ok[again] = decide_rows(pts[again], belief, p, s,
                                dataclasses.replace(g, tol=tol_sound))
    if not ok.all():
        i = int(np.argmin(ok))
        a = pts.tolist()[i]
        if not inside[i]:
            return f"classified point {a:.6g} lies outside its strategy space"
        (u_best,), (u_own,) = deviation_sweep(pts[i:i + 1], belief, p, s, g)
        return (f"classified point {a:.6g} is not a grid best response "
                f"(gap {u_best - u_own:.3g})")
    cap_a = alphas[-1]
    tol_edge = 1.5 * (cap_a / (g.n_alpha - 1)) + 1e-9 * max(cap_a, 1.0)
    found = alphas[admitted[n_in:]]
    missing = [float(a) for a in found if not eq.contains(float(a), tol=tol_edge)]
    # near an interval edge the grid tolerance admits near-fixed points;
    # only a strict re-test makes it a completeness failure, on finer rows,
    # since the grid's can step over a smooth peak
    strict = dataclasses.replace(g, n_beta=_STRICT_REFINE * (g.n_beta - 1) + 1,
                                 tol=0.01 * tol_sound)
    for a, fixed in zip(missing, decide_rows(missing, belief, p, s, strict)):
        if fixed:
            return f"oracle equilibrium {a:.6g} missing from the set"
    return None


def _report_sweep(s: Scenario, belief: Belief, cfg: dict) -> list:
    rows = []
    if not isinstance(cfg["sweep_lambda_pu"], list):
        raise ConfigError("sweep_lambda_pu must be a list of pull rates")
    base = dict(cfg["params"])
    for lpu in cfg["sweep_lambda_pu"]:
        sub = dict(base)
        sub["lambda_pu"] = lpu
        p = _params_from({"params": sub})
        try:
            eq, diags = classify(s, belief, p)
        except (DynamicsError, UtilityError, EquilibriumError,
                NumericsError) as e:
            # a rate outside a theorem's hypotheses spoils its row only
            rows.append({"lambda_pu": float(lpu), "error": str(e)})
            continue
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
    oracle_checked = _bool_field(cfg, "oracle_check", False)
    eq, diags = classify(s, belief, p)
    if oracle_checked:
        g = _grid_from(cfg)
        reason = _check_equilibrium_set(eq, belief, p, s, g)
        if reason is not None:
            print(f"oracle check failed: {reason}", file=sys.stderr)
            return EXIT_NUMERIC
    report = make_report(s, belief, p, eq, diags, oracle_checked=oracle_checked)
    if "sweep_lambda_pu" in cfg:
        report["sweep"] = _report_sweep(s, belief, cfg)
    _write_json(str(cfg["out"]), report)
    return EXIT_OK


# -- verify --------------------------------------------------------------------

def _draw_model(s: Scenario, rng: np.random.Generator):
    """Random admissible family, next to the case boundaries too.

    The boundaries are where the printed forms most need testing, and
    only the classifiers know where they lie. The one band left out is
    SideInformation's, between its pull and push ratios: there the
    printed bracket covers [0, cap] while the true set is {0}
    (classify_side_info), so a family drawn in it is drawn again.
    """
    for _ in range(1000):
        lam_g = rng.uniform(0.05, 0.4)
        lam_b = lam_g * rng.uniform(0.2, 0.9)
        tau = rng.uniform(2.0, 40.0)
        pi_g = rng.uniform(0.05, 0.95)
        belief = Belief(pi_g, 1.0 - pi_g)
        if s.push is PushKind.LINEAR:
            p = ModelParams(lam_g, lam_b, rng.uniform(0.0, 3.0), tau)
            if s is not Scenario.SIDE_INFORMATION:
                return belief, p
            rho = pi_g / (1.0 - pi_g)
            ratio_push = p.lambda_ps_g / p.lambda_ps_b
            ratio_pull = ((p.lambda_ps_g + p.lambda_pu)
                          / (p.lambda_ps_b + p.lambda_pu))
            if rho >= 1.05 * ratio_push or rho <= 0.95 * ratio_pull:
                return belief, p
            continue
        n = rng.uniform(200.0, 3000.0)
        lpu = lam_g * n * rng.uniform(1.0, 1.6)
        gth = (lpu + rng.uniform(0.05, 0.95) * lam_b * n
               if s is Scenario.VARIABLE_HORIZON else None)
        return belief, ModelParams(lam_g, lam_b, lpu, tau, n_pool=n,
                                   gamma_th=gth)
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
    n_draws = _int_field(cfg, "n_draws", 100, 1)
    seed = _int_field(cfg, "seed", 0, 0)
    corrupt = _bool_field(cfg, "corrupt", False)
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
        traj = simulate_views(q, _alpha_from(cfg), p, s, sim)
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


class _Command(NamedTuple):
    run: Callable[[dict], int]
    help: str
    required: str    # config keys, space-separated
    optional: str


# argparse lists the subcommands in this order
_COMMANDS = {
    "trajectory": _Command(
        cmd_trajectory, "write good/bad viewcount trajectories as CSV",
        "scenario params alpha out", "n_samples"),
    "surface": _Command(
        cmd_surface, "write the deviator utility over the strategy space",
        "scenario params belief alpha out", "n_grid"),
    "best-response": _Command(
        cmd_best_response, "write the best-response set for one threshold",
        "scenario params belief alpha out", "grid"),
    "classify": _Command(
        cmd_classify, "write the symmetric-equilibrium report as JSON",
        "scenario params belief out", "sweep_lambda_pu oracle_check grid"),
    "verify": _Command(
        cmd_verify, "cross-check the closed forms against the grid oracle",
        "scenario", "n_draws seed grid corrupt out"),
    "simulate": _Command(
        cmd_simulate, "run the stochastic simulators",
        "mode scenario params sim out", "belief alpha quality"),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built on the first main() call, not at import, and reused after it:
    # parse_args does not change the parser
    parser = argparse.ArgumentParser(
        prog="pushpull",
        description="Numerical toolkit for push/pull content diffusion games.",
        epilog=_UNITS)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, cmd in _COMMANDS.items():
        sp = sub.add_parser(name, help=cmd.help, epilog=_UNITS)
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
        return _COMMANDS[args.command].run(cfg)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (DynamicsError, UtilityError, EquilibriumError, NumericsError) as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
