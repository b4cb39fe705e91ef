"""Batch front door: JSON config in, CSV/JSON artifacts out.

Every command is a pure function from (config, seed) to files, so
rerunning with the same inputs reproduces the outputs byte for byte.
Units are fixed globally: time in days, rates in views/day, viewcount
in views.

Exit codes: 0 success, 1 numeric or verification failure (a float
overflow, 0/0 or division by zero among them), 2 usage or config error.
classify --oracle_check and verify take their verdict from
oracle.check_equilibrium_set.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from typing import Callable, NamedTuple

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
from .oracle import GridSpec, check_equilibrium_set, grid_best_response
from .sim import SimConfig, best_response_dynamics, simulate_views
from .utility import (
    Scenario,
    UtilityError,
    closed_form_best_response,
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


def _integer(key: str, least: int) -> Callable[[dict], int]:
    """Reader of cfg[key], which must be an integer >= least."""
    def read(cfg: dict) -> int:
        v = cfg[key]
        # bool is a subclass of int, but a JSON true is not a count
        if isinstance(v, bool) or not isinstance(v, int):
            raise ConfigError(f"{key} must be an integer")
        if v < least:
            raise ConfigError(f"{key} must be at least {least}")
        return v
    return read


def _switch(key: str) -> Callable[[dict], bool]:
    """Reader of cfg[key], which must be a JSON boolean."""
    def read(cfg: dict) -> bool:
        v = cfg[key]
        # a string "false" is truthy, and 1 is not a switch
        if not isinstance(v, bool):
            raise ConfigError(f"{key} must be true or false, not {json.dumps(v)}")
        return v
    return read


def _float(v, key: str) -> float:
    # bool is a subclass of int, but a JSON true is not a number
    if isinstance(v, bool):
        raise TypeError(f"{key} must be a number, not {json.dumps(v)}")
    return float(v)


def _record(cls, key: str, numbers: bool = False) -> Callable[[dict], object]:
    """Reader of cfg[key], a JSON object of dataclass cls's fields (each
    a float when numbers); a field without a default is required."""
    def read(cfg: dict):
        d, fields = cfg[key], dataclasses.fields(cls)
        _check_keys(d, {f.name for f in fields},
                    {f.name for f in fields if f.default is dataclasses.MISSING},
                    key)
        try:
            return cls(**{k: _float(v, k) if numbers else v
                          for k, v in d.items()})
        except (ValueError, TypeError) as e:
            raise ConfigError(f"bad {key}: {e}")
    return read


_params_from = _record(ModelParams, "params", numbers=True)


def _scenario_from(cfg: dict) -> Scenario:
    try:
        return Scenario.from_tag(str(cfg["scenario"]))
    except UtilityError as e:
        raise ConfigError(str(e))


def _alpha_from(cfg: dict) -> float:
    try:
        a = _float(cfg["alpha"], "alpha")
    except (TypeError, ValueError):
        raise ConfigError("alpha must be a number")
    if a < 0.0 or not math.isfinite(a):
        raise ConfigError("alpha must be finite and nonnegative")
    return a


def _mode_from(cfg: dict) -> str:
    if cfg["mode"] not in ("views", "dynamics"):
        raise ConfigError("mode must be 'views' or 'dynamics'")
    return cfg["mode"]


def _quality_from(cfg: dict) -> Quality:
    q = {"good": Quality.GOOD, "bad": Quality.BAD}.get(
        str(cfg["quality"]).lower())
    if q is None:
        raise ConfigError("quality must be 'good' or 'bad'")
    return q


def _sweep_from(cfg: dict) -> list:
    """The params with each swept pull rate in turn."""
    if not isinstance(cfg["sweep_lambda_pu"], list):
        raise ConfigError("sweep_lambda_pu must be a list of pull rates")
    return [_params_from({"params": dict(cfg["params"], lambda_pu=lpu)})
            for lpu in cfg["sweep_lambda_pu"]]


_READERS = {
    "scenario": _scenario_from,
    "params": _params_from,
    "belief": _record(Belief, "belief", numbers=True),
    "alpha": _alpha_from,
    "grid": _record(GridSpec, "grid"),
    "sim": _record(SimConfig, "sim"),
    "mode": _mode_from,
    "quality": _quality_from,
    "sweep_lambda_pu": _sweep_from,
    "n_samples": _integer("n_samples", 2),
    "n_grid": _integer("n_grid", 2),
    "n_draws": _integer("n_draws", 1),
    "seed": _integer("seed", 0),
    "corrupt": _switch("corrupt"),
    "oracle_check": _switch("oracle_check"),
    "out": lambda cfg: str(cfg["out"]),
}


def _load_config(args) -> dict:
    """The config with the flags applied, each key read by its _READERS
    entry, whether or not the command (or its mode) uses it."""
    cfg: dict = {}
    if args.config is not None:
        try:
            with open(args.config) as fh:
                cfg = json.load(fh)
        except OSError as e:
            raise ConfigError(f"cannot read config: {e}")
        except json.JSONDecodeError as e:
            raise ConfigError(f"config is not valid JSON: {e}")
    if not isinstance(cfg, dict):
        raise ConfigError(f"{args.command} config must be a JSON object")
    if args.out is not None:
        cfg["out"] = args.out
    if args.scenario is not None:
        cfg["scenario"] = args.scenario
    if getattr(args, "seed", None) is not None:
        if args.command != "simulate":
            cfg["seed"] = args.seed
        elif isinstance(cfg.setdefault("sim", {}), dict):
            # a sim that is not an object is reported by its reader
            cfg["sim"]["seed"] = args.seed
    cmd = _COMMANDS[args.command]
    required = set(cmd.required.split())
    _check_keys(cfg, required | set(cmd.optional.split()), required,
                f"{args.command} config")
    # in _READERS order, so params are read before the sweep built on them
    return {k: read(cfg) for k, read in _READERS.items() if k in cfg}


def _out_base(out: str) -> str:
    return out[:-4] if out.endswith(".csv") else out


def _write_json(path: str, obj) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(json.dumps(obj, sort_keys=True, indent=2))
        fh.write("\n")


# -- commands ------------------------------------------------------------------

def cmd_trajectory(cfg: dict) -> int:
    s = cfg["scenario"]
    base = _out_base(cfg["out"])
    for q, tag in ((Quality.GOOD, "good"), (Quality.BAD, "bad")):
        traj = sample_trajectory(q, cfg["alpha"], cfg["params"], s.push,
                                 s.metric, n_samples=cfg.get("n_samples", 2001))
        traj.to_csv(f"{base}_{tag}.csv")
    return EXIT_OK


def cmd_surface(cfg: dict) -> int:
    rows = utility_surface(cfg["alpha"], cfg["belief"], cfg["params"],
                           cfg["scenario"], cfg.get("n_grid", 512))
    write_csv(cfg["out"], "beta,utility,branch", "%.12g,%.12g,%s\n",
              *zip(*rows))
    return EXIT_OK


def cmd_best_response(cfg: dict) -> int:
    s, p, belief, alpha = (cfg[k] for k in ("scenario", "params", "belief",
                                            "alpha"))
    br = closed_form_best_response(alpha, belief, p, s)
    if br is not None:
        payload = br.as_dict()
        method = "closed-form"
    else:
        # no closed form for this variant: report the grid argmax set
        pts = grid_best_response(alpha, belief, p, s,
                                 cfg.get("grid", GridSpec()))
        payload = {
            "kind": "GridSet",
            "values": [float(v) for v in pts],
            "utility": utility(alpha, float(pts[0]), belief, p, s),
        }
        method = "grid"
    _write_json(cfg["out"], {
        "alpha": alpha,
        "belief": dataclasses.asdict(belief),
        "best_response": payload,
        "method": method,
        "scenario": s.value,
    })
    return EXIT_OK


def _report_sweep(s: Scenario, belief: Belief, sweep: list) -> list:
    rows = []
    for p in sweep:
        try:
            eq, diags = classify(s, belief, p)
        except (DynamicsError, UtilityError, EquilibriumError,
                NumericsError) as e:
            # a rate outside a theorem's hypotheses spoils its row only
            rows.append({"lambda_pu": p.lambda_pu, "error": str(e)})
            continue
        row = {
            "lambda_pu": p.lambda_pu,
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
    s, p, belief = cfg["scenario"], cfg["params"], cfg["belief"]
    if s is Scenario.TREND_VIEWCOUNT_EXPONENTIAL:
        raise ConfigError(
            "classify does not support TrendViewcountExponential "
            "(no closed form); use best-response with a grid instead")
    oracle_checked = cfg.get("oracle_check", False)
    eq, diags = classify(s, belief, p)
    if oracle_checked:
        reason = check_equilibrium_set(eq, belief, p, s,
                                       cfg.get("grid", GridSpec()))
        if reason is not None:
            print(f"oracle check failed: {reason}", file=sys.stderr)
            return EXIT_NUMERIC
    report = make_report(s, belief, p, eq, diags, oracle_checked=oracle_checked)
    if "sweep_lambda_pu" in cfg:
        report["sweep"] = _report_sweep(s, belief, cfg["sweep_lambda_pu"])
    _write_json(cfg["out"], report)
    return EXIT_OK


# -- verify --------------------------------------------------------------------

def _draw_model(s: Scenario, rng: np.random.Generator):
    """Random admissible family, next to the case boundaries too.

    The boundaries are where the printed forms most need testing, and
    only the classifiers know where they lie. The one band left out is
    SideInformation's, its pull and push ratios included: there the
    printed bracket can cover [0, cap] while the true set is {0}
    (classify_side_info), so a family within 5% of it is drawn again.
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
    s = cfg["scenario"]
    if s is Scenario.TREND_VIEWCOUNT_EXPONENTIAL:
        raise ConfigError(
            "verify does not support TrendViewcountExponential (no closed form)")
    n_draws = cfg.get("n_draws", 100)
    corrupt = cfg.get("corrupt", False)
    g = cfg.get("grid", GridSpec())
    rng = np.random.default_rng(cfg.get("seed", 0))
    lines = []
    failures = 0
    for k in range(n_draws):
        belief, p = _draw_model(s, rng)
        eq, _ = classify(s, belief, p)
        if corrupt:
            eq = _corrupt_set(eq, p, s)
        reason = check_equilibrium_set(eq, belief, p, s, g)
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
        with open(cfg["out"], "w", newline="") as fh:
            fh.write(text)
    return EXIT_NUMERIC if failures else EXIT_OK


def cmd_simulate(cfg: dict) -> int:
    s, p, sim = cfg["scenario"], cfg["params"], cfg["sim"]
    if cfg["mode"] == "views":
        if "alpha" not in cfg or "quality" not in cfg:
            raise ConfigError("views mode needs alpha and quality")
        traj = simulate_views(cfg["quality"], cfg["alpha"], p, s, sim)
        out = cfg["out"]
        traj.to_csv(out if out.endswith(".csv") else out + ".csv")
        return EXIT_OK
    if "belief" not in cfg:
        raise ConfigError("dynamics mode needs a belief")
    res = best_response_dynamics(cfg["belief"], p, s, sim)
    base = _out_base(cfg["out"])
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
        if name in ("verify", "simulate"):
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
        # a float overflow, 0/0 or x/0 that no kernel expects is a wrong
        # number, never written (the Python ** raises OverflowError itself)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return _COMMANDS[args.command].run(cfg)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (DynamicsError, UtilityError, EquilibriumError, NumericsError,
            FloatingPointError, OverflowError) as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
