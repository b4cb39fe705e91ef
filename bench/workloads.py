"""Workload items drawn from a seed, and the checks on each item's output.

An item is one ``pushpull`` CLI call: a subcommand plus a JSON config.
Every input is drawn here from the workload seed; the program receives
only the written configs. Parameter ranges follow the families that
``pushpull verify`` draws (rates 0.05-0.4, pool 200-3000, pull
1-1.6 x lam_g*n), without its margin filtering.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Tuple

LIN_FH = "LinearFixedHorizon"
TV_LIN = "TrendViewcountLinear"
SIDE = "SideInformation"
EXP_FH = "ExponentialFixedHorizon"
VAR_H = "VariableHorizon"
TV_EXP = "TrendViewcountExponential"

# `simulate --mode dynamics` needs a closed-form best response; these two
# scenarios have none and exit 1 with UtilityError, so there is no success
# path to time. The change adding a grid fallback adds them back.
DYNAMICS_EXCLUDED = dict.fromkeys(
    (VAR_H, TV_EXP), "no closed-form best response: simulate --mode dynamics "
    "raises UtilityError (exit 1)")
DYNAMICS_SCENARIOS = (LIN_FH, TV_LIN, EXP_FH, SIDE)
CLOSED_FORM_SCENARIOS = (LIN_FH, TV_LIN, EXP_FH, VAR_H, SIDE)

VIEWS_POOL = 100_000      # push pool of every `simulate --mode views` item
VIEWS_SIGMAS = 5.0        # mean-field tolerance in standard deviations
TVE_N_GRID = 4            # small surface grid for TrendViewcountExponential
NEG_CONTROL_DRAWS = 8     # draws of the corrupted `verify` control


@dataclass(frozen=True)
class Item:
    kind: str                 # verify | surface | views | dynamics
    command: str
    config: dict
    outputs: Tuple[str, ...] = ()   # files the command writes, under out/
    expect: Optional[Tuple[float, float]] = None  # views: (mean field, tol)
    argv: Tuple[str, ...] = field(default=(), compare=False)


# Distinct items per workload; the timed loop cycles through them, so an
# item seen again must reproduce its output bytes. Why each workload was
# chosen is recorded in BENCHMARK.json.
POOL = {"verify_sat": 150, "verify_lin": 400, "tve_surface": 100,
        "scalar_cli": 120}


# -- parameter families ------------------------------------------------------

def _linear_family(rng: random.Random) -> dict:
    lam_g = rng.uniform(0.05, 0.4)
    return {"lambda_ps_g": lam_g, "lambda_ps_b": lam_g * rng.uniform(0.2, 0.9),
            "lambda_pu": rng.uniform(0.0, 3.0), "tau": rng.uniform(2.0, 40.0)}


def _saturating_family(rng: random.Random, gated: bool = False) -> dict:
    lam_g = rng.uniform(0.05, 0.4)
    lam_b = lam_g * rng.uniform(0.2, 0.9)
    n = rng.uniform(200.0, 3000.0)
    lpu = lam_g * n * rng.uniform(1.0, 1.6)
    p = {"lambda_ps_g": lam_g, "lambda_ps_b": lam_b, "lambda_pu": lpu,
         "tau": rng.uniform(2.0, 40.0), "n_pool": n}
    if gated:
        p["gamma_th"] = lpu + rng.uniform(0.05, 0.95) * lam_b * n
    return p


def family(scenario: str, rng: random.Random) -> dict:
    if scenario in (LIN_FH, TV_LIN, SIDE):
        return _linear_family(rng)
    return _saturating_family(rng, gated=scenario == VAR_H)


def symmetric_cap(scenario: str, p: dict) -> float:
    """Largest symmetric threshold: the bad content's push-only reach."""
    lam, tau = p["lambda_ps_b"], p["tau"]
    if scenario == LIN_FH:
        return lam * tau
    if scenario == TV_LIN:
        return lam * lam * tau
    if scenario == SIDE:
        return 0.5 * (lam * tau) ** 2
    n = p["n_pool"]
    if scenario == EXP_FH:
        return n * -math.expm1(-lam * tau)
    if scenario == VAR_H:
        t1 = math.log(lam * n / (p["gamma_th"] - p["lambda_pu"])) / lam
        return n * -math.expm1(-lam * min(max(t1, 0.0), tau))
    # trend x viewcount under push alone: lam n^2 u(1-u), u = e^{-lam t}
    u = max(math.exp(-lam * tau), 0.5)
    return lam * n * n * u * (1.0 - u)


def _belief(rng: random.Random) -> dict:
    pi_g = rng.uniform(0.05, 0.95)
    return {"pi_g": pi_g, "pi_b": 1.0 - pi_g}


# -- items -------------------------------------------------------------------

def _verify(scenario: str, seed: int) -> Item:
    return Item("verify", "verify",
                {"scenario": scenario, "n_draws": 1, "seed": seed})


def _surface(scenario: str, rng: random.Random,
             n_grid: Optional[int] = None) -> Item:
    p = family(scenario, rng)
    cfg = {"scenario": scenario, "params": p, "belief": _belief(rng),
           "alpha": rng.uniform(0.05, 0.95) * symmetric_cap(scenario, p)}
    if n_grid is not None:
        cfg["n_grid"] = n_grid
    return Item("surface", "surface", cfg, ("surface.csv",))


def _dynamics(scenario: str, rng: random.Random) -> Item:
    cfg = {"mode": "dynamics", "scenario": scenario,
           "params": family(scenario, rng), "belief": _belief(rng),
           "sim": {"seed": rng.randrange(1 << 31), "n_push_pool": 1000}}
    return Item("dynamics", "simulate", cfg,
                ("dyn_snapshots.csv", "dyn_summary.json"))


def _views(rng: random.Random, mean_field) -> Item:
    """Saturating push at a large pool, with its mean-field final count.

    The push share of the pool reached by tau and the pull volume are
    drawn in narrow bands so every item writes a comparable number of
    CSV rows (about 0.8-1.3 x the pool).
    """
    n = VIEWS_POOL
    lam_g = rng.uniform(0.05, 0.4)
    lam_b = lam_g * rng.uniform(0.2, 0.9)
    good = rng.random() < 0.5
    lam = lam_g if good else lam_b
    reach = rng.uniform(0.6, 0.9)
    tau = -math.log1p(-reach) / lam
    lpu = n * rng.uniform(0.2, 0.4) / tau
    alpha = rng.uniform(0.05, 0.95) * n * reach
    p = {"lambda_ps_g": lam_g, "lambda_ps_b": lam_b, "lambda_pu": lpu,
         "tau": tau, "n_pool": float(n)}
    cfg = {"mode": "views", "scenario": EXP_FH, "params": p, "alpha": alpha,
           "quality": "good" if good else "bad",
           "sim": {"seed": rng.randrange(1 << 31), "n_push_pool": n}}
    return Item("views", "simulate", cfg, ("views.csv",),
                expect=(mean_field(p, good, alpha),
                        _views_tolerance(n, lam, lpu, tau, alpha)))


def _views_tolerance(n, lam, lpu, tau, alpha) -> float:
    """VIEWS_SIGMAS standard deviations of the simulated final count.

    Push accesses by tau are Binomial(n, F(tau)); pull arrivals are
    Poisson over the open window; the window opens at the ceil(alpha)-th
    push access, whose time spread is the count spread over the push rate.
    """
    f_tau = -math.expm1(-lam * tau)
    t_gate = -math.log1p(-alpha / n) / lam
    var_push = n * f_tau * (1.0 - f_tau)
    var_pull = lpu * (tau - t_gate)
    sd_gate = math.sqrt(alpha * (1.0 - alpha / n)) / (n * lam * math.exp(-lam * t_gate))
    var = var_push + var_pull + (lpu * sd_gate) ** 2
    return VIEWS_SIGMAS * math.sqrt(var) + 2.0


def _scalar_cycle(rng: random.Random, mean_field) -> list:
    """Twelve items: a surface per closed-form scenario, a dynamics run per
    scenario with a closed-form best response, and three views runs.

    The fixed mix keeps every seed's pool alike. Views runs cost ~20x a
    one-point item, so at 25% of the items they hold the 90th percentile
    well inside the views times, and the median sits inside the one-point
    surface and dynamics times.
    """
    items = [_surface(s, rng) for s in CLOSED_FORM_SCENARIOS]
    items += [_dynamics(s, rng) for s in DYNAMICS_SCENARIOS]
    items += [_views(rng, mean_field) for _ in range(3)]
    rng.shuffle(items)
    return items


def generate(workload: str, seed: int, mean_field=None) -> list:
    """The workload's item pool, a pure function of (workload, seed).

    mean_field(params, good, alpha) gives the expected final viewcount
    of a views item; only scalar_cli needs it.
    """
    pool = POOL[workload]
    rng = random.Random(f"{workload}:{seed}")
    if workload in ("verify_sat", "verify_lin"):
        scen = (EXP_FH, VAR_H) if workload == "verify_sat" else (LIN_FH, TV_LIN, SIDE)
        seeds = rng.sample(range(1_000_000), pool)
        return [_verify(scen[k % len(scen)], s) for k, s in enumerate(seeds)]
    if workload == "tve_surface":
        return [_surface(TV_EXP, rng, TVE_N_GRID) for _ in range(pool)]
    items: list = []
    while len(items) < pool:
        items.extend(_scalar_cycle(rng, mean_field))
    return items[:pool]


def negative_control(seed: int) -> dict:
    return {"scenario": LIN_FH, "n_draws": NEG_CONTROL_DRAWS, "seed": seed,
            "corrupt": True}


def write_configs(items: list, workdir: Path) -> list:
    """Write one config per item; returns the items with their argv set."""
    cfg_dir, out_dir = workdir / "cfg", workdir / "out"
    cfg_dir.mkdir(parents=True, exist_ok=True)
    out_dir.mkdir(parents=True, exist_ok=True)
    done = []
    for k, it in enumerate(items):
        cfg = dict(it.config)
        if it.kind == "dynamics":
            cfg["out"] = str(out_dir / "dyn")
        elif it.outputs:
            cfg["out"] = str(out_dir / it.outputs[0])
        path = cfg_dir / f"{k:05d}.json"
        path.write_text(json.dumps(cfg, sort_keys=True))
        done.append(Item(it.kind, it.command, it.config, it.outputs, it.expect,
                         (it.command, "--config", str(path))))
    return done


# -- output checks -------------------------------------------------------------

def check(item: Item, rc, stdout: str, files: dict) -> Optional[str]:
    """None when the item succeeded, else why it counts as failed."""
    if item.kind == "verify":
        return _check_verify(rc, stdout)
    if rc != 0:
        return f"exit code {rc}"
    try:
        if item.kind == "surface":
            return _check_surface(item, files["surface.csv"])
        if item.kind == "views":
            return _check_views(item, files["views.csv"])
        return _check_dynamics(item, files["dyn_snapshots.csv"],
                               files["dyn_summary.json"])
    except (KeyError, ValueError, IndexError, TypeError, AttributeError) as e:
        return f"malformed output: {e!r}"


def _check_verify(rc, stdout: str) -> Optional[str]:
    lines = stdout.splitlines()
    n_pass = sum(": PASS " in ln for ln in lines)
    n_fail = sum(": FAIL " in ln for ln in lines)
    if not lines or lines[-1] != f"{n_pass}/{n_pass + n_fail} draws passed" \
            or n_pass + n_fail != 1:
        return f"malformed verify output: {stdout[-200:]!r}"
    if n_fail:
        return next(ln for ln in lines if ": FAIL " in ln)
    if rc != 0:
        return f"exit code {rc} with every draw passing"
    return None


def _text(data: Optional[bytes], header: str) -> str:
    if data is None:
        raise ValueError("output file missing")
    text = data.decode()
    if not text.startswith(header + "\n"):
        raise ValueError(f"header is not {header!r}")
    return text


def _check_surface(item: Item, data) -> Optional[str]:
    rows = list(csv.reader(io.StringIO(_text(data, "beta,utility,branch"))))[1:]
    n_grid = item.config.get("n_grid", 512)
    betas = [float(r[0]) for r in rows]
    utils = [float(r[1]) for r in rows]
    if len(rows) < n_grid:
        return f"{len(rows)} rows for n_grid={n_grid}"
    if betas[0] != 0.0 or any(b1 < b0 for b0, b1 in zip(betas, betas[1:])):
        return "beta column does not rise from 0"
    if not all(math.isfinite(u) for u in utils):
        return "non-finite utility"
    branches = {"below_alpha", "above_alpha", "left_limit", "right_limit"}
    if any(r[2] not in branches for r in rows):
        return "unknown branch label"
    return None


def _check_views(item: Item, data) -> Optional[str]:
    # only the last row matters, and the whole path can be ~10^5 rows
    last = _text(data, "t,x,xdot").rstrip("\n").rsplit("\n", 1)[-1]
    t_end, x_end = (float(v) for v in last.split(",")[:2])
    tau = item.config["params"]["tau"]
    if abs(t_end - tau) > 1e-9 * tau:
        return f"path ends at t={t_end}, not tau={tau}"
    mean, tol = item.expect
    if abs(x_end - mean) > tol:
        return (f"final viewcount {x_end:.0f} misses the mean field "
                f"{mean:.1f} by more than {tol:.1f}")
    return None


def _check_dynamics(item: Item, snaps, summary) -> Optional[str]:
    s = json.loads(summary.decode())
    sim = item.config["sim"]
    n_agents, rounds = sim.get("n_agents", 50), sim.get("rounds", 120)
    if s["status"] not in ("converged", "max-rounds"):
        return f"status {s['status']!r}"
    if s["n_agents"] != n_agents or not 1 <= s["rounds_run"] <= rounds:
        return "summary disagrees with the config"
    vals = [s[k] for k in ("settled_min", "settled_median", "settled_max")]
    if not all(math.isfinite(v) and v >= 0.0 for v in vals) or vals != sorted(vals):
        return "settled thresholds out of order"
    n_rows = _text(snaps, "round,agent_id,threshold").count("\n") - 1
    if n_rows != (s["rounds_run"] + 1) * n_agents:
        return f"{n_rows} snapshot rows for {s['rounds_run']} rounds"
    return None
