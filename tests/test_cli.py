"""CLI commands end to end, through cli.main in-process."""

import dataclasses
import hashlib
import json
import re
import tempfile
from collections import namedtuple
from pathlib import Path

import numpy as np
import pytest

from pushpull import (
    Belief,
    DynamicsResult,
    GridSpec,
    ModelParams,
    NumericsError,
    Quality,
    Scenario,
    SimConfig,
    Trajectory,
    best_response_linear,
    check_equilibrium_set,
    classify,
    decide_rows,
    find_symmetric_equilibria,
    grid_best_response,
    make_report,
    sample_trajectory,
    simulate_views,
    strategy_cap,
    symmetric_cap,
    utility,
    utility_surface,
)
from pushpull import dynamics
from pushpull.cli import EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, _draw_model, main
from pushpull.oracle import _SLACK, _STRICT_REFINE

CLOSED_FORM = [s.value for s in Scenario
               if s is not Scenario.TREND_VIEWCOUNT_EXPONENTIAL]
LIN = {"lambda_ps_g": 0.2, "lambda_ps_b": 0.1, "lambda_pu": 1.0, "tau": 10.0}
EXP = {"lambda_ps_g": 0.1, "lambda_ps_b": 0.05, "lambda_pu": 110.0,
       "tau": 8.0, "n_pool": 1000.0}
VH = dict(EXP, gamma_th=140.0)
PARAMS = {"LinearFixedHorizon": LIN, "TrendViewcountLinear": LIN,
          "SideInformation": LIN, "ExponentialFixedHorizon": EXP,
          "TrendViewcountExponential": EXP, "VariableHorizon": VH}
# outside the SideInformation band where the printed set is not the true one
BELIEF = {"pi_g": 0.3, "pi_b": 0.7}


def run_cli(command, tmp_path, capsys, *flags, **cfg):
    path = tmp_path / f"{command}.json"
    path.write_text(json.dumps(cfg))
    rc = main([command, "--config", str(path), *flags])
    out, err = capsys.readouterr()
    return rc, out, err


def run_twice(command, tmp_path, capsys, **cfg):
    """Run a writing command twice with --out <fresh directory>/out.

    Both runs must write the same files with the same bytes; returns
    {file name: text}.
    """
    trees = []
    for _ in range(2):
        dest = Path(tempfile.mkdtemp(dir=tmp_path))
        rc, _, err = run_cli(command, tmp_path, capsys, "--out",
                             str(dest / "out"), **cfg)
        assert rc == EXIT_OK, err
        trees.append({f.name: f.read_bytes() for f in dest.iterdir()})
    assert trees[0] == trees[1]
    return {name: data.decode() for name, data in trees[0].items()}


@pytest.mark.parametrize("scenario", ["LinearFixedHorizon",
                                      "ExponentialFixedHorizon",
                                      "TrendViewcountExponential"])
def test_surface_rows_match_pointwise_utility(scenario, tmp_path, capsys):
    s = Scenario.from_tag(scenario)
    p, b = ModelParams(**PARAMS[scenario]), Belief(**BELIEF)
    alpha, n_grid = 0.4 * symmetric_cap(p, s), 7
    text = run_twice("surface", tmp_path, capsys, scenario=scenario,
                     params=PARAMS[scenario], belief=BELIEF, alpha=alpha,
                     n_grid=n_grid)["out"]
    lines = text.splitlines()
    assert lines[0] == "beta,utility,branch"
    rows = [(float(beta), float(u), branch)
            for beta, u, branch in (line.split(",") for line in lines[1:])]
    grid = [r for r in rows if r[2] in ("below_alpha", "above_alpha")]
    left = [r for r in rows if r[2] == "left_limit"]
    right = [r for r in rows if r[2] == "right_limit"]
    assert len(grid) == n_grid and len(rows) == n_grid + 2 * len(left)
    assert [r[0] for r in left] == [r[0] for r in right] and left
    assert all((beta <= alpha) == (branch == "below_alpha")
               for beta, _, branch in grid)
    # limit rows stand for U a relative 1e-9 of the cap off each jump
    cap = strategy_cap(alpha, p, s)
    eps = 1e-9 * cap
    points = ([beta for beta, _, _ in grid]
              + [beta - eps for beta, _, _ in left]
              + [beta + eps for beta, _, _ in right])
    values = [u for _, u, _ in grid + left + right]
    # the file prints 12 significant digits, which can round past the cap
    assert values == pytest.approx(
        [utility(alpha, min(beta, cap), b, p, s) for beta in points],
        rel=1e-10, abs=1e-10 * p.tau)


def test_best_response_closed_form_and_grid_fallback(tmp_path, capsys):
    b = Belief(**BELIEF)
    rep = json.loads(run_twice("best-response", tmp_path, capsys,
                               scenario="LinearFixedHorizon", params=LIN,
                               belief=BELIEF, alpha=0.5)["out"])
    assert rep["method"] == "closed-form"
    assert rep["best_response"] == best_response_linear(
        0.5, b, ModelParams(**LIN)).as_dict()
    # VariableHorizon has no closed form: the grid argmax set stands in
    s, p = Scenario.VARIABLE_HORIZON, ModelParams(**VH)
    alpha = 0.4 * symmetric_cap(p, s)
    rep = json.loads(run_twice("best-response", tmp_path, capsys,
                               scenario=s.value, params=VH, belief=BELIEF,
                               alpha=alpha)["out"])
    assert rep["method"] == "grid"
    assert rep["best_response"]["kind"] == "GridSet"
    values = grid_best_response(alpha, b, p, s, GridSpec()).tolist()
    assert rep["best_response"]["values"] == values
    assert rep["best_response"]["utility"] == utility(alpha, values[0], b, p, s)


@pytest.mark.parametrize("scenario", CLOSED_FORM)
def test_classify_with_oracle_check_passes(scenario, tmp_path, capsys):
    s = Scenario.from_tag(scenario)
    p, b = ModelParams(**PARAMS[scenario]), Belief(**BELIEF)
    rep = json.loads(run_twice("classify", tmp_path, capsys,
                               scenario=scenario, params=PARAMS[scenario],
                               belief=BELIEF, oracle_check=True)["out"])
    eq, diags = classify(s, b, p)
    assert rep == json.loads(json.dumps(
        make_report(s, b, p, eq, diags, oracle_checked=True)))


@pytest.mark.parametrize("scenario, last", [
    ("ExponentialFixedHorizon", None),
    ("VariableHorizon", "gamma_th=140.0 <= lambda_pu=220.0: window never closes"),
])
def test_classify_sweep_keeps_the_report_when_a_rate_fails(
        scenario, last, tmp_path, capsys):
    # lambda_ps(G)*n_pool = 100, so half the base pull rate breaks the
    # saturating-push hypothesis; under the trend gate (gamma_th = 140)
    # twice the rate keeps the window open
    s = Scenario.from_tag(scenario)
    p, b = ModelParams(**PARAMS[scenario]), Belief(**BELIEF)
    rep = json.loads(run_twice("classify", tmp_path, capsys,
                               scenario=scenario, params=PARAMS[scenario],
                               belief=BELIEF,
                               sweep_lambda_pu=[55.0, 110.0, 220.0])["out"])
    rows = rep.pop("sweep")
    eq, diags = classify(s, b, p)
    assert rep == json.loads(json.dumps(make_report(s, b, p, eq, diags)))
    assert rows[0] == {"lambda_pu": 55.0, "error": (
        "requires lambda_ps(G)*n_pool <= lambda_pu: 100.0 > 55.0")}
    assert rows[1]["lambda_pu"] == 110.0 and rows[1]["kind"] == eq.kind.value
    assert rows[2]["lambda_pu"] == 220.0 and rows[2].get("error") == last


@pytest.mark.parametrize("scenario", CLOSED_FORM)
def test_verify_passes_every_closed_form_scenario(scenario, tmp_path, capsys):
    rc, out, _ = run_cli("verify", tmp_path, capsys, scenario=scenario,
                         n_draws=3)
    assert rc == EXIT_OK
    lines = out.splitlines()
    assert len(lines) == 4
    assert all(line.startswith(f"draw {k:03d}: PASS ")
               for k, line in enumerate(lines[:3]))
    assert lines[-1] == "3/3 draws passed"


@pytest.mark.parametrize("scenario", CLOSED_FORM)
def test_verify_stdout_matches_the_golden_transcript(scenario, tmp_path,
                                                     capsys):
    # tests/golden holds the stdout of `verify --scenario S` (100 draws,
    # seed 0) of the oracle that gave every alpha its full row; screening
    # the rows must not move a single byte of it
    golden = Path(__file__).parent / "golden" / f"verify_{scenario}.txt"
    rc, out, _ = run_cli("verify", tmp_path, capsys, scenario=scenario)
    assert rc == EXIT_OK
    assert out == golden.read_text()


VERIFY_DIGESTS = json.loads(
    (Path(__file__).parent / "golden" / "verify_digests.json").read_text())


@pytest.mark.parametrize("key", sorted(VERIFY_DIGESTS))
def test_verify_stdout_matches_its_pinned_digest(key, tmp_path, capsys):
    # tests/golden/verify_digests.json holds the SHA-256 of the stdout of
    # `verify --scenario S --seed N` (100 draws) for seeds 1-5, with
    # `corrupt` at seed 0 ("S/0/corrupt"), whose FAIL lines print
    # deviation_sweep gaps, and of 200 draws at seed 7 ("S/7/200"); an
    # oracle change must not move a byte of any of them
    scenario, seed, *extra = key.split("/")
    corrupt = extra == ["corrupt"]
    rc, out, _ = run_cli("verify", tmp_path, capsys, scenario=scenario,
                         seed=int(seed), corrupt=corrupt,
                         n_draws=100 if corrupt or not extra else int(extra[0]))
    assert rc == (EXIT_NUMERIC if corrupt else EXIT_OK), out
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == VERIFY_DIGESTS[key], out


@pytest.mark.parametrize("scenario", CLOSED_FORM)
def test_verify_rejects_a_corrupted_closed_form(scenario, tmp_path, capsys):
    # negative control: every shifted set must fail the oracle check
    rc, out, _ = run_cli("verify", tmp_path, capsys, scenario=scenario,
                         n_draws=4, seed=5, corrupt=True)
    assert rc == EXIT_NUMERIC
    lines = out.splitlines()
    assert all(": FAIL " in line for line in lines[:4])
    assert lines[-1] == "0/4 draws passed (corrupted closed form)"


# the VariableHorizon families that verify drew at seeds 1045 and 937818
# while its draws kept clear of the case boundaries
VH_GRID_GAPS = {
    1045: (Belief(0.5532806563315865, 0.4467193436684135),
           ModelParams(0.34696657011491905, 0.14283495345650324,
                       1066.345448468906, 29.33835143706383,
                       n_pool=2312.7428298948894, gamma_th=1186.871129032678)),
    937818: (Belief(0.5496697468585231, 0.4503302531414769),
             ModelParams(0.3588359036843309, 0.17434296324736198,
                         243.2861693950674, 36.442796375850854,
                         n_pool=485.8637148724602,
                         gamma_th=284.22666665053714)),
}


@pytest.mark.parametrize("seed", sorted(VH_GRID_GAPS))
def test_verify_variable_horizon_seed_1045(seed):
    # the grid rows of two oracle equilibria below the printed interval,
    # among them 793.223 (seed 1045, grid gap 2.7e-11, true gap 2.1e-5)
    # and 112.966 (seed 937818), step over a smooth peak of U(alpha, .);
    # the strict re-test on finer rows finds it, so the printed set
    # rightly omits them
    s = Scenario.VARIABLE_HORIZON
    b, p = VH_GRID_GAPS[seed]
    g = GridSpec()
    eq, _ = classify(s, b, p)
    assert eq.case == "interval-pull"
    cap_a = symmetric_cap(p, s)
    tol_edge = 1.5 * (cap_a / (g.n_alpha - 1)) + 1e-9 * max(cap_a, 1.0)
    outside = [a for a in find_symmetric_equilibria(b, p, s, g).tolist()
               if not eq.contains(a, tol=tol_edge)]
    assert len(outside) == 2
    # the strict re-test: 0.01 of the slack, on finer rows
    assert not decide_rows(outside, b, p, s,
                           _STRICT_REFINE * (g.n_beta - 1) + 1,
                           0.01 * _SLACK * p.tau).any()
    assert check_equilibrium_set(eq, b, p, s, g) is None


@pytest.mark.parametrize("r", [1e-2, 1e-4, 1e-9, 0.0])
def test_variable_horizon_knife_edge_at_the_push_ratio(r):
    # rho = (1 - r) lam_G/lam_B: just below the boundary alpha_0's
    # exponent has a denominator tending to 0 (it rounds to 0 next to
    # it); the limit must come out, not OverflowError or ZeroDivisionError
    s = Scenario.VARIABLE_HORIZON
    rng = np.random.default_rng(0)
    for _ in range(20):
        _, p = _draw_model(s, rng)
        rho = (1.0 - r) * p.lambda_ps_g / p.lambda_ps_b
        b = Belief(rho / (1.0 + rho), 1.0 / (1.0 + rho))
        eq, _ = classify(s, b, p)
        assert check_equilibrium_set(eq, b, p, s, GridSpec()) is None


def test_draws_give_up_inside_the_side_information_band():
    # a generator that always lands in the band verify leaves out: rho =
    # 1.5 lies between 0.95 of the pull ratio 1.06 and 1.05 of the push
    # ratio 1.82, so every family is drawn again until the draws run out
    class InTheBand:
        def uniform(self, lo, hi):
            return 0.6 if (lo, hi) == (0.05, 0.95) else 0.5 * (lo + hi)

    with pytest.raises(NumericsError, match="could not draw"):
        _draw_model(Scenario.SIDE_INFORMATION, InTheBand())


@pytest.mark.parametrize("shift, sound", [(1e-7, True), (1e-5, False)])
def test_soundness_judges_at_its_own_tolerance(shift, sound):
    # the set is {0}; moved to `shift` its own payoff trails the row best
    # by 3.5 shift, below the slack 1e-6 tau = 1e-5 for the smaller shift
    # and above it for the larger
    s, p, b = Scenario.LINEAR_FIXED_HORIZON, ModelParams(**LIN), Belief(0.9, 0.1)
    eq = classify(s, b, p)[0]
    assert eq.points == (0.0,)
    moved = dataclasses.replace(eq, points=(shift,))
    reason = check_equilibrium_set(moved, b, p, s, GridSpec())
    if sound:
        assert reason is None
    else:
        assert reason == (f"classified point {shift:.6g} is not a grid best "
                          f"response (gap {3.5 * shift:.3g})")


SIM = {"seed": 3, "n_push_pool": 1000}
VIEWS = dict(mode="views", scenario="ExponentialFixedHorizon", params=EXP,
             alpha=50.0, quality="good")
DYNAMICS = dict(mode="dynamics", scenario="LinearFixedHorizon", params=LIN,
                belief=BELIEF)


# -- the CLI contract ----------------------------------------------------------
#
# A row is one call, `command --config <cfg> --out <dir>/out [flags]`: its
# exit code, a regex its stderr matches from the start (empty: no stderr)
# and checks of (stdout, {file name: bytes}, cfg). Any call writes its
# stdout to --out too and prints none on exit 2; one that fails writes no
# other file, and one that succeeds repeats itself byte for byte. Rows that earlier tests checked run under those
# tests' names, which keeps their ids.

Row = namedtuple("Row", "command cfg rc err checks flags")


def call(id, command, cfg, *checks, rc=EXIT_OK, err="", flags=()):
    """A row; the scenario is LinearFixedHorizon unless cfg names one."""
    cfg = {"scenario": "LinearFixedHorizon", **cfg}
    return pytest.param(Row(command, cfg, rc, err, checks, flags), id=id)


def config_error(id, command, cfg, err="", flags=()):
    return call(id, command, cfg, rc=EXIT_CONFIG, err="config error: " + err,
                flags=flags)


def check_row(row, tmp_path, capsys):
    runs = []
    for k in range(2 if row.rc == EXIT_OK else 1):
        dest = tmp_path / str(k)
        dest.mkdir()
        rc, out, err = run_cli(row.command, dest, capsys, "--out",
                               str(dest / "out"), *row.flags, **row.cfg)
        assert rc == row.rc, err
        assert re.match(row.err, err, re.S) if row.err else err == "", err
        files = {f.name: f.read_bytes() for f in dest.glob("out*")}
        assert not out or files["out"] == out.encode()
        assert rc == EXIT_OK or set(files) <= {"out"}
        assert out == "" or rc != EXIT_CONFIG
        runs.append((out, files))
    assert runs[0] == runs[-1]
    for check in row.checks:
        check(*runs[0], row.cfg)


def _path_rows(tr):
    return list(zip(tr.t.tolist(), tr.x.tolist(), tr.xdot.tolist()))


def same_rows(least=2, seed=None):
    """Each file holds f-string rows of the library call the command
    makes, at least least of them; seed stands for a --seed flag."""
    def check(out, files, cfg):
        s, p = Scenario.from_tag(cfg["scenario"]), ModelParams(**cfg["params"])
        header, tables = "t,x,xdot", {}
        if "n_grid" in cfg:
            header, tables["out"] = "beta,utility,branch", utility_surface(
                cfg["alpha"], Belief(**cfg["belief"]), p, s, cfg["n_grid"])
        elif "sim" in cfg:
            sim = SimConfig(**cfg["sim"])
            sim = sim if seed is None else dataclasses.replace(sim, seed=seed)
            q = Quality.GOOD if cfg["quality"] == "good" else Quality.BAD
            tables["out.csv"] = _path_rows(
                simulate_views(q, cfg["alpha"], p, s, sim))
        else:
            for q in Quality:
                tables[f"out_{q.name.lower()}.csv"] = _path_rows(
                    sample_trajectory(q, cfg["alpha"], p, s.push, s.metric,
                                      n_samples=cfg.get("n_samples", 2001)))
        assert set(files) == set(tables)
        for name, rows in tables.items():
            assert len(rows) >= least
            assert files[name].decode() == header + "\n" + "".join(
                ",".join(v if isinstance(v, str) else f"{v:.12g}" for v in r)
                + "\n" for r in rows)
    return check


def json_at(path, expect, name="out"):
    """The JSON file holds expect at the dotted path (a number indexes a
    list): a value, a pytest.approx bound, or a function of the cfg
    giving either."""
    def check(out, files, cfg):
        v = json.loads(files[name])
        for key in path.split("."):
            v = v[int(key)] if isinstance(v, list) else v[key]
        assert v == (expect(cfg) if callable(expect) else expect)
    return check


def grid_argmax(cfg):
    return grid_best_response(
        cfg["alpha"], Belief(**cfg["belief"]), ModelParams(**cfg["params"]),
        Scenario.from_tag(cfg["scenario"]), GridSpec()).tolist()


def first_lines(expect):
    """Exactly these files, with these first lines."""
    def check(out, files, cfg):
        assert {name: data.split(b"\n")[0].decode()
                for name, data in files.items()} == expect
    return check


def file_matches(name, regex):
    def check(out, files, cfg):
        assert re.search(regex, files[name].decode(), re.M)
    return check


def stdout_digest(key):
    def check(out, files, cfg):
        assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_DIGESTS[key]
    return check


def final_views(out, files, cfg):
    t, x, _ = map(float, files["out.csv"].split()[-1].split(b","))
    assert t == cfg["params"]["tau"] and x >= 35.0


SI = "SideInformation"
TVE = "TrendViewcountExponential"
BELIEF_75 = {"pi_g": 0.75, "pi_b": 0.25}
INF, NAN = float("inf"), float("nan")
DYNAMICS_FILES = {"out_snapshots.csv": "round,agent_id,threshold",
                  "out_summary.json": "{"}
ALL = "classify surface best-response"


UNKNOWN_TOL = "unknown grid field(s): tol\n"


def missing_model(scenario, fields):
    return (f"missing params field(s) for {scenario}: "
            + ", ".join(fields.split("-")) + "\n")


def lin(**cfg):
    return {"params": LIN, "belief": BELIEF, **cfg}


def dyn(**sim):
    return dict(DYNAMICS, sim=dict(SIM, **sim))


def _vh_gap(seed):
    b, p = VH_GRID_GAPS[seed]
    return dict(scenario="VariableHorizon", params=dataclasses.asdict(p),
                belief=dataclasses.asdict(b), oracle_check=True)


CONTRACT = {
    "malformed": [config_error(id, command, cfg, flags=flags)
                  for id, command, cfg, *flags in [
        ("verify-n_draws", "verify", {"n_draws": "abc"}),
        ("verify-seed", "verify", {"seed": "x"}),
        ("verify-negative-seed", "verify", {"seed": -1}),
        # a JSON true is a Python int, but not a count or a seed
        ("verify-n_draws-bool", "verify", {"n_draws": True}),
        ("verify-seed-bool", "verify", {"seed": True}),
        ("verify-grid-n_beta", "verify", {"grid": {"n_beta": "x"}}),
        ("verify-grid-n_alpha", "verify", {"grid": {"n_alpha": 150.5}}),
        ("trajectory-n_samples", "trajectory",
         dict(params=LIN, alpha=0.5, n_samples="x")),
        # nor is it a rate, a threshold or a belief
        ("best-response-alpha-lambda_pu-bool", "best-response",
         lin(params=dict(LIN, lambda_pu=True), alpha=True)),
        ("best-response-alpha-bool", "best-response", lin(alpha=True)),
        ("classify-belief-bool", "classify",
         lin(belief=dict(pi_g=True, pi_b=False))),
        ("classify-params", "classify", lin(params=dict(LIN, tau="x"))),
        ("classify-belief", "classify", lin(belief=dict(BELIEF, pi_g="x"))),
        ("classify-sweep-entry", "classify", lin(sweep_lambda_pu=["x"])),
        ("classify-sweep", "classify", lin(sweep_lambda_pu=5)),
        ("simulate-rounds", "simulate", dyn(rounds=2.5)),
        ("simulate-n_agents", "simulate", dyn(n_agents=2.5)),
        ("simulate-seed", "simulate", dyn(seed=1.5)),
        ("simulate-seed-bool", "simulate", dyn(seed=True)),
        ("simulate-n_push_pool-bool", "simulate", dyn(n_push_pool=True)),
        ("simulate-rounds-bool", "simulate", dyn(rounds=True)),
        ("simulate-initial_thresholds", "simulate",
         dyn(n_agents=3, initial_thresholds=[0.0, "x", 0.5])),
        # the thresholds are a sequence of n_agents numbers, not booleans
        ("simulate-thresholds-dict", "simulate",
         dyn(initial_thresholds={"constant": 0.5})),
        ("simulate-initial_thresholds-sequence-bool", "simulate",
         dyn(n_agents=3, initial_thresholds=[True, False, True])),
        ("simulate-seed-flag", "simulate", dict(DYNAMICS, sim=5), "--seed", "3"),
        # JSON reads NaN and Infinity; neither is a rate or a threshold
        ("classify-params-nan", "classify",
         lin(params=dict(LIN, lambda_ps_g=NAN))),
        ("surface-params-nan", "surface",
         lin(params=dict(LIN, lambda_pu=NAN), alpha=0.5)),
        ("best-response-params-inf", "best-response",
         lin(params=dict(LIN, tau=INF), alpha=0.5)),
        ("simulate-thresholds-nan", "simulate",
         dyn(n_agents=3, initial_thresholds=[0.0, NAN, 0.5])),
        ("simulate-thresholds-inf", "simulate",
         dyn(n_agents=3, initial_thresholds=[0.0, 0.5, INF])),
    ]] + [
        # nor a slack, which is no grid field
        config_error("verify-grid-tol-bool", "verify", {"grid": {"tol": True}},
                     err=re.escape(UNKNOWN_TOL)),
    ] + [
        # a flat list of real numbers only: each of these has as many
        # entries as agents once flattened and read by float()
        config_error(f"simulate-thresholds-{id}", "simulate",
                     dyn(n_agents=n, initial_thresholds=v), err="bad sim: ")
        for id, n, v in [("string", 1, "0.5"), ("number", 1, 0.3),
                         ("nested", 1, [["0.1"]]),
                         ("string-entry", 2, [0.1, "0.2"])]],
    # the slack is the oracle's rule, not a grid field: at an infinite
    # one every grid point tied. A grid is read where the command has no
    # use for it too
    "infinite_tol": [config_error(id, command, dict(
        cfg, grid=dict(extra, tol=INF)), err=re.escape(UNKNOWN_TOL))
        for id, command, cfg, *extra in [
            ("verify", "verify", {"n_draws": 1}),
            ("classify", "classify", lin(oracle_check=True)),
            # no closed form: the best response is the grid oracle's
            ("best-response", "best-response",
             lin(scenario=TVE, params=EXP, alpha=1000.0)),
            ("best-response-closed-form", "best-response", lin(alpha=0.5),
             ("n_beta", 5)),
            ("classify-without-oracle_check", "classify", lin()),
        ]],
    # a string "false" is truthy: read by truthiness it would run the
    # corrupted control
    "switch": [config_error(id, command, cfg, err=".*must be true or false")
               for id, command, cfg in [
        ("verify-corrupt-string", "verify", {"n_draws": 1, "corrupt": "false"}),
        ("verify-corrupt-int", "verify", {"n_draws": 1, "corrupt": 0}),
        ("classify-oracle_check-int", "classify", lin(oracle_check=1)),
        ("classify-oracle_check-string", "classify", lin(oracle_check="true")),
    ]],
    "calls": [
        config_error("verify-trend-exponential", "verify",
                     dict(scenario=TVE, n_draws=1),
                     err="verify does not support TrendViewcountExponential"),
        config_error("classify-trend-exponential", "classify",
                     lin(scenario=TVE, params=EXP),
                     err="classify does not support TrendViewcountExponential"),
        config_error("unknown-scenario", "classify", lin(scenario="Linear"),
                     err="unknown scenario 'Linear'; expected one of "
                         "LinearFixedHorizon, "),
        config_error("surface-negative-alpha", "surface", lin(alpha=-0.5),
                     err="alpha must be finite and nonnegative"),
        config_error("simulate-mode", "simulate", dyn() | {"mode": "walk"},
                     err="mode must be 'views' or 'dynamics'"),
        config_error("simulate-views-without-quality", "simulate",
                     {k: v for k, v in dict(VIEWS, sim=SIM).items()
                      if k != "quality"},
                     err="views mode needs alpha and quality"),
        config_error("simulate-dynamics-without-belief", "simulate",
                     {k: v for k, v in dyn().items() if k != "belief"},
                     err="dynamics mode needs a belief"),
        # the last --config wins: a directory, and a file that is not JSON
        config_error("config-unreadable", "classify", {},
                     err="cannot read config: ", flags=("--config", ".")),
        config_error("config-not-json", "classify", {},
                     err="config is not valid JSON: ",
                     flags=("--config", __file__)),
        # the flag overrides the config's scenario
        call("best-response-scenario-flag", "best-response", lin(alpha=0.5),
             json_at("scenario", SI), flags=("--scenario", SI)),
        # every key is read, whether or not the command or its mode uses it
        config_error("classify-grid-n_beta-unused", "classify",
                     lin(grid={"n_beta": "x"})),
        config_error("simulate-views-belief-unused", "simulate",
                     dict(VIEWS, sim=SIM, belief={"pi_g": 2})),
        config_error("simulate-dynamics-alpha-unused", "simulate",
                     dyn() | {"alpha": "abc"}),
        config_error("simulate-dynamics-quality-unused", "simulate",
                     dyn() | {"quality": "purple"}),
        config_error("simulate-update_fraction", "simulate",
                     dyn(update_fraction=1.0),
                     err=r"unknown sim field\(s\): update_fraction"),
        # --seed is a flag of verify and simulate only
        *[call(f"{command}-seed-flag", command, {}, rc=EXIT_CONFIG,
               err="usage: pushpull .*error: unrecognized arguments: --seed 3",
               flags=("--seed", "3"))
          for command in ("trajectory", "surface", "best-response", "classify")],
        call("verify-seed-flag", "verify", {},
             stdout_digest("LinearFixedHorizon/1"), flags=("--seed", "1")),
        call("simulate-views-seed-flag", "simulate",
             dict(VIEWS, params=VH, alpha=400.0, sim=SIM), same_rows(seed=1),
             flags=("--seed", "1")),
        # saturating push draws n_push_pool viewers: the model's pool, which
        # activation_count and viewcount take
        call("simulate-n_push_pool-not-n_pool", "simulate",
             dict(VIEWS, sim=dict(SIM, n_push_pool=10)), rc=EXIT_NUMERIC,
             err="numeric error: saturating push draws n_push_pool=10 pool "
                 "viewers, but the model's n_pool is 1000.0"),
        # the model's and the simulators' own refusals
        config_error("classify-zero-push-rate", "classify",
                     lin(params=dict(LIN, lambda_ps_b=0.0)),
                     err="bad params: push rates must be positive"),
        config_error("simulate-n_push_pool-zero", "simulate",
                     dyn(n_push_pool=0),
                     err="bad sim: n_push_pool must be at least 1"),
        config_error("simulate-thresholds-count", "simulate",
                     dyn(n_agents=3, initial_thresholds=[0.1, 0.2]),
                     err="bad sim: initial_thresholds has 2 entries for 3 "
                         "agents"),
        # a model field the scenario needs is a config field: saturating
        # push needs the pool, VariableHorizon the trend threshold too
        config_error("simulate-n_push_pool-without-n_pool", "simulate",
                     dict(VIEWS, params=dict(LIN, lambda_pu=110.0), sim=SIM),
                     err=re.escape(missing_model("ExponentialFixedHorizon",
                                                 "n_pool"))),
        *[config_error(f"{command}-{s}-without-{fields}", command,
                       dict(cfg, scenario=s, params={
                           k: v for k, v in VH.items()
                           if k not in fields.split("-")}),
                       err=re.escape(missing_model(s, fields)))
          for command, s, fields, cfg in [
              ("trajectory", "ExponentialFixedHorizon", "n_pool",
               {"alpha": 50.0}),
              ("trajectory", "VariableHorizon", "gamma_th", {"alpha": 50.0}),
              ("surface", TVE, "n_pool", lin(alpha=50.0)),
              ("surface", "VariableHorizon", "gamma_th", lin(alpha=50.0)),
              ("best-response", "ExponentialFixedHorizon", "n_pool",
               lin(alpha=50.0)),
              ("best-response", "VariableHorizon", "gamma_th",
               lin(alpha=50.0)),
              ("classify", "VariableHorizon", "n_pool-gamma_th", lin()),
              ("classify", "ExponentialFixedHorizon", "n_pool",
               lin(sweep_lambda_pu=[110.0])),
              ("simulate", "ExponentialFixedHorizon", "n_pool", dyn()),
          ]],
        # overflowing rates exit 1: a square of lam_pu, lam tau or pi_G/d_G
        # past the largest double names that quantity (Python's ** raised a
        # bare OverflowError), and a cap past the largest double wrote inf
        # and NaN rows (the grid best response IndexError)
        *[call(f"{command}-overflow-{id}", command, dict(
            scenario=s, params=params, belief={"pi_g": 0.6, "pi_b": 0.4},
            **({"oracle_check": True} if command == "classify"
               else {"alpha": 0.5})), rc=EXIT_NUMERIC,
               err=re.escape(f"numeric error: {square}"))
          for id, s, params, commands, square in [
              ("trend-linear-pull", "TrendViewcountLinear",
               dict(LIN, lambda_pu=1e155), ALL,
               "the square of lambda_pu = 1e+155 overflows a double\n"),
              ("side-info-tau", SI, dict(LIN, tau=1e300), ALL,
               "the square of lambda_ps*tau = 1e+299 overflows a double\n"),
              ("side-info-rates", SI,
               dict(LIN, lambda_ps_g=1e-300, lambda_ps_b=5e-301), "classify",
               "the square of pi_G/d_G = 6e+299 overflows a double\n"),
              *[(tag, s, dict(PARAMS[s], lambda_pu=1e300, tau=1e10, **extra),
                 ALL, "") for tag, s, extra in [
                  ("linear-cap", "LinearFixedHorizon", {}),
                  ("exp-cap", "ExponentialFixedHorizon", {}),
                  ("vh-cap", "VariableHorizon", {"gamma_th": 2e300})]],
              ("trend-exp-cap", TVE, dict(EXP, lambda_pu=1e155, tau=10.0),
               "surface best-response", "")]
          for command in commands.split()],
        call("verify-rerun", "verify",
             dict(scenario="VariableHorizon", n_draws=4, seed=11)),
        # the saturated-pool gap of ExponentialFixedHorizon (ROADMAP): the
        # oracle refuses the printed set, and no report is written
        call("classify-oracle-check-fails", "classify", dict(
            scenario="ExponentialFixedHorizon", params=dict(
                EXP, lambda_ps_g=0.2, lambda_ps_b=0.1, lambda_pu=240.0,
                tau=300.0), belief={"pi_g": 0.3, "pi_b": 0.7},
            oracle_check=True), rc=EXIT_NUMERIC,
             err=re.escape("oracle check failed: classified point 1000 is not "
                           "a grid best response (gap 0.000666)\n")),
        # the look-ahead game's rows carry its pull-rate singularity,
        # pi_B (lam_G - lam_B)/(pi_G - pi_B) - lam_B, null for a uniform
        # belief
        *[call(f"classify-side-info-sweep-{id}", "classify", lin(
            scenario=SI, belief=belief, sweep_lambda_pu=[0.5, 2.0]),
               json_at("sweep.0.lambda_pu_s", want),
               json_at("sweep.1.lambda_pu_s", want))
          for id, belief, want in [
              ("singular-rate", BELIEF, pytest.approx(-0.275, rel=1e-12)),
              ("uniform-belief", {"pi_g": 0.5, "pi_b": 0.5}, None)]],
        # the ordinary grid steps over a smooth peak on these two families;
        # the strict completeness re-test decides them on finer rows
        *[call(f"classify-vh-grid-gap-{seed}", "classify", _vh_gap(seed),
               json_at("oracle_checked", True)) for seed in VH_GRID_GAPS],
        # rho is 1e-9 relative below lam_G/lam_B = 2
        call("classify-next-to-the-push-ratio", "classify", dict(
            scenario="VariableHorizon", params=dict(
                VH, lambda_ps_g=0.2, lambda_ps_b=0.1, lambda_pu=260.0,
                tau=10.0, gamma_th=300.0), oracle_check=True,
            belief={"pi_g": 0.6666666664444444, "pi_b": 0.3333333335555556}),
             json_at("oracle_checked", True)),
        # pi_G/lambda_ps_g = pi_B/lambda_ps_b exactly: the whole [0, cap];
        # on the second every alpha is admitted, so pass 2 of the oracle's
        # row decision evaluates the most points
        *[call(id, "classify", dict(params=dict(LIN, **rates), belief=BELIEF_75,
                                    oracle_check=True),
               json_at("oracle_checked", True)) for id, rates in [
            ("classify-linear-tie", dict(lambda_ps_g=0.375, lambda_ps_b=0.125,
                                         lambda_pu=0.5, tau=8.0)),
            ("classify-linear-tie-every-alpha",
             dict(lambda_ps_g=0.1, lambda_ps_b=0.01, lambda_pu=150.0)),
        ]],
        # the crossings after activation come from the bracketed root
        # finder; the second surface has left/right limit rows
        call("surface-trend-exponential", "surface", dict(
            scenario=TVE, params=EXP, belief={"pi_g": 0.4, "pi_b": 0.6},
            alpha=1000.0, n_grid=64), same_rows(least=64)),
        call("surface-trend-exponential-limit-rows", "surface", dict(
            scenario=TVE, params=dict(EXP, lambda_pu=150.0, tau=10.0),
            belief={"pi_g": 0.5, "pi_b": 0.5}, alpha=1.0, n_grid=64),
             same_rows(least=64), file_matches("out", ",left_limit$"),
             file_matches("out", ",right_limit$")),
        # no closed form for these two: the grid oracle's argmax set
        *[call(f"best-response-{scenario}", "best-response", dict(
            scenario=scenario, params=params, belief=belief, alpha=alpha),
               json_at("method", "grid"),
               json_at("best_response.values", grid_argmax))
          for scenario, params, belief, alpha in [
              (TVE, EXP, BELIEF_75, 1000.0),
              ("VariableHorizon", VH, {"pi_g": 0.6, "pi_b": 0.4}, 150.0)]],
        # the interior root of the saturating-push best response
        call("best-response-interior-root", "best-response", dict(
            scenario="ExponentialFixedHorizon", params=dict(
                EXP, lambda_ps_g=0.2, lambda_ps_b=0.1, lambda_pu=260.0,
                tau=10.0), belief={"pi_g": 0.55, "pi_b": 0.45}, alpha=100.0),
             json_at("method", "closed-form"), json_at(
                 "best_response.values",
                 pytest.approx([352.362197490107], rel=1e-12, abs=0.0))),
        # alpha 1 is above the bad content's cap (0.1*10)^2/2 = 0.5, so only
        # the good population pulls
        call("best-response-side-info", "best-response", dict(
            scenario=SI, params=dict(LIN, lambda_pu=0.5), belief=BELIEF_75,
            alpha=1.0), json_at("best_response.values", [0.0])),
        # at alpha 1 the good look-ahead value (0.2*10)^2/2 - (0.2 t)^2/2
        # falls to alpha at t_a = sqrt(2)/0.2, where the pull starts
        *[call(f"trajectory-{s}", "trajectory",
               dict(scenario=s, params=LIN if PARAMS[s] is LIN else VH,
                    alpha=1.0 if PARAMS[s] is LIN else 400.0), same_rows(),
               *([file_matches("out_good.csv", r"^7\.07106781187,")]
                 if s == SI else [])) for s in PARAMS],
        # 20001 samples and ~10^5 events: write_csv's %.12g kernel
        call("trajectory-long", "trajectory", dict(
            scenario="ExponentialFixedHorizon", params=VH, alpha=400.0,
            n_samples=20001), same_rows(least=20001)),
        call("simulate-views-big", "simulate", dict(VIEWS, params=dict(
            EXP, lambda_ps_g=0.2, lambda_ps_b=0.1, lambda_pu=4000.0,
            n_pool=100000.0), alpha=30000.0, sim={"seed": 7,
                                                  "n_push_pool": 100000}),
             same_rows(least=50_000)),
        # the look-ahead value (20^2 - X^2)/2 falls to alpha 150 at X = 10,
        # so pull starts at t_a = 5 and the mean field ends at X(tau) = 45;
        # push alone reaches about 20
        call("simulate-views-side-info", "simulate", dict(
            VIEWS, scenario=SI, params=dict(LIN, lambda_ps_g=2.0,
                                            lambda_ps_b=1.0, lambda_pu=5.0),
            alpha=150.0, sim=dict(SIM, seed=1)), final_views),
        call("simulate-dynamics-side-info", "simulate",
             dict(dyn(seed=1), scenario=SI), first_lines(DYNAMICS_FILES),
             json_at("status", "converged", name="out_summary.json")),
    ],
    "reruns": [
        # 9 samples: the uniform grid plus the activation breakpoints
        call("trajectory", "trajectory", dict(
            scenario="ExponentialFixedHorizon", params=EXP, alpha=50.0,
            n_samples=9), same_rows(least=9)),
        call("simulate-views", "simulate", dict(VIEWS, sim=SIM), same_rows()),
        call("simulate-dynamics", "simulate", dyn(n_agents=5),
             first_lines(DYNAMICS_FILES),
             json_at("n_agents", 5, name="out_summary.json"),
             json_at("status", "converged", name="out_summary.json")),
    ],
}


@pytest.mark.parametrize("row", CONTRACT["malformed"])
def test_malformed_numeric_field_is_a_config_error(row, tmp_path, capsys):
    check_row(row, tmp_path, capsys)


@pytest.mark.parametrize("row", CONTRACT["infinite_tol"])
def test_infinite_grid_tol_is_a_config_error(row, tmp_path, capsys):
    check_row(row, tmp_path, capsys)


@pytest.mark.parametrize("row", CONTRACT["switch"])
def test_switch_must_be_a_json_boolean(row, tmp_path, capsys):
    check_row(row, tmp_path, capsys)


@pytest.mark.parametrize("row", CONTRACT["reruns"])
def test_trajectory_and_simulate_reruns_are_byte_identical(row, tmp_path,
                                                           capsys):
    check_row(row, tmp_path, capsys)


@pytest.mark.parametrize("row", CONTRACT["calls"])
def test_cli_contract(row, tmp_path, capsys):
    check_row(row, tmp_path, capsys)


# -- CSV bytes -------------------------------------------------------------------
#
# The writers format rows in blocks; each test compares the file with a
# reference that formats one row at a time with f-strings.

AWKWARD = [0.0, -0.0, 1e-300, 5e-324, 1e17, 123456789012345.0, 2.5,
           1.0 / 3.0, -7.25, float("inf"), float("nan")]


def test_trajectory_csv_bytes_match_per_row_format(tmp_path):
    # two full kernel blocks, then a partial block that the kernel writes
    # too (at least the cutover) or, one block shorter, the % path
    # (below it); values %g prints in every style at both ends of the
    # file and of every block and in the middle of the blocks
    block, cutover = dynamics._G12_BLOCK, dynamics._G12_MIN_ROWS
    rng = np.random.default_rng(0)
    for n in (2 * block + cutover + 37, 2 * block + 37):
        cols = [rng.uniform(0.0, 1e6, n),
                np.floor(rng.uniform(0.0, 1e5, n)) + 0.5,  # not integral
                rng.uniform(-1e6, 1e6, n)]
        at = [0, block // 2, block - 5, block + 300, 2 * block - 3,
              2 * block + 11, n - len(AWKWARD)]
        for col in cols:
            for i, start in enumerate(at):
                col[start:start + len(AWKWARD)] = AWKWARD[::(-1) ** i]
        tr = Trajectory(Quality.GOOD, 1.0, *cols)
        tr.to_csv(tmp_path / "traj.csv")
        ref = "t,x,xdot\n" + "".join(f"{t:.12g},{x:.12g},{xd:.12g}\n"
                                      for t, x, xd in zip(*cols))
        assert (tmp_path / "traj.csv").read_bytes() == ref.encode()


def test_snapshot_csv_bytes_match_per_row_format(tmp_path):
    snaps = (np.array(AWKWARD), np.array(AWKWARD[::-1]),
             np.linspace(0.0, 1e3, len(AWKWARD)))
    res = DynamicsResult(snaps, "converged", 2, 1.0)
    res.write_snapshots(tmp_path / "snap.csv")
    ref = "round,agent_id,threshold\n" + "".join(
        f"{r},{i},{v:.12g}\n" for r, snap in enumerate(snaps)
        for i, v in enumerate(snap))
    assert (tmp_path / "snap.csv").read_bytes() == ref.encode()


def test_config_that_is_not_an_object_is_a_config_error(tmp_path, capsys):
    # the flags are applied to the config before its keys are checked
    path = tmp_path / "cfg.json"
    path.write_text("[1]")
    assert main(["verify", "--config", str(path), "--out",
                 str(tmp_path / "out")]) == EXIT_CONFIG
    assert capsys.readouterr() == (
        "", "config error: verify config must be a JSON object\n")


def test_repeated_usage_error_prints_the_same_message(tmp_path, capsys):
    # the argument parser is built once per process: a usage error must
    # leave nothing behind for the next call
    bad = ["verify", "--seed", "abc"]
    assert main(bad) == EXIT_CONFIG
    first = capsys.readouterr()
    rc, out, _ = run_cli("verify", tmp_path, capsys,
                         scenario="LinearFixedHorizon", n_draws=2)
    assert rc == EXIT_OK and out.endswith("2/2 draws passed\n")
    assert main(bad) == EXIT_CONFIG
    again = capsys.readouterr()
    assert first.err and again.err == first.err and again.out == first.out
