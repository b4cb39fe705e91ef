"""CLI commands end to end, through cli.main in-process."""

import json

import pytest

from pushpull import (
    Belief,
    GridSpec,
    ModelParams,
    Scenario,
    best_response_linear,
    classify,
    grid_best_response,
    make_report,
    strategy_cap,
    symmetric_cap,
    utility,
)
from pushpull.cli import EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, main

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


def run_twice(command, tmp_path, capsys, suffix, **cfg):
    """Run a writing command twice; both runs must give the same bytes."""
    outs = []
    for k in range(2):
        dest = tmp_path / f"{command}_{k}{suffix}"
        rc, _, err = run_cli(command, tmp_path, capsys, "--out", str(dest),
                             **cfg)
        assert rc == EXIT_OK, err
        outs.append(dest.read_bytes())
    assert outs[0] == outs[1]
    return outs[0].decode()


@pytest.mark.parametrize("scenario", ["LinearFixedHorizon",
                                      "ExponentialFixedHorizon",
                                      "TrendViewcountExponential"])
def test_surface_rows_match_pointwise_utility(scenario, tmp_path, capsys):
    s = Scenario.from_tag(scenario)
    p, b = ModelParams(**PARAMS[scenario]), Belief(**BELIEF)
    alpha, n_grid = 0.4 * symmetric_cap(p, s), 7
    text = run_twice("surface", tmp_path, capsys, ".csv", scenario=scenario,
                     params=PARAMS[scenario], belief=BELIEF, alpha=alpha,
                     n_grid=n_grid)
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
    text = run_twice("best-response", tmp_path, capsys, ".json",
                     scenario="LinearFixedHorizon", params=LIN, belief=BELIEF,
                     alpha=0.5)
    rep = json.loads(text)
    assert rep["method"] == "closed-form"
    assert rep["best_response"] == best_response_linear(
        0.5, b, ModelParams(**LIN)).as_dict()
    # VariableHorizon has no closed form: the grid argmax set stands in
    s, p = Scenario.VARIABLE_HORIZON, ModelParams(**VH)
    alpha = 0.4 * symmetric_cap(p, s)
    rep = json.loads(run_twice("best-response", tmp_path, capsys, ".json",
                               scenario=s.value, params=VH, belief=BELIEF,
                               alpha=alpha))
    assert rep["method"] == "grid"
    assert rep["best_response"]["kind"] == "GridSet"
    values = grid_best_response(alpha, b, p, s, GridSpec()).tolist()
    assert rep["best_response"]["values"] == values
    assert rep["best_response"]["utility"] == utility(alpha, values[0], b, p, s)


@pytest.mark.parametrize("scenario", CLOSED_FORM)
def test_classify_with_oracle_check_passes(scenario, tmp_path, capsys):
    s = Scenario.from_tag(scenario)
    p, b = ModelParams(**PARAMS[scenario]), Belief(**BELIEF)
    rep = json.loads(run_twice("classify", tmp_path, capsys, ".json",
                               scenario=scenario, params=PARAMS[scenario],
                               belief=BELIEF, oracle_check=True))
    eq, diags = classify(s, b, p)
    assert rep == json.loads(json.dumps(
        make_report(s, b, p, eq, diags, oracle_checked=True)))


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


def test_verify_rerun_is_byte_identical(tmp_path, capsys):
    outs = []
    for k in range(2):
        dest = tmp_path / f"verify_{k}.txt"
        rc, out, _ = run_cli("verify", tmp_path, capsys, "--out", str(dest),
                             scenario="VariableHorizon", n_draws=4, seed=11)
        assert rc == EXIT_OK
        assert dest.read_text() == out
        outs.append(dest.read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("scenario", CLOSED_FORM)
def test_verify_rejects_a_corrupted_closed_form(scenario, tmp_path, capsys):
    # negative control: every shifted set must fail the oracle check
    rc, out, _ = run_cli("verify", tmp_path, capsys, scenario=scenario,
                         n_draws=4, seed=5, corrupt=True)
    assert rc == EXIT_NUMERIC
    lines = out.splitlines()
    assert all(": FAIL " in line for line in lines[:4])
    assert lines[-1] == "0/4 draws passed (corrupted closed form)"


def test_verify_refuses_the_scenario_without_closed_form(tmp_path, capsys):
    rc, out, err = run_cli("verify", tmp_path, capsys,
                           scenario="TrendViewcountExponential", n_draws=1)
    assert rc == EXIT_CONFIG
    assert out == ""
    assert "TrendViewcountExponential" in err
