"""The verify command end to end, through cli.main in-process."""

import json

import pytest

from pushpull import Scenario
from pushpull.cli import EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, main

CLOSED_FORM = [s.value for s in Scenario
               if s is not Scenario.TREND_VIEWCOUNT_EXPONENTIAL]


def run_verify(tmp_path, capsys, *flags, **cfg):
    path = tmp_path / "verify.json"
    path.write_text(json.dumps(cfg))
    rc = main(["verify", "--config", str(path), *flags])
    out, err = capsys.readouterr()
    return rc, out, err


@pytest.mark.parametrize("scenario", CLOSED_FORM)
def test_verify_passes_every_closed_form_scenario(scenario, tmp_path, capsys):
    rc, out, _ = run_verify(tmp_path, capsys, scenario=scenario, n_draws=3)
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
        rc, out, _ = run_verify(tmp_path, capsys, "--out", str(dest),
                                scenario="VariableHorizon", n_draws=4, seed=11)
        assert rc == EXIT_OK
        assert dest.read_text() == out
        outs.append(dest.read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("scenario", CLOSED_FORM)
def test_verify_rejects_a_corrupted_closed_form(scenario, tmp_path, capsys):
    # negative control: every shifted set must fail the oracle check
    rc, out, _ = run_verify(tmp_path, capsys, scenario=scenario, n_draws=4,
                            seed=5, corrupt=True)
    assert rc == EXIT_NUMERIC
    lines = out.splitlines()
    assert all(": FAIL " in line for line in lines[:4])
    assert lines[-1] == "0/4 draws passed (corrupted closed form)"


def test_verify_refuses_the_scenario_without_closed_form(tmp_path, capsys):
    rc, out, err = run_verify(tmp_path, capsys,
                              scenario="TrendViewcountExponential", n_draws=1)
    assert rc == EXIT_CONFIG
    assert out == ""
    assert "TrendViewcountExponential" in err
