"""Self-tests of the benchmark: ``python3 -m pytest bench/selftest.py``.

Kept out of the package's test suite on purpose (the file name does not
match ``test_*.py``): they check the benchmark, not ``pushpull``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import spans
import workloads

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


@pytest.fixture(scope="module")
def pkg():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return run.import_program(SRC)


def _stub_mean_field(p, good, alpha):
    return float(p["tau"] + alpha + good)


@pytest.mark.parametrize("workload", sorted(workloads.POOL))
def test_generation_is_deterministic(workload, tmp_path):
    a = workloads.generate(workload, 7, _stub_mean_field)
    b = workloads.generate(workload, 7, _stub_mean_field)
    c = workloads.generate(workload, 8, _stub_mean_field)
    assert a == b
    assert a != c
    assert len(a) == workloads.POOL[workload]
    workloads.write_configs(a, tmp_path / "a")
    workloads.write_configs(b, tmp_path / "b")
    for f in sorted((tmp_path / "a" / "cfg").iterdir()):
        cfg_a = json.loads(f.read_text())
        cfg_b = json.loads((tmp_path / "b" / "cfg" / f.name).read_text())
        cfg_a.pop("out", None)
        cfg_b.pop("out", None)
        assert cfg_a == cfg_b


def test_verify_seeds_are_distinct():
    items = workloads.generate("verify_sat", 3)
    seeds = [it.config["seed"] for it in items]
    assert len(set(seeds)) == len(seeds)


def _bindings_of(obj):
    return [(m.__name__, k) for m in spans._modules()
            for k, v in vars(m).items() if v is obj]


def test_wrappers_cover_every_binding_and_uninstall_restores(pkg):
    originals = {}
    for t in spans.TARGETS:
        owner, attr, orig = spans._resolve(t)
        originals[(t.module, t.attr)] = (owner, attr, orig, _bindings_of(orig))
    # bindings made by `from .x import f` in another module
    assert ("pushpull.cli", "_bulk_utilities") in \
        originals[("oracle", "_bulk_utilities")][3]
    assert ("pushpull.dynamics", "lambert_w0_log") in \
        originals[("numerics", "lambert_w0_log")][3]

    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        for (mod, attr), (owner, name, orig, bound) in originals.items():
            assert _bindings_of(orig) == [], f"{mod}.{attr} still bound somewhere"
            if isinstance(owner, type):
                assert getattr(owner, name).__wrapped__ is orig
            for mod_name, key in bound:
                assert vars(sys.modules[mod_name])[key].__wrapped__ is orig
    finally:
        tracer.uninstall()
    for (mod, attr), (owner, name, orig, bound) in originals.items():
        assert getattr(owner, name) is orig
        assert _bindings_of(orig) == bound


def test_self_times_add_up_to_item_wall_time(pkg, tmp_path):
    pool = workloads.generate("scalar_cli", 1, run.mean_field(pkg))
    picks = [next(it for it in pool if it.kind == kind)
             for kind in ("surface", "dynamics")]
    picks += workloads.generate("verify_lin", 1)[:2]
    items = workloads.write_configs(picks, tmp_path)
    runner = run.Runner(pkg.cli, items, tmp_path / "out")
    tracer = spans.Tracer()
    tracer.install()
    walls = []
    try:
        for k in range(len(items)):
            tracer.begin_item(k)
            dt, why = runner.run(k)
            tracer.end_item()
            walls.append(dt)
            assert why is None
    finally:
        tracer.uninstall()
    a = tracer.arrays()
    assert a["name_id"].size > 100
    assert np.all(spans.self_times(a) >= -1e-9)
    assert np.max(np.abs(spans.item_balance(a, walls))) < 1e-9
    # every item's root span is cli.main, inside the measured wall time
    roots = a["parent"] < 0
    assert set(a["name_id"][roots]) == {tracer.name_ids["cli.main"]}
    assert np.all((a["end"] - a["start"])[roots] <= np.asarray(walls))
    metrics = spans.summarize(tracer, len(items))
    assert metrics["cli.main.calls"] == 1.0
    assert metrics["numerics.lambert_w0_arr.calls"] == 0.0


def test_negative_control_aborts_when_the_corruption_passes(tmp_path):
    class AcceptAll:
        @staticmethod
        def main(argv):
            print(f"{workloads.NEG_CONTROL_DRAWS}/{workloads.NEG_CONTROL_DRAWS}"
                  " draws passed (corrupted closed form)")
            return 0

    with pytest.raises(run.BenchAbort):
        run.negative_control(AcceptAll, 0, tmp_path)


def test_benchmark_json_lists_what_the_runner_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.POOL)
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == spans.per_layer_metrics()
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    reported = run.end_to_end([1.0, 2.0], [1e-3] * 3, [0.1] * 10, [1e-3] * 11,
                              1e-3, 1)
    assert e2e == {k: u for k, (_, u, _) in reported.items()}


def test_full_speed_scales_only_slowed_items():
    # probes bracket items: item 1 ran between a fast and a 2x slow probe
    times = [1.0, 1.0, 1.0]
    probes = [1.0, 1.0, 2.0, 0.5]
    got = run.full_speed(times, probes, ref=1.0)
    assert got.tolist() == [1.0, 0.5, 0.5]


def test_probe_ref_keeps_the_fastest_seen(tmp_path):
    (tmp_path / run.OUT_DIR).mkdir()
    assert run.probe_ref([2.0] * 200, tmp_path) == 2.0
    assert run.probe_ref([1.0] * 200, tmp_path) == 1.0
    # a run spent wholly in a slow phase still scales against 1.0
    assert run.probe_ref([3.0] * 200, tmp_path) == 1.0
