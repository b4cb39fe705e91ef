"""Benchmark of the ``pushpull`` CLI, run in-process as a closed loop.

Usage, from the root of a checkout:

    python3 bench/run.py --workload verify_sat --seed 1 --seconds 25 --trace 0

``--workload all`` runs every workload in turn and prints each one's
report and JSON line.

One client runs one item (one ``pushpull.cli.main`` call) after another
in this single process, with no threads. Workloads and why each was
chosen are listed in BENCHMARK.json; their items are drawn in
``workloads.py`` from ``--seed``.

``--trace 0`` prints the end-to-end metrics: set-up time (median of
several fresh imports of ``pushpull`` plus input generation, config
writing and warm-up), items per second of summed item time, median and
90th-percentile item time, the share of items that pass, and peak RSS.
The timed loop runs for ``--seconds`` and at least MIN_ITEMS items,
cycling through the workload's pool of distinct items.

The timing metrics, set-up time included, are scaled to full CPU speed,
as a fixed probe before and after every item and set-up measures it
against the fastest probe times seen in this checkout (see
``full_speed`` and ``probe_ref``); the report also prints raw item times.

``--trace 1`` runs the same items twice, first plain and then with
every span of ``spans.TARGETS`` installed, and prints the per-layer
metrics as means per traced item plus the tracing overhead. Spans are
written to ``.bench_out/spans_<workload>.npz``.

Every invocation also runs the correctness gate: each item's exit code
and output are checked (a failed check counts the item as failed), an
item seen twice must reproduce its output bytes, the digest of the first
items must equal the one an earlier run of the same source and seed
recorded, and a corrupted ``verify`` must fail every draw, or the
benchmark aborts. The last stdout line is the JSON result.

Self-tests: ``python3 -m pytest bench/selftest.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import sys
import time
from pathlib import Path

import numpy as np

import spans
import workloads

SETUP_REPS = 5          # set-ups per run; setup_s is their median
MIN_ITEMS = 100         # >= 10 samples beyond the 90th percentile
HARD_CAP_S = 150.0      # the timed loop stops here whatever MIN_ITEMS says
DIGEST_ITEMS = 16       # items whose outputs form the workload digest
PROBE_REF_PCT = 1       # percentile of a run's probe times taken as full speed
OUT_DIR = ".bench_out"
PACKAGE_SRC = Path("src")


class BenchAbort(RuntimeError):
    """A precondition of the benchmark failed; no result is printed."""


# -- program import and items ---------------------------------------------------

def import_program(src: Path):
    """Import pushpull afresh from src (a timed part of set-up)."""
    for name in [m for m in sys.modules
                 if m == "pushpull" or m.startswith("pushpull.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    pkg = importlib.import_module("pushpull")
    importlib.import_module("pushpull.cli")
    if Path(pkg.__file__).resolve().parent != (src / "pushpull").resolve():
        raise BenchAbort(f"pushpull imported from {pkg.__file__}, not {src}")
    return pkg


def mean_field(pkg):
    dyn = pkg.dynamics

    def final_viewcount(p: dict, good: bool, alpha: float) -> float:
        q = dyn.Quality.GOOD if good else dyn.Quality.BAD
        return dyn.viewcount(p["tau"], q, alpha, dyn.ModelParams(**p),
                             dyn.PushKind.EXPONENTIAL_SATURATING)

    return final_viewcount


def call(cli, argv):
    """(seconds, exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(list(argv))
        except Exception as e:  # an escaped exception fails the item, not the run
            rc = None
            err.write(f"uncaught {e!r}")
        dt = time.perf_counter() - t0
    return dt, rc, out.getvalue(), err.getvalue()


class Runner:
    """Runs items, checks their outputs and tracks their digests."""

    def __init__(self, cli, items, out_dir: Path):
        self.cli = cli
        self.items = items
        self.out_dir = out_dir
        self.digests: dict = {}      # pool index -> first digest
        self.mismatch: list = []
        self.failures: list = []
        self.attempted = 0

    def run(self, k: int):
        """Run item k (cycling the pool); returns (seconds, failure or None)."""
        i = k % len(self.items)
        self.attempted += 1
        it = self.items[i]
        for name in it.outputs:
            (self.out_dir / name).unlink(missing_ok=True)
        dt, rc, stdout, stderr = call(self.cli, it.argv)
        files = {}
        for name in it.outputs:
            path = self.out_dir / name
            files[name] = path.read_bytes() if path.exists() else None
        h = hashlib.sha256(f"{rc}\n{stdout}\n{stderr}\n".encode())
        for name in it.outputs:
            h.update(files[name] or b"<missing>")
        digest = h.hexdigest()
        first = self.digests.setdefault(i, digest)
        if first != digest:
            self.mismatch.append(i)
        why = (f"exit code {rc}: {stderr.strip()[-200:]}" if rc not in (0, 1)
               else workloads.check(it, rc, stdout, files))
        if why is not None:
            self.failures.append((i, why))
        return dt, why

    def workload_digest(self) -> str:
        for k in range(min(DIGEST_ITEMS, len(self.items))):
            if k not in self.digests:
                self.run(k)
        h = hashlib.sha256()
        for k in range(min(DIGEST_ITEMS, len(self.items))):
            h.update(self.digests[k].encode())
        return h.hexdigest()


def setup(workload: str, seed: int, src: Path, workdir: Path):
    """One full set-up: import, generate, write configs, warm up."""
    t0 = time.perf_counter()
    pkg = import_program(src)
    items = workloads.generate(workload, seed, mean_field(pkg))
    items = workloads.write_configs(items, workdir)
    for it in {it.kind: it for it in reversed(items)}.values():
        call(pkg.cli, it.argv)   # warm-up: the first item of each kind
    return time.perf_counter() - t0, pkg, items


def negative_control(cli, seed: int, workdir: Path) -> None:
    cfg = workdir / "negative_control.json"
    cfg.write_text(json.dumps(workloads.negative_control(seed)))
    _, rc, stdout, _ = call(cli, ("verify", "--config", str(cfg)))
    n = workloads.NEG_CONTROL_DRAWS
    last = stdout.splitlines()[-1] if stdout else ""
    if rc != 1 or not last.startswith(f"0/{n} draws passed"):
        raise BenchAbort(
            f"negative control passed (exit {rc}, {last!r}): verify accepts a "
            "corrupted closed form, so its timings would measure nothing")


# -- timed loops ------------------------------------------------------------------

def probe() -> float:
    """Seconds taken by a fixed slice of interpreter and numpy work."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(3000):
        acc += math.sqrt(i)
    a = np.linspace(0.0, 1.0, 500)
    for _ in range(10):
        a = np.exp(-a) * 0.5 + np.log1p(a)
    return time.perf_counter() - t0


def probe_ref(probes, root: Path) -> float:
    """Probe time at full CPU speed: the lowest PROBE_REF_PCT-th percentile
    of probe times that any run in this checkout has seen.

    A slow phase can outlast a whole run and leave no full-speed probe in
    it; the stored value still scales such a run. Deleting OUT_DIR resets
    it.
    """
    path = root / OUT_DIR / "probe_ref.json"
    ref = float(np.percentile(probes, PROBE_REF_PCT))
    if path.exists():
        ref = min(ref, json.loads(path.read_text())["probe_s"])
    path.write_text(json.dumps({"probe_s": ref}))
    return ref


def full_speed(times, probes, ref: float) -> np.ndarray:
    """Item times scaled to the CPU speed of the run's fastest probes.

    On a shared virtual machine a vCPU switches, for seconds to minutes
    at a time, between full speed and a state about 1.5x slower, which
    spreads raw times of identical runs by 10-25%. A probe of fixed work
    runs before and after every item; an item's time is divided by the
    slowdown the slower of its two probes shows against ref (never less
    than 1), the full-speed probe time from probe_ref.
    """
    p = np.asarray(probes)
    slowdown = np.maximum(np.maximum(p[:-1], p[1:]) / ref, 1.0)
    return np.asarray(times) / slowdown


def timed_loop(runner: Runner, seconds: float, min_items: int):
    """Item times in run order, and the probe times around them.

    Run j is pool item j % len(pool); probes[j] and probes[j + 1]
    bracket it.
    """
    times, probes = [], [probe()]
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= HARD_CAP_S or (elapsed >= seconds and len(times) >= min_items):
            break
        dt, _ = runner.run(len(times))
        times.append(dt)
        probes.append(probe())
    return times, probes


def end_to_end(setups, setup_probes, times, probes, ref: float,
               n_failed: int) -> dict:
    n = len(times)
    fast = full_speed(times, probes, ref)
    setup_s = float(np.median(full_speed(setups, setup_probes, ref)))
    return {
        "setup_s": (setup_s, "s", len(setups)),
        "items_per_s": (n / float(fast.sum()), "1/s", n),
        "item_p50_ms": (1e3 * float(np.percentile(fast, 50)), "ms", n),
        "item_p90_ms": (1e3 * float(np.percentile(fast, 90)), "ms", n),
        "pass_frac": ((n - n_failed) / n, "fraction", n),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MB", 1),
    }


def traced(runner: Runner, seconds: float, workload: str, root: Path):
    """Plain pass for half the time, then the same items traced."""
    plain, plain_probes = timed_loop(runner, seconds / 2.0, 1)
    n = len(plain)
    tracer = spans.Tracer()
    tracer.install()
    walls, probes = [], [probe()]
    try:
        for k in range(n):
            tracer.begin_item(k)
            dt, _ = runner.run(k)
            tracer.end_item()
            walls.append(dt)
            probes.append(probe())
    finally:
        tracer.uninstall()
    balance = spans.item_balance(tracer.arrays(), walls)
    if np.max(np.abs(balance)) > 1e-6:
        raise BenchAbort(f"span self times do not add up to item wall time "
                         f"(worst {np.max(np.abs(balance)):.3g} s)")
    tracer.save(root / OUT_DIR / f"spans_{workload}.npz")
    metrics = spans.summarize(tracer, n)
    ref = probe_ref(plain_probes + probes, root)
    traced_s = full_speed(walls, probes, ref).sum()
    plain_s = full_speed(plain, plain_probes, ref).sum()
    metrics["trace.overhead_frac"] = float(traced_s / plain_s - 1.0)
    units = spans.per_layer_metrics()
    return {k: (v, units[k], n) for k, v in metrics.items()}, tracer.missing


# -- provenance -------------------------------------------------------------------

def git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        path = root / ".git" / ref[5:]
        if path.exists():
            return path.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((src / "pushpull").rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(root: Path, src: Path, workload: str, seed: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(root),
        "source_sha256": source_digest(src),
        "excluded_dynamics_scenarios": workloads.DYNAMICS_EXCLUDED,
    }


def check_recorded_digest(root: Path, key: str, digest: str) -> bool:
    """False when an earlier run of the same source and seed disagrees."""
    path = root / OUT_DIR / "digests.json"
    seen = json.loads(path.read_text()) if path.exists() else {}
    if seen.setdefault(key, digest) != digest:
        return False
    path.write_text(json.dumps(seen, sort_keys=True, indent=1))
    return True


# -- main -------------------------------------------------------------------------

def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 root: Path) -> dict:
    """Set up, gate and measure one workload; prints its report lines."""
    src = root / PACKAGE_SRC
    workdir = root / OUT_DIR / workload   # reused: configs are rewritten per run
    setups, setup_probes = [], [probe()]
    for _ in range(SETUP_REPS):
        dt, pkg, items = setup(workload, seed, src, workdir)
        setups.append(dt)
        setup_probes.append(probe())
    negative_control(pkg.cli, seed, workdir)
    runner = Runner(pkg.cli, items, workdir / "out")
    gc.collect()
    missing = []
    if trace:
        metrics, missing = traced(runner, seconds, workload, root)
    else:
        times, probes = timed_loop(runner, seconds, MIN_ITEMS)
        ref = probe_ref(setup_probes + probes, root)
        metrics = end_to_end(setups, setup_probes, times, probes, ref,
                             len(runner.failures))
        print(f"raw item times: p50 {1e3 * float(np.percentile(times, 50))!r} ms, "
              f"p90 {1e3 * float(np.percentile(times, 90))!r} ms, "
              f"{len(times) / sum(times)!r} items/s")
    attempted, failed = runner.attempted, len(runner.failures)
    runner.run(0)    # one guaranteed rerun for the byte-identity check
    digest = runner.workload_digest()

    prov = provenance(root, src, workload, seed)
    key = f"{workload}:{seed}:{prov['source_sha256']}"
    same_as_before = check_recorded_digest(root, key, digest)
    correct = not runner.mismatch and same_as_before

    for i, why in runner.failures[:10]:
        print(f"failed item {i}: {why}")
    if runner.mismatch:
        print(f"outputs differ between reruns of items {sorted(set(runner.mismatch))}")
    if not same_as_before:
        print(f"workload digest {digest} differs from an earlier run of {key}")
    for name in missing:
        print(f"span target {name} not found in the program; reported as 0")
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(f"digest {digest} over the first {DIGEST_ITEMS} items")
    for name, (value, unit, n) in metrics.items():
        print(f"{workload} {name} = {value!r} {unit} (n={n})")
    # the JSON carries pass_frac, its complement: a metric that is
    # normally 0 cannot carry a relative bound
    print(f"{workload} fail_frac = {failed / attempted!r} fraction (n={attempted})")
    record = {"provenance": prov, "correct": correct, "attempted": attempted,
              "failed": failed, "digest": digest,
              "metrics": {k: {"value": v, "unit": u, "samples": n}
                          for k, (v, u, n) in metrics.items()}}
    with open(root / OUT_DIR / "results.jsonl", "a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u, _) in metrics.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.POOL) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    src = root / PACKAGE_SRC
    if not (src / "pushpull" / "__init__.py").is_file():
        print(f"no pushpull sources under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    names = list(workloads.POOL) if args.workload == "all" else [args.workload]
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, args.trace, root)
            print(json.dumps(result))
    except BenchAbort as e:
        print(f"benchmark aborted: {e}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
