"""Per-layer spans recorded from outside the program.

Each target is one public (or cross-module) function of a ``pushpull``
module. Installing a target replaces every binding of that function in
every loaded ``pushpull`` module namespace, because ``from .x import f``
makes a separate binding per importing module: wrapping only the
defining module would silently miss calls made through the others.

A span is (name, parent span, item, start, end, elements). Spans stay in
compact in-memory arrays until the run ends. A call that enters a target
directly from a span of the same name (recursion, such as the
TrendViewcountLinear reduction in ``utility.utility``) stays inside the
outer span, so ``calls`` counts calls from other code only.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

PACKAGE = "pushpull"


@dataclass(frozen=True)
class Target:
    module: str                 # pushpull submodule defining the function
    attr: str                   # attribute path in that module, "Cls.meth" allowed
    name: str                   # span name: "<module>.<function>"
    stats: Tuple[str, ...]      # which per-layer stats the run reports
    elements_arg: Optional[int] = None  # positional index of the input array


# Which end-to-end metric each span should move is recorded beside it.
TARGETS = (
    # verify_sat items_per_s / item_p50_ms; zero calls on verify_lin
    Target("numerics", "lambert_w0_arr", "numerics.lambert_w0_arr",
           ("calls", "elements", "self_s"), elements_arg=0),
    # tve_surface, with a small share in scalar_cli
    Target("numerics", "lambert_w0_log", "numerics.lambert_w0_log",
           ("calls", "self_s")),
    Target("numerics", "find_root", "numerics.find_root", ("calls", "self_s")),
    # about 95% of both verify workloads
    Target("oracle", "find_symmetric_equilibria",
           "oracle.find_symmetric_equilibria", ("calls", "self_s", "total_s")),
    # both verify workloads, verify_lin most; cli imports these two privates
    Target("oracle", "_beta_grid", "oracle._beta_grid", ("calls", "self_s")),
    Target("oracle", "_bulk_utilities", "oracle._bulk_utilities",
           ("calls", "elements", "self_s"), elements_arg=1),
    # the first three move tve_surface; to_csv moves scalar_cli
    Target("dynamics", "crossing_time_raw", "dynamics.crossing_time_raw",
           ("calls", "self_s")),
    Target("dynamics", "activation_time", "dynamics.activation_time",
           ("calls", "self_s")),
    Target("dynamics", "beta_tau", "dynamics.beta_tau", ("calls", "self_s")),
    Target("dynamics", "sample_trajectory", "dynamics.sample_trajectory",
           ("calls", "self_s")),
    Target("dynamics", "Trajectory.to_csv", "dynamics.Trajectory.to_csv",
           ("calls", "self_s")),
    # scalar_cli and tve_surface; strategy_cap is also ~10% of verify
    Target("utility", "utility", "utility.utility", ("calls", "self_s")),
    Target("utility", "strategy_cap", "utility.strategy_cap", ("calls", "self_s")),
    Target("utility", "utility_surface", "utility.utility_surface",
           ("calls", "self_s")),
    Target("utility", "best_response_linear", "utility.best_response",
           ("calls", "self_s")),
    Target("utility", "best_response_exponential", "utility.best_response",
           ("calls", "self_s")),
    Target("utility", "best_response_side_info", "utility.best_response",
           ("calls", "self_s")),
    # small everywhere; guards regressions
    Target("equilibrium", "classify", "equilibrium.classify", ("calls", "self_s")),
    # scalar_cli
    Target("sim", "simulate_views", "sim.simulate_views", ("calls", "self_s")),
    Target("sim", "best_response_dynamics", "sim.best_response_dynamics",
           ("calls", "self_s")),
    # argument and config parsing plus output writing not covered above
    Target("cli", "main", "cli.main", ("calls", "self_s", "total_s")),
)

SPAN_NAMES = tuple(dict.fromkeys(t.name for t in TARGETS))
ROW_SPAN = "oracle._beta_grid"
_UNITS = {"calls": "calls/item", "elements": "elem/item",
          "self_s": "s/item", "total_s": "s/item"}


def per_layer_metrics() -> dict:
    """Every per-layer metric name the traced run reports, with its unit."""
    out = {}
    for t in TARGETS:
        for stat in t.stats:
            out[f"{t.name}.{stat}"] = _UNITS[stat]
    out[f"{ROW_SPAN}.distinct_frac"] = "ratio"
    out["trace.overhead_frac"] = "ratio"
    return out


def _modules():
    return [m for k, m in sorted(sys.modules.items())
            if m is not None and (k == PACKAGE or k.startswith(PACKAGE + "."))]


def _resolve(t: Target):
    """(owner, attribute name, original) or None if the program lacks it."""
    owner = sys.modules.get(f"{PACKAGE}.{t.module}")
    parts = t.attr.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
    if owner is None or not hasattr(owner, parts[-1]):
        return None
    return owner, parts[-1], getattr(owner, parts[-1])


class Tracer:
    """Span recorder plus the bindings it replaced, for later restoring."""

    def __init__(self):
        self.name_ids = {n: i for i, n in enumerate(SPAN_NAMES)}
        self.nid = array("i")
        self.parent = array("i")
        self.item = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.elements = array("q")
        self.cur = -1
        self.item_id = -1
        self.row_keys: set = set()
        self.distinct_rows = 0
        self.missing: list = []
        self._patched: list = []  # (owner, attr, original)

    # -- install / uninstall ----------------------------------------------

    def install(self) -> None:
        for t in TARGETS:
            found = _resolve(t)
            if found is None:
                self.missing.append(f"{t.module}.{t.attr}")
                continue
            owner, attr, orig = found
            on_call = self._note_row if t.name == ROW_SPAN else None
            w = self._wrap(orig, self.name_ids[t.name], t.elements_arg, on_call)
            if isinstance(owner, type):
                self._patched.append((owner, attr, orig))
                setattr(owner, attr, w)
                continue
            for mod in _modules():
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patched.append((mod, key, orig))
                        setattr(mod, key, w)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    # -- recording ----------------------------------------------------------

    def _note_row(self, args, kwargs) -> None:
        # one grid row is one (alpha, params, scenario, n_beta) argument set
        self.row_keys.add(tuple(args[:4]) + tuple(sorted(kwargs.items())))

    def _wrap(self, fn: Callable, nid: int, elements_arg: Optional[int],
              on_call: Optional[Callable]) -> Callable:
        tracer = self
        clock = time.perf_counter
        nids, parents, items = self.nid, self.parent, self.item
        t0s, t1s, elems = self.t0, self.t1, self.elements

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer.cur
            if parent >= 0 and nids[parent] == nid:
                return fn(*args, **kwargs)
            if on_call is not None:
                on_call(args, kwargs)
            i = len(t0s)
            nids.append(nid)
            parents.append(parent)
            items.append(tracer.item_id)
            elems.append(int(np.size(args[elements_arg]))
                         if elements_arg is not None and len(args) > elements_arg
                         else 0)
            t1s.append(0.0)
            tracer.cur = i
            t0s.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                t1s[i] = clock()
                tracer.cur = parent

        return wrapper

    def begin_item(self, item_id: int) -> None:
        self.item_id = item_id
        self.row_keys.clear()

    def end_item(self) -> None:
        self.distinct_rows += len(self.row_keys)
        self.row_keys.clear()
        self.item_id = -1

    # -- analysis -----------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name_id": np.frombuffer(self.nid, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "item": np.frombuffer(self.item, dtype=np.int32).copy(),
            "start": np.frombuffer(self.t0, dtype=np.float64).copy(),
            "end": np.frombuffer(self.t1, dtype=np.float64).copy(),
            "elements": np.frombuffer(self.elements, dtype=np.int64).copy(),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(SPAN_NAMES), **self.arrays())


def self_times(a: dict) -> np.ndarray:
    """Span duration minus the durations of its direct children."""
    dur = a["end"] - a["start"]
    has = a["parent"] >= 0
    child = np.bincount(a["parent"][has], weights=dur[has],
                        minlength=dur.size)
    return dur - child


def item_balance(a: dict, item_walls) -> np.ndarray:
    """Per item: sum of span self times + unwrapped remainder - wall time.

    The remainder is the wall time outside every root span. A zero result
    for every item means each span nests inside its parent and item.
    """
    walls = np.asarray(item_walls, dtype=float)
    n = walls.size
    dur = a["end"] - a["start"]
    root = a["parent"] < 0
    self_sum = np.bincount(a["item"], weights=self_times(a), minlength=n)
    root_sum = np.bincount(a["item"][root], weights=dur[root], minlength=n)
    remainder = walls - root_sum
    return self_sum + remainder - walls


def summarize(tracer: Tracer, n_items: int) -> dict:
    """Per-item means of every reported per-layer stat, by metric name."""
    a = tracer.arrays()
    k = len(SPAN_NAMES)
    dur = a["end"] - a["start"]
    calls = np.bincount(a["name_id"], minlength=k)
    selfs = np.bincount(a["name_id"], weights=self_times(a), minlength=k)
    totals = np.bincount(a["name_id"], weights=dur, minlength=k)
    elems = np.bincount(a["name_id"], weights=a["elements"].astype(float),
                        minlength=k)
    by_stat = {"calls": calls, "elements": elems, "self_s": selfs,
               "total_s": totals}
    out = {}
    for t in TARGETS:
        i = tracer.name_ids[t.name]
        for stat in t.stats:
            out[f"{t.name}.{stat}"] = float(by_stat[stat][i]) / n_items
    rows = int(calls[tracer.name_ids[ROW_SPAN]])
    # 0 on workloads that never build a grid row
    out[f"{ROW_SPAN}.distinct_frac"] = tracer.distinct_rows / rows if rows else 0.0
    return out
