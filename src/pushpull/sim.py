"""Event-level stochastic simulation and iterated best-response dynamics.

Two illustrations live here. simulate_views samples actual viewer
arrivals and checks out against the mean-field trajectory as the push
pool grows. best_response_dynamics runs a population of threshold
agents that repeatedly best-respond to their own median: with a
continuum of equilibria the population settles wherever it started
near, which is the whole point of showing it.

All randomness flows from one PCG64 generator seeded from the config;
identical configs give identical outputs, bit for bit.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .dynamics import (
    Belief,
    DynamicsError,
    ModelParams,
    PushKind,
    Quality,
    Trajectory,
    activation_count,
    write_csv,
)
from .utility import (
    Scenario,
    UtilityError,
    closed_form_best_response,
    symmetric_cap,
)


@dataclass(frozen=True)
class SimConfig:
    """Settings of both simulators; only seed and n_push_pool are required.

    initial_thresholds is None (drawn uniformly on [0, symmetric cap])
    or a flat list, tuple or 1-D array of n_agents finite real numbers.
    """

    seed: int
    n_push_pool: int
    n_agents: int = 50
    rounds: int = 120
    initial_thresholds: Optional[Sequence[float]] = None

    def __post_init__(self):
        least = {"seed": 0, "n_push_pool": 1, "n_agents": 1, "rounds": 1}
        for name, lo in least.items():
            v = getattr(self, name)
            # a JSON true is an int to Python, not an integer here
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                raise TypeError(f"{name} must be an integer")
            if v < lo:
                raise ValueError(f"{name} must be at least {lo}")
        if self.initial_thresholds is not None:
            # a malformed spec fails here, not mid-run
            _initial_thresholds(self, 1.0, self.generator())

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(self.seed))


def simulate_views(q: Quality, alpha: float, p: ModelParams, s: Scenario,
                   c: SimConfig) -> Trajectory:
    """One sampled viewcount path as an event-time step function.

    Saturating push draws an independent Exp(lambda_ps) access time for
    each of n_push_pool pool viewers, a count that must equal the
    model's n_pool (else DynamicsError); linear push is a Poisson stream
    of rate lambda_ps. Pull is a Poisson stream of rate lambda_pu that
    switches on at the first event taking the count to the gate level
    and stays on. The gate is the population's, read off the count: the
    push-only viewcount at which the scenario's metric reaches alpha
    (dynamics.activation_count), never opening where that metric cannot.
    The returned xdot is the empirical inter-event rate, zero at t=0.
    """
    rng = c.generator()
    lam = p.lambda_ps(q)
    tau = p.tau
    if s.push is PushKind.EXPONENTIAL_SATURATING:
        if c.n_push_pool != p.n_pool:
            raise DynamicsError(
                f"saturating push draws n_push_pool={c.n_push_pool} pool "
                f"viewers, but the model's n_pool is {p.n_pool}")
        access = rng.exponential(1.0 / lam, size=c.n_push_pool)
        push_times = np.sort(access[access <= tau])
    else:
        k = rng.poisson(lam * tau)
        push_times = np.sort(rng.uniform(0.0, tau, size=k))

    gate = activation_count(alpha, q, p, s.push, s.metric)
    pull_times = np.empty(0)
    if p.lambda_pu > 0.0 and gate <= push_times.size:
        t_gate = 0.0 if gate <= 0.0 else float(
            push_times[int(math.ceil(gate)) - 1])
        k_pull = rng.poisson(p.lambda_pu * (tau - t_gate))
        pull_times = np.sort(rng.uniform(t_gate, tau, size=k_pull))

    events = np.sort(np.concatenate([push_times, pull_times]))
    t = np.concatenate([[0.0], events, [tau]])
    x = np.concatenate([[0.0], np.arange(1.0, events.size + 1),
                        [float(events.size)]])
    dt = np.diff(t)
    rate = np.where(dt > 0.0, np.diff(x) / np.where(dt > 0.0, dt, 1.0), 0.0)
    xdot = np.concatenate([[0.0], rate])
    return Trajectory(quality=q, alpha=alpha, t=t, x=x, xdot=xdot)


# -- iterated best response ----------------------------------------------------

def _project_onto_br(br, x: float) -> float:
    # nearest element of the best-response set; inside a flat segment the
    # projection is x itself, which is what makes equilibria sticky
    cands = [min(max(x, lo), hi) for lo, hi in br.intervals]
    cands.extend(br.values)
    return min(cands, key=lambda v: (abs(v - x), v))


@dataclass(frozen=True)
class DynamicsResult:
    """Round-by-round population thresholds plus the stopping status."""

    snapshots: Tuple[np.ndarray, ...]
    status: str
    rounds_run: int
    settled_median: float

    def summary(self) -> dict:
        final = self.snapshots[-1]
        return {
            "status": self.status,
            "rounds_run": self.rounds_run,
            "settled_median": self.settled_median,
            "settled_min": float(np.min(final)),
            "settled_max": float(np.max(final)),
            "settled_mean": float(np.mean(final)),
            "n_agents": int(final.size),
        }

    def write_snapshots(self, path) -> None:
        """One "round,agent_id,threshold" row per agent and round."""
        sizes = [len(snap) for snap in self.snapshots]
        write_csv(path, "round,agent_id,threshold", "%d,%d,%.12g\n",
                  np.repeat(np.arange(len(sizes)), sizes),
                  np.concatenate([np.arange(n) for n in sizes]),
                  np.concatenate(self.snapshots))


def _threshold(v) -> float:
    # a JSON true is an int to Python, and float() takes it, as it takes
    # the string "0.5"; neither is a number here
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        raise TypeError(f"initial_thresholds must be numbers, not {v!r}")
    x = float(v)
    if not math.isfinite(x):
        raise ValueError(f"initial_thresholds must be finite, not {x}")
    return x


def _initial_thresholds(c: SimConfig, scale: float,
                        rng: np.random.Generator) -> np.ndarray:
    spec = c.initial_thresholds
    if spec is None:
        return rng.uniform(0.0, scale, c.n_agents)
    if not (isinstance(spec, (list, tuple))
            or (isinstance(spec, np.ndarray) and spec.ndim == 1)):
        raise TypeError("initial_thresholds must be a flat sequence of "
                        f"numbers, not {spec!r}")
    arr = np.array([_threshold(v) for v in spec])
    if arr.size != c.n_agents:
        raise ValueError(
            f"initial_thresholds has {arr.size} entries for {c.n_agents} agents")
    return arr


def best_response_dynamics(belief: Belief, p: ModelParams, s: Scenario,
                           c: SimConfig) -> DynamicsResult:
    """Iterated best response to the population median.

    Each round every agent replaces its threshold with the best-response
    set element nearest the current median, so the median is iterated.
    Stops when the largest per-round movement falls below 1e-6 times the
    symmetric strategy cap; non-convergence within the round budget is
    a status, not an error.
    """
    rng = c.generator()
    scale = symmetric_cap(p, s)
    thresholds = np.clip(_initial_thresholds(c, scale, rng), 0.0, scale)
    snapshots = [thresholds.copy()]
    status = "max-rounds"
    rounds_run = c.rounds
    stop = 1e-6 * scale
    for r in range(c.rounds):
        median = float(np.median(thresholds))
        br = closed_form_best_response(median, belief, p, s)
        if br is None:
            raise UtilityError(
                f"no closed-form best response for scenario {s.value}")
        target = _project_onto_br(br, median)
        change = float(np.max(np.abs(thresholds - target)))
        thresholds[:] = target
        snapshots.append(thresholds.copy())
        if change <= stop:
            status = "converged"
            rounds_run = r + 1
            break
    return DynamicsResult(
        snapshots=tuple(snapshots),
        status=status,
        rounds_run=rounds_run,
        settled_median=float(np.median(thresholds)),
    )
