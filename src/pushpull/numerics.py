"""Scalar special functions and root finding used by every other module.

Everything here is pure and deterministic. The Lambert solver is
hand-rolled so its iteration scheme (and therefore every downstream
crossing time) is reproducible bit-for-bit across platforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

_INV_E = -math.exp(-1.0)
_MAX_ITER = 100


class NumericsError(ValueError):
    """Domain or convergence failure in a numeric routine."""


def _w0_seed(x: float) -> float:
    # ln(1+x) tracks W0 well on x >= 0; near the branch point use the
    # series in p = sqrt(2(ex+1)): W = -1 + p - p^2/3 + (11/72)p^3.
    if x >= 0.0:
        return math.log1p(x)
    p = math.sqrt(2.0 * (math.e * x + 1.0))
    return -1.0 + p - p * p / 3.0 + (11.0 / 72.0) * p * p * p


def lambert_w0(x: float) -> float:
    """Principal branch of the Lambert function: w with w*e^w = x.

    Accepts x >= -1/e (up to 1e-15 slack below, clipped to the branch
    point). Halley iteration from a regime-dependent seed; relative
    residual is driven below 1e-12*max(1,|x|).
    """
    x = float(x)
    if math.isnan(x):
        raise NumericsError("lambert_w0: argument is NaN")
    if x < _INV_E:
        if x < _INV_E - 1e-15:
            raise NumericsError(f"lambert_w0: {x} below branch point -1/e")
        x = _INV_E
    if x == 0.0:
        return 0.0
    w = _w0_seed(x)
    for _ in range(_MAX_ITER):
        ew = math.exp(w)
        f = w * ew - x
        if abs(f) <= 1e-13 * max(1.0, abs(x)):
            return w
        wp1 = w + 1.0
        if wp1 == 0.0:
            return w  # exactly at the branch point
        # Halley step
        denom = ew * wp1 - (w + 2.0) * f / (2.0 * wp1)
        step = f / denom
        w -= step
        if w < -1.0:
            w = -1.0
        if abs(step) <= 1e-16 * max(1.0, abs(w)):
            ew = math.exp(w)
            if abs(w * ew - x) <= 1e-12 * max(1.0, abs(x)):
                return w
    ew = math.exp(w)
    if abs(w * ew - x) <= 1e-12 * max(1.0, abs(x)):
        return w
    raise NumericsError(f"lambert_w0: no convergence at x={x}")


def lambert_w0_log(log_x: float) -> float:
    """W0(e^log_x), stable when e^log_x would overflow a double.

    Crossing times need W0 of exponentially large arguments when the
    pull rate is tiny; for log_x > 600 we solve w + ln w = log_x by
    Newton instead of forming e^log_x.
    """
    if log_x <= 600.0:
        return lambert_w0(math.exp(log_x))
    w = log_x - math.log(log_x)
    for _ in range(_MAX_ITER):
        g = w + math.log(w) - log_x
        step = g / (1.0 + 1.0 / w)
        w -= step
        if abs(step) <= 1e-15 * w:
            return w
    raise NumericsError(f"lambert_w0_log: no convergence at log_x={log_x}")


def lambert_w0_arr(x: np.ndarray) -> np.ndarray:
    """Vectorized W0 for the bulk oracle paths. Same scheme as lambert_w0.

    Raises NumericsError where lambert_w0 would: on NaN, below the branch
    point, and when an element fails to converge (+inf never does, so it
    is rejected up front rather than after the iteration cap).
    """
    x = np.asarray(x, dtype=float)
    if np.any(np.isnan(x) | np.isposinf(x)):
        raise NumericsError("lambert_w0_arr: argument is NaN or +inf")
    if np.any(x < _INV_E - 1e-15):
        raise NumericsError("lambert_w0_arr: argument below branch point")
    xc = np.maximum(x, _INV_E)
    w = np.log1p(np.maximum(xc, 0.0))
    neg = xc < 0.0
    if neg.any():
        p = np.sqrt(np.maximum(2.0 * (math.e * xc[neg] + 1.0), 0.0))
        w[neg] = -1.0 + p - p * p / 3.0 + (11.0 / 72.0) * p ** 3
    scale = np.maximum(1.0, np.abs(xc))
    for _ in range(_MAX_ITER):
        ew = np.exp(w)
        f = w * ew - xc
        if np.all(np.abs(f) <= 1e-13 * scale):
            break
        # Halley step; skipped exactly at the branch point, where w + 1 = 0
        wp1 = w + 1.0
        safe = np.abs(wp1) > 1e-300
        wp1[~safe] = 1.0
        step = f / (ew * wp1 - (w + 2.0) * f / (2.0 * wp1))
        w -= np.where(safe, step, 0.0)
        np.maximum(w, -1.0, out=w)
    else:
        if not np.all(np.abs(w * np.exp(w) - xc) <= 1e-12 * scale):
            raise NumericsError("lambert_w0_arr: no convergence")
    return w


def lambert_w0_log_arr(log_x: np.ndarray) -> np.ndarray:
    """Vectorized W0(e^log_x); array counterpart of lambert_w0_log.

    Like lambert_w0_log, raises NumericsError on NaN or +inf and when the
    large-argument Newton iteration does not converge.
    """
    log_x = np.asarray(log_x, dtype=float)
    if np.any(np.isnan(log_x) | np.isposinf(log_x)):
        raise NumericsError("lambert_w0_log_arr: argument is NaN or +inf")
    out = np.empty_like(log_x)
    small = log_x <= 600.0
    if np.any(small):
        out[small] = lambert_w0_arr(np.exp(log_x[small]))
    if np.any(~small):
        lx = log_x[~small]
        w = lx - np.log(lx)
        for _ in range(_MAX_ITER):
            step = (w + np.log(w) - lx) / (1.0 + 1.0 / w)
            w -= step
            if np.all(np.abs(step) <= 1e-15 * w):
                break
        else:
            raise NumericsError("lambert_w0_log_arr: no convergence")
        out[~small] = w
    return out


@dataclass(frozen=True)
class BracketedFunction:
    """A continuous function with a sign change on [a, b]."""

    f: Callable[[float], float]
    a: float
    b: float


def find_root(bf: BracketedFunction, tol: float) -> float:
    """Deterministic bisection on a bracketing interval.

    Stops when |f(mid)| <= tol or the bracket width drops below tol.
    Bisection over Brent on purpose: the callers invert monotone
    trajectories where bit-stable determinism matters and speed does not.
    """
    if tol <= 0.0:
        raise NumericsError("find_root: tol must be positive")
    a, b = float(bf.a), float(bf.b)
    fa, fb = bf.f(a), bf.f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if fa * fb > 0.0:
        raise NumericsError(f"find_root: no sign change on [{a}, {b}]")
    for _ in range(200):
        mid = 0.5 * (a + b)
        fm = bf.f(mid)
        if abs(fm) <= tol or (b - a) <= tol:
            return mid
        if fa * fm <= 0.0:
            b, fb = mid, fm
        else:
            a, fa = mid, fm
    raise NumericsError("find_root: iteration cap reached (malformed input?)")


def find_root_arr(f: Callable[[np.ndarray], np.ndarray], a, b,
                  tol: float) -> np.ndarray:
    """find_root over arrays of brackets [a, b], one root per element.

    f maps an array of points, one per bracket, to their values. Every
    element takes find_root's iterates and stops by its rule; the loop
    runs until the last element has stopped. The half kept is the one
    whose ends differ in sign, judged by sign(f(a)), which bisection
    never changes (find_root forms f(a)*f(mid), which can underflow).
    Each step is a few numpy passes over all elements, so this pays off
    from a handful of brackets on; scalar callers keep find_root.
    """
    if tol <= 0.0:
        raise NumericsError("find_root_arr: tol must be positive")
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    fa, fb = f(a), f(b)
    if np.any(fa * fb > 0.0):
        raise NumericsError("find_root_arr: no sign change on some bracket")
    out = np.where(fa == 0.0, a, b)
    todo = (fa != 0.0) & (fb != 0.0)
    sign_a = np.sign(fa)
    # in-place updates and count_nonzero: on the few elements of a
    # utility surface numpy's per-call cost is most of each step
    for _ in range(200):
        if not np.count_nonzero(todo):
            return out
        mid = 0.5 * (a + b)
        fm = f(mid)
        # stopped elements keep bisecting, but their result is kept
        stop = (np.abs(fm) <= tol) | (b - a <= tol)
        stop &= todo
        np.copyto(out, mid, where=stop)
        todo ^= stop
        left = sign_a * fm <= 0.0
        np.copyto(b, mid, where=left)
        np.copyto(a, mid, where=~left)
    if todo.any():
        raise NumericsError(
            "find_root_arr: iteration cap reached (malformed input?)")
    return out
