"""Lambert W and bracketed root finding used by every other module.

Everything here is pure and deterministic. W0 is computed by one
elementwise kernel, `lambert_w0_log`, which takes ln x for positive x
and runs a fixed number of steps, so every downstream crossing time is
reproducible bit for bit. `lambert_w0`, the scalar on the full domain
x >= -1/e, is kept as public API and the tests' reference only.
`find_root` bisects one bracket and `find_root_arr` an array of
brackets with the same iterates.
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

    A reference only: the package computes with lambert_w0_log. Accepts
    x >= -1/e (up to 1e-15 slack below, clipped to the branch
    point). Halley iteration from a regime-dependent seed; relative
    residual is driven below 1e-12*max(1,|x|). Below |x| = 1e-5, where
    that stop test is met by the seed alone, a Taylor series.
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
    if abs(x) < 1e-5:
        # the first omitted term is (125/24) x^5
        return x * (1.0 - x * (1.0 - x * (1.5 - (8.0 / 3.0) * x)))
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


def lambert_w0_log(log_x):
    """W0(e^log_x) for positive arguments, elementwise.

    A float for a scalar, an array otherwise. Two fixed
    Fritsch-Shafer-Crowley steps from ln(1 + e^log_x) (Fritsch, Shafer
    & Crowley, CACM 16(2), 1973) reach double precision, also where
    e^log_x would overflow. Below log_x = -40, W(x) = x in doubles.
    Raises NumericsError on NaN or +inf.
    """
    lx = np.asarray(log_x, dtype=float)
    if np.count_nonzero(np.isnan(lx) | np.isposinf(lx)):
        raise NumericsError("lambert_w0_log: argument is NaN or +inf")
    lc = np.maximum(lx, -40.0)
    # z = ln(x/w) - w. Below log_x = 1 it is formed from x itself: there
    # w can be tiny and ln x - ln w would lose the digits of w to
    # cancellation. Above, from log_x, as x may overflow.
    small = lc < 1.0
    x = np.exp(np.minimum(lc, 1.0))
    w = np.logaddexp(0.0, lc)
    for _ in range(2):
        r = np.log(np.where(small, x / w, w))
        z = np.where(small, r, lc - r) - w
        # FSC's q = 2(1+w)(1+w+2z/3), divided through by 2(1+w) so that
        # it cannot overflow for huge w
        u = z / (1.0 + w)
        q = 1.0 + w + (2.0 / 3.0) * z
        w = w * (1.0 + u * (q - 0.5 * u) / (q - u))
    w = np.where(lx < -40.0, np.exp(np.minimum(lx, -40.0)), w)
    return float(w) if w.ndim == 0 else w


@dataclass(frozen=True)
class BracketedFunction:
    """A continuous function with a sign change on [a, b]."""

    f: Callable[[float], float]
    a: float
    b: float


def find_root(bf: BracketedFunction, tol: float) -> float:
    """Deterministic bisection on a bracketing interval.

    Stops when |f(mid)| <= tol or the bracket width drops below tol.
    Bisection over Brent on purpose: its caller, the saturating-push
    best response, needs bit-stable determinism more than speed.
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
