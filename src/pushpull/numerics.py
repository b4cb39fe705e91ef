"""Lambert W and bracketed root finding used by every other module.

Everything here is pure and deterministic. W0 is computed by one
elementwise kernel, `lambert_w0_log`, which takes ln x for positive x
and runs a fixed number of steps, so every downstream crossing time is
reproducible bit for bit. `find_root_arr` solves an array of brackets,
one root each, by Chandrupatla's method; a single bracket is an array of
one.
"""

from __future__ import annotations

from typing import Callable

import numpy as np


class NumericsError(ValueError):
    """Domain or convergence failure in a numeric routine."""


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


def _interpolation_safe(x1, x2, x3, f1, f2, f3):
    """Chandrupatla's test that inverse-quadratic interpolation through
    the three points is monotone over the bracket [x1, x2].

    x1 is the newest point, x2 the bracket's other end (f2 of the other
    sign) and x3 the point just dropped, on x1's side, elementwise.
    """
    xi = (x1 - x2) / (x3 - x2)
    phi = (f1 - f2) / (f3 - f2)
    return (phi * phi < xi) & ((1.0 - phi) * (1.0 - phi) < 1.0 - xi)


def _interpolated_t(x1, x2, x3, f1, f2, f3):
    """Inverse-quadratic root of the three points, as the fraction t of
    the way from x1 to x2. Meaningful where _interpolation_safe holds."""
    return (f1 / (f2 - f1) * f3 / (f2 - f3)
            + (x3 - x1) / (x2 - x1) * f1 / (f3 - f1) * f2 / (f3 - f2))


def find_root_arr(f: Callable[[np.ndarray], np.ndarray], a, b,
                  tol: float) -> np.ndarray:
    """Chandrupatla's bracketed root finder (Chandrupatla, Adv. Eng.
    Softw. 28(3), 1997) over arrays of brackets [a, b], one root each:
    inverse-quadratic interpolation with a bisection fallback.

    f maps an array of points, one per bracket, to their values. Each
    step evaluates f at x = x1 + t (x2 - x1) strictly inside the bracket
    [x1, x2] and keeps the part whose ends differ in sign, judged by
    comparing signs (a product f1*f(x) can underflow). t is the
    interpolated root of the last three points where
    _interpolation_safe holds, else 1/2, and at least tol/2 from either
    end. An element stops when |f(x)| <= tol, returning x, or when its
    bracket is at most tol wide, returning the end with the smaller
    |f|; so each result has |f| <= tol or lies within tol of a root.
    Superlinear near a simple root of a smooth f, and deterministic. The
    loop runs until the last element has stopped; the interpolation's
    divisions by zero (stopped elements) stay inside np.errstate.
    """
    if tol <= 0.0:
        raise NumericsError("find_root_arr: tol must be positive")
    x1 = np.array(a, dtype=float)
    x2 = np.array(b, dtype=float)
    f1, f2 = f(x1), f(x2)
    if np.any(f1 * f2 > 0.0):
        raise NumericsError("find_root_arr: no sign change on some bracket")
    out = np.where(f1 == 0.0, x1, x2)
    todo = (f1 != 0.0) & (f2 != 0.0)
    if not todo.any():
        return out
    t = np.full(x1.shape, 0.5)
    # stopped elements keep iterating, but their result is kept; their t
    # is 1/2, so their points stay inside their brackets
    for _ in range(200):
        x = x1 + t * (x2 - x1)
        fx = f(x)
        # the sign test, not f1*fx, which can underflow; and the stop
        # with the end it returns
        same = (fx < 0.0) == (f1 < 0.0)
        x3, f3 = np.where(same, x1, x2), np.where(same, f1, f2)
        x2, f2 = np.where(same, x2, x1), np.where(same, f2, f1)
        x1, f1 = x, fx
        width = np.abs(x2 - x1)
        size = np.abs(fx)
        stop = (size <= tol) | (width <= tol)
        stop &= todo
        if stop.any():
            np.copyto(out, np.where((size > tol) & (np.abs(f2) < size), x2, x),
                      where=stop)
            todo ^= stop
            if not todo.any():
                return out
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            safe = _interpolation_safe(x1, x2, x3, f1, f2, f3) & todo
            t = np.where(safe, _interpolated_t(x1, x2, x3, f1, f2, f3), 0.5)
            tl = np.minimum(0.5 * tol / width, 0.5)
        t = np.minimum(np.maximum(t, tl), 1.0 - tl)
    raise NumericsError(
        "find_root_arr: iteration cap reached (malformed input?)")
