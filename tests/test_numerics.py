"""Lambert W and bracketed root finding against independent references:
scipy's lambertw for W0 and scipy's brentq for the roots."""

import math
import warnings

import numpy as np
import pytest
import scipy.optimize
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from pushpull import NumericsError
from pushpull.numerics import find_root_arr, lambert_w0_log


def residual(w: float, x: float) -> float:
    return abs(w * math.exp(w) - x)


def w0(x):
    """W0 of x >= 0 through the package's kernel, which takes ln x."""
    with np.errstate(divide="ignore"):
        return lambert_w0_log(np.log(x))


@pytest.mark.parametrize("x", [0.0, 1e-300, 1e-12, 0.1, 0.5, 1.0, math.e, 10.0,
                               1e3, 1e6, 1e12])
def test_lambert_w0_matches_scipy(x):
    w = w0(x)
    ref = scipy.special.lambertw(x, 0).real
    assert w == pytest.approx(ref, rel=1e-12, abs=1e-12)
    assert residual(w, x) <= 1e-12 * max(1.0, abs(x))


def test_lambert_w0_special_points():
    assert w0(0.0) == 0.0
    assert lambert_w0_log(-math.inf) == 0.0
    assert w0(math.e) == pytest.approx(1.0, rel=1e-14)
    assert lambert_w0_log(1.0) == pytest.approx(1.0, rel=1e-14)


def test_lambert_w0_rejects_bad_input():
    with pytest.raises(NumericsError):
        lambert_w0_log(float("nan"))
    with pytest.raises(NumericsError):
        lambert_w0_log(math.inf)


def test_lambert_w0_log_huge_arguments():
    # for x = e^L with large L, W(x) = L - ln W(x), so W ~ L - ln L
    for log_x in (800.0, 5e3, 1e6):
        w = lambert_w0_log(log_x)
        assert w > 0.0
        # exact fixed-point identity: w + log(w) == log_x
        assert w + math.log(w) == pytest.approx(log_x, rel=1e-12)


def test_lambert_w0_log_agrees_with_plain_eval():
    for log_x in (-5.0, 0.0, 1.0, 20.0, 200.0):
        assert lambert_w0_log(log_x) == pytest.approx(
            scipy.special.lambertw(math.exp(log_x), 0).real, rel=1e-12)


def test_array_variants_match_scalar():
    xs = np.array([0.0, 0.3, 2.0, 50.0])
    ws = w0(xs)
    assert ws.shape == xs.shape
    ref = scipy.special.lambertw(xs, 0).real
    for x, w, r in zip(xs, ws, ref):
        assert w == pytest.approx(r, rel=1e-12, abs=1e-12)
        assert w == w0(float(x))
        assert residual(float(w), float(x)) <= 1e-12 * max(1.0, abs(float(x)))


def test_lambert_w0_log_arrays_equal_scalar_calls():
    logs = np.concatenate([np.linspace(-45.0, 720.0, 1531), [-np.inf, 1e300]])
    ws = lambert_w0_log(logs)
    assert isinstance(lambert_w0_log(1.0), float)
    assert [lambert_w0_log(float(lx)) for lx in logs] == ws.tolist()


def test_lambert_w0_log_matches_scipy():
    logs = np.linspace(-40.0, 700.0, 200001)
    ref = scipy.special.lambertw(np.exp(logs), 0).real
    assert np.max(np.abs(lambert_w0_log(logs) - ref) / ref) <= 1e-15


def test_lambert_w0_log_identity_for_huge_arguments():
    # e^log_x overflows here: w + ln w = log_x must hold without warnings
    logs = np.geomspace(1e3, 1e300, 20001)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ws = lambert_w0_log(logs)
    assert np.all(np.abs(ws + np.log(ws) - logs) <= 1e-15 * logs)


def test_lambert_w0_log_tiny_arguments():
    # W(x) = x to double precision below x = e^-40
    logs = np.array([-np.inf, -1e300, -745.0, -100.0, -40.5])
    assert lambert_w0_log(logs).tolist() == np.exp(logs).tolist()
    assert lambert_w0_log(-np.inf) == 0.0


# W0 is computed for x > 0 only, so the sign is 1
@pytest.mark.parametrize("sign", [1.0])
def test_lambert_w0_near_zero_matches_scipy(sign):
    logs = np.log(sign * np.geomspace(1e-300, 1e-3, 4001)[:-1])
    # the kernel's argument is e^logs, which differs from the points by
    # the rounding of their logs: compare at the argument it is given
    ref = scipy.special.lambertw(np.exp(logs), 0).real
    ws = lambert_w0_log(logs)
    assert np.max(np.abs(ws - ref) / np.abs(ref)) <= 1e-15


# each array route keeps the id of the array variant it replaced: W0 of an
# array goes through lambert_w0_log on log x, and lambert_w0_log is elementwise
@pytest.mark.parametrize("array_fn, scalar_fn", [
    pytest.param(w0, lambda x: lambert_w0_log(math.log(x)),
                 id="lambert_w0_arr-lambert_w0"),
    pytest.param(lambert_w0_log, lambert_w0_log,
                 id="lambert_w0_log_arr-lambert_w0_log"),
])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_array_variants_raise_where_scalar_ones_do(array_fn, scalar_fn, bad):
    # one bad element must raise, not ride along as a silent NaN
    with pytest.raises(NumericsError):
        scalar_fn(bad)
    with pytest.raises(NumericsError):
        array_fn(np.array([0.5, bad, 2.0]))


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=0.0, max_value=1e15,
                 allow_nan=False, allow_infinity=False))
def test_lambert_w0_residual_bound(x):
    w = w0(x)
    assert residual(w, x) <= 1e-12 * max(1.0, abs(x))


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-700.0, max_value=700.0,
                 allow_nan=False, allow_infinity=False))
def test_lambert_w0_log_residual_bound(log_x):
    w = lambert_w0_log(log_x)
    if log_x <= 1.0:
        # representable range: the plain residual bound applies directly
        x = math.exp(log_x)
        assert residual(w, x) <= 1e-12 * max(1.0, x)
    else:
        # w is order one or larger, so the log fixed point w + log w = log_x
        # is well conditioned
        assert abs(math.log(w) + w - log_x) <= 1e-10 * max(1.0, abs(log_x))


def root_on(f, a: float, b: float, tol: float) -> float:
    """The root of f on the one bracket [a, b]."""
    (x,) = find_root_arr(f, [a], [b], tol).tolist()
    return x


@pytest.mark.parametrize("f, a, b", [
    (lambda t: t * t - 2.0, 0.0, 2.0),
    (lambda t: np.cos(t), 0.0, 3.0),
    (lambda t: np.expm1(t) - 0.5, -1.0, 1.0),
])
def test_find_root_matches_brentq(f, a, b):
    got = root_on(f, a, b, tol=1e-12)
    ref = scipy.optimize.brentq(f, a, b, xtol=1e-13)
    assert got == pytest.approx(ref, abs=1e-10)


def test_find_root_endpoint_zeros():
    assert root_on(lambda t: t - 1.0, 1.0, 4.0, tol=1e-9) == 1.0
    assert root_on(lambda t: t - 4.0, 1.0, 4.0, tol=1e-9) == 4.0


def test_find_root_requires_sign_change():
    with pytest.raises(NumericsError):
        root_on(lambda t: t * t + 1.0, -1.0, 1.0, tol=1e-9)


def test_find_root_rejects_nonpositive_tol():
    with pytest.raises(NumericsError):
        root_on(lambda t: t, -1.0, 1.0, tol=0.0)
    with pytest.raises(NumericsError):
        root_on(lambda t: t, -1.0, 1.0, tol=-1e-9)


def test_find_root_arr_takes_find_root_iterates():
    # rising and falling brackets, roots at either end, and an |f| <= tol
    # stop: every element equals its bracket solved alone bit for bit, so
    # the elements that stop early do not disturb the others
    shift = np.array([2.0, 0.3, 2.0, 1.0, 4.0, 1e-14])
    sign = np.array([1.0, -1.0, 1.0, 1.0, -1.0, 1.0])
    a = np.array([0.0, 0.0, -3.0, 1.0, 0.0, 0.0])
    b = np.array([2.0, 5.0, 0.0, 3.0, 2.0, 1.0])
    tol = 1e-12
    got = find_root_arr(lambda t: sign * (t * t - shift), a, b, tol)
    for k in range(shift.size):
        f = lambda t: sign[k] * (t * t - shift[k])
        assert got[k] == root_on(f, a[k], b[k], tol)
    assert got[3] == 1.0 and got[4] == 2.0
    # stopped by |f| <= tol, long before the width: any point of the
    # bracket with |f| <= tol meets the rule
    assert abs(got[5] * got[5] - shift[5]) <= tol
    assert a[5] <= got[5] <= b[5]


# monotone families f(t; r) with f(r) = 0, in numpy so that one definition
# serves a batch of brackets and a single one
MONOTONE = {
    # slope fading like e^{-lam t}, as y(t) does under saturating push
    "fading": lambda t, r, lam: np.exp(-lam * r) - np.exp(-lam * t),
    "cubic": lambda t, r, lam: t * t * t + t - (r * r * r + r),
    "log": lambda t, r, lam: np.log1p(t) - np.log1p(r),
    "tanh": lambda t, r, lam: np.tanh(lam * (t - r)),
}


def _draw_brackets(seed, count):
    # roots anywhere inside, and within 1e-9 of the width from either
    # end; the scale of f spans 8 decades and both directions
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.0, 5.0, count)
    width = rng.uniform(0.1, 20.0, count)
    u = np.concatenate([rng.uniform(0.0, 1.0, count - count // 2),
                        rng.uniform(0.0, 1e-9, count // 4),
                        1.0 - rng.uniform(1e-12, 1e-9, count // 4)])
    lam = rng.uniform(0.05, 1.0, count) * 20.0 / width
    scale = rng.choice([-1.0, 1.0], count) * 10.0 ** rng.uniform(-2, 6, count)
    return a, a + width, a + u * width, lam, scale


@pytest.mark.parametrize("family", sorted(MONOTONE))
def test_find_root_matches_brentq_on_monotone_brackets(family):
    g = MONOTONE[family]
    a, b, r, lam, scale = _draw_brackets(sorted(MONOTONE).index(family), 200)
    tol = 1e-13
    n_arr = [0]

    def f_arr(t):
        n_arr[0] += 1
        return scale * g(t, r, lam)

    got = find_root_arr(f_arr, a, b, tol)
    # a superlinear method: bisection would take ~50 evaluations here
    assert n_arr[0] <= 15
    for k in range(a.size):
        n = [0]

        def f(t):
            n[0] += 1
            return scale[k] * g(t, r[k], lam[k])

        x = root_on(f, a[k], b[k], tol)
        assert x == got[k]
        assert n[0] <= 15
        ref = scipy.optimize.brentq(f, a[k], b[k], xtol=1e-300,
                                    rtol=4.0 * np.finfo(float).eps)
        assert a[k] <= x <= b[k]
        assert abs(x - ref) <= tol or abs(f(x)) <= tol


def test_find_root_arr_stops_at_its_iteration_cap():
    # a sign step has no zero, and at tol 1e-300 neither stop (|f| <= tol,
    # a bracket at most tol wide) comes within 200 halvings of [-1, 1]
    with pytest.raises(NumericsError, match="iteration cap reached"):
        find_root_arr(lambda t: np.where(t < 0.0, -1.0, 1.0), [-1.0], [1.0],
                      1e-300)


def test_find_root_arr_rejects_what_find_root_rejects():
    with pytest.raises(NumericsError, match="sign change"):
        find_root_arr(lambda t: t * t + 1.0, [-1.0, 0.0], [1.0, 1.0], 1e-9)
    with pytest.raises(NumericsError, match="tol"):
        find_root_arr(lambda t: t, [-1.0], [1.0], 0.0)
