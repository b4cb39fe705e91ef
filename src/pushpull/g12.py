"""The bytes of "%.12g" for whole blocks of floats, vectorised.

dynamics.write_csv formats long all-"%.12g" blocks (sampled paths)
through g12_block and imports this module only then, so a process that
writes no such block neither compiles it nor builds its tables.

Each field is built in a 32-byte slot that holds the certified
12-digit mantissa m0..m11 twice, as three 4-digit words each:

    [0, sep, '-', '0'] [m0 .. m11] ['.', '0', '0', '0'] [m0 .. m11]
     bytes 0-3          4-15        16-19                20-31

A keep row, ANDed as four uint64 words, zeroes what the field does not
print, and one bytes.translate deletes the zero bytes of the block.
"""

from __future__ import annotations

import numpy as np


def _tables():
    """Lookup tables of g12_block.

    Returns the 4-digit groups 0000-9999 as uint32 words; by group
    k = 0, 1, 2 of N, -1 for 0000, else 4k - 1 plus the place of its
    last non-zero digit (their maximum is L - 1); the opener and point
    words; and the keep rows, 0xff a byte, as uint64 words.
    """
    ten = np.arange(10, dtype=np.uint8)
    digits = np.empty((10, 10, 10, 10, 4), np.uint8)
    last = np.zeros((10, 10, 10, 10), np.int8)
    for k in range(4):
        axis = ten.reshape((10,) + (1,) * (3 - k))
        digits[..., k] = axis + ord("0")
        last = np.maximum(last, (axis > 0) * np.int8(k + 1))
    used = last.reshape(-1) + np.array([[-1], [3], [7]], np.int8)
    used[:, 0] = -1
    # a certified field, row (j = d + 4, neg, L - 1): the separator at
    # byte 1, the sign at 2; for d >= 0 the digits m0..md from byte 4
    # and, if L > d + 1, the point at 16 and m(d+1)..m(L-1) from byte
    # 21 + d; for d < 0 the '0' at 3, the point, -d - 1 zeros from byte
    # 17 and m0..m(L-1) from byte 20
    pos, d = np.arange(32), np.arange(-4, 12)[:, None, None, None]
    neg = np.arange(2)[:, None, None]
    frac, end = 20 + np.maximum(d + 1, 0), 20 + np.arange(12)[:, None]
    keep = ((pos == 1) | ((pos == 2) & (neg == 1))
            | ((pos >= 4 - (d < 0)) & (pos <= np.maximum(4 + d, 3)))
            | ((pos >= 17) & (pos <= 15 - d))
            | ((pos == 16) & (frac <= end)) | ((pos >= frac) & (pos <= end)))
    # row _FALLBACK: the separator, then "%.12g" % x zero-padded in 2-20
    # (at most 19 bytes: a sign, 12 digits, the point and "e-308")
    keep = np.concatenate([keep.reshape(-1, 32), [(pos >= 1) & (pos <= 20)]])
    return (digits.view(np.uint32).ravel(), used,
            np.frombuffer(b"\0,-0\0\n-0.000", np.uint32),
            (keep * np.uint8(255)).view(np.uint64))


_FALLBACK = 16 * 2 * 12
_DIGITS, _USED, (_COMMA, _NEWLINE, _POINT), _KEEP = _tables()
# by j = d + 4: 10^(11 - d), which scales a decade-d value to 12 digits
_SCALE = np.array([float(10 ** k) for k in range(15, -1, -1)])


def g12_block(values: np.ndarray) -> np.ndarray:
    """The bytes of "%.12g" for a (rows, columns) float block, as uint8.

    Each field opens with its separator, "\n" before a row's first and
    "," before the others, so a block reads "\n" + the rows joined by
    "\n", without the last row's newline.

    %.12g prints fixed notation, trailing zeros stripped, when |v|
    rounded to 12 significant digits has a decimal exponent d in
    [-4, 11]. Take d = floor(log10|v|), clipped to [-4, 11], and
    s = |v| 10^(11 - d). The power of ten is exact (0 <= 11 - d <= 15),
    so s carries one rounding, at most 2^-14 where s < 2^40. An element
    is certified where 1e11 <= s, rint(s) < 1e12, and s lies more than
    1e-3 (16x that error) from the nearest half-integer. The exact
    |v| 10^(11 - d) then rounds to the same N = rint(s), so N 10^(d - 11)
    is |v| rounded to 12 digits, with exponent d. A d one decade too low
    gives rint(s) >= 1e12; one too high (or clipped up to -4) gives
    s >= 1e11 only within a rounding of 10^d, where N = 1e11 is the
    12-digit value in either decade. N is an integer below 2^40, exact
    in doubles and in int64, and its three 4-digit groups m0..m3,
    m4..m7 and m8..m11 index the digit table. Zeros, -0.0, subnormals,
    inf, nan, exponent notation, near-ties and decade edges are not
    certified: they take "%.12g" % x.

    A certified field prints m0..md, then "." and m(d+1)..m(L-1) if
    L > d + 1, where d >= 0, and "0.", -d - 1 zeros and m0..m(L-1)
    where d < 0, L the count of N's significant digits. The keep row of
    (d, sign, L), or the fallback row, zeroes the slot's other bytes.
    """
    rows, m = values.shape
    v = values.ravel()
    with np.errstate(all="ignore"):     # zeros, inf and nan fall back
        a = np.abs(v)
        d = np.fmax(np.fmin(np.floor(np.log10(a)), 11.0), -4.0)
        j = (d + 4.0).astype(np.intp)
        s = a * _SCALE[j]
        n = np.rint(s)
        ok = (s >= 1e11) & (n < 1e12) & (np.abs(s - n) < 0.499)
    # any index-safe N where not ok; int64 // a scalar runs libdivide
    big = np.fmin(n, 999_999_999_999.0).astype(np.int64)
    mid = big // 10_000
    g0 = mid // 10_000
    g1 = mid - g0 * 10_000
    g2 = big - mid * 10_000
    # both copies take each group word; uint64 tables of the two halves
    # save ~4% but their 160 KB raised peak RSS where imported 5 times
    slots = np.empty((v.size, 4), np.uint64)
    words = slots.view(np.uint32)
    for k, g in enumerate((g0, g1, g2), 1):
        digit = np.take(_DIGITS, g)
        words[:, k] = digit
        words[:, k + 4] = digit
    words[:, 0] = _COMMA
    words[::m, 0] = _NEWLINE
    words[:, 4] = _POINT
    code = np.maximum(np.maximum(_USED[0][g0], _USED[1][g1]), _USED[2][g2])
    code = code + (j * 24 + (v < 0.0) * 12)
    bad = np.flatnonzero(~ok)
    if bad.size:
        text = [b"%.12g" % x for x in v[bad].tolist()]
        slots.view(np.uint8)[bad, 2:21] = (
            np.array(text, "S19").view(np.uint8).reshape(-1, 19))
        code[bad] = _FALLBACK
    # np.take copies whole mask rows, ten times faster here than
    # _KEEP[code]; translate deletes byte by byte, whatever the runs
    slots &= np.take(_KEEP, code, axis=0)
    return np.frombuffer(slots.tobytes().translate(None, b"\0"), np.uint8)
