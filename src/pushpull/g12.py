"""The bytes of "%.12g" for whole blocks of floats, vectorised.

dynamics.write_csv formats long all-"%.12g" blocks (sampled paths)
through g12_block and imports this module only then, so a process that
writes no such block neither compiles it nor builds its tables.
"""

from __future__ import annotations

import numpy as np


def _tables():
    """Lookup tables of g12_block.

    Returns, as native uint32 words of 4 ASCII bytes, the 4-digit groups
    0000-9999, the groups ".ddd" for 000-999 and the two field openers;
    then, by fraction group, the fraction digits up to the group's last
    non-zero one (0 for a zero group); then the keep masks of a field.
    """
    digits = np.indices((10,) * 4, np.uint8).reshape(4, -1).T.copy()
    zero = digits == 0
    digits += ord("0")
    dotted = digits[:1000].copy()
    dotted[:, 0] = ord(".")
    openers = np.zeros((2, 4), np.uint8)
    openers[:, 2] = (ord("\n"), ord(","))
    openers[:, 3] = ord("-")
    # the fraction groups hold digits 1-3, 4-7, 8-11 and 12-15
    trailing = np.logical_and.accumulate(zero[:, ::-1].T).sum(
        axis=0, dtype=np.int8)
    frac_used = np.array([[3], [7], [11], [15]], np.int8) - trailing
    frac_used[:, 0] = 0
    # a certified field, row (j, f, neg): the separator at byte 2, the
    # sign at 3, the integer digits up to byte 16 and, when f > 0, the
    # point at 16 and f fraction digits
    pos = np.arange(_WIDTH)
    j = np.arange(16)[:, None, None, None]
    f = np.arange(16)[None, :, None, None]
    neg = np.arange(2)[None, None, :, None]
    n_int = np.maximum(j - 4, 0) + 1
    keep = ((pos == 2) | ((pos == 3) & (neg == 1))
            | ((pos >= 16 - n_int) & (pos < 16))
            | ((f > 0) & (pos >= 16) & (pos <= 16 + f)))
    # a fallback field, row _FALLBACK + length: the separator, then
    # the "%.12g" string from byte 3
    length = np.arange(_WIDTH - 3)[:, None]
    fallback = (pos == 2) | ((pos >= 3) & (pos < 3 + length))
    return (digits.view(np.uint32).ravel(), dotted.view(np.uint32).ravel(),
            openers.view(np.uint32).ravel(), frac_used,
            np.concatenate([keep.reshape(-1, _WIDTH), fallback]))


# a field is 8 uint32 words: the opener (two spare bytes, then '\n' or
# ',' and '-'), the integer part's 12 digits right-aligned, then '.' and
# 15 fraction digits
_WIDTH = 32
_FALLBACK = 16 * 16 * 2
_DIGITS, _DOTTED, _OPENERS, _FRAC_USED, _KEEP = _tables()
# by j = d + 4: 10^(11 - d), which scales a decade-d value to 12 integer
# digits, and 10^(4 + d), which scales its fraction to 15 digits
_SCALE = 10.0 ** (15 - np.arange(16))
_FRAC_SCALE = 10.0 ** np.arange(16)


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
    12-digit value in either decade. The integer part N // 10^(11 - d)
    and the fraction digits are integers below 2^53, exact in doubles,
    and 4-digit groups of them index the word tables. Zeros, -0.0,
    subnormals, inf, nan, exponent notation, near-ties and decade edges
    are not certified: they take "%.12g" % x.
    """
    rows, m = values.shape
    v = values.ravel()
    with np.errstate(all="ignore"):     # zeros, inf and nan fall back
        a = np.abs(v)
        d = np.fmax(np.fmin(np.floor(np.log10(a)), 11.0), -4.0)
        j = (d + 4.0).astype(np.intp)
        scale = _SCALE[j]
        s = a * scale
        n = np.rint(s)
        ok = (s >= 1e11) & (n < 1e12) & (np.abs(s - n) < 0.499)
    n = np.fmin(n, 999_999_999_999.0)   # any index-safe N where not ok
    ip = np.floor(n / scale)
    fp = (n - ip * scale) * _FRAC_SCALE[j]

    def split(x, unit):
        # the quotient by unit as a group index; x keeps the remainder
        g = np.floor(x / unit)
        x -= g * unit
        return g.astype(np.intp)

    groups = [split(ip, 1e8), split(ip, 1e4), ip.astype(np.intp),
              split(fp, 1e12), split(fp, 1e8), split(fp, 1e4),
              fp.astype(np.intp)]
    buf = np.empty((rows, m, 8), np.uint32)
    buf[:, :, 0] = _OPENERS[np.minimum(np.arange(m), 1)]
    fields = buf.reshape(rows * m, 8)
    for word, g in enumerate(groups, 1):
        fields[:, word] = (_DOTTED if word == 4 else _DIGITS)[g]
    used = _FRAC_USED
    f = np.maximum(np.maximum(used[0][groups[3]], used[1][groups[4]]),
                   np.maximum(used[2][groups[5]], used[3][groups[6]]))
    code = (j * 16 + f) * 2 + (v < 0.0)
    bad = np.flatnonzero(~ok)
    if bad.size:
        text = [b"%.12g" % x for x in v[bad].tolist()]
        fields.view(np.uint8)[bad, 3:23] = (
            np.array(text, "S20").view(np.uint8).reshape(-1, 20))
        code[bad] = _FALLBACK + np.array([len(t) for t in text])
    # np.take copies whole mask rows, ten times faster here than
    # _KEEP[code]; the flat boolean gather makes no index arrays
    keep = np.take(_KEEP, code, axis=0)
    return fields.view(np.uint8).ravel()[keep.ravel()]
