"""Exact decimal digits of float64 arrays, for Python's ``"%r"`` and ``"%.12g"``.

Each finite value x with 1e-280 <= |x| <= 1e280 is scaled to
Y = |x| 10^(16 - k), k = floor(log10 |x|), so Y lies in [1e16, 1e17).  The
product with 10^(16 - k), held as a double-double hi + lo built from Python
ints, is exact up to about 5e-15 of a unit of Y: x hi is split exactly by
Dekker's two-product (Veltkamp's split, no fused multiply-add needed) and
x lo adds one rounding.  Y's integer part D (17 digits, int64) and fraction
then decide both formats:

* :func:`round12` rounds D + fraction at 10^5, as ``"%.12g"`` does;
* :func:`shortest` takes the largest t for which a multiple of 10^t lies in
  the rounding interval of x, [Y - ulp_below/2, Y + ulp_above/2] in the
  same scale, and of the at most two such multiples the one nearest Y: the
  digits of ``"%r"`` (David Gay's dtoa mode 0, which is CPython's ``repr``).

Both also mark the values whose rounding tie or interval boundary lies
within _TOL of the computed Y, where half-to-even and the boundary rule
would need deciding; their callers format those by Python instead.
"""

from __future__ import annotations

import numpy as np

# |x| range of the fast path: x 10^(16 - k) and the splits of both factors stay finite and normal
_LO, _HI = 1e-280, 1e280
# the computed Y errs by at most about 5e-15 of its last digit
_TOL = 2.0**-30
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's constant for float64
_EXPONENT_BITS = np.uint64(0x7FF0000000000000)
_POW10 = 10 ** np.arange(18, dtype=np.int64)


def _power(p: int) -> tuple[float, float]:
    """10^p = hi + lo, both rounded correctly (so is Python's int / int)."""
    num, den = (10**p, 1) if p >= 0 else (1, 10**-p)
    a, b = (num / den).as_integer_ratio()
    return num / den, (num * b - a * den) / (den * b)


# 10^P = _P_HI + _P_LO and _P_HI = _P_HI_H + _P_HI_L split, at P - _P_MIN for P = 16 - k, |k| <= 282;
# building them takes about 0.6 ms
_P_MIN = 16 - 282
_P_HI, _P_LO = np.array([_power(p) for p in range(_P_MIN, 16 + 283)]).T
_P_HI_H = _P_HI * _SPLIT
_P_HI_H -= _P_HI_H - _P_HI
_P_HI_L = _P_HI - _P_HI_H


def _digits17(x: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """D = floor(x 10^(16 - k)) as int64 and the fraction left over, for x in the fast range."""
    at = 16 - _P_MIN - k
    x_h = x * _SPLIT
    x_h -= x_h - x
    x_l = x - x_h
    p = x * _P_HI[at]
    # p + err = x hi exactly (Dekker's two-product), then err + x lo rounds once
    err = x_h * _P_HI_H[at] - p
    for a, b in ((x_h, _P_HI_L), (x_l, _P_HI_H), (x_l, _P_HI_L), (x, _P_LO)):
        err += a * b[at]
    whole = np.floor(err, out=x_h)
    err -= whole
    d = p.astype(np.int64)
    d += whole.astype(np.int64)
    return d, err


def decimal17(v: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per value: whether |v| is in the range above, |v| (1 outside it), k = floor(log10 |v|), D and its fraction."""
    x = np.abs(v)
    fast = (x >= _LO) & (x <= _HI)
    np.copyto(x, 1.0, where=~fast)
    k = np.floor(np.log10(x)).astype(np.int64)
    d, frac = _digits17(x, k)
    # log10 may be a unit off next to a power of ten; then D has 16 or 18 digits
    off = np.flatnonzero((d - _POW10[16]).view(np.uint64) >= np.uint64(9 * 10**16))
    if off.size:
        k[off] += np.where(d[off] < _POW10[16], -1, 1)
        d[off], frac[off] = _digits17(x[off], k[off])
    return fast, x, k, d, frac


def round12(d: np.ndarray, frac: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """%.12g digits as a 17-digit integer (10^17 where they carry) and a mask of ties too close to call."""
    q = d // 100000
    rest = d - q * 100000 + frac
    rest -= 50000.0
    q += rest > 0.0
    q *= 100000
    return q, np.abs(rest) < _TOL


def shortest(x: np.ndarray, d: np.ndarray, frac: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """%r digits as a 17-digit integer (10^17 where they carry) and a mask of values too close to call."""
    below_x = (x.view(np.uint64) & _EXPONENT_BITS).view(np.float64)  # the power of two at or below x
    # half the gaps to x's neighbours, in units of D; the gap below a power of two
    # is half as wide (between 1e-280 and 1e280 that never changes the digits)
    up = below_x * _P_HI[16 - _P_MIN - k] * 2.0**-53
    low = frac - up * np.where(x == below_x, 0.5, 1.0)
    high = frac + up
    unsure = (np.abs(low - np.rint(low)) < _TOL) | (np.abs(high - np.rint(high)) < _TOL)
    # the integers first .. last are the 17-digit decimals that read back as x;
    # the interval is at least 1.1 wide, so first <= last
    first = d + np.ceil(low).astype(np.int64)
    last = d + np.floor(high).astype(np.int64)
    # t = the most trailing zeros among first .. last
    t = np.zeros(x.size, np.int64)
    live, a, b = np.arange(x.size), last, first - 1
    while live.size:
        a, b = a // 10, b // 10
        more = a > b
        live, a, b = live[more], a[more], b[more]
        t[live] += 1
    step = _POW10[t]
    below = d // step * step
    dist = d - below + frac  # from the multiple below Y; the one above is step - dist away
    gap = step - dist
    has_below = below >= first
    has_above = below + step <= last
    unsure |= has_below & has_above & (np.abs(gap - dist) < _TOL)
    below += step * (has_above & ~(has_below & (dist <= gap)))
    return below, unsure
