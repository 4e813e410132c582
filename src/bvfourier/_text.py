"""CSV rows of float columns, rendered by numpy with the bytes of Python's ``%``.

:func:`csv_rows` writes the first column as ``"%r"`` and every other column
as ``"%.12g"``, with the digits of :mod:`bvfourier._digits`.  Values those
cannot decide (not finite, |x| outside 1e-280 .. 1e280, or too close to a
rounding tie or interval boundary) are formatted by Python's own ``%``, one
element at a time; zeros are rendered here.  Each value's text is gathered
from a 32-byte slot of its digits, its exponent's digits and a few constant
bytes, through a layout row per (notation, digit count); one pass then
drops the NUL bytes.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ._digits import decimal17, round12, shortest

# A value's slot of 32 bytes: 0-2 NUL, 3-19 its 17 digits, 20-23 |exponent|
# as 4 digits (byte 20 is always "0"), 24 "-" or NUL, 25-28 ".e+-", 29-30
# ".0" for "%r" (NUL for "%.12g"), 31 the separator.  A value formatted by
# Python holds its text in bytes 0-23 instead, NUL-padded.
_SLOT, _WIDTH = 32, 25
_ZERO, _SIGN, _DOT, _E, _PLUS, _POINT_ZERO, _SEPARATOR = 20, 24, 25, 26, 27, [29, 30], 31
# the ASCII digits of 0 .. 9999, each in one word, and of 0 .. 9 after 3 NUL
_QUAD = np.arange(10000, dtype=np.int16)
_WORDS = (_QUAD[:, None] // np.array([1000, 100, 10, 1], np.int16) % 10 + 48).astype(np.uint8)
_WORDS = _WORDS.view(np.uint32).ravel()
_LEAD = np.frombuffer(b"".join(b"\0\0\0%d" % j for j in range(10)), np.uint32)
# the trailing zeros of each word, 17 for 0000: digit word j's last nonzero digit is digit 4 j + 1 - that
_TRAILING = sum((_QUAD % m == 0).astype(np.int8) for m in (10, 100, 1000))
_TRAILING[0] = 17
del _QUAD


def _layout(form: int, n: int) -> list[int]:
    """Slot bytes, in output order, of n digits in fixed notation at exponent form - 4
    (form < 20) or exponential (20 + 2 (exponent < 0) + (three exponent digits))."""
    digits = list(range(3, 3 + n))
    if form >= 20:
        negative, three = divmod(form - 20, 2)
        body = digits[:1] + ([_DOT] + digits[1:] if n > 1 else [])
        body += [_E, _PLUS + negative] + [21, 22, 23][1 - three :]
    elif form < 4:
        body = [_ZERO, _DOT] + [_ZERO] * (3 - form) + digits
    else:
        e = form - 4
        body = digits[: e + 1] + [_ZERO] * (e + 1 - n) + ([_DOT] + digits[e + 1 :] if n > e + 1 else _POINT_ZERO)
    return [_SIGN, *body, _SEPARATOR]


# by code (form 17 + n - 1; _VERBATIM copies Python's text, _EMPTY writes the
# separator alone): slot bytes in output order, padded with byte 0 (a NUL).
# Building them takes about 0.6 ms.
_VERBATIM, _EMPTY = 24 * 17, 24 * 17 + 1
_LAYOUTS = np.zeros((_EMPTY + 1, _WIDTH), np.intp)
_LAYOUTS[_VERBATIM] = [*range(24), _SEPARATOR]
_LAYOUTS[_EMPTY, 0] = _SEPARATOR
for _code in range(_VERBATIM):
    _row = _layout(_code // 17, _code % 17 + 1)
    _LAYOUTS[_code, : len(_row)] = _row
del _code, _row
# form 17 - 1 by the column's style (%r, %.12g) and its exponent + 300
_EXP = np.arange(-300, 301)
_FORM17 = np.concatenate(
    [
        np.where((_EXP >= -4) & (_EXP < top), _EXP + 4, 20 + 2 * (_EXP < 0) + (abs(_EXP) >= 100)) * 17 - 1
        for top in (16, 12)
    ]
).astype(np.int16)
del _EXP
# values per gather, and their slots' offsets by text byte: 50 kB each
_RENDER = 256
_BASE = np.repeat(_SLOT * np.arange(_RENDER), _WIDTH).reshape(_RENDER, _WIDTH)


def _python_text(first: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Each value formatted by Python as "%r" where first, else "%.12g", in a NUL-padded row of 24 bytes."""
    text = (((b"%r" if r else b"%.12g") % v).ljust(24, b"\0") for r, v in zip(first.tolist(), values.tolist()))
    return np.frombuffer(b"".join(text), np.uint8).reshape(-1, 24)


def csv_rows(columns: Sequence[np.ndarray]) -> str:
    """CSV rows of equal-length float columns: the first as "%r", the others as "%.12g".

    Each masked cell of a column given as a numpy masked array, never the
    first, is written empty.
    """
    rows, ncols = len(columns[0]), len(columns)
    if rows == 0:
        return ""
    flat = np.column_stack([np.asarray(c) for c in columns]).astype(float, copy=False)
    cut = [j for j, c in enumerate(columns) if hasattr(c, "mask")]  # a plain array has no mask
    if cut:
        empty = np.zeros((rows, ncols), bool)
        for j in cut:
            empty[:, j] = columns[j].mask
        flat[empty] = 0.0
    flat = flat.ravel()
    fast, x, k, d, frac = decimal17(flat)
    # arrays are dropped once used, so a block of 1536 rows peaks near 0.4 MB
    first = shortest(x[::ncols], d[::ncols], frac[::ncols], k[::ncols])
    del x
    digits, unsure = round12(d, frac)
    digits[::ncols], unsure[::ncols] = first
    del d, frac, first
    zero = flat == 0.0
    digits[zero] = 0
    fallback = np.flatnonzero(~(fast | zero) | unsure)
    carried = digits == 10**17
    digits[carried] = 10**16
    k[carried] += 1
    del fast, zero, unsure, carried

    # the slots, and the digit count n from the digit words, last word first
    slots = np.empty((flat.size, _SLOT // 4), np.uint32)
    n = np.ones(flat.size, np.int8)
    for j in range(4, 0, -1):
        rest = digits // 10**4
        digits -= rest * 10**4
        slots[:, j] = _WORDS[digits]
        np.maximum(n, 4 * j + 1 - _TRAILING[digits], out=n)
        digits = rest
    slots[:, 0] = _LEAD[digits]
    slots[:, 5] = _WORDS[np.abs(k)]
    constants = (b"\0.e+-.0," + b"\0.e+-\0\0," * (ncols - 1))[:-1] + b"\n"
    slots.view(np.uint64).reshape(rows, ncols, 4)[:, :, 3] = np.frombuffer(constants, np.uint64)
    source = slots.view(np.uint8)
    source[:, _SIGN] = np.signbit(flat) * np.uint8(ord("-"))
    k.reshape(rows, ncols)[:] += np.where(np.arange(ncols), 901, 300)
    code = _FORM17[k] + n
    if fallback.size:
        code[fallback] = _VERBATIM
        source[fallback, :24] = _python_text(fallback % ncols == 0, flat[fallback])
    if cut:
        code[empty.ravel()] = _EMPTY
    del flat, k, n, digits, rest

    text = np.empty((code.size, _WIDTH), np.uint8)
    index = np.empty((_RENDER, _WIDTH), np.intp)
    source = source.ravel()
    for lo in range(0, code.size, _RENDER):
        chunk = code[lo : lo + _RENDER]
        at = np.take(_LAYOUTS, chunk, axis=0, out=index[: chunk.size], mode="clip")
        at += _BASE[: chunk.size]
        np.take(source[_SLOT * lo :], at, out=text[lo : lo + chunk.size], mode="clip")
    del slots, source, index, at, code
    return text.tobytes().translate(None, b"\0").decode("ascii")
