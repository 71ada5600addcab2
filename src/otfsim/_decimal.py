"""``'%.17g' % x`` for every value of a float64 array, vectorized with numpy.

:func:`g17_columns` writes the bytes of CPython's ``'%.17g' % x`` for a
whole array at once, and :func:`int_columns` those of ``'%d' % i``. The
effective-channel CSVs print millions of floats, and CPython's correctly
rounded ``dtoa`` costs about half a microsecond a value.

**Significand and exponent.** For a positive double ``a`` with decimal
exponent ``k`` (``10**k <= a < 10**(k + 1)``), the 17 significant digits
are the integer ``D`` nearest ``V = a * 10**p``, ``p = 16 - k``, and ``V``
lies in ``[1e16, 1e17)``. The table holds ``10**p`` as two doubles,
``hi_p + lo_p``, from the exact rational power. ``a * hi_p`` is
``hi + err`` exactly (Dekker's product, on 26-bit halves), and
``lo = err + a * lo_p``. Every double from ``2**53`` on is an even
integer, so ``D`` is ``hi`` plus the integer nearest ``lo``. ``hi + lo``
differs from ``V`` by at most

- ``a * |10**p - hi_p - lo_p| <= 2**-106 * V``, the table's own error;
- ``2**-53 * |a * lo_p| <= 2**-106 * V``, the rounding of ``a * lo_p``;
- ``2**-53 * |lo|``, the rounding of the sum, where ``|lo| < 2**5``: half
  an ulp of ``hi < 2**57`` plus ``|a * lo_p| < 2**-53 * 2**57``;

under ``2**-47`` in all, since ``2**-106 * V < 2**-49``. So wherever the
fraction of ``hi + lo`` is more than :data:`_MARGIN` (``2**-30``) from
one half, its nearest integer is that of ``V``. A fraction nearer one half
goes to the scalar formatter, unless ``10**p`` is itself a double (``p``
from 0 to 22, so ``lo_p = 0``): then ``hi + lo`` is ``V`` exactly, and
``np.rint`` rounds a tie to even, as ``'%.17g'`` does, because ``hi`` is
even. Exact ties such as ``577671148408590.375`` arise only there.

``k`` starts as ``floor(log10(a))``, which can be one off next to a power
of ten, so a ``hi`` within 64 of ``1e16`` or ``1e17`` is looked at again.
A ``V`` at or above ``1e17 + 0.25`` or below ``1e16 - 0.025`` is scaled
again with ``k`` one up or one down. Within those bounds both ``k`` give
the same text: a ``V = 1e16 - d`` with ``d < 0.05`` rounds to ``1e16`` at
``k``, and ``10 V`` to ``1e17``, carried to ``1e16`` at ``k``, at
``k - 1``; and a ``V`` below ``1e17 + 0.5`` rounds to ``1e17``, carried to
``1e16`` at ``k + 1``.

**Text.** ``%g`` writes ``-4 <= k < 17`` in fixed notation with ``16 - k``
decimals, and any other ``k`` as ``d.ddd...e±XX``; either way it strips
the fraction's trailing zeros, and the point with them, and writes ``-``
before a negative value. Each value is one column of a ``(rows, values)``
uint8 array, its rows the sign, the ``0.000`` before the digits of a value
below 1, the 17 digits with the point among them, and the exponent. A
character not written is a NUL, so the text is the column without its
NULs.

**The scalar formatter** takes every value the fast path leaves: zeros
(``0`` and ``-0``), subnormals, infinities and NaN, magnitudes outside
``[1e-290, 1e290)``, which the table of powers does not reach, and the
near halves.
"""

from __future__ import annotations

import collections
import functools
import math
from typing import Callable

import numpy as np

# The fast path's range of magnitudes, and the powers of ten it scales by:
# 10**(16 - k) for every k that log10 and the correction of its estimate
# reach in that range.
_LOW, _HIGH = 1e-290, 1e290
_P_MIN, _P_MAX = -275, 308
# How far from one half a fraction must be to round without the scalar
# formatter (see the module docstring).
_MARGIN = 2.0 ** -30
# 10**p is a double for p from 0 to this, and a * 10**p is then hi + lo exactly.
_P_EXACT = 22
# Veltkamp's constant: splits a double into two halves of 26 bits.
_SPLIT = 134217729.0
# A scaled value whose k is looked at again: hi below 1e16 + 64 or above
# 1e17 - 64, farther than |lo| < 32 from each bound.
_NEAR_LOW, _NEAR_HIGH = 1e16 + 64, 1e17 - 64
_ZERO, _POINT, _MINUS = ord("0"), ord("."), ord("-")
# The layout's exponents: k clipped to [-5, 17] keeps every fixed-notation
# exponent and one of exponent notation on each side.
_K_LOW, _K_HIGH = -5, 17
_Tables = collections.namedtuple("_Tables", "powers suffixes point integer lead")


@functools.cache
def _tables() -> _Tables:
    """The tables of the fast path, built on first use.

    - ``powers``: a (4, powers) array; for each ``p`` from ``_P_MIN`` to
      ``_P_MAX``, the double nearest ``10**p``, its two 26-bit halves and
      the double nearest the rest of the exact power.
    - ``suffixes``: the exponents ``e-05``, ``e+123`` as NUL-padded columns
      of a (5, 800) array, at ``k + 400``.
    - By k clipped to ``[_K_LOW, _K_HIGH]``, minus ``_K_LOW``: ``point``,
      the digit the point goes after (the integer part in fixed notation,
      the first digit in exponent notation, the last one below 1, where
      it is dropped); ``integer``, the digits never stripped; ``lead``, the
      length of the ``0.000`` before the digits of a fixed-notation value
      below 1.
    """
    from fractions import Fraction  # here, so that importing the package loads no fractions

    powers = np.empty((4, _P_MAX - _P_MIN + 1))
    for i, p in enumerate(range(_P_MIN, _P_MAX + 1)):
        exact = Fraction(10) ** p
        hi = float(exact)
        mantissa, exponent = math.frexp(hi)
        upper = math.ldexp(math.floor(math.ldexp(mantissa, 26)), exponent - 26)
        powers[:, i] = hi, upper, hi - upper, float(exact - Fraction(hi))
    suffixes = np.array([b"e%+03d" % k for k in range(-400, 400)]).view(np.uint8)
    fixed = [(k, -4 <= k < 17) for k in range(_K_LOW, _K_HIGH + 1)]
    return _Tables(
        powers=powers,
        suffixes=suffixes.reshape(-1, 5).T.copy(),
        point=np.array([(k + 1 if k >= 0 else 17) if f else 1 for k, f in fixed], np.uint8),
        integer=np.array([k + 1 if f and k >= 0 else 0 for k, f in fixed], np.uint8),
        lead=np.array([1 - k if f and k < 0 else 0 for k, f in fixed], np.uint8),
    )


def _scaled(a: np.ndarray, p: np.ndarray):
    """``a * 10**p`` as ``(hi, lo)``, to within the module docstring's bound."""
    hi_p, upper_p, lower_p, lo_p = np.take(_tables().powers, p - _P_MIN, axis=1)
    c = _SPLIT * a
    upper = c - (c - a)
    lower = a - upper
    hi = a * hi_p
    err = ((upper * upper_p - hi) + upper * lower_p + lower * upper_p) + lower * lower_p
    return hi, err + a * lo_p


def _significands(a: np.ndarray, slow: np.ndarray):
    """``(D, k, halves)``: the 17 significant digits and the decimal
    exponent of each magnitude in ``a``, and the indices of those whose
    rounding is left to the scalar formatter. The entries at ``slow`` are
    overwritten with 1."""
    a[slow] = 1.0
    k = np.floor(np.log10(a)).astype(np.intp)
    hi, lo = _scaled(a, 16 - k)
    near = np.flatnonzero((hi < _NEAR_LOW) | (hi > _NEAR_HIGH))
    if near.size:
        h, l = hi[near], lo[near]
        k[near] += ((h - 1e17) + l >= 0.25).astype(np.intp) - ((h - 1e16) + l < -0.025)
        hi[near], lo[near] = _scaled(a[near], 16 - k[near])
    rounded = np.rint(lo)
    halves = np.flatnonzero(np.abs(lo - rounded) > 0.5 - _MARGIN)
    halves = halves[(k[halves] < 16 - _P_EXACT) | (k[halves] > 16)]
    digits = hi.astype(np.int64) + rounded.astype(np.int64)
    if near.size:
        carry = near[digits[near] == 10 ** 17]
        digits[carry] = 10 ** 16
        k[carry] += 1
    return digits, k, halves


def _digit_rows(numbers: np.ndarray, count: int, out: np.ndarray) -> None:
    """Write the last ``count`` decimal digits of each of ``numbers`` (non-
    negative, below 2**32) as ASCII into the rows of ``out``, most
    significant first."""
    part = numbers.astype(np.uint32)
    for row in range(count - 1, -1, -1):
        quotient = part // 10
        out[row] = part - quotient * 10 + _ZERO
        part = quotient


def int_columns(numbers: np.ndarray) -> np.ndarray:
    """A (width, n) uint8 array whose column i is ``'%d' % numbers[i]`` in
    ASCII, NUL-padded in front, for non-negative integers below 2**32."""
    numbers = np.asarray(numbers).reshape(-1)
    width = len(str(int(numbers.max(initial=0))))
    out = np.empty((width, numbers.size), np.uint8)
    _digit_rows(numbers, width, out)
    for row in range(width - 1):  # leading zeros
        out[row] *= numbers >= 10 ** (width - 1 - row)
    return out


def g17_columns(values: np.ndarray, scalar: Callable[[float], str]) -> np.ndarray:
    """A (width, n) uint8 array whose column i is ``'%.17g' % values[i]`` in
    ASCII, NUL-padded: the text is the column with its NULs left out. Values
    the fast path does not decide take ``scalar(value)``."""
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    n = values.size
    tables = _tables()
    a = np.abs(values)
    slow = np.flatnonzero(~((a >= _LOW) & (a < _HIGH)))
    digits, k, halves = _significands(a, slow)
    if halves.size:
        slow = np.union1d(slow, halves)
    k[slow] = 0
    # The 17 digits in rows 1 to 17, between two rows of NULs.
    rows = np.zeros((19, n), np.uint8)
    top = digits // 10 ** 9
    _digit_rows(top, 8, rows[1:9])
    _digit_rows(digits - top * 10 ** 9, 9, rows[9:18])
    clipped = np.clip(k, _K_LOW, _K_HIGH) - _K_LOW
    point = tables.point[clipped]
    lead = tables.lead[clipped]
    exponent = np.flatnonzero((k < -4) | (k >= 17))
    # Characters kept of the digits and the point: the digits up to the
    # last nonzero one or to the end of the integer part, and the point
    # when a digit follows it.
    keep = np.full(n, 17, np.uint8)
    zeros = np.flatnonzero(rows[17] == _ZERO)
    if zeros.size:
        keep[zeros] = ((rows[1:18, zeros] != _ZERO)
                       * np.arange(1, 18, dtype=np.uint8)[:, None]).max(axis=0)
    np.maximum(keep, tables.integer[clipped], out=keep)
    length = keep + (keep > point)

    texts = [scalar(float(values[i])).encode() for i in slow]
    lead_width = int(lead.max(initial=0))
    width = max([1 + lead_width + 18 + (5 if exponent.size else 0)] + [len(t) for t in texts])
    out = np.zeros((width, n), np.uint8)
    np.multiply(np.signbit(values), _MINUS, out=out[0], casting="unsafe")
    out[1:1 + lead_width] = np.frombuffer(b"0.000", np.uint8)[:lead_width, None] * (
        np.arange(lead_width, dtype=np.uint8)[:, None] < lead)
    # Row j of the body: digit j before the point, the point, digit j - 1
    # after it. The digits are shifted + (plain - shifted) * (j < point) in
    # uint8 arithmetic, which wraps.
    j = np.arange(18, dtype=np.uint8)[:, None]
    shifted, plain = rows[:-1], rows[1:]
    body = out[1 + lead_width:19 + lead_width]
    np.subtract(plain, shifted, out=body)
    body *= j < point
    body += shifted
    body.reshape(-1)[point.astype(np.intp) * n + np.arange(n)] = _POINT
    body *= j < length
    if exponent.size:
        out[19 + lead_width:24 + lead_width, exponent] = tables.suffixes[:, k[exponent] + 400]
    for i, text in zip(slow, texts):
        out[:, i] = 0
        out[:len(text), i] = np.frombuffer(text, np.uint8)
    return out
