"""The vectorized ``'%.17g'`` formatter against CPython's own, value by value."""

import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import otfsim
import otfsim._decimal
from otfsim._decimal import g17_columns, int_columns


def g17_texts(values, scalar=lambda x: "%.17g" % x):
    """Each value's text as :func:`g17_columns` writes it."""
    columns = g17_columns(np.asarray(values, dtype=np.float64), scalar)
    return [bytes(column).replace(b"\0", b"").decode() for column in columns.T]


def assert_matches_cpython(values):
    values = np.asarray(values, dtype=np.float64)
    got = g17_texts(values)
    mismatches = [(x, text, "%.17g" % x) for x, text in zip(values.tolist(), got)
                  if text != "%.17g" % x]
    assert not mismatches, mismatches[:5]


def counting_scalar():
    """A scalar formatter that records the values it is given."""
    seen = []

    def scalar(x):
        seen.append(x)
        return "%.17g" % x

    return scalar, seen


def test_random_bit_patterns_over_every_exponent():
    # 40 random significands and both signs at each of the 2047 biased
    # exponents: subnormals (exponent 0), normals, and no infinity or NaN.
    rng = np.random.default_rng(17)
    exponents = np.repeat(np.arange(2047, dtype=np.uint64), 40)
    significands = rng.integers(0, 1 << 52, exponents.size, dtype=np.uint64)
    signs = rng.integers(0, 2, exponents.size, dtype=np.uint64)
    assert_matches_cpython((signs << 63 | exponents << 52 | significands).view(np.float64))


def test_random_bit_patterns():
    rng = np.random.default_rng(18)
    values = rng.integers(0, 1 << 64, 100_000, dtype=np.uint64).view(np.float64)
    assert_matches_cpython(values[np.isfinite(values)])


@pytest.mark.parametrize("scale", [1e-30, 1e-12, 1e-5, 1e-3, 1.0, 1e5, 1e16, 1e30])
def test_random_normals_take_only_the_fast_path(scale):
    values = np.random.default_rng(19).standard_normal(20_000) * scale
    scalar, seen = counting_scalar()
    assert g17_texts(values, scalar) == ["%.17g" % x for x in values.tolist()]
    assert seen == []


def neighbours(x, count=2):
    """``x`` and the ``count`` doubles on each side of it."""
    values = [x]
    for direction in (-np.inf, np.inf):
        y = x
        for _ in range(count):
            y = float(np.nextafter(y, direction))
            values.append(y)
    return values


def test_zeros_and_the_ends_of_the_double_range():
    tiny, smallest, largest = 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308
    below_largest = [float(np.nextafter(largest, 0))]
    below_largest.append(float(np.nextafter(below_largest[0], 0)))
    values = [0.0, -0.0, largest] + neighbours(tiny) + neighbours(smallest) + below_largest
    assert_matches_cpython(values + [-x for x in values])
    assert g17_texts([0.0, -0.0]) == ["0", "-0"]


def test_non_finite_values_take_the_scalar_formatter():
    scalar, seen = counting_scalar()
    assert g17_texts([np.inf, -np.inf, np.nan, 1.5], scalar) == ["inf", "-inf", "nan", "1.5"]
    assert len(seen) == 3


# Fixed notation below 1e-4 and from 1e17 on gives way to exponent notation.
@pytest.mark.parametrize("x", [9.9999999999999991e-05, 0.0001, 99999999999999984.0, 1e17,
                               9999999999999998.0, 1e16])
def test_both_sides_of_each_notation_switch(x):
    assert_matches_cpython(neighbours(x, 3) + [-y for y in neighbours(x, 3)])


def test_round_up_carries_to_the_next_power_of_ten():
    # The double nearest 10**n and its neighbours, for every n in range.
    # Below 10**n, some round up to 17 digits 10000000000000000 with the
    # next exponent: the double nearest 1e-14 is one.
    values = [y for n in range(-307, 309) for y in neighbours(float(f"1e{n}"))]
    carries = [y for y in values if Fraction(y) < Fraction(10) ** round(np.log10(y))
               and ("%.16e" % y).startswith("1.0000000000000000e")]
    assert 1e-14 in carries
    assert_matches_cpython(values + [9.9999999999999999e22, 9.9999999999999999e-5])


@pytest.mark.parametrize("direction", [-np.inf, np.inf], ids=["low", "high"])
def test_an_exponent_estimate_one_off_is_corrected(monkeypatch, direction):
    # numpy's log10 floors to the right exponent next to every power of ten
    # here; a log10 one ulp off, as another math library's may be, makes the
    # first estimate one too low or one too high there.
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: np.nextafter(log10(a), direction))
    assert_matches_cpython([y for n in range(-280, 280) for y in neighbours(float(f"1e{n}"), 3)])


def test_exact_ties_round_to_even():
    # 18 significant digits ending in 5, which '%.17g' rounds to even. Such
    # a tie needs 10**(16 - k) to be an integer double, and then the scaled
    # value is exact, so the fast path rounds it.
    rng = np.random.default_rng(20)
    ties = [577671148408590.375, 2251799813685247.75]
    ties += (rng.integers(10 ** 15, 2 ** 51, 50) + rng.choice([0.25, 0.75], 50)).tolist()
    ties += (rng.integers(10 ** 14, 10 ** 15, 50) + rng.choice([0.125, 0.375], 50)).tolist()
    ties += [-x for x in ties]
    assert all(len(("%.18g" % x).lstrip("-").replace(".", "")) == 18 for x in ties)
    scalar, seen = counting_scalar()
    assert g17_texts(ties, scalar) == ["%.17g" % x for x in ties]
    assert seen == []


def test_values_near_a_half_take_the_scalar_formatter(monkeypatch):
    # Widened from 2**-30, the margin sends about a fifth of these values,
    # at every exponent, through the scalar formatter.
    monkeypatch.setattr(otfsim._decimal, "_MARGIN", 0.1)
    values = np.random.default_rng(21).standard_normal(5_000) * 10.0 ** np.arange(-40, 40, 0.016)
    scalar, seen = counting_scalar()
    assert g17_texts(values, scalar) == ["%.17g" % x for x in values.tolist()]
    assert 500 < len(seen) < 1_500


def test_int_columns():
    numbers = np.array([0, 1, 9, 10, 99, 100, 1023, 65536, 2 ** 32 - 1])
    columns = int_columns(numbers)
    assert [bytes(c).replace(b"\0", b"").decode() for c in columns.T] == list(map(str, numbers))
    assert int_columns(np.array([], np.intp)).shape[1] == 0


def test_importing_the_formatter_builds_no_table():
    code = ("import sys, otfsim._decimal as formatter; "
            "sys.exit(formatter._tables.cache_info().currsize or 'fractions' in sys.modules)")
    env = {"PYTHONPATH": str(Path(otfsim.__file__).parents[1])}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
