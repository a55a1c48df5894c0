import enum
import itertools
import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diagvf._num import (MAX_DIGITS, compositions, format_number, is_exact, merge_points,
                         parse_number)


@pytest.mark.parametrize("total", range(6))
@pytest.mark.parametrize("parts", range(5))
def test_compositions_match_filtered_product(total, parts):
    # same tuples, same lexicographic order: the weight search returns the
    # first admissible grid point of this order
    expected = [ns for ns in itertools.product(range(total + 1), repeat=parts)
                if sum(ns) == total]
    assert list(compositions(total, parts)) == expected


def test_cleared_points_merge_as_their_fractions():
    # (2**60 + 1) / 3 and 2**60 / 3 round to one float: both keep the order
    # in which they were first seen, and a lone -0.0 sums to 0.0
    points = [(2 ** 60 + 1, 5), (2 ** 60, 5), (7, -2), (2 ** 60 + 1, 5), (-4, 0), (9, 3)]
    coefs = [0.5, F(1, 3), 0.25, -1.5, -0.0, F(2, 7)]
    terms = [(j % 3, c, pt) for j, (c, pt) in enumerate(zip(coefs, points))]
    got = merge_points(terms, True, 3)
    want = merge_points([(j, c, (F(x, 3), F(y, 3))) for j, c, (x, y) in terms], True)
    # the merged points stay integers, and clear to the Fraction merge's
    assert [pt for pt, _, _ in got] == [(-4, 0), (7, -2), (9, 3), (2 ** 60 + 1, 5), (2 ** 60, 5)]
    assert all(type(x) is int for pt, _, _ in got for x in pt)
    assert [[(F(x, 3), F(y, 3)), c, j] for (x, y), c, j in got] == want
    assert [pt for pt, _, _ in want] == [(F(-4, 3), F(0)), (F(7, 3), F(-2, 3)), (F(3), F(1)),
                                         (F(2 ** 60 + 1, 3), F(5, 3)), (F(2 ** 60, 3), F(5, 3))]
    assert math.copysign(1.0, got[0][1]) == 1.0


def _parse_by_fraction(s):
    """parse_number's reading of a string before its int() fast path:
    Fraction(str) of the stripped string, else float(), finite."""
    s = s.strip()
    try:
        return F(s)
    except ZeroDivisionError:
        raise ValueError("zero denominator") from None
    except ValueError:
        v = float(s)
    if not math.isfinite(v):
        raise ValueError("not finite")
    return v


def _same_parse(s):
    try:
        want = _parse_by_fraction(s)
        if isinstance(want, F) and max(abs(want.numerator), want.denominator) >= 10 ** MAX_DIGITS:
            raise ValueError("past the digit cap")
    except ValueError:
        with pytest.raises(ValueError):
            parse_number(s)
        return
    got = parse_number(s)
    assert type(got) is type(want) and got == want


@pytest.mark.parametrize("s", [
    "0", "-0", "7", "-7", "+7", "007", "-1/3", "6/4", "-0/5", "3/-4", "3/+4", "-3/4",
    "1_000", "1_000/3", "\u0663", "\u0663/4", "1/\u0664", "\u00b2", " 5/6 ", "\t-2\n",
    "5 /6", "5/ 6", "1/0", "0/0", "-1/00", "/", "-", "", "1/", "/2", "--3", "1.5",
    "-2.5e-3", "1e3", "nan", "inf", "-Infinity", "0x10", "1/2/3", "1.5/2", "١٢/٣",
])
def test_fast_parse_is_fraction_of_str(s):
    _same_parse(s)


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet="0123456789-+/_ .\u0663", max_size=12))
def test_fast_parse_matches_on_any_string(s):
    _same_parse(s)


@pytest.mark.parametrize("text", [
    "9" * MAX_DIGITS, "-" + "9" * MAX_DIGITS + "/" + "7" * MAX_DIGITS,
    "1" + "0" * (MAX_DIGITS - 1) + ".5", "1e%d" % (MAX_DIGITS - 1),
])
def test_digit_cap_admits_its_own_size(text):
    assert parse_number(text) == F(text)


@pytest.mark.parametrize("value", [
    "9" * (MAX_DIGITS + 1), "1/" + "7" * (MAX_DIGITS + 1), "1e%d" % MAX_DIGITS,
    "1e-%d" % MAX_DIGITS, "0." + "0" * (MAX_DIGITS - 1) + "1", "1e99999999999",
    "1e-1_000_000_000", "0" * (4 * MAX_DIGITS + 1) + "1", "1_" * 3000 + "1",
    10 ** MAX_DIGITS, F(1, 10 ** MAX_DIGITS), -(10 ** MAX_DIGITS),
])
def test_digit_cap_refuses_one_digit_past(value):
    with pytest.raises(ValueError, match=f"more than {MAX_DIGITS} digits"):
        parse_number(value)


class Three(enum.IntEnum):
    THREE = 3


class FloatSub(float):
    pass


# (x, is_exact(x), format_number(x), parse_number(x)), as the isinstance
# checks alone give them; an exception class stands for a raise
TYPE_CASES = [
    (True, False, ValueError, ValueError),
    (Three.THREE, True, str(Three.THREE), Three.THREE),
    (np.float64(0.5), False, 0.5, np.float64(0.5)),
    (np.float64(math.inf), False, math.inf, ValueError),
    (np.int64(3), False, 3.0, ValueError),
    (FloatSub(0.5), False, 0.5, FloatSub(0.5)),
    (FloatSub(math.inf), False, math.inf, ValueError),
    (2, True, "2", 2), (0.25, False, 0.25, 0.25), (-0.0, False, -0.0, -0.0),
    (F(1, 3), True, "1/3", F(1, 3)), (F(4), True, "4", F(4)),
]


@pytest.mark.parametrize("x, exact, formatted, parsed", TYPE_CASES, ids=repr)
def test_type_first_checks_keep_values_and_types(x, exact, formatted, parsed):
    # the exact-type shortcuts must not catch bool, IntEnum, numpy scalars
    # or a float subclass
    for f, want in ((is_exact, exact), (format_number, formatted), (parse_number, parsed)):
        if isinstance(want, type) and issubclass(want, Exception):
            with pytest.raises(want):
                f(x)
        else:
            got = f(x)
            assert type(got) is type(want) and repr(got) == repr(want)
