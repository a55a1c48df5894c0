"""Small numeric helpers: exactness checks, rational parsing/formatting,
the terms of a mixture power and the rule that merges them by point.

Exact values are ints and Fractions; everything else is treated as float.
Operations throughout the package stay exact whenever all inputs are exact,
so rational configurations survive the whole pipeline without rounding.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import re
from fractions import Fraction

Number = int | float | Fraction


def is_exact(x) -> bool:
    t = type(x)  # types first: isinstance(x, Fraction) goes through ABCMeta
    return t is int or t is Fraction or t not in (float, bool) and isinstance(x, (int, Fraction))


def all_exact(*xs) -> bool:
    return all(is_exact(x) for x in xs)


# Most decimal digits in the numerator or denominator of an exact input
# number; every such number has a finite, normal float.  A characterize
# report then prints under Python's 4300-digit limit on int to str
# conversion: the characteristic quartic cleared to a primitive integer
# polynomial P has coefficients of at most 11 MAX_DIGITS + 1 digits, so a
# rational root h/k (k | lead P, h | its lowest nonzero coefficient) and an
# ordinate (a root of the dual quartic) have at most that many.
MAX_DIGITS = 300
_DIGITS_BOUND = 10 ** MAX_DIGITS
# Most bits, N times the larger bit length, of the exact lead w^N of an
# integer power's series, checked before w^N is formed (under 4300 digits)
MAX_LEAD_BITS = 13000
# a decimal exponent past 4 digits is past the cap, and Fraction(str)
# would form 10 ** exponent
_EXPONENT = re.compile(r"[eE][-+]?0*([\d_]*)$")


def parse_number(v) -> Number:
    """Accept ints, finite floats, and 'p/q', integer or decimal strings.

    ASCII '[-]digits[/digits]' strings are read by int(), to the Fraction
    Fraction(str) gives; other strings by Fraction(str), else float().
    ValueError: a numerator or denominator past MAX_DIGITS digits (or a
    string past 4 MAX_DIGITS characters), a zero denominator, a non-finite
    value.
    """
    if isinstance(v, str):
        s = v.strip()
        num, slash, den = s.partition("/")
        digits = num.removeprefix("-")
        if (s.isascii() and digits.isdigit() and len(digits) <= MAX_DIGITS
                and (not slash or den.isdigit() and len(den) <= MAX_DIGITS and den.strip("0"))):
            return Fraction(int(num), int(den)) if slash else Fraction(int(num))
        if len(s) > 4 * MAX_DIGITS or (e := _EXPONENT.search(s)) and len(e[1]) > 4:
            raise ValueError(f"more than {MAX_DIGITS} digits in a number")
        try:
            v = Fraction(s)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator: {v!r}") from None
        except ValueError:
            v = float(s)
    if isinstance(v, float):
        if not math.isfinite(v):
            raise ValueError(f"not a finite number: {v!r}")
        return v
    if isinstance(v, bool):
        raise ValueError(f"not a number: {v!r}")
    if isinstance(v, (int, Fraction)):
        if abs(v.numerator) >= _DIGITS_BOUND or v.denominator >= _DIGITS_BOUND:
            raise ValueError(f"more than {MAX_DIGITS} digits in a number")
        return v
    raise ValueError(f"not a number: {v!r}")


def format_number(x):
    """JSON-friendly encoding; Fractions become 'p/q' strings."""
    if type(x) is float:
        return x
    if isinstance(x, bool):
        raise ValueError("not a number")
    if isinstance(x, int):
        return str(x)
    if isinstance(x, Fraction):
        return str(x) if x.denominator != 1 else str(x.numerator)
    return float(x)


def near_integer(r, tol: float = 1e-9):
    """Return the nearest int if r is within tol of one, else None."""
    if is_exact(r):
        return int(r) if r.denominator == 1 else None
    n = round(float(r))
    return n if abs(float(r) - n) <= tol else None


@functools.lru_cache(maxsize=512)
def compositions(total: int, parts: int) -> tuple:
    """Tuples of `parts` nonnegative ints summing to `total`, ascending
    lexicographically: the order in which filtering
    itertools.product(range(total + 1), repeat=parts) by sum would yield
    them, read off the bar positions itertools.combinations yields; cached.
    """
    if not parts:
        return ((),) if not total else ()
    end = (total + parts - 1,)
    return tuple(tuple(b - a - 1 for a, b in zip((-1,) + bars, bars + end))
                 for bars in itertools.combinations(range(total + parts - 1), parts - 1))


@functools.lru_cache(maxsize=512)
def multinomials(total: int, parts: int) -> tuple:
    """total! / prod n_i! for each composition n of `compositions`."""
    top = math.factorial(total)
    return tuple(top // math.prod(map(math.factorial, ns))
                 for ns in compositions(total, parts))


def cleared(values):
    """(L, (L v for each v)): the common denominator L of exact values and
    each value times L, an int."""
    values = tuple(values)
    den = math.lcm(*(v.denominator for v in values))
    return den, tuple(v.numerator * (den // v.denominator) for v in values)


def primitive(v, lead: int = -1) -> tuple:
    """The int vector v over the gcd of its entries, signed so that its
    entry at index lead (by default the last) is positive."""
    g = math.gcd(*v)
    return tuple(x // (g if v[lead] > 0 else -g) for x in v)


def point_key(pt, exact: bool, tol: float = 1e-9):
    """Merge key of a plane point.  Exact points are their own key (equal
    ints and Fractions hash alike); float ones round to multiples of tol."""
    if exact:
        return pt
    return (round(float(pt[0]) / tol), round(float(pt[1]) / tol))


def float_powers(b, top: int) -> list:
    """float(b ** n) for n = 0..top; for a Fraction p/q, p**n / q**n on
    ints, which rounds alike and forms no Fraction."""
    if isinstance(b, Fraction):
        p, q = b.numerator, b.denominator
        return [p ** n / q ** n for n in range(top + 1)]
    return [float(b ** n) for n in range(top + 1)]


def power_terms(orders, bases, origin, steps):
    """Terms of sum over (j, c) in orders of c * (sum_i b_i e^<step_i, theta>)^j.

    One (j, coefficient, point) per order and composition n of j into
    len(bases) parts, in `compositions` order: c * multinomial(j; n) *
    prod b_i^n_i, and origin + sum n_i step_i.  When every c is a float,
    each power b_i^n is converted once (`float_powers`): the float a float
    coefficient times an exact power converts it to, so the products keep
    their bits.
    """
    top = max((j for j, _ in orders), default=0)
    if all(isinstance(c, float) for _, c in orders):
        pows = [float_powers(b, top) for b in bases]
    else:
        pows = [[b ** n for n in range(top + 1)] for b in bases]
    xs, ys = [s[0] for s in steps], [s[1] for s in steps]
    x0, y0 = origin
    for j, scale in orders:
        for ns, mult in zip(compositions(j, len(bases)), multinomials(j, len(bases))):
            coef = scale * mult
            for pw, n in zip(pows, ns):
                coef = coef * pw[n]
            yield j, coef, (x0 + sum(map(operator.mul, ns, xs)),
                            y0 + sum(map(operator.mul, ns, ys)))


def merge_points(terms, exact: bool, den: int | None = None) -> list:
    """Merge (order, coefficient, point) terms whose points share a point_key.

    One [first point seen, sum of coefficients, least order] per key, the
    sum started from 0 (a lone -0.0 sums to 0.0), in ascending key order.  With
    den, the points are exact integer pairs (X, Y) standing for
    (X / den, Y / den), as `cleared` gives them: they merge and stay as
    they are, and sort by (X / den, Y / den), which is the float key of the
    point they stand for since int division rounds correctly.  No Fraction
    is formed or hashed.
    """
    merged: dict = {}
    for order, coef, pt in terms:
        key = point_key(pt, exact)
        entry = merged.get(key)
        if entry is None:
            merged[key] = [pt, 0 + coef, order]
        else:
            entry[1] += coef
            entry[2] = min(entry[2], order)
    if den is None:
        return [merged[k] for k in sorted(merged, key=lambda k: (float(k[0]), float(k[1])))]
    return [merged[k] for k in sorted(merged, key=lambda k: (k[0] / den, k[1] / den))]


def widest_gap(vectors):
    """Width of the widest angular gap between the directions of the
    vectors, and the unit vector bisecting it."""
    angles = sorted(math.atan2(v[1], v[0]) for v in vectors)
    gaps = [b - a for a, b in zip(angles, angles[1:])]
    gaps.append(angles[0] + 2 * math.pi - angles[-1])
    i = max(range(len(gaps)), key=gaps.__getitem__)
    mid = angles[i] + gaps[i] / 2
    return gaps[i], (math.cos(mid), math.sin(mid))
