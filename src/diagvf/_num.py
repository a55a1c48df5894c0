"""Small numeric helpers: exactness checks and rational parsing/formatting.

Exact values are ints and Fractions; everything else is treated as float.
Operations throughout the package stay exact whenever all inputs are exact,
so rational configurations survive the whole pipeline without rounding.
"""

from __future__ import annotations

import math
from fractions import Fraction

Number = int | float | Fraction


def is_exact(x) -> bool:
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def all_exact(*xs) -> bool:
    return all(is_exact(x) for x in xs)


def parse_number(v) -> Number:
    """Accept ints, finite floats, and 'p/q' or integer strings.

    Anything else, a zero denominator or a non-finite value raises ValueError.
    """
    if isinstance(v, bool):
        raise ValueError(f"not a number: {v!r}")
    if isinstance(v, (int, Fraction)):
        return v
    if isinstance(v, str):
        s = v.strip()
        try:
            return Fraction(s)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator: {v!r}") from None
        except ValueError:
            v = float(s)
    if isinstance(v, float):
        if not math.isfinite(v):
            raise ValueError(f"not a finite number: {v!r}")
        return v
    raise ValueError(f"not a number: {v!r}")


def format_number(x):
    """JSON-friendly encoding; Fractions become 'p/q' strings."""
    if isinstance(x, Fraction):
        return str(x) if x.denominator != 1 else str(x.numerator)
    if isinstance(x, bool):
        raise ValueError("not a number")
    if isinstance(x, int):
        return str(x)
    return float(x)


def falling_factorial(r, k: int):
    """r(r-1)...(r-k+1); exact for exact r."""
    out = 1 if is_exact(r) else 1.0
    for j in range(k):
        out = out * (r - j)
    return out


def near_integer(r, tol: float = 1e-9):
    """Return the nearest int if r is within tol of one, else None."""
    if is_exact(r):
        fr = Fraction(r)
        return int(fr) if fr.denominator == 1 else None
    n = round(float(r))
    return n if abs(float(r) - n) <= tol else None


def compositions(total: int, parts: int):
    """Tuples of `parts` nonnegative ints summing to `total`, ascending
    lexicographically: the order in which filtering
    itertools.product(range(total + 1), repeat=parts) by sum would yield them.
    """
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest
