"""Characteristic quartic construction, root solving, and classification.

The variance-function parameters determine a monic quartic whose distinct
real roots are the admissible atom abscissas.  Each real root carries a
dual ordinate obtained by solving the first coordinate relation for the
second coordinate; the second coordinate relation then vanishes identically
at exact roots (the residual times b^2 is the quartic itself).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np
from numpy.linalg._umath_linalg import eigvals as _eigvals

from ._num import Number, all_exact, cleared, is_exact, primitive
from .errors import ConfigError, NotARoot

__all__ = ["DiagonalVFParams", "Quartic", "RootSet", "RootPattern",
           "build_characteristic_quartic", "solve_quartic",
           "classify_root_pattern"]


@dataclass(frozen=True)
class DiagonalVFParams:
    """Coefficients of the quadratic diagonal variance function.

    diag V(m1, m2) = (A m1^2 + a m1 + b m2 + e,  A m2^2 + c m1 + d m2 + f)
    with A < 0 and b != 0.
    """

    A: Number
    a: Number
    b: Number
    c: Number
    d: Number
    e: Number
    f: Number

    def __post_init__(self):
        if not self.A < 0:
            raise ValueError(f"A must be strictly negative, got {self.A}")
        if self.b == 0:
            raise ValueError("b must be nonzero")

    @cached_property
    def is_exact(self) -> bool:
        return all_exact(self.A, self.a, self.b, self.c, self.d, self.e, self.f)

    def as_tuple(self):
        return (self.A, self.a, self.b, self.c, self.d, self.e, self.f)

    @cached_property
    def quartic(self) -> "Quartic":
        """The characteristic quartic, built once per params."""
        return build_characteristic_quartic(self)

    @cached_property
    def _cleared(self):
        """(Q, (A, a, b, c, d, e, f) times Q) for exact params, with Q their
        common denominator; None for float params."""
        return cleared(self.as_tuple()) if self.is_exact else None


@dataclass(frozen=True)
class Quartic:
    """Monic quartic; coeffs = (c0, c1, c2, c3, c4) with c4 == 1."""

    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) != 5 or self.coeffs[4] != 1:
            raise ValueError("quartic must be monic with five coefficients")

    @cached_property
    def is_exact(self) -> bool:
        return all_exact(*self.coeffs)

    @cached_property
    def _cleared(self):
        """(L, (C0, ..., C4)) for exact coefficients, with L their common
        denominator and Ci = L ci; None for float coefficients."""
        return cleared(self.coeffs) if self.is_exact else None

    @cached_property
    def _floats(self):
        """float(c0), ..., float(c3), float(2 c2), float(3 c3): what each
        converts to beside a float or complex, so that q and q' keep their
        bits (c4 stays the int 1, and `1 * x` converts x as `c4 * x` does).
        Exact coefficients take the int division C_k / L of their cleared
        form, which rounds as float(c_k) does."""
        if self._cleared is not None:
            den, (C0, C1, C2, C3, _) = self._cleared
            return C0 / den, C1 / den, C2 / den, C3 / den, 2 * C2 / den, 3 * C3 / den
        c0, c1, c2, c3, _ = self.coeffs
        return (*map(float, (c0, c1, c2, c3)), float(2 * c2), float(3 * c3))

    def __call__(self, x):
        """q(x).  An exact quartic at an exact x = h/k is the one Fraction
        sum Ci h^i k^(4-i) / (L k^4) over the cleared coefficients; a float
        or complex x runs Horner's rule on `_floats`, other input on the
        coefficients."""
        if isinstance(x, (float, complex)):
            c0, c1, c2, c3, _, _ = self._floats
            return (((1 * x + c3) * x + c2) * x + c1) * x + c0
        if is_exact(x) and self._cleared is not None:
            den, ints = self._cleared
            return Fraction(_cleared_sum(ints, x), den * x.denominator ** 4)
        c0, c1, c2, c3, c4 = self.coeffs
        return (((c4 * x + c3) * x + c2) * x + c1) * x + c0

    @cached_property
    def scale(self) -> float:
        """1 + the largest |float(c_k)|; on exact coefficients the int
        division of the largest |C_k| by L, since rounding is monotone.
        OverflowError past the float range."""
        if self._cleared is not None:
            den, ints = self._cleared
            return 1.0 + max(map(abs, ints)) / den
        return 1.0 + max(abs(float(c)) for c in self.coeffs)


@dataclass(frozen=True)
class RootSet:
    """Quartic roots with multiplicities; complex entries come in conjugate pairs.

    `rest`, filled by `solve_quartic` on an exact quartic, is the primitive
    integer polynomial (constant term first) of the square-free rest whose
    roots it solved in floats: (1,) when every root is rational."""

    entries: tuple  # of (value, multiplicity)
    rest: tuple | None = None

    def __post_init__(self):
        if sum(m for _, m in self.entries) != 4:
            raise ValueError("multiplicities must sum to 4")

    @property
    def real_entries(self):
        return [(v, m) for v, m in self.entries if not isinstance(v, complex)]

    @property
    def complex_entries(self):
        return [(v, m) for v, m in self.entries if isinstance(v, complex)]

    @property
    def real_roots(self):
        return sorted(v for v, _ in self.real_entries)

    @property
    def n_r(self) -> int:
        return len(self.real_entries)


def _cleared_sum(ints, x) -> int:
    """sum Ci h^i k^(4-i) over ints = (C0, ..., C4) at an exact x = h/k."""
    h, k = x.numerator, x.denominator
    acc, kp = 0, 1
    for c in reversed(ints):
        acc, kp = acc * h + c * kp, kp * k
    return acc


class RootPattern(enum.Enum):
    FOUR_SINGLE_REAL = "FourSingleReal"
    DOUBLE_PLUS_TWO_SINGLE_REAL = "DoublePlusTwoSingleReal"
    SINGLE_PLUS_TRIPLE_REAL = "SinglePlusTripleReal"
    QUADRUPLE_REAL = "QuadrupleReal"
    TWO_DOUBLE_REAL = "TwoDoubleReal"
    TWO_REAL_TWO_COMPLEX = "TwoRealTwoComplex"
    FOUR_COMPLEX = "FourComplex"
    TWO_DOUBLE_COMPLEX = "TwoDoubleComplex"
    DOUBLE_REAL_PLUS_COMPLEX_PAIR = "DoubleRealPlusComplexPair"


def build_characteristic_quartic(p: DiagonalVFParams) -> Quartic:
    """Monic quartic in the first-coordinate abscissa lambda.

    Exact params take the formula on their cleared form Q p, so that
    coefficient k is one Fraction, an int over Q^(4 - k); other params take
    it as they are."""
    Q, (A, a, b, c, d, e, f) = p._cleared or (None, p.as_tuple())
    try:
        coeffs = (
            A * A * e * e - e * d * b * A + f * b * b * A,
            -(2 * A * a * e - a * d * b + c * b * b),
            2 * A * e + a * a - d * b,
            -2 * a,
        )
    except OverflowError:  # a float beside an exact term past the float range
        raise ConfigError("the quartic has a coefficient past the float range") from None
    if Q is not None:
        coeffs = tuple(Fraction(ck, Q ** (4 - k)) for k, ck in enumerate(coeffs))
    return Quartic((*coeffs, 1))


# a float root of the square-free part counts as real when its imaginary
# part is below this share of its modulus (or of 1)
_IMAG_TOL = 1e-6


def _pseudo_remainder(a, b):
    """Remainder of lead(b)^k * a divided by b, without leaving the integers."""
    a = list(a)
    while len(a) >= len(b) and any(a):
        top, shift = a[-1], len(a) - len(b)
        a = [b[-1] * c for c in a]
        for i, c in enumerate(b):
            a[i + shift] -= top * c
        while len(a) > 1 and a[-1] == 0:
            a.pop()
    return a


def _square_free(poly):
    """(poly / g, g), g = gcd(poly, poly') of a primitive poly ([1] when it is
    square-free), by the primitive remainder sequence and one exact division."""
    a, b = poly, primitive([i * c for i, c in enumerate(poly)][1:])
    while any(b):
        a, b = b, _pseudo_remainder(a, b)
        if any(b):
            b = primitive(b)
    if len(a) == 1:
        return poly, a
    # Gauss: both are primitive, so the quotient has integer coefficients
    rest, quot = list(poly), [0] * (len(poly) - len(a) + 1)
    for k in range(len(quot) - 1, -1, -1):
        quot[k] = rest[k + len(a) - 1] // a[-1]
        for i, c in enumerate(a):
            rest[i + k] -= quot[k] * c
    return quot, a


def _repeated(poly) -> bool:
    """Whether the integer quartic poly = e + d x + c x^2 + b x^3 + a x^4,
    a != 0, has a repeated root: whether 27 disc = 4 I^3 - J^2 is zero, with
    I = 12ae - 3bd + c^2 and J = 72ace + 9bcd - 27ad^2 - 27b^2e - 2c^3."""
    e, d, c, b, a = poly
    i = 12 * a * e - 3 * b * d + c * c
    j = 72 * a * c * e + 9 * b * c * d - 27 * a * d * d - 27 * b * b * e - 2 * c * c * c
    return 4 * i * i * i == j * j


def _scaled_value(poly, X, bits):
    """2**(bits*deg) * poly(X / 2**bits), an integer."""
    deg = len(poly) - 1
    acc = poly[-1]
    for i in range(deg - 1, -1, -1):
        acc = acc * X + (poly[i] << (bits * (deg - i)))
    return acc


def _refine(poly, x: float, bits: int) -> int:
    """Newton's method in fixed point: an integer X such that X / 2**bits
    approximates a simple root of poly near x to about 2**-bits.

    `_rational_roots` asks for 2**-bits below a sixteenth of 1/L, the
    spacing of the lattice its rational roots lie on, which is all that
    rounding to that lattice needs.  Next to a cluster of roots each step
    only halves the error until the cluster resolves, so the step count is
    capped by the bits asked for, not by quadratic convergence."""
    num, den = x.as_integer_ratio()
    X = (num << bits) // den
    deriv = [i * c for i, c in enumerate(poly)][1:]
    for _ in range(bits + 64):
        slope = _scaled_value(deriv, X, bits)
        if slope == 0:
            break
        step = _scaled_value(poly, X, bits) // slope
        X -= step
        if abs(step) <= 1:
            break
    return X


def _no_convergence(err, flag):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


def _companion_roots(coeffs) -> list:
    """np.roots(coeffs), highest degree first, bit for bit as Python floats
    or complexes: the LAPACK gufunc of np.linalg.eigvals, with its checks, on
    the same companion matrix, and the trailing zeros as zero roots last."""
    nz = [i for i, c in enumerate(coeffs) if c]
    if not nz:
        return []
    row = [-c / coeffs[nz[0]] for c in coeffs[nz[0] + 1:nz[-1] + 1]]
    if not all(map(math.isfinite, row)):
        raise np.linalg.LinAlgError("Array must not contain infs or NaNs")
    mat = np.eye(len(row), k=-1)
    mat[:1] = row
    with np.errstate(call=_no_convergence, all="ignore", invalid="call"):
        roots = _eigvals(mat, signature="d->D").tolist() if row else []
    real = all(not z.imag for z in roots)
    return (([z.real for z in roots] if real else roots)
            + [0.0 if real else 0j] * (len(coeffs) - 1 - nz[-1]))


def _deflate(poly, num: int, den: int):
    """Quotient of poly by (den x - num), or None if it does not divide."""
    out, carry = [], 0
    for c in reversed(poly[1:]):
        carry, rem = divmod(c + num * carry, den)
        if rem:
            return None
        out.append(carry)
    if poly[0] + num * carry:
        return None
    return out[::-1]


def _low_degree_roots(poly):
    """Rational roots of a square-free integer polynomial of degree 1 or 2."""
    if len(poly) == 2:
        return [Fraction(-poly[0], poly[1])]
    c, b, a = poly
    disc = b * b - 4 * a * c
    s = math.isqrt(disc) if disc > 0 else 0
    if s * s != disc:
        return []
    return [Fraction(-b - s, 2 * a), Fraction(-b + s, 2 * a)]


def _rational_roots(q: Quartic):
    """Extract exact rational roots with multiplicities: rationalize and verify.

    Every fact is read off P, q cleared to a primitive integer polynomial.
    P has a repeated root exactly when its discriminant is zero, which its
    invariants I and J decide (`_repeated`); only then does the primitive
    remainder sequence run (`_square_free`), for g = gcd(P, P') and sf = P /
    g.  g is the product of (x - r)^(m - 1) over P's roots r of
    multiplicity m, so its square-free part (g itself when it is linear)
    has degree 1 or 2 and `_low_degree_roots` solves it exactly; its
    rational roots are deflated first from sf, whose degree stays above 2
    only when P is square-free.  By the rational root theorem every
    rational root h/k of sf has k | L, its leading coefficient, so the
    rational roots lie on the lattice (1/L)Z and are at least 1/L apart.
    Each real float root of sf is refined by fixed-point Newton steps to
    2**-bits < 1 / (16 L), bits = bits(L) + 4, and rounded to the nearest
    multiple of 1/L: a root within 1 / (2 L) of the refined value is that
    lattice point, the only candidate it can stand for.  Exact deflation
    confirms it and takes it out, so the next float root near it converges
    to a neighbour; a candidate that does not divide is skipped.  The float
    roots of what is left are taken again until a pass finds nothing, and
    a remainder of degree 1 or 2 is solved exactly.  There is no size
    guard: the work grows with the bit length of the coefficients, not
    with their divisors.  A rational root is missed only when the
    eigenvalues place it off the real axis in every pass; it is then left
    in sf, which `solve_quartic` solves in floats.  A root's multiplicity
    is 1 on a square-free P, and otherwise 1 plus its multiplicity in g.

    Returns (list of (Fraction, mult), sf), roots in ascending
    (|numerator|, denominator, sign) order.  sf, P's square-free part
    deflated once by each root found, is primitive with a positive leading
    coefficient.  Only called when all coefficients are exact.
    """
    ints = primitive(q._cleared[1])
    sf, g = _square_free(ints) if _repeated(ints) else (ints, (1,))
    roots = _low_degree_roots(g if len(g) == 2 else _square_free(g)[0]) if len(g) > 1 else []
    for r in roots:
        sf = _deflate(sf, r.numerator, r.denominator)
    while len(sf) > 3:
        before = len(roots)
        top = max(abs(c) for c in sf)
        for z in _companion_roots([c / top for c in reversed(sf)]):
            if len(sf) <= 3:
                break
            if abs(z.imag) > _IMAG_TOL * max(1.0, abs(z)):
                continue
            lead = sf[-1]
            bits = lead.bit_length() + 4
            H = (lead * _refine(sf, z.real, bits) + (1 << (bits - 1))) >> bits
            d = math.gcd(H, lead)
            h, k = H // d, lead // d
            deflated = _deflate(sf, h, k)
            if deflated is not None:
                sf = deflated
                roots.append(Fraction(h, k))
        if len(roots) == before:
            break
    if 1 < len(sf) <= 3 and (low := _low_degree_roots(sf)):
        # sf is primitive and the product of their factors (den x - num)
        roots, sf = roots + low, [1]
    found = []
    for r in sorted(roots, key=lambda r: (abs(r.numerator), r.denominator, r.numerator < 0)):
        h, k, mult = r.numerator, r.denominator, 1
        while (quotient := _deflate(g, h, k)) is not None:
            g, mult = quotient, mult + 1
        found.append((r, mult))
    return found, sf


def _cluster(values, tol: float):
    """Single-linkage clustering of complex values; returns (mean, count) list."""
    if all(abs(u - w) > tol for i, u in enumerate(values) for w in values[:i]):  # not NaN
        return [(sum([v]) / 1, 1) for v in values]  # all singletons: the mean below
    groups: list[list[complex]] = []
    for v in values:
        placed = False
        for g in groups:
            if any(abs(v - w) <= tol for w in g):
                g.append(v)
                placed = True
                break
        if not placed:
            groups.append([v])
    # merge groups that became adjacent
    merged = True
    while merged:
        merged = False
        for i in range(len(groups)):
            for j in range(i + 1, len(groups)):
                if any(abs(u - w) <= tol for u in groups[i] for w in groups[j]):
                    groups[i].extend(groups[j])
                    del groups[j]
                    merged = True
                    break
            if merged:
                break
    return [(sum(g) / len(g), len(g)) for g in groups]


def _residual_bound(v, q: Quartic, tol: float) -> float:
    """tol * max(1, |v|)^4 * q.scale, the largest residual a root v may
    leave.  Formed by products, which give inf past the float range where
    ** 4 would raise OverflowError."""
    s = max(1.0, abs(v))
    return tol * s * s * s * s * q.scale


def solve_quartic(q: Quartic, tol: float = 1e-8) -> RootSet:
    """All four roots with multiplicities.

    Exact rational roots are extracted exactly when the coefficients are
    exact.  What is left is solved via companion-matrix eigenvalues
    (`_companion_roots`), three Newton steps on q at q's `_floats` and
    proximity clustering.  A coefficient past the float range, which the
    eigenvalues cannot take, or a float root whose residual passes its
    bound, raises ConfigError.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    try:
        # an exact q's scale is finite unless it raises
        finite = (math.isfinite(q.scale) if q.is_exact
                  else all(map(math.isfinite, map(float, q.coeffs))))
    except OverflowError:  # float() of a huge int or Fraction, or C_k / L
        finite = False
    if not finite:
        raise ConfigError("the quartic has a coefficient past the float range")
    if q.is_exact:
        entries, sf = _rational_roots(q)
        # With every rational root deflated to its multiplicity, the rest of
        # q, of degree 4 less their sum, is a product of irreducible factors
        # over Q, none linear: square-free or the square of one quadratic.
        # So each of its roots has the multiplicity k = deg(rest) / deg(sf)
        # of its square-free part sf, and only sf is solved in floats; a
        # degree that deg(sf) does not divide means a rational root was
        # missed.
        k, missed = divmod(4 - sum(m for _, m in entries), max(len(sf) - 1, 1))
        if missed:
            raise ArithmeticError(f"a rational root beside {sf} was missed")
        numeric_coeffs = [c / sf[-1] for c in sf]
    else:
        entries, k = [], 1
        numeric_coeffs = [float(c) for c in q.coeffs]

    # at the scale of the polynomial solved here: on exact input, the
    # square-free part of what is left of q once its rational roots are
    # deflated
    cluster_tol = tol * (1.0 + max(abs(c) for c in numeric_coeffs))
    # a square-free part of degree 0 ([1]: every root was rational) has none
    raw = []
    if len(numeric_coeffs) > 1:
        _, c1, _, _, d2, d3 = q._floats
        for r in map(complex, _companion_roots(numeric_coeffs[::-1])):
            for _ in range(3):
                d = ((4 * r + d3) * r + d2) * r + c1
                if abs(d) < 1e-12 * q.scale or not abs(step := q(r) / d) <= 1.0:  # or NaN
                    break
                r = r - step
            raw.append(r)
    # The eigenvalues come in exact conjugate pairs, and the Newton steps
    # and _cluster keep them bit for bit (IEEE complex *, / and abs are
    # sign-symmetric).  So a cluster is real when it holds its own
    # conjugate, that is, when it lies within cluster_tol / 2 of the axis.
    # exact deflation proves the rational entries: only float roots are checked
    for v, m in _cluster(raw, cluster_tol):
        v = v.real if abs(v.imag) <= cluster_tol / 2 else v
        res = abs(complex(q(v)))
        if not res <= _residual_bound(v, q, tol):  # NaN included
            raise ConfigError(f"the float roots of the quartic do not resolve: "
                              f"residual {res} at {v}")
        entries.append((v, m * k))
    entries.sort(key=_float_key)
    return RootSet(tuple(entries), tuple(sf) if q.is_exact else None)


def _float_key(entry):
    """(real part, imaginary part) of a root entry as floats; an exact root
    h/k as the int division h / k, which rounds as float(h/k) does."""
    v = entry[0]
    if type(v) is Fraction:
        return v.numerator / v.denominator, 0.0
    return v.real, v.imag


# (real multiplicities, multiplicities of the complex roots in the upper
# half plane), each descending -> pattern
_PATTERNS = {
    ((1, 1, 1, 1), ()): RootPattern.FOUR_SINGLE_REAL,
    ((2, 1, 1), ()): RootPattern.DOUBLE_PLUS_TWO_SINGLE_REAL,
    ((3, 1), ()): RootPattern.SINGLE_PLUS_TRIPLE_REAL,
    ((4,), ()): RootPattern.QUADRUPLE_REAL,
    ((2, 2), ()): RootPattern.TWO_DOUBLE_REAL,
    ((1, 1), (1,)): RootPattern.TWO_REAL_TWO_COMPLEX,
    ((), (1, 1)): RootPattern.FOUR_COMPLEX,
    ((), (2,)): RootPattern.TWO_DOUBLE_COMPLEX,
    ((2,), (1,)): RootPattern.DOUBLE_REAL_PLUS_COMPLEX_PAIR,
}


def classify_root_pattern(r: RootSet) -> RootPattern:
    """One of the nine multiplicity patterns of a real quartic."""
    real = sorted((m for _, m in r.real_entries), reverse=True)
    cpx = sorted((m for v, m in r.complex_entries if v.imag > 0), reverse=True)
    key = (tuple(real), tuple(cpx))
    try:
        return _PATTERNS[key]
    except KeyError:  # pragma: no cover - RootSet invariants preclude this
        raise ValueError(f"unclassifiable multiplicity pattern {key}")


def _ordinate(lam, p: DiagonalVFParams, rest, tol: float):
    """The ordinate nu = (lam^2 - a lam + e A) / b paired with a root lam of
    p's characteristic quartic q.  A Fraction lam = h/k of exact p with a
    zero cleared sum is a root, and nu = (Q^2 h^2 - Q a h k + e A k^2) /
    (Q k^2 b) on p's cleared form; other lam, or a nonzero sum, is checked
    by its residual.  A float root of a quadratic rest x^2 - s x + t (the
    `RootSet.rest` of q) has lam^2 = s lam - t, so nu = ((s - a) lam - t +
    e A) / b, linear in lam, where the two terms of lam^2 - a lam would
    cancel at a large lam."""
    q = p.quartic
    if isinstance(lam, Fraction) and p._cleared is not None:
        if not _cleared_sum(q._cleared[1], lam):
            Q, (A, a, b, _, _, e, _) = p._cleared
            h, k = lam.numerator, lam.denominator
            return Fraction(Q * Q * h * h - Q * a * h * k + e * A * k * k, Q * k * k * b)
    qres = abs(float(q(lam)))
    if qres > _residual_bound(float(lam), q, tol):
        raise NotARoot(f"{lam} is not a root of the characteristic quartic (residual {qres})")
    if rest is not None and len(rest) == 3:
        t, s = Fraction(rest[0], rest[2]), Fraction(-rest[1], rest[2])
        return ((s - p.a) * lam + (p.e * p.A - t)) / p.b
    return (lam * lam - p.a * lam + p.e * p.A) / p.b
