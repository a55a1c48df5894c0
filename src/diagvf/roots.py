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

from ._num import Number, all_exact, cleared, is_exact
from .errors import ConfigError, NotARoot

__all__ = ["DiagonalVFParams", "Quartic", "RootSet", "RootPattern",
           "build_characteristic_quartic", "solve_quartic",
           "classify_root_pattern", "dual_ordinate"]


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
        bits (c4 stays the int 1, and `1 * x` converts x as `c4 * x` does)."""
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
        return 1.0 + max(abs(float(c)) for c in self.coeffs)


@dataclass(frozen=True)
class RootSet:
    """Quartic roots with multiplicities; complex entries come in conjugate pairs."""

    entries: tuple  # of (value, multiplicity)

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


def _primitive(poly):
    """Integer polynomial over its content, leading coefficient positive.

    Polynomials here are lists of integer coefficients, ascending.
    """
    g = math.gcd(*poly)
    return [c // g for c in poly] if poly[-1] > 0 else [-c // g for c in poly]


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
    a, b = poly, _primitive([i * c for i, c in enumerate(poly)][1:])
    while any(b):
        a, b = b, _pseudo_remainder(a, b)
        if any(b):
            b = _primitive(b)
    if len(a) == 1:
        return poly, a
    # Gauss: both are primitive, so the quotient has integer coefficients
    rest, quot = list(poly), [0] * (len(poly) - len(a) + 1)
    for k in range(len(quot) - 1, -1, -1):
        quot[k] = rest[k + len(a) - 1] // a[-1]
        for i, c in enumerate(a):
            rest[i + k] -= quot[k] * c
    return quot, a


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

    Next to a cluster of roots each step only halves the error until the
    cluster resolves, so the step count is capped by the bits asked for,
    not by quadratic convergence."""
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


def _nearest_fraction(X: int, bits: int, limit: int):
    """(numerator, denominator) of Fraction(X, 2**bits).limit_denominator(limit),
    by its continued fraction and tie rule on ints."""
    n, d = X, 1 << bits
    g = math.gcd(n, d)
    if d // g <= limit:
        return n // g, d // g
    p0, q0, p1, q1 = 0, 1, 1, 0
    while True:
        a = n // d
        q2 = q0 + a * q1
        if q2 > limit:
            break
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
        n, d = d, n - a * d
    k = (limit - q0) // q1
    p2, q2 = p0 + k * p1, q0 + k * q1
    # |p1/q1 - x| <= |p2/q2 - x| for x = X / 2**bits, cross-multiplied
    if abs((p1 << bits) - X * q1) * q2 <= abs((p2 << bits) - X * q2) * q1:
        return p1, q1
    return p2, q2


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

    The repeated roots of q, at most two, are those of g = gcd(q, q'), the
    product of (x - r)^(m - 1) over q's roots r of multiplicity m:
    `_low_degree_roots` solves g's square-free part exactly, and its rational
    roots are deflated first from sf, q's square-free part, whose degree stays
    above 2 only when q is square-free.  Every rational root h/k of sf has
    k | L, its leading coefficient.  Each real float root of sf is refined by
    fixed-point Newton steps to 2**-(2 bits(L) + 4) < 1 / (2 L^2), so the
    closest fraction with denominator at most L (`_nearest_fraction`) is
    the only candidate it can stand for; exact deflation confirms it and takes
    it out, so the next float root near it converges to a neighbour.  The
    float roots of what is left are taken again until a pass finds nothing,
    and a remainder of degree 1 or 2 is solved exactly.  There is no size
    guard: the work grows with the bit length of the coefficients, not
    with their divisors.  A rational root is missed only when the
    eigenvalues place it off the real axis in every pass; it is then left
    in sf, which `solve_quartic` solves in floats.  The multiplicity of
    each root is counted by deflating the whole polynomial.

    Returns (list of (Fraction, mult), rest, sf), roots in ascending
    (|numerator|, denominator, sign) order.  rest is the cleared integer
    polynomial with every rational root found deflated; sf, q's square-free
    part deflated once by each, is rest's square-free part (both are
    primitive, with a positive leading coefficient and the same roots).
    Only called when all coefficients are exact.
    """
    ints = _primitive(q._cleared[1])
    sf, g = _square_free(ints)
    roots = _low_degree_roots(_square_free(g)[0]) if len(g) > 1 else []
    for r in roots:
        sf = _deflate(sf, r.numerator, r.denominator)
    while len(sf) > 3:
        lead, before = sf[-1], len(roots)
        bits = 2 * lead.bit_length() + 4
        top = max(abs(c) for c in sf)
        for z in _companion_roots([c / top for c in reversed(sf)]):
            if len(sf) <= 3:
                break
            if abs(z.imag) > _IMAG_TOL * max(1.0, abs(z)):
                continue
            h, k = _nearest_fraction(_refine(sf, float(z.real), bits), bits, lead)
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
    for r in sorted(roots, key=lambda r: (abs(r.numerator), r.denominator, r < 0)):
        mult = 0
        while (quotient := _deflate(ints, r.numerator, r.denominator)) is not None:
            ints = quotient
            mult += 1
        found.append((r, mult))
    return found, ints, sf


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
        finite = all(map(math.isfinite, map(float, q.coeffs)))
    except OverflowError:  # float() of a huge int or Fraction
        finite = False
    if not finite:
        raise ConfigError("the quartic has a coefficient past the float range")
    if q.is_exact:
        entries, rest, sf = _rational_roots(q)
        # With every rational root deflated, the rest is a product of
        # irreducible factors over Q, none linear: a quartic's rest is
        # square-free or the square of one quadratic.  So each of its roots
        # has the multiplicity k = deg(rest) / deg(sf) of its square-free
        # part sf, and only sf is solved in floats; a degree that deg(sf)
        # does not divide means a rational root was missed.
        k, missed = divmod(len(rest) - 1, max(len(sf) - 1, 1))
        if missed:
            raise ArithmeticError(f"a rational root of {rest} was missed")
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
    entries.sort(key=lambda em: (float(em[0].real), float(em[0].imag)))
    return RootSet(tuple(entries))


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


def _ordinate(lam, p: DiagonalVFParams, q: Quartic, tol: float):
    """dual_ordinate's nu at a root lam of q, p's characteristic quartic.
    A Fraction lam = h/k of exact p with a zero cleared sum is a root, and
    nu = (Q^2 h^2 - Q a h k + e A k^2) / (Q k^2 b) on p's cleared form;
    other lam, or a nonzero sum, is checked by its residual."""
    if isinstance(lam, Fraction) and p._cleared is not None:
        if not _cleared_sum(q._cleared[1], lam):
            Q, (A, a, b, _, _, e, _) = p._cleared
            h, k = lam.numerator, lam.denominator
            return Fraction(Q * Q * h * h - Q * a * h * k + e * A * k * k, Q * k * k * b)
    qres = abs(float(q(lam)))
    if qres > _residual_bound(float(lam), q, tol):
        raise NotARoot(f"{lam} is not a root of the characteristic quartic (residual {qres})")
    return (lam * lam - p.a * lam + p.e * p.A) / p.b


def dual_ordinate(lam, p: DiagonalVFParams, tol: float = 1e-8):
    """Ordinate paired with a real abscissa, plus the second-relation residual.

    nu = (lam^2 - a*lam + e*A) / b; residual = nu^2 - c*lam - d*nu + f*A.
    The residual equals q(lam)/b^2 identically, so it vanishes at exact roots.
    """
    nu = _ordinate(lam, p, p.quartic, tol)
    return nu, nu * nu - p.c * lam - p.d * nu + p.f * p.A
