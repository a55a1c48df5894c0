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

from ._num import Number, all_exact, cleared, primitive
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
    """Monic quartic; coeffs = (c0, c1, c2, c3, c4) with c4 == 1.  Only the
    rational root search and the ordinates read the cleared form."""

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

    def __call__(self, x):
        """q(x) by Horner's rule.  Beside a float or complex x an exact
        coefficient converts to its float: the bits of Horner on the floats."""
        c0, c1, c2, c3, c4 = self.coeffs
        return (((c4 * x + c3) * x + c2) * x + c1) * x + c0

    @cached_property
    def scale(self) -> float:
        """1 + the largest |float(c_k)|.  OverflowError past the float range."""
        return 1.0 + max(abs(float(c)) for c in self.coeffs)


@dataclass(frozen=True)
class RootSet:
    """Quartic roots with multiplicities; complex entries come in conjugate pairs.

    `rest`, filled by `solve_quartic` on an exact quartic, is the primitive
    integer polynomial (constant term first) of the square-free part of what
    the rational roots leave: (1,) when every root is rational."""

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


def _square_free(poly):
    """(poly / g, g) for a primitive integer quartic poly = e + d x + c x^2 +
    b x^3 + a x^4 with a repeated root, g = gcd(poly, poly') made primitive.

    By the subresultant theorem (Collins 1967, J. ACM 14(1)) g is, up to a
    constant, the first subresultant of poly and poly' whose leading
    coefficient is nonzero: S1 = -2 X x + Y (times a) when poly has one
    double root, S2 (times a) when it has two double roots or a triple one,
    and poly' for a quadruple root.  Both are primitive, so by Gauss's lemma
    the quotient is integral; a nonzero remainder raises ArithmeticError."""
    e, d, c, b, a = poly
    X = (16 * a * a * c * e - 18 * a * a * d * d - 6 * a * b * b * e + 14 * a * b * c * d
         - 4 * a * c * c * c - 3 * b * b * b * d + b * b * c * c)
    if X:
        Y = (48 * a * a * d * e - 32 * a * b * c * e - 3 * a * b * d * d + 4 * a * c * c * d
             + 9 * b * b * b * e - b * b * c * d)
        g = primitive((Y, -2 * X))
    elif 8 * a * c != 3 * b * b:
        g = primitive((16 * a * e - b * d, 2 * (6 * a * d - b * c), 8 * a * c - 3 * b * b))
    else:
        g = primitive((d, 2 * c, 3 * b, 4 * a))
    rest, quot = list(poly), [0] * (len(poly) - len(g) + 1)
    for k in range(len(quot) - 1, -1, -1):
        quot[k] = rest[k + len(g) - 1] // g[-1]
        for i, gi in enumerate(g):
            rest[i + k] -= quot[k] * gi
    if any(rest):
        raise ArithmeticError(f"gcd {g} does not divide {poly}")
    return quot, g


def _repeated(poly) -> bool:
    """Whether the integer quartic poly = e + d x + c x^2 + b x^3 + a x^4,
    a != 0, has a repeated root: whether 27 disc = 4 I^3 - J^2 is zero, with
    I = 12ae - 3bd + c^2 and J = 72ace + 9bcd - 27ad^2 - 27b^2e - 2c^3."""
    e, d, c, b, a = poly
    i = 12 * a * e - 3 * b * d + c * c
    j = 72 * a * c * e + 9 * b * c * d - 27 * a * d * d - 27 * b * b * e - 2 * c * c * c
    return 4 * i * i * i == j * j


def _homogeneous(poly, h: int, k: int) -> int:
    """k^deg poly(h / k) = sum c_i h^i k^(deg - i) of poly = (c_0, ..., c_deg)."""
    acc, kp = 0, 1
    for c in reversed(poly):
        acc, kp = acc * h + c * kp, kp * k
    return acc


def _refine(poly, x: float, bits: int) -> int:
    """Newton's method in fixed point: an integer X such that X / 2**bits
    approximates a simple root of poly near x to about 2**-bits, by the
    `_homogeneous` values of poly and poly' at X / 2**bits.

    `_rational_roots` asks for 2**-bits below a sixteenth of 1/L, the
    spacing of the lattice its rational roots lie on, which is all that
    rounding to that lattice needs.  Next to a cluster of roots each step
    only halves the error until the cluster resolves, so the step count is
    capped by the bits asked for, not by quadratic convergence."""
    num, den = x.as_integer_ratio()
    X, one = (num << bits) // den, 1 << bits
    deriv = [i * c for i, c in enumerate(poly)][1:]
    for _ in range(bits + 64):
        slope = _homogeneous(deriv, X, one)
        if slope == 0:
            break
        step = _homogeneous(poly, X, one) // slope
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


def _nearest(u: int, D: int, w: int) -> float:
    """The float nearest (u + sqrt(D)) / w, ints u, w != 0 and D > 0 not a
    square: it lies strictly between the int quotients (u 2^n + S) / (w 2^n)
    and (u 2^n + S + 1) / (w 2^n), S = isqrt(D 4^n), and rounds as they do
    once they round alike (rounding is monotone and it is no tie).  n
    doubles until then, which absorbs any cancellation of u and sqrt(D)."""
    n = 64
    while True:
        s, den = math.isqrt(D << 2 * n), w << n
        lo, hi = ((u << n) + s) / den, ((u << n) + s + 1) / den
        if lo == hi:
            return lo
        n *= 2


def _low_degree_roots(poly):
    """Every root of a square-free integer a x^2 + b x + c, a > 0, or linear
    one: a Fraction when rational, else the reals (-b -+ sqrt(D)) / 2a or
    -b/2a +- i sqrt(-D)/2a, D = b^2 - 4ac, each part correctly rounded."""
    if len(poly) == 2:
        return [Fraction(-poly[0], poly[1])]
    c, b, a = poly
    disc = b * b - 4 * a * c
    s = math.isqrt(abs(disc))
    if s * s == disc:
        return [Fraction(-b - s, 2 * a), Fraction(-b + s, 2 * a)]
    if disc > 0:
        return [_nearest(b, disc, -2 * a), _nearest(-b, disc, 2 * a)]
    im = s / (2 * a) if s * s == -disc else _nearest(0, -disc, 2 * a)
    return [complex(-b / (2 * a), -im), complex(-b / (2 * a), im)]


def _rational_roots(q: Quartic):
    """Extract exact rational roots with multiplicities: rationalize and verify.

    Every fact is read off P, q cleared to a primitive integer polynomial.
    P has a repeated root exactly when its discriminant is zero, which its
    invariants I and J decide (`_repeated`); only then are g = gcd(P, P')
    and sf = P / g read off the subresultants of P and P' (`_square_free`).
    g is the product of (x - r)^(m - 1) over P's roots r of
    multiplicity m: a linear g is one double root, deflated first from the
    cubic sf, and a longer g leaves sf of degree 2 or less, so sf's degree
    stays above 2 only when P is square-free.  By the rational root
    theorem every rational root h/k of sf has k | L, its leading
    coefficient, so they lie on the lattice (1/L)Z, at least 1/L apart.
    Each real float root of sf is refined by `_refine`'s Newton steps to
    2**-bits < 1 / (16 L), bits = bits(L) + 4, and rounded to the nearest
    multiple of 1/L: a root within 1 / (2 L) of the refined value is that
    lattice point, the only candidate it can stand for.  Exact deflation
    confirms it and takes it out, so the next float root near it converges
    to a neighbour; a candidate that does not divide is skipped.  The float
    roots of what is left are taken again until a pass finds nothing, and
    a linear remainder, or a quadratic one whose discriminant is a square,
    gives its rational roots by its formula (`_low_degree_roots`).  There
    is no size guard: the work grows with the bit length of the
    coefficients, not with their divisors.  A rational root is missed only
    when the eigenvalues place it off the real axis in every pass of an sf
    of degree 3 or 4, which `solve_quartic` then solves in floats.  A root
    is simple on a square-free P, else 1 plus its multiplicity in g.

    Returns (list of (Fraction, mult), sf), roots in ascending
    (|numerator|, denominator, sign) order.  sf, P's square-free part
    deflated once by each root found, is primitive with a positive leading
    coefficient.  Only called when all coefficients are exact.
    """
    ints = primitive(q._cleared[1])
    sf, g = _square_free(ints) if _repeated(ints) else (ints, (1,))
    roots = [Fraction(-g[0], g[1])] if len(g) == 2 else []  # a double root of the cubic sf
    sf = _deflate(sf, roots[0].numerator, roots[0].denominator) if roots else sf
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
    disc = sf[1] ** 2 - 4 * sf[0] * sf[2] if len(sf) == 3 else 0  # sf has no double root
    if len(sf) == 2 or disc > 0 and math.isqrt(disc) ** 2 == disc:
        roots, sf = roots + _low_degree_roots(sf), [1]  # sf = prod (den x - num), primitive
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
        for g in groups:
            if any(abs(v - w) <= tol for w in g):
                g.append(v)
                break
        else:
            groups.append([v])
    # merge adjacent groups in one pass: an earlier group is apart from both
    # parts of a merge, so group i takes later ones until none is within tol
    i = 0
    while i < len(groups):
        for j in range(i + 1, len(groups)):
            if any(abs(u - w) <= tol for u in groups[i] for w in groups[j]):
                groups[i].extend(groups.pop(j))
                break
        else:
            i += 1
    return [(sum(g) / len(g), len(g)) for g in groups]


def _residual_bound(v, q: Quartic, tol: float) -> float:
    """tol * max(1, |v|)^4 * q.scale, the largest residual a root v may
    leave.  Formed by products, which give inf past the float range where
    ** 4 would raise OverflowError."""
    s = max(1.0, abs(v))
    return tol * s * s * s * s * q.scale


def solve_quartic(q: Quartic, tol: float = 1e-8) -> RootSet:
    """All four roots with multiplicities.

    Exact coefficients give their rational roots exactly, and a rest whose
    square-free part has degree 1 or 2 by its formula, which tol does not
    reach.  A rest of degree 3 or 4 and decimal input are solved by
    eigenvalues (`_companion_roots`) and three Newton steps on q in floats;
    decimal roots are clustered within tol (1 + max |coefficient|).  A
    coefficient past the float range, which the eigenvalues cannot take, a
    float root whose residual passes its bound, or two roots of an exact
    rest that land on one float (the rest is square-free) raise ConfigError.
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
        entries, sf = _rational_roots(q)
        # With every rational root deflated to its multiplicity, the rest of
        # q, of degree 4 less their sum, is a product of irreducible factors
        # over Q, none linear: square-free or the square of one quadratic.
        # So its roots share k = deg(rest) / deg(sf), sf its square-free
        # part; a degree that deg(sf) does not divide means a missed root.
        k, missed = divmod(4 - sum(m for _, m in entries), max(len(sf) - 1, 1))
        if missed:
            raise ArithmeticError(f"a rational root beside {sf} was missed")
        if len(sf) <= 3:  # an irrational quadratic, or no rest
            low = _low_degree_roots(sf) if len(sf) > 1 else []
            if low and low[0] == low[1]:
                raise ConfigError(f"the float roots of the quartic do not resolve: "
                                  f"2 distinct roots merge at {low[0]}")
            entries += [(v, k) for v in low]
            return RootSet(tuple(sorted(entries, key=_float_key)), tuple(sf))
        numeric_coeffs = [c / sf[-1] for c in sf]
    else:
        entries, numeric_coeffs = [], [float(c) for c in q.coeffs]

    # an exact sf is square-free: its roots are distinct and none is merged
    cluster_tol = 0.0 if q.is_exact else tol * (1.0 + max(abs(c) for c in numeric_coeffs))
    # q and q' on floats, which keep the bits of q(r) (`Quartic.__call__`)
    fq = Quartic((*map(float, q.coeffs[:4]), 1))
    c1, d2, d3 = fq.coeffs[1], float(2 * q.coeffs[2]), float(3 * q.coeffs[3])
    raw = []
    for r in map(complex, _companion_roots(numeric_coeffs[::-1])):
        for _ in range(3):
            d = ((4 * r + d3) * r + d2) * r + c1
            if abs(d) < 1e-12 * q.scale or not abs(step := fq(r) / d) <= 1.0:  # or NaN
                break
            r = r - step
        raw.append(r)
    # The eigenvalues come in exact conjugate pairs, and the Newton steps
    # and _cluster keep them bit for bit (IEEE complex *, / and abs are
    # sign-symmetric).  So a cluster is real when it holds its own
    # conjugate, that is, when it lies within cluster_tol / 2 of the axis
    # (on the axis for an exact sf).
    # exact deflation proves the rational entries: only float roots are checked
    for v, m in _cluster(raw, cluster_tol):
        v = v.real if abs(v.imag) <= cluster_tol / 2 else v
        if m > 1 and q.is_exact:
            raise ConfigError(f"the float roots of the quartic do not resolve: "
                              f"{m} distinct roots merge at {v}")
        res = abs(complex(fq(v)))
        if not res <= _residual_bound(v, q, tol):  # NaN included
            raise ConfigError(f"the float roots of the quartic do not resolve: "
                              f"residual {res} at {v}")
        entries.append((v, m))  # k = 1: the rest is its own square-free part
    entries.sort(key=_float_key)
    return RootSet(tuple(entries), tuple(sf) if q.is_exact else None)


def _float_key(entry):
    """(real part, imaginary part) of a root entry as floats."""
    v = complex(entry[0])
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
    zero `_homogeneous` sum on q's cleared form is a root, and nu = (Q^2 h^2
    - Q a h k + e A k^2) / (Q k^2 b) on p's cleared form; other lam, or a
    nonzero sum, is checked by its residual.  A float root of a quadratic
    rest x^2 - s x + t (the `RootSet.rest` of q) has lam^2 = s lam - t, so nu = ((s - a) lam - t +
    e A) / b, linear in lam, where the two terms of lam^2 - a lam would
    cancel at a large lam."""
    q = p.quartic
    if isinstance(lam, Fraction) and p._cleared is not None:
        h, k = lam.numerator, lam.denominator
        if not _homogeneous(q._cleared[1], h, k):
            Q, (A, a, b, _, _, e, _) = p._cleared
            return Fraction(Q * Q * h * h - Q * a * h * k + e * A * k * k, Q * k * k * b)
    qres = abs(float(q(lam)))
    if qres > _residual_bound(float(lam), q, tol):
        raise NotARoot(f"{lam} is not a root of the characteristic quartic (residual {qres})")
    if rest is not None and len(rest) == 3:
        t, s = Fraction(rest[0], rest[2]), Fraction(-rest[1], rest[2])
        return ((s - p.a) * lam + (p.e * p.A - t)) / p.b
    return (lam * lam - p.a * lam + p.e * p.A) / p.b
