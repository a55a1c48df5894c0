"""Series-coefficient arguments: generalized binomial expansion around a
dominant atom, with its first negative coefficient for non-integer
exponents, and characteristic-function magnitude scans that certify
unboundedness of inadmissible transform shapes.
"""

from __future__ import annotations

import functools
import math
from collections.abc import ItemsView, Mapping
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from ._num import (MAX_LEAD_BITS, cleared, compositions, float_powers, merge_points,
                   multinomials, near_integer, power_terms, widest_gap)
from .errors import ConfigError, NoDominantAtom
from .measure import MAX_SUPPORT
from .model import VERDICT_TOL, CandidateModel, _sign

__all__ = [
    "SeriesReport",
    "SeriesTerms",
    "EliminationForm",
    "expand_series",
    "magnitude_scan",
]

_PROBE_DIRECTIONS = (
    (0.0, 0.0), (-1.0, 0.0), (1.0, 0.0), (0.0, -1.0), (0.0, 1.0),
    (-1.0, -1.0), (1.0, 1.0), (-1.0, 1.0), (1.0, -1.0),
    (-1.0, -1e-3), (1.0, 1e-3),
)
_LOG_DOMINANCE = math.log(0.999)
_U = 2.0 ** -53                  # the unit roundoff of a float
_SCAN_LIMIT = 1.0 + 1e-6         # |f(it)|^r past this is a witness


class _TermItems(ItemsView):
    def __iter__(self):
        return zip(self._mapping, self._mapping._coefs.values())


class SeriesTerms(Mapping):
    """Read-only map of an expansion's support points to their coefficients,
    in point order.

    With den, the points are held cleared: int pairs (X, Y) standing for
    (X / den, Y / den); `len` forms no Fraction, and iteration forms each
    point's pair of Fractions and hashes none.  Without den (a float
    expansion) the points are held and yielded as they are.  A lookup reads
    a dict of the points as iteration yields them, built on the first one,
    so a point of ints, Fractions or floats finds its term by numeric
    equality.  A SeriesTerms equals a dict of the same items, both ways.
    """

    __slots__ = ("_coefs", "_den", "_by_point")

    def __init__(self, coefs: dict, den: int | None = None):
        self._coefs, self._den, self._by_point = coefs, den, None

    def _point(self, key):
        """The support point a stored key stands for."""
        den = self._den
        return key if den is None else (Fraction(key[0], den), Fraction(key[1], den))

    def __getitem__(self, point):
        if self._by_point is None:
            self._by_point = dict(zip(self, self._coefs.values()))
        try:
            return self._by_point[point]
        except TypeError:  # an unhashable point
            raise KeyError(point) from None

    def __iter__(self):
        return map(self._point, self._coefs)

    def __len__(self):
        return len(self._coefs)

    def items(self):
        return _TermItems(self)

    def values(self):
        return self._coefs.values()

    def __repr__(self):
        return f"{type(self).__name__}({dict(self.items())!r})"


@dataclass(frozen=True)
class SeriesReport:
    """An expansion to `depth`: its terms by support point (a SeriesTerms,
    on cleared integer points when the model is exact), the first negative
    coefficient of the least order with its point, the pivot atom and the
    probe that shows the pivot dominates."""

    depth: int
    terms: SeriesTerms    # support point -> coefficient, in point order
    first_negative: Optional[tuple]   # (point, coefficient)
    pivot: int
    probe: tuple


@dataclass(frozen=True)
class EliminationForm:
    """Function shapes eliminated by the boundedness lemmas.

    f(t) = poly(t) + sum A_i exp(l_i t) + B t exp(g t)
           + sum_j exp(l_j t) [ (A0_j + t B0_j) cos(g_j t)
                              + (A1_j + t B1_j) sin(g_j t) ]
    """

    poly: tuple = ()                 # ascending coefficients
    exp_terms: tuple = ()            # of (A_i, lambda_i)
    linexp: Optional[tuple] = None   # (B, gamma)
    osc_blocks: tuple = ()           # of (lambda, gamma, A0, A1, B0, B1)

    def __post_init__(self):
        if not (self.poly or self.exp_terms or self.linexp or self.osc_blocks):
            raise ValueError("at least one block must be present")

    def eval_imag(self, t):
        """f(i t) at each t of a float array, as a complex128 array.

        The blocks are added in the order written above, and each term is
        formed in the order of its scalar expression.  Every coefficient is
        converted with float(), as complex() converts a Fraction.  Overflow
        gives inf or nan rather than an error; a coefficient past the float
        range raises OverflowError.
        """
        z = 1j * np.asarray(t, dtype=float)
        val = np.zeros_like(z)
        for k, c in enumerate(self.poly):
            val += float(c) * z ** k
        for amp, lam in self.exp_terms:
            val += float(amp) * np.exp(float(lam) * z)
        if self.linexp is not None:
            B, g = self.linexp
            val += float(B) * z * np.exp(float(g) * z)
        for lam, g, a0, a1, b0, b1 in self.osc_blocks:
            val += np.exp(float(lam) * z) * (
                (float(a0) + z * float(b0)) * np.cos(float(g) * z)
                + (float(a1) + z * float(b1)) * np.sin(float(g) * z))
        return val


def _find_probe(atoms, weights, pivot):
    """Probe theta* with sum_{i != pivot} |alpha_i/alpha_p| e^<w_i,theta*> < 1.

    The sum is compared in log space, so no direction overflows.  When the
    fixed directions all fail, the bisector of the widest angular gap of
    the pivot differences is tried: it exists whenever the pivot is a
    vertex of the atoms' convex hull.
    """
    wp = abs(float(weights[pivot]))
    px, py = float(atoms[pivot][0]), float(atoms[pivot][1])
    # (log |alpha_i/alpha_p|, w_i) for the atoms the pivot must dominate; 0 is overstated as 5e-324
    others = [(math.log(abs(float(w)) / wp or 5e-324), (float(a[0]) - px, float(a[1]) - py))
              for i, (a, w) in enumerate(zip(atoms, weights)) if i != pivot and w]
    if not others:
        return (0.0, 0.0)
    # past pi, every difference has negative inner product with the bisector
    width, bisector = widest_gap([d for _, d in others])
    for u in _PROBE_DIRECTIONS + ((bisector,) if width > math.pi else ()):
        for t in (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0):
            theta = (u[0] * t, u[1] * t)
            logs = [lb + d[0] * theta[0] + d[1] * theta[1] for lb, d in others]
            top = max(logs)
            if top + math.log(sum(math.exp(v - top) for v in logs)) < _LOG_DOMINANCE:
                return theta
            if u == (0.0, 0.0):
                break
    raise NoDominantAtom("no probe point strictly dominates the pivot atom")


@functools.lru_cache(maxsize=32)
def _composition_table(cap: int, parts: int):
    """The compositions of the orders 0..cap into `parts` parts, order by
    order in `compositions` order, as read-only arrays of their orders,
    their parts (a row each) and their multinomials as floats."""
    ns = np.array([c for j in range(cap + 1) for c in compositions(j, parts)], dtype=np.int64)
    table = (ns.sum(axis=1), ns,
             np.array([float(x) for j in range(cap + 1) for x in multinomials(j, parts)]))
    for a in table:
        a.flags.writeable = False
    return table


def _array_terms(orders, bases, origin, steps, den):
    """`merge_points(power_terms(orders, bases, origin, steps), ...)` with
    float coefficients in one numpy pass, as lists of the points, their
    coefficients and least orders; None below 16 terms, where the Python
    loop costs less, and unless the points are all floats or cleared ints
    (den) whose sums and den stay below 2^53, which numpy divides exactly.
    Products and float points are formed in the scalar order; equal keys
    sum in generation order from 0 (np.add.at keeps those bits, unlike a
    pairwise sum), and the points sort stably by `merge_points`' key.
    """
    cap, coords = orders[-1][0], (*origin, *(c for step in steps for c in step))
    if math.comb(cap + len(bases), cap) < 16 or (
            not all(type(c) is float for c in coords) if den is None
            else max(den, max(map(abs, origin)) + cap * max(map(abs, coords))) >= 2 ** 53):
        return None
    order, ns, mults = _composition_table(cap, len(bases))
    with np.errstate(all="ignore"):
        coefs = np.array([c for _, c in orders], dtype=float)[order] * mults
        for i, b in enumerate(bases):
            coefs = coefs * np.array(float_powers(b, cap))[ns[:, i]]
        if den is None:
            xs = ys = np.zeros(len(order))
            for i, (sx, sy) in enumerate(steps):
                xs, ys = xs + ns[:, i] * sx, ys + ns[:, i] * sy
            xs, ys = origin[0] + xs, origin[1] + ys
            kx, ky = fx, fy = np.rint(xs / 1e-9), np.rint(ys / 1e-9)
            if not np.isfinite(fx + fy).all():
                return None     # point_key raises on infinite keys
        else:
            xs = origin[0] + ns @ np.array([s[0] for s in steps], dtype=np.int64)
            ys = origin[1] + ns @ np.array([s[1] for s in steps], dtype=np.int64)
            kx, ky, fx, fy = xs, ys, xs / den, ys / den
    perm = np.lexsort((ky, kx))
    new = np.ones(len(perm), dtype=bool)
    new[1:] = (kx[perm][1:] != kx[perm][:-1]) | (ky[perm][1:] != ky[perm][:-1])
    group = np.empty(len(perm), dtype=np.intp)
    group[perm] = np.cumsum(new) - 1
    sums = np.zeros(int(new.sum()))
    np.add.at(sums, group, coefs)
    first = perm[new]
    rank = np.lexsort((first, fy[first], fx[first]))
    first = first[rank]
    return (list(zip(xs[first].tolist(), ys[first].tolist())), sums[rank].tolist(),
            order[first].tolist())


def expand_series(m: CandidateModel, depth: int = 8) -> SeriesReport:
    """Coefficients of the mixture power, aggregated by support point.

    The model is read by the verdict's rules, exact values exactly and
    floats within VERDICT_TOL: weights of the sign -1 (`model._sign`) are
    negated, and an integer r = N (`near_integer`) is expanded as N itself.
    The pivot, the atom of largest |weight|, must then be positive.  An
    exact coefficient is negative by its sign, a float one below -1e-12,
    and, when the weights share a sign and r reads as an integer N, below
    -(1e-12 + N S^(N-1) T), S the sum of |w| and T that of the weights that
    pass their sign only within VERDICT_TOL.
    Terms are keyed by the absolute support point r*v_pivot + sum n_i w_i,
    so for an integer exponent they coincide with the convolution masses.
    An exact model's points are cleared to integers over one denominator
    and kept there: `terms` is a SeriesTerms over them, and the first
    negative coefficient's point is formed once.  Float coefficients (a
    non-integer r, or float atoms) are built in one numpy pass over a
    cached composition table (`_array_terms`), with the bits of the scalar
    terms; other points, or cleared ones past 2^53, take the Python loop
    of `power_terms` and `merge_points`, as exact coefficients do.  Orders
    up to max_j = min(depth, N) of n atoms make C(max_j + n - 1, n - 1)
    terms; past MAX_SUPPORT terms or orders, order 170 with float
    coefficients (171! > the largest float) or MAX_LEAD_BITS in an exact
    lead, it raises ConfigError before any work, and on a float overflow.
    """
    exact = m.is_exact
    n_int = near_integer(m.r, VERDICT_TOL)
    r = m.r if n_int is None or n_int == m.r else float(n_int)
    max_j = depth if (n_int is None or n_int > depth) else n_int
    floats = not (exact and n_int is not None)
    if floats and max_j > 170:
        raise ConfigError(f"float series coefficients overflow past order 170 "
                          f"(this one reaches {max_j})")
    n = len(m.weights)
    if max(math.comb(max_j + n - 1, n - 1), max_j + 1) > MAX_SUPPORT:
        raise ConfigError(f"more than {MAX_SUPPORT} series terms (order {max_j}, {n} atoms)")
    weights, sign = m.weights, _sign(m.weights)
    if sign < 0:
        weights = tuple(-w for w in weights)
    pivot = max(range(len(weights)), key=lambda i: abs(float(weights[i])))
    if not float(weights[pivot]) > 0:
        raise NoDominantAtom("pivot weight is not positive")
    probe = _find_probe(m.atoms, weights, pivot)

    ap = weights[pivot]
    others = [i for i in range(len(weights)) if i != pivot]
    betas = [Fraction(weights[i], ap) if exact else weights[i] / ap for i in others]
    wdiffs = [(m.atoms[i][0] - m.atoms[pivot][0],
               m.atoms[i][1] - m.atoms[pivot][1]) for i in others]
    base = (r * m.atoms[pivot][0], r * m.atoms[pivot][1])
    den = None
    if exact:
        # the points on integers over one denominator
        den, ints = cleared((*base, *(c for d in wdiffs for c in d)))
        base, wdiffs = ints[:2], list(zip(ints[2::2], ints[3::2]))
    if not floats and n_int * max(ap.numerator, ap.denominator).bit_length() > MAX_LEAD_BITS:
        raise ConfigError(f"the exact series lead w^N has more than {MAX_LEAD_BITS} bits")

    # the falling factorial r(r-1)...(r-j+1), carried from order to order
    # as ff / q^j, on ints for an exact r = p/q, is nonzero for every
    # j <= max_j: an integer r caps max_j
    p, q = (r.numerator, r.denominator) if exact else (r, 1)
    orders, ff = [], 1
    try:
        lead = float(ap) ** float(r) if floats else ap ** n_int
        for j in range(max_j + 1):
            fact = math.factorial(j)
            orders.append((j, lead * (ff / q ** j) / fact if floats
                           else Fraction(lead * ff, fact)))
            ff = ff * (p - j * q)
        points, coefs, least = (floats and _array_terms(orders, betas, base, wdiffs, den)
                                or zip(*merge_points(power_terms(orders, betas, base, wdiffs),
                                                     exact, den)))
    except OverflowError:
        raise ConfigError("the series coefficients or points are past the float range") from None
    cut = -1e-12 if floats else 0
    if floats and sign and n_int is not None and n_int > 0:
        # the weights below 0 pass their sign only within VERDICT_TOL: with
        # S = sum |w| and T = sum of theirs, the terms that hold one have
        # mass at most S^N - (S - T)^N <= N S^(N-1) T
        tail = math.fsum(-w for w in weights if w < 0)
        if tail:
            try:
                cut -= n_int * math.fsum(map(abs, weights)) ** (n_int - 1) * tail
            except OverflowError:
                cut = -math.inf
    # of the least order, the first in point order
    neg = min((i for i, c in enumerate(coefs) if c < cut),
              key=least.__getitem__, default=None)
    terms = SeriesTerms(dict(zip(points, coefs)), den)
    return SeriesReport(depth=depth, terms=terms,
                        first_negative=None if neg is None
                        else (terms._point(points[neg]), coefs[neg]),
                        pivot=pivot, probe=probe)


def _mass_bound(f: EliminationForm, rf: float, ts):
    """(bounded, margin, limit): for a form of exp_terms only, whether its
    mass bounds it so that no grid t is a witness of magnitude_scan, the
    bound delta S on the rounding of |f(it)| a witness must beat, and the
    threshold 1 + 1e-6 + 2^-49 it must pass; (False, 0.0, 1 + 1e-6) for
    other forms and when a coefficient or S is past the float range.

    |f(it)| <= S = sum |A_i| for every t, so f has no witness when
    S^r <= 1 + 1e-6; with rounding, the test is (S (1 + delta))^r <=
    1 + 1e-6 - 2^-49, S summed by math.fsum and delta = 4 (n + 6) u for n
    terms, u = 2^-53.  The derivation takes cos, sin, hypot and pow within
    4 ulp (8u relative on a normal result; cos and sin of a float are never
    subnormal), r > 0, a finite non-empty grid and every |lambda_i| max|t|
    finite: then no lambda_i t overflows (which gives the scan a nan
    witness), exp's argument is (+-0, fl(lambda_i t)), and for each t
    eval_imag computes each exp(i y) within 8u of its value, so of modulus
    at most 1 + 8u; each term A_i exp(i y) with one rounding per part, of
    modulus at most |A_i| (1 + 8u)(1 + u), plus 2^-1074 if a part
    underflows; their sum from 0 in n - 1 additions, exact when they
    underflow, each part within (1 + u)^(n - 1) of the sum of the parts'
    moduli, so the modulus within it of the sum of the terms' moduli; and
    abs within 1 + 8u.  So |f(it)| as computed is at most
    (1 + u)^n (1 + 8u)^2 (S' + n 2^-1074) for the exact sum S' of the
    |A_i|.  If S' < 2^-1022, that is below 1, and its r-th power as
    computed is at most 1 + 8u.  Otherwise n 2^-1074 <= 2nu S', fsum's S
    has S' <= S (1 + 2u), and the computed S (1 + delta) is at least
    S (1 + delta)(1 - u)^2, so |f(it)| is at most S (1 + delta) as computed
    times a factor whose log is below (3n + 20)u - delta + O((nu)^2) < 0
    for n < 10^14.  Below 2, the two powers are within 8u of their exact
    values, which x^r orders: so every |f(it)|^r of the scan is at most the
    bound's power plus 16u = 2^-49, which is at most 1 + 1e-6.  A nan or
    inf S fails the comparison.  By the same steps, |f(it)| as computed is
    within (3n + 16)u S' + O(u^2) of the exact modulus at the same
    fl(lambda_i t), so |f(it)| - delta S, rounded, is at most that modulus,
    and a power of it past 1 + 1e-6 + 2^-49 (within 8u) leaves the
    modulus's past 1 + 1e-6.
    """
    if f.poly or f.linexp is not None or f.osc_blocks:
        return False, 0.0, _SCAN_LIMIT
    try:
        terms = [(float(amp), float(lam)) for amp, lam in f.exp_terms]
        S, delta = math.fsum(abs(amp) for amp, _ in terms), 4 * (len(terms) + 6) * _U
    except OverflowError:   # a coefficient or S past the float range
        return False, 0.0, _SCAN_LIMIT
    tmax = float(np.abs(ts).max()) if len(ts) else math.nan   # nan or inf if any t is
    try:
        bounded = (rf > 0 and all(math.isfinite(abs(lam) * tmax) for _, lam in terms)
                   and (S * (1 + delta)) ** rf <= _SCAN_LIMIT - 2.0 ** -49)
    except OverflowError:   # the power past the float range
        bounded = False
    return bounded, delta * S, _SCAN_LIMIT + 2.0 ** -49


def magnitude_scan(f: EliminationForm, r, t_grid) -> Optional[float]:
    """First grid t with |f(it)|^r > 1 + 1e-6, or None.

    A finite witness certifies that f^r cannot be a Laplace transform of a
    probability measure: the characteristic-function magnitude would exceed
    its value at zero.  Only the magnitude is used, so no branch of the
    complex power is ever chosen.  A form of exp_terms only that its mass
    bounds (`_mass_bound`) evaluates no point, and any other such form has
    a witness only where |f(it)| less the bound on its rounding passes
    1 + 1e-6 + 2^-49.  Forms are evaluated on the grid in its own order,
    in numpy blocks of 32 points that double in size, so a witness early in
    the grid ends the scan early.  With r > 0, as the CLI requires, a
    magnitude that is not finite (f overflowed) is a witness, and so is the
    first t when a coefficient is past the float range.
    """
    rf = float(r)
    ts = np.asarray(t_grid, dtype=float)
    bounded, margin, limit = _mass_bound(f, rf, ts)
    if bounded:
        return None
    start, size = 0, 32
    with np.errstate(all="ignore"):
        while start < len(ts):
            block = ts[start:start + size]
            try:
                mags = np.abs(f.eval_imag(block))
            except OverflowError:
                return float(block[0])
            mags = np.maximum(mags - margin, 0.0)   # keeps nan
            # inf and nan are not <= the limit, and a power r > 0 keeps them
            bad = ~(mags ** rf <= limit)
            i = bad.argmax()
            if bad[i]:
                return float(block[i])
            start, size = start + size, 2 * size
    return None
