"""Series-coefficient arguments: generalized binomial expansion around a
dominant atom, first-negative-coefficient detection for non-integer
exponents, and characteristic-function magnitude scans that certify
unboundedness of inadmissible transform shapes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from ._num import (cleared, is_exact, merge_points, near_integer,
                   power_terms, widest_gap)
from .errors import ConfigError, NoDominantAtom, NotNormalized
from .measure import MAX_SUPPORT
from .model import CandidateModel

__all__ = [
    "SeriesReport",
    "EliminationForm",
    "expand_series",
    "first_negative_coefficient",
    "magnitude_scan",
]

_PROBE_DIRECTIONS = (
    (0.0, 0.0), (-1.0, 0.0), (1.0, 0.0), (0.0, -1.0), (0.0, 1.0),
    (-1.0, -1.0), (1.0, 1.0), (-1.0, 1.0), (1.0, -1.0),
    (-1.0, -1e-3), (1.0, 1e-3),
)
_LOG_DOMINANCE = math.log(0.999)


@dataclass(frozen=True)
class SeriesReport:
    depth: int
    terms: dict           # support point -> coefficient
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
    # (log |alpha_i/alpha_p|, w_i) for the atoms the pivot must dominate
    others = [(math.log(abs(float(w)) / wp), (float(a[0]) - px, float(a[1]) - py))
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


def expand_series(m: CandidateModel, depth: int = 8) -> SeriesReport:
    """Coefficients of the mixture power, aggregated by support point.

    Terms are keyed by the absolute support point r*v_pivot + sum n_i w_i,
    so for an integer exponent they coincide with the convolution masses.
    Exact rational arithmetic is used when the model is exact; its points
    are cleared to integers over one denominator (`_num.cleared`), merged
    on those, and each merged point's Fractions are formed once.  Orders up to
    max_j = min(depth, N) of n atoms make C(max_j + n - 1, n - 1) terms; past
    MAX_SUPPORT terms or orders, or past order 170 with float coefficients
    (171! exceeds the largest float), it raises ConfigError before any work.
    """
    exact = m.is_exact
    r = m.r
    n_int = near_integer(r, 1e-12)
    max_j = depth if (n_int is None or n_int > depth) else n_int
    floats = not (exact and n_int is not None)
    if floats and max_j > 170:
        raise ConfigError(f"float series coefficients overflow past order 170 "
                          f"(this one reaches {max_j})")
    n = len(m.weights)
    if max(math.comb(max_j + n - 1, n - 1), max_j + 1) > MAX_SUPPORT:
        raise ConfigError(f"more than {MAX_SUPPORT} series terms (order {max_j}, {n} atoms)")
    weights = m.weights
    flip = all(w <= 0 for w in weights) and any(w < 0 for w in weights)
    if flip:
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
    lead = float(ap) ** float(r) if floats else ap ** n_int

    # the falling factorial ff = r(r-1)...(r-j+1), carried from order to
    # order, is nonzero for every j <= max_j: an integer r caps max_j
    orders, ff = [], 1
    for j in range(max_j + 1):
        fact = math.factorial(j)
        orders.append((j, lead * ff / fact if floats else Fraction(lead * ff, fact)))
        ff = ff * (r - j)
    merged = merge_points(power_terms(orders, betas, base, wdiffs), exact, den)

    # of the least order, the first in point order
    neg = min((e for e in merged if e[1] < -1e-12), key=lambda e: e[2], default=None)
    return SeriesReport(depth=depth, terms={pt: coef for pt, coef, _ in merged},
                        first_negative=None if neg is None else (neg[0], neg[1]),
                        pivot=pivot, probe=probe)


def first_negative_coefficient(a1, a2, r, depth: int = 8,
                               tol: float = 1e-9) -> Optional[int]:
    """Least k <= depth whose expansion coefficient of e^(k theta) is negative.

    The coefficient is a1^r * [r(r-1)...(r-k+1)/k!] * (a2/a1)^k.  For an
    all-nonpositive pair summing to -1 the signs are flipped first (even
    exponent), matching the mirrored branch of the two-atom argument.
    """
    total = float(a1) + float(a2)
    if abs(total - 1.0) <= tol:
        pass
    elif abs(total + 1.0) <= tol:
        a1, a2 = -a1, -a2
    else:
        raise NotNormalized(f"weights sum to {total}, expected +1 or -1")
    if not a1 > 0:
        raise NotNormalized("dominant weight must be positive after sign flip")
    exact = is_exact(a1) and is_exact(a2) and is_exact(r)
    lead = None
    n_int = near_integer(r, 1e-12)
    if exact and n_int is not None:
        lead = a1 ** n_int
    else:
        lead = float(a1) ** float(r)
    ratio = a2 / a1 if exact else float(a2) / float(a1)
    ff = 1  # r(r-1)...(r-k+1)
    for k in range(1, depth + 1):
        ff = ff * (r - k + 1)
        coef = lead * ff * ratio ** k
        coef = coef / math.factorial(k)
        if (exact and coef < 0) or (not exact and coef < -1e-15):
            return k
    return None


def magnitude_scan(f: EliminationForm, r, t_grid) -> Optional[float]:
    """First grid t with |f(it)|^r > 1 + 1e-6, or None.

    A finite witness certifies that f^r cannot be a Laplace transform of a
    probability measure: the characteristic-function magnitude would exceed
    its value at zero.  Only the magnitude is used, so no branch of the
    complex power is ever chosen.  The grid is evaluated in its own order,
    in numpy blocks of 32 points that double in size, so a witness early
    in the grid ends the scan early.  With r > 0, as the CLI requires, a
    magnitude that is not finite (f overflowed) is a witness, and so is
    the first t when a coefficient is past the float range.
    """
    rf = float(r)
    ts = np.asarray(t_grid, dtype=float)
    start, size = 0, 32
    with np.errstate(all="ignore"):
        while start < len(ts):
            block = ts[start:start + size]
            try:
                # inf and nan are not <= 1 + 1e-6, and a power r > 0 keeps them
                bad = ~(np.abs(f.eval_imag(block)) ** rf <= 1.0 + 1e-6)
            except OverflowError:
                return float(block[0])
            i = bad.argmax()
            if bad[i]:
                return float(block[i])
            start, size = start + size, 2 * size
    return None
