"""Candidate transform assembly, lattice kernel analysis, and the verdict.

The mixture-power transform built from the quartic's distinct real roots is
a Laplace transform of a probability measure exactly when the weights are
uniformly signed with unit total and the exponent is a (CaseA) positive or
(CaseB) even positive integer.  For three or four atoms the argument goes
through an exponent lattice whose left kernel must contain no mixed-sign
integer vector: the verdict reads it from a closed-form generator in the
abscissas, and `star_condition` row-reduces any 3x3 rational matrix exactly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional

from ._num import all_exact, cleared, is_exact, near_integer, power_terms
from .errors import NRootDeficit, WeightCountMismatch
from .roots import DiagonalVFParams, RootSet, _ordinate, solve_quartic

__all__ = [
    "CandidateModel",
    "LatticeMatrix",
    "StarReport",
    "AdmissibilityVerdict",
    "make_model",
    "candidate_model",
    "star_condition",
    "admissibility_verdict",
]


@dataclass(frozen=True)
class CandidateModel:
    """Atoms (lambda_i, nu_i) with weights alpha_i and exponent r = -1/A."""

    atoms: tuple          # of (lambda, nu), pairwise distinct lambda, ascending
    weights: tuple
    r: object             # positive real, Fraction when exact

    def __post_init__(self):
        lams = [a[0] for a in self.atoms]
        if not lams:
            raise ValueError("a model needs at least one atom")
        if len(lams) != len(self.weights):
            raise WeightCountMismatch(
                f"{len(self.weights)} weights for {len(lams)} atoms")
        if any(lams[i] >= lams[i + 1] for i in range(len(lams) - 1)):
            raise ValueError("atom abscissas must be strictly ascending")
        if not self.r > 0:
            raise ValueError("exponent must be positive")

    @cached_property
    def is_exact(self) -> bool:
        return (all_exact(self.r, *self.weights)
                and all(all_exact(*a) for a in self.atoms))

    @cached_property
    def _cleared(self):
        """(D, [(X, Y)], M, [W]), in tuples: the atoms of nonzero weight,
        which the verdict keeps, and their weights |alpha_i|, on integers.
        D and M are the common denominators of those atoms' coordinates and
        of the weights, (X, Y) = D (lambda_i, nu_i) and W = M |alpha_i|.  A
        float model is its own cleared form, with D = M = 1."""
        atoms, weights = _kept_atoms(self)
        if not self.is_exact:
            return 1, tuple(atoms), 1, tuple(weights)
        D, coords = cleared(c for a in atoms for c in a)
        return (D, tuple(zip(coords[::2], coords[1::2])), *cleared(weights))

    @cached_property
    def _power(self) -> dict:
        """The N-fold power, N the integer nearest r, of the kept mixture on
        its cleared form: each point sum n_i (X_i, Y_i) of the support, D
        times a point of mu, with its mass times M^N; float points merge when
        equal.  Built once per model and shared, so no reader changes it:
        `realize_measure` hands the measure a copy of its points and masses,
        and the regression check compares mu with it."""
        _, points, _, weights = self._cleared
        power: dict = {}
        for _, coef, pt in power_terms([(near_integer(self.r), 1)], weights, (0, 0), points):
            power[pt] = power.get(pt, 0) + coef
        return power


def _kept_atoms(m: CandidateModel):
    """The atoms of nonzero weight, which the verdict keeps, and their
    weights |alpha_i|."""
    return ([a for a, w in zip(m.atoms, m.weights) if w != 0],
            [abs(w) for w in m.weights if w != 0])


def make_model(atoms, weights, r) -> CandidateModel:
    """Build a model, sorting atom/weight pairs by abscissa."""
    pairs = sorted(zip(atoms, weights), key=lambda aw: float(aw[0][0]))
    return CandidateModel(tuple(tuple(a) for a, _ in pairs),
                          tuple(w for _, w in pairs), r)


@dataclass(frozen=True)
class LatticeMatrix:
    """3x3 exponent matrix with exact rational entries."""

    rows: tuple  # of 3-tuples of Fraction

    def __post_init__(self):
        if len(self.rows) != 3 or any(len(r) != 3 for r in self.rows):
            raise ValueError("lattice matrix must be 3x3")
        if not all(isinstance(x, Fraction) for r in self.rows for x in r):
            raise ValueError("lattice matrix entries must be Fractions")


@dataclass(frozen=True)
class StarReport:
    holds: bool
    witness: Optional[tuple] = None
    method: str = "exact-kernel"
    bound: Optional[int] = None


@dataclass(frozen=True)
class AdmissibilityVerdict:
    outcome: str                    # "CaseA" | "CaseB" | "Rejected"
    N: Optional[int] = None
    reason: Optional[str] = None
    theta_domain_full: bool = False
    star: Optional[StarReport] = None
    inconclusive: bool = False

    @property
    def accepted(self) -> bool:
        return self.outcome in ("CaseA", "CaseB")


def candidate_model(p: DiagonalVFParams, weights, tol: float = 1e-8,
                    roots: Optional[RootSet] = None) -> CandidateModel:
    """Atoms over the distinct real roots of the characteristic quartic.

    `roots`, when given, is that quartic's RootSet already solved at `tol`;
    callers building several models for one p pass it to solve only once.
    Every root is checked against the quartic, which p builds once.
    """
    q = p.quartic
    if roots is None:
        roots = solve_quartic(q, tol)
    lams = roots.real_roots
    if len(lams) < 2:
        raise NRootDeficit(
            f"characteristic quartic has {len(lams)} distinct real root(s); need >= 2")
    if len(weights) != len(lams):
        raise WeightCountMismatch(
            f"{len(weights)} weights for {len(lams)} distinct real roots")
    atoms = tuple((lam, _ordinate(lam, p, q, tol)) for lam in lams)
    r = Fraction(-1) / Fraction(p.A) if is_exact(p.A) else -1.0 / p.A
    return CandidateModel(atoms, tuple(weights), r)


def _left_kernel_basis(rows):
    """Basis of {a : a^T M = 0} over the rationals, via RREF of M^T."""
    n = len(rows)
    mt = [[rows[j][i] for j in range(n)] for i in range(len(rows[0]))]
    cols = n
    pivots = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, len(mt)) if mt[i][c] != 0), None)
        if piv is None:
            continue
        mt[r], mt[piv] = mt[piv], mt[r]
        inv = mt[r][c]
        mt[r] = [x / inv for x in mt[r]]
        for i in range(len(mt)):
            if i != r and mt[i][c] != 0:
                fac = mt[i][c]
                mt[i] = [x - fac * y for x, y in zip(mt[i], mt[r])]
        pivots.append(c)
        r += 1
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -mt[i][fc]
        basis.append(tuple(v))
    return basis


def _primitive_integer(v):
    den = math.lcm(*(x.denominator for x in v))
    ints = [int(x * den) for x in v]
    g = math.gcd(*(abs(i) for i in ints))
    if g:
        ints = [i // g for i in ints]
    return tuple(ints)


def _mixed_signs(a) -> bool:
    return any(ai * aj < 0 for ai, aj in itertools.combinations(a, 2))


def _abscissa_star(lams, bound: int) -> StarReport:
    """The star condition of the lattice matrix of three or four ascending
    abscissas, read from its structure: up to a column operation its rows
    are (d_i, d_i^2, 0), zero-padded, with d_i = lambda_i - lambda_1 in the
    abscissas' own arithmetic (float subtraction for floats).  At rank 2 the
    kernel is the line through the cross product g of (d_2, d_3, d_4) and
    their squares (d_4 = 0 for three atoms), and RREF's generator is g's
    primitive form with its last nonzero entry positive: e_3 for three
    distinct positive d_i, and for four, (+, -, +), so the bound decides.
    Float differences that round alike (or to 0) can leave rank <= 1."""
    d = [Fraction(lam - lams[0]) for lam in lams[1:]]
    d += [Fraction(0)] * (3 - len(d))
    g = (d[1] * d[2] * (d[2] - d[1]), d[0] * d[2] * (d[0] - d[2]),
         d[0] * d[1] * (d[1] - d[0]))
    if any(g):
        g = _primitive_integer(g)
        if next(x for x in reversed(g) if x) < 0:
            g = tuple(-x for x in g)
        return _generator_star(g, bound)
    # a plane: a free column f has RREF's basis vector e_f - [d_f != 0] e_p,
    # p the first nonzero column, and the witness is the first two's difference
    p = next((j for j in range(3) if d[j]), None)
    f1, f2 = [j for j in range(3) if j != p][:2]
    w = [0, 0, 0]
    w[f1], w[f2] = 1, -1
    if p is not None:
        w[p] = (d[f2] != 0) - (d[f1] != 0)
    return StarReport(holds=False, witness=tuple(w), method="exact-kernel")


def _generator_star(g, bound: int) -> StarReport:
    """The condition on a one-dimensional kernel with primitive integer
    generator g: only a mixed-sign g within the bound is a witness."""
    if not _mixed_signs(g):
        return StarReport(holds=True, method="exact-kernel")
    if max(abs(x) for x in g) <= bound:
        return StarReport(holds=False, witness=g, method="exact-kernel")
    return StarReport(holds=True, method="bounded-search", bound=bound)


def star_condition(mat: LatticeMatrix, bound: int = 50) -> StarReport:
    """Decide whether the left kernel contains a mixed-sign integer vector.

    Any 3x3 rational matrix, by exact row reduction; the verdict's own
    matrices have a closed-form kernel and do not come here.  Trivial
    kernel: holds.  One-dimensional kernel: the sign pattern of the
    primitive integer generator decides, but a generator with entries beyond
    the bound is treated as no solution within reach (witnesses that large
    arise from float-to-rational conversion of irrational abscissas, where
    the underlying real matrix admits no integer relation at all); the
    method field discloses when the bound was decisive.  Higher dimension:
    always fails, with no bound.  The RREF basis vectors of two free columns
    i != j are e_i and e_j plus entries on pivot columns only, so their
    difference is +1 at i and -1 at j: mixed-sign and exactly in the kernel.
    """
    basis = _left_kernel_basis(mat.rows)
    if not basis:
        return StarReport(holds=True, method="exact-kernel")
    if len(basis) == 1:
        return _generator_star(_primitive_integer(basis[0]), bound)
    g = _primitive_integer([x - y for x, y in zip(basis[0], basis[1])])
    return StarReport(holds=False, witness=g, method="exact-kernel")


def admissibility_verdict(m: CandidateModel, tol: float = 1e-9,
                          bound: int = 50) -> AdmissibilityVerdict:
    """CaseA / CaseB / Rejected per the sign, sum, and exponent clauses.

    Zero-weight atoms are dropped first.  For three or four kept atoms the
    lattice condition of their abscissas is checked as well (it holds for
    three; for four the bound decides); when it fails, the verdict is
    Rejected with an inconclusive flag since the characterization is silent
    in that regime.  tol applies to float weights; exact ones are exact.
    """
    kept = [(a, w) for a, w in zip(m.atoms, m.weights) if w != 0]
    if len(kept) < 2:
        return AdmissibilityVerdict(
            "Rejected", reason="fewer than two atoms with nonzero weight")
    weights = [w for _, w in kept]

    star = None
    if len(kept) in (3, 4):
        star = _abscissa_star([a[0] for a, _ in kept], bound)
        if not star.holds:
            return AdmissibilityVerdict(
                "Rejected", reason="lattice mixed-sign kernel vector exists; "
                "atom masses cannot be identified",
                star=star, inconclusive=True)

    # the weights share a sign s and sum to it; CaseB (s = -1) needs an even N
    t = 0 if all_exact(*weights) else tol
    s = all(w >= -t for w in weights) - all(w <= t for w in weights)
    if not s:
        return AdmissibilityVerdict(
            "Rejected", reason="weights have mixed signs", star=star)
    if abs(sum(weights) - s) > t:
        sign = "nonnegative" if s > 0 else "nonpositive"
        return AdmissibilityVerdict(
            "Rejected", reason=f"{sign} weights do not sum to {s}", star=star)
    n = near_integer(m.r, tol)
    if n is None or n < 1:
        return AdmissibilityVerdict(
            "Rejected", reason="exponent not a positive integer", star=star)
    if s < 0 and n % 2:
        return AdmissibilityVerdict(
            "Rejected", reason="exponent not an even positive integer", star=star)
    return AdmissibilityVerdict("CaseA" if s > 0 else "CaseB", N=n,
                                theta_domain_full=True, star=star)
