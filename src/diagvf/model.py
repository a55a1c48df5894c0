"""Candidate transform assembly, lattice kernel analysis, and the verdict.

The mixture-power transform built from the quartic's distinct real roots is
a Laplace transform of a probability measure exactly when the weights are
uniformly signed with unit total and the exponent is a (CaseA) positive or
(CaseB) even positive integer.  For three or four atoms the argument goes
through an exponent lattice whose left kernel must contain no mixed-sign
integer vector.  Both the verdict, on the abscissas, and `star_condition`,
on any 3x3 rational matrix, read that kernel in closed form from the
matrix's columns cleared to integers: no row reduction is done.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional

from ._num import all_exact, cleared, is_exact, near_integer, primitive
from .errors import NRootDeficit, WeightCountMismatch
from .roots import DiagonalVFParams, RootSet, _ordinate, solve_quartic

__all__ = ["CandidateModel", "LatticeMatrix", "StarReport",
           "AdmissibilityVerdict", "make_model", "candidate_model",
           "star_condition", "admissibility_verdict"]


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
        """(exact, D, [(X, Y)], M, [W]), in tuples: the kept form that the
        verdict, the measure, its checks and degeneracy read, of the atoms
        of nonzero weight and their signed weights alpha_i.  When those (not
        the dropped atoms, nor r) are all exact, (X, Y) = D (lambda_i, nu_i)
        and W = M alpha_i are ints over the common denominators D and M;
        otherwise they are held as they are, with D = M = 1."""
        atoms, weights = self.atoms, self.weights
        if 0 in weights:
            atoms = tuple(a for a, w in zip(atoms, weights) if w != 0)
            weights = tuple(w for w in weights if w != 0)
        if not (all_exact(*weights) and all(all_exact(*a) for a in atoms)):
            return False, 1, atoms, 1, weights
        D, coords = cleared(c for a in atoms for c in a)
        return (True, D, tuple(zip(coords[::2], coords[1::2])), *cleared(weights))


def make_model(atoms, weights, r) -> CandidateModel:
    """Build a model, sorting atom/weight pairs by abscissa, exactly: ints,
    Fractions and floats compare by the values they hold."""
    pairs = sorted(zip(atoms, weights), key=lambda aw: aw[0][0])
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
    if roots is None:
        roots = solve_quartic(p.quartic, tol)
    lams = roots.real_roots
    if len(lams) < 2:
        raise NRootDeficit(
            f"characteristic quartic has {len(lams)} distinct real root(s); need >= 2")
    if len(weights) != len(lams):
        raise WeightCountMismatch(
            f"{len(weights)} weights for {len(lams)} distinct real roots")
    atoms = tuple((lam, _ordinate(lam, p, roots.rest, tol)) for lam in lams)
    return CandidateModel(atoms, tuple(weights), _exponent(p))


def _exponent(p: DiagonalVFParams):
    """The exponent r = -1/A of p's models, a Fraction when A is exact."""
    return Fraction(-p.A.denominator, p.A.numerator) if is_exact(p.A) else -1.0 / p.A


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def _abscissa_star(lams, bound: int) -> StarReport:
    """The star condition of the lattice matrix of three or four ascending
    abscissas, read from its structure: up to a column operation its rows
    are (d_i, d_i^2, 0), zero-padded, with d_i = lambda_i - lambda_1, exact
    when any abscissa is exact, else by float subtraction.  At rank 2 the
    kernel is the line through the cross product g of (d_2, d_3, d_4) and
    their squares (d_4 = 0 for three atoms): e_3 for three distinct
    positive d_i, and for four, (+, -, +), so the bound decides.  Int
    differences are taken as they are; others are cleared to ints, each
    read as its exact Fraction (which scales the columns and keeps the
    generator).  A float beside an exact abscissa counts as its exact
    value; float differences that round alike can leave rank <= 1."""
    if not all(type(x) is int for x in lams) and any(map(is_exact, lams)):
        lams = cleared(map(Fraction, lams))[1]
    d = [lam - lams[0] for lam in lams[1:]] + [0] * (4 - len(lams))
    if not all(type(x) is int for x in d):
        d = cleared(map(Fraction, d))[1]
    return _kernel_star((d, tuple(x * x for x in d), (0, 0, 0)), bound)


def _kernel_star(cols, bound: int) -> StarReport:
    """The star condition of the 3x3 int matrix with columns cols, from its
    left kernel {a : a . c = 0 for every column c} in closed form.

    Rank 3, c_0 . (c_1 x c_2) != 0: the kernel is trivial and the condition
    holds.  Rank 2: the kernel is the line through the cross product of two
    independent columns, and RREF's generator is its primitive form with
    its last nonzero entry positive (the free column's entry 1, past every
    pivot); `_generator_star` decides.  Rank 1 or 0: two free columns
    f_1 < f_2 have RREF's basis vectors e_f - l_f e_p, p the first nonzero
    row and row f = l_f row p (l_f = 0 at rank 0, with no p), and their
    difference, the witness, is mixed-sign.
    """
    c0, c1, c2 = cols
    g = _cross(c0, c1)
    if any(g):
        if g[0] * c2[0] + g[1] * c2[1] + g[2] * c2[2]:
            return StarReport(holds=True, method="exact-kernel")
    else:
        g = _cross(c0 if any(c0) else c1, c2)
    if any(g):
        return _generator_star(primitive(g, max(i for i in range(3) if g[i])), bound)
    rows = list(zip(c0, c1, c2))
    p = next((i for i in range(3) if any(rows[i])), None)
    f1, f2 = [i for i in range(3) if i != p][:2]
    w = [0, 0, 0]
    w[f1], w[f2] = 1, -1
    if p is not None:
        k = next(k for k in range(3) if rows[p][k])
        w = [rows[p][k] * x for x in w]
        w[p] = rows[f2][k] - rows[f1][k]
    return StarReport(holds=False, witness=primitive(w, f1), method="exact-kernel")


def _generator_star(g, bound: int) -> StarReport:
    """The condition on a one-dimensional kernel with primitive integer
    generator g: only a mixed-sign g within the bound is a witness."""
    if not min(g) < 0 < max(g):
        return StarReport(holds=True, method="exact-kernel")
    if max(abs(x) for x in g) <= bound:
        return StarReport(holds=False, witness=g, method="exact-kernel")
    return StarReport(holds=True, method="bounded-search", bound=bound)


def star_condition(mat: LatticeMatrix, bound: int = 50) -> StarReport:
    """Decide whether the left kernel contains a mixed-sign integer vector.

    Any 3x3 rational matrix, in closed form with no row reduction: its
    columns, each cleared to ints (which changes no integer solution), go
    to `_kernel_star`, as the verdict's abscissas do.  Trivial kernel:
    holds.  One-dimensional kernel: the sign pattern of the primitive
    integer generator decides, but a generator with entries beyond the
    bound is treated as no solution within reach (witnesses that large
    arise from float-to-rational conversion of irrational abscissas, where
    the underlying real matrix admits no integer relation at all); the
    method field discloses when the bound was decisive.  Higher dimension:
    always fails, with no bound, on the witness RREF would give.
    """
    return _kernel_star([cleared(col)[1] for col in zip(*mat.rows)], bound)


# how far float weights may pass their sign, sum and integer exponent
VERDICT_TOL = 1e-9


def admissibility_verdict(m: CandidateModel, bound: int = 50) -> AdmissibilityVerdict:
    """CaseA / CaseB / Rejected per the sign, sum, and exponent clauses, by
    `_verdict` on the kept form's abscissas (an exact form's ints D lambda_i
    keep the lattice generator), its weights over M and m.r."""
    _, _, atoms, M, weights = m._cleared
    return _verdict([a[0] for a in atoms], weights, m.r, bound, M)


def _sign(weights) -> int:
    """1 or -1 when the nonzero weights share that sign, else 0: exact ones
    are judged exactly, and when any is a float, each within VERDICT_TOL."""
    ws = [w for w in weights if w != 0]
    t = 0 if all_exact(*ws) else VERDICT_TOL
    return all(w >= -t for w in ws) - all(w <= t for w in ws)


def _verdict(lams, weights, r, bound: int, M: int = 1) -> AdmissibilityVerdict:
    """The verdict on ascending abscissas lams with nonzero weights w / M
    (exact ones as ints over their common denominator M) and exponent r.

    For three or four atoms the lattice condition of the abscissas is
    checked first (it holds for three; for four the bound decides); when it
    fails, the verdict is Rejected with an inconclusive flag since the
    characterization is silent in that regime.  Then the weights must share
    a sign s and sum to it, and r must be a positive integer N, even when
    s = -1.  Exact weights and exponents are read exactly, floats within
    VERDICT_TOL: the sign by `_sign` and the exponent by `near_integer`,
    the rules `expand_series` and `cumulant_eval` read a model by too.
    """
    if len(weights) < 2:
        return AdmissibilityVerdict(
            "Rejected", reason="fewer than two atoms with nonzero weight")

    star = None
    if len(lams) in (3, 4):
        star = _abscissa_star(lams, bound)
        if not star.holds:
            return AdmissibilityVerdict(
                "Rejected", reason="lattice mixed-sign kernel vector exists; "
                "atom masses cannot be identified",
                star=star, inconclusive=True)

    s = _sign(weights)
    if not s:
        return AdmissibilityVerdict(
            "Rejected", reason="weights have mixed signs", star=star)
    if abs(sum(weights) - s * M) > (0 if all_exact(*weights) else VERDICT_TOL):
        sign = "nonnegative" if s > 0 else "nonpositive"
        return AdmissibilityVerdict(
            "Rejected", reason=f"{sign} weights do not sum to {s}", star=star)
    n = near_integer(r, VERDICT_TOL)
    if n is None or n < 1:
        return AdmissibilityVerdict(
            "Rejected", reason="exponent not a positive integer", star=star)
    if s < 0 and n % 2:
        return AdmissibilityVerdict(
            "Rejected", reason="exponent not an even positive integer", star=star)
    return AdmissibilityVerdict("CaseA" if s > 0 else "CaseB", N=n, star=star)
