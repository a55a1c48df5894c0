"""Finite atomic measures, cumulant calculus, and identity verification.

An accepted model's measure is the N-fold convolution of its atomic
mixture; masses stay exact rationals whenever the inputs are exact.
`check_model` reads both identities off the atoms' conic residuals, floats
as the exact values they hold, and builds no measure.  Off that rule it
realizes one: the diag check runs along theta, so collinear (degenerate)
supports remain checkable, and the regression check walks the pairs.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from dataclasses import InitVar, dataclass
from fractions import Fraction
import numpy as np

from ._num import all_exact, cleared, point_key, power_terms
from .errors import ConfigError, DomainViolation, NotAdmissible
from .model import AdmissibilityVerdict, CandidateModel, _kept_atoms
from .roots import DiagonalVFParams

__all__ = ["FiniteMeasure", "DiagCheckReport", "RegressionReport",
           "realize_measure", "check_model", "cumulant_eval", "diag_variance_check",
           "regression_check", "tilt_member", "MAX_SUPPORT"]

# Most support points a realized measure may have (a certified check builds
# none); its pair walk grows with the square of this, a few seconds at the cap.
MAX_SUPPORT = 1500

# the diag check's theta grid where the certificate does not apply
_THETA_GRID = tuple(itertools.product(np.linspace(-1.0, 1.0, 11), repeat=2))


def _collinear(points) -> bool:
    """True when the points lie on one line.

    Exact points are decided exactly: collinearity is then transitive, so
    the first point that differs from points[0] fixes the line.  Float
    points count as collinear when every cross product of two differences
    d1, d2 from points[0] is within 1e-12 |d1| |d2|, whatever their scale.
    """
    if len(points) <= 2:
        return True
    x0, y0 = points[0]
    if all(all_exact(*pt) for pt in points):
        d = next(((x - x0, y - y0) for x, y in points if (x, y) != (x0, y0)), None)
        return d is None or all((x - x0) * d[1] == (y - y0) * d[0]
                                for x, y in points)
    for (x1, y1), (x2, y2) in itertools.combinations(points[1:], 2):
        u, v = (float(x1 - x0), float(y1 - y0)), (float(x2 - x0), float(y2 - y0))
        if abs(u[0] * v[1] - u[1] * v[0]) > 1e-12 * math.hypot(*u) * math.hypot(*v):
            return False
    return True


@dataclass(frozen=True)
class FiniteMeasure:
    """Finitely supported probability measure in the plane.

    `support` and `masses` are the tuples it is given, every mass positive:
    exact masses sum to 1, float and mixed ones within tol (the verdict's 1e-9).
    """

    support: tuple  # of (x1, x2)
    masses: tuple
    tol: InitVar[float] = 1e-9

    def __post_init__(self, tol):
        if len(self.support) != len(self.masses):
            raise ValueError("support/mass length mismatch")
        if any(not m > 0 for m in self.masses):
            raise ValueError("masses must be positive")
        total = sum(self.masses)
        if (total != 1 if all_exact(*self.masses) else abs(float(total) - 1.0) > tol):
            raise ValueError("masses must sum to 1")

    @property
    def degenerate(self) -> bool:
        """True when the support lies on a single affine line."""
        return _collinear(self.support)

    @property
    def is_exact(self) -> bool:
        return all_exact(*self.masses) and all(all_exact(*x) for x in self.support)


@dataclass(frozen=True)
class DiagCheckReport:
    max_dev: float
    tol: float
    n_points: int
    worst_theta: tuple

    @property
    def passed(self) -> bool:
        return self.max_dev <= self.tol


@dataclass(frozen=True)
class RegressionReport:
    max_dev: float
    tol: float
    exact: bool
    n_groups: int

    @property
    def passed(self) -> bool:
        return self.max_dev <= self.tol


def _float(x, den: int = 1) -> float:
    """float(x / den), correctly rounded, or inf past the float range."""
    try:
        return x / den if den != 1 else float(x)
    except OverflowError:
        return math.inf


def _check_caps(m: CandidateModel, verdict: AdmissibilityVerdict) -> int:
    """verdict.N of an accepted verdict, once (2N max |coordinate|)^2, the
    size the theta grid, the float walk and a float certificate's scale
    square, is within the largest float (else ConfigError, before any work),
    read off the model's cleared form."""
    if not verdict.accepted:
        raise NotAdmissible(f"verdict is {verdict.outcome}: {verdict.reason}")
    N = verdict.N
    D, atoms, _, _ = m._cleared
    wide = 2 * N * _float(max(abs(c) for a in atoms for c in a), D)
    if wide > math.sqrt(sys.float_info.max):
        raise ConfigError(f"the float checks of the N-fold power (N = {N}) "
                          f"overflow: its coordinates pass the float range")
    return N


def realize_measure(m: CandidateModel, verdict: AdmissibilityVerdict) -> FiniteMeasure:
    """N-fold convolution of the atomic mixture with weights |alpha_i|.

    Zero-weight atoms are dropped first, as the verdict drops them.  Before
    any term is built, the caps of `_check_caps` run, and ConfigError is
    raised when mu's support, C(N + n - 1, n - 1) points for n atoms,
    passes MAX_SUPPORT, or a float model's least pair mass (min w)^(2N) in
    the regression walk falls below the least normal float (min w <= 1/n,
    so one that passes keeps every multinomial, at most n^N <= (min w)^-N,
    in range).  The power is summed
    over `power_terms` on the model's cleared form.  An exact measure takes
    its integer points (X, Y) as (X/D, Y/D) and masses W as W/M^N, sorted
    stably by the float key (X/D, Y/D); a float one takes the power's
    points, merged only where they are equal floats, sorted by `point_key`.
    """
    N = _check_caps(m, verdict)
    D, atoms, M, weights = m._cleared
    if math.comb(N + len(atoms) - 1, len(atoms) - 1) > MAX_SUPPORT:
        raise ConfigError(f"the realized measure would have more than "
                          f"{MAX_SUPPORT} support points (the N-fold power "
                          f"of {len(atoms)} atoms)")
    if not m.is_exact and 2 * N * math.log(min(weights)) < math.log(sys.float_info.min):
        raise ConfigError(f"the masses of the float N-fold power (N = {N}) "
                          f"underflow in the regression check")
    power: dict = {}
    for _, coef, pt in power_terms([(N, 1)], weights, (0, 0), atoms):
        power[pt] = power.get(pt, 0) + coef
    if m.is_exact:
        scale = M ** N
        points = sorted(power, key=lambda pt: (pt[0] / D, pt[1] / D))
        return FiniteMeasure(tuple((Fraction(X, D), Fraction(Y, D)) for X, Y in points),
                             tuple(Fraction(power[pt], scale) for pt in points))
    points = sorted(power, key=lambda pt: point_key(pt, False))
    # the verdict holds the weights' sum within 1e-9 of 1, and the masses
    # sum to its N-th power, up to rounding
    return FiniteMeasure(tuple(points), tuple(power[pt] for pt in points),
                         tol=(1 + 1e-9) ** N - 1 + 1e-12)


def check_model(m: CandidateModel, p: DiagonalVFParams, verdict: AdmissibilityVerdict,
                tol: float = 1e-8) -> tuple[DiagCheckReport, RegressionReport]:
    """Diag report at tol and regression report at max(tol, 1e-10) of an
    accepted model, whose measure mu is its N-fold power.

    The caps of `_check_caps` run first.  Where `_conic_certificate`
    applies, no measure is built (nor capped): the diag bound is the
    certificate at s = r, and the regression bound twice that at s = N (the
    same one when r = N), as a pair sum's composition m of 2N deviates by
    sum m_i rho_i(N) - 2 (A + 1/N) E[x_1 y_1 | m] (the second likewise); a
    float one passes at tol times the largest right-hand side, at a chain
    vertex 2N a_i.  Elsewhere mu is realized first, under its caps, then
    the 11 x 11 theta grid and the walk over mu check it.
    """
    N = _check_caps(m, verdict)
    reg_tol = max(tol, 1e-10)
    if (cert := _conic_certificate(m, p, m.r)) is None:
        mu = realize_measure(m, verdict)
        return diag_variance_check(m, p, _THETA_GRID, tol), regression_check(mu, p, reg_tol)
    exact, top = p.is_exact and m.is_exact, 0
    if not exact:
        atoms, weights = _kept_atoms(m)
        # mu is exact when the kept atoms and weights are, whatever r is
        exact = p.is_exact and all_exact(*weights, *(c for a in atoms for c in a))
    if not exact:
        _, a, b, c, d, e, f = map(float, p.as_tuple())
        top = max(abs(2 * N * (u * float(x) + v * float(y)) + 2 * w)
                  for x, y in atoms for u, v, w in ((a, b, e), (c, d, f)))
    bound = 2 * (cert if m.r == N else _conic_certificate(m, p, N))
    return (_certified_diag(m, p, cert, tol),
            RegressionReport(max_dev=_float(bound), tol=reg_tol * max(1, top),
                             exact=exact, n_groups=0))


def _cumulants(m: CandidateModel, T, thetas):
    """zmax and total, with cumulant r (zmax + log total), means and
    covariances at the rows of the float array T, in one batched numpy pass.

    Each row's products have the matmul shapes of a single theta, so a row
    does not depend on the others.  A nonpositive mixture transform raises
    at the first bad row, naming that entry of thetas.
    """
    V = np.array([[float(a[0]), float(a[1])] for a in m.atoms])
    w = np.array([float(x) for x in m.weights])
    if np.all(w >= 0) or np.all(w <= 0):
        w = np.abs(w)
    # exponentially tilted single mixture, per-atom probabilities P
    Z = (V @ T[:, :, None])[:, :, 0]
    zmax = Z.max(axis=1)
    ew = w * np.exp(Z - zmax[:, None])
    total = ew.sum(axis=1)
    bad = ~(total > 0)
    if bad.any():
        theta = thetas[int(np.argmax(bad))]
        raise DomainViolation(f"mixture transform nonpositive at theta={theta}")
    N = float(m.r)
    P = ew / total[:, None]
    PV = P[:, None, :] @ V
    C = V - PV
    cov = N * (np.swapaxes(C, 1, 2) * P[:, None, :]) @ C
    return zmax, total, N * PV[:, 0, :], (cov + np.swapaxes(cov, 1, 2)) / 2


def cumulant_eval(m: CandidateModel, theta):
    """Cumulant value, mean vector, and covariance matrix at theta."""
    T = np.array([[float(theta[0]), float(theta[1])]])
    zmax, total, mean, cov = _cumulants(m, T, [theta])
    return float(m.r) * (zmax[0] + math.log(total[0])), mean[0], cov[0]


def diag_variance_check(m: CandidateModel, p: DiagonalVFParams,
                        theta_grid=None, tol: float = 1e-8) -> DiagCheckReport:
    """Compare both covariance diagonal entries to their quadratic forms.

    Given no theta points, where `_conic_certificate` applies, the check
    returns its bound at s = r, the supremum over all theta at A r = -1,
    and a float one passes at tol * max(1, `_vertex_scale`).
    Named theta points, or else the 11 x 11 grid over [-1, 1]^2, go through
    the one batched pass that `cumulant_eval` runs on a single row; the
    worst theta is the first of the largest deviations, and a nonpositive
    transform raises at the first bad theta.
    """
    if theta_grid is None:
        if (cert := _conic_certificate(m, p, m.r)) is not None:
            return _certified_diag(m, p, cert, tol)
        theta_grid = _THETA_GRID
    A, a, b, c, d, e, f = (float(x) for x in p.as_tuple())
    T = np.array(theta_grid, dtype=float).reshape(len(theta_grid), 2)
    _, _, mean, cov = _cumulants(m, T, theta_grid)
    m1, m2 = mean[:, 0], mean[:, 1]
    d1 = np.abs(cov[:, 0, 0] - (A * m1 * m1 + a * m1 + b * m2 + e))
    d2 = np.abs(cov[:, 1, 1] - (A * m2 * m2 + c * m1 + d * m2 + f))
    # the first largest deviation; a NaN one is the worst, and no theta
    # checked fails too
    dev = np.maximum(d1, d2)
    if not dev.size:
        return DiagCheckReport(max_dev=math.inf, tol=tol, n_points=0,
                               worst_theta=(0.0, 0.0))
    i = int(np.argmax(dev))
    return DiagCheckReport(max_dev=float(dev[i]), tol=tol, n_points=len(theta_grid),
                           worst_theta=(float(T[i, 0]), float(T[i, 1])))


def _certified_diag(m: CandidateModel, p: DiagonalVFParams, cert, tol: float) -> DiagCheckReport:
    return DiagCheckReport(max_dev=_float(cert), tol=tol * max(1, _vertex_scale(m, p)),
                           n_points=0, worst_theta=(0.0, 0.0))


def _vertex_scale(m: CandidateModel, p: DiagonalVFParams) -> float:
    """0 for exact m and p; else the largest size, term by term, of the
    right-hand sides at the chain vertices r (lam_i, nu_i) of the kept
    atoms, where their values vanish on a fitting model (0 past the float
    range)."""
    if m.is_exact and p.is_exact:
        return 0
    A, a, b, c, d, e, f = (abs(float(x)) for x in p.as_tuple())
    top = max(max(A * x * x + a * abs(x) + b * abs(y) + e, A * y * y + c * abs(x) + d * abs(y) + f)
              for x, y in ((float(m.r) * float(u), float(m.r) * float(v))
                           for u, v in _kept_atoms(m)[0]))
    return top if top < math.inf else 0


def _convex_chain(atoms) -> bool:
    """True when the atoms, in ascending lambda, turn the same strict way at
    every consecutive triple, so each is a vertex of their convex hull."""
    turns = [(x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0)
             for (x0, y0), (x1, y1), (x2, y2) in zip(atoms, atoms[1:], atoms[2:])]
    return all(t > 0 for t in turns) or all(t < 0 for t in turns)


def _conic_certificate(m: CandidateModel, p: DiagonalVFParams, s):
    """The exact s (max(|rho_i|, |sigma_i|) + |1 + A s| max(lam_i^2, nu_i^2))
    over the kept atoms, rho_i = lam_i^2 - a lam_i - b nu_i - e/s and
    sigma_i = nu_i^2 - c lam_i - d nu_i - f/s; None unless the kept weights
    share one sign and the kept atoms form a strict convex chain.

    At every theta V_11 - rhs_1 = r sum P_i rho_i(r) - r (1 + A r) (sum P_i lam_i)^2,
    P_i(theta) the tilted atom probabilities (V_22 likewise), so at s = r
    this bounds the diag deviation, and at A r = -1, where each chain
    atom's P_i can be driven to 1, it is the supremum.  Floats count as
    their exact values.  All is cleared to integers: the params Q p, the
    atoms (X, Y) = D (lam_i, nu_i) and s = sn / sd.
    """
    if len({w.as_integer_ratio()[0] > 0 for w in m.weights if w}) != 1:
        return None
    Q, (A, a, b, c, d, e, f) = p._cleared or cleared(map(Fraction, p.as_tuple()))
    if m.is_exact:
        D, atoms, _, _ = m._cleared
    else:
        D, coords = cleared(Fraction(v) for pt in m._cleared[1] for v in pt)
        atoms = tuple(zip(coords[::2], coords[1::2]))
    if not _convex_chain(atoms):
        return None
    sn, sd = s.as_integer_ratio()
    gap = Q * sd + A * sn  # Q sd (1 + A s)
    # (Q D)^2 u rho_i = u (Q X (Q X - a D) - Q b D Y) - v e D^2 with
    # u / v = sn / (Q sd), and likewise sigma_i; at A s = -1, e/s = -e A
    u, v = (sn, Q * sd) if gap else (1, -A)
    top = max(max(abs(u * (Q * X * (Q * X - a * D) - Q * b * D * Y) - v * e * D * D),
                  abs(u * (Q * Y * (Q * Y - d * D) - Q * c * D * X) - v * f * D * D))
              for X, Y in atoms)
    if not gap:
        return Fraction(top * sn, (Q * D) ** 2 * sd)
    big = max(max(X * X, Y * Y) for X, Y in atoms)
    return Fraction(top * sd + abs(gap) * Q * sn * big, (Q * D * sd) ** 2)


def regression_check(mu: FiniteMeasure, p: DiagonalVFParams,
                     tol: float = 1e-10) -> RegressionReport:
    """Conditional-expectation identities for an i.i.d. pair, by a walk over
    mu's ordered pairs.  On exact measure and params a passing check has
    deviation exactly zero, and the walk runs on mu cleared to integers:
    coordinates X / D, masses W / S and A = An / Ad make
    Ad D^2 g_k = Ad (X_k - Y_k)^2 - 2 An X_k Y_k, with
    g_k = (x_k - y_k)^2 - 2 A x_k y_k, and one Fraction per sum point.
    Floats walk with D = S = Ad = 1.  A float check passes at tol times the
    largest right-hand side, when that exceeds 1.
    """
    exact = mu.is_exact and p.is_exact
    if exact:
        A, a, b, c, d, e, f = p.as_tuple()
        D, coords = cleared(v for x in mu.support for v in x)
        pts = list(zip(zip(coords[::2], coords[1::2]), cleared(mu.masses)[1]))
        An, Ad = Fraction(A).numerator, Fraction(A).denominator
        ratio = Fraction
    else:
        A, a, b, c, d, e, f = (float(x) for x in p.as_tuple())
        D = Ad = 1
        An, ratio = A, operator.truediv
        pts = [((float(x[0]), float(x[1])), float(w))
               for x, w in zip(mu.support, mu.masses)]
    groups: dict = {}
    twice_An = 2 * An
    for (x1, x2), wx in pts:
        for (y1, y2), wy in pts:
            s = (x1 + y1, x2 + y2)
            key = point_key(s, exact)
            w = wx * wy
            g1 = Ad * (x1 - y1) ** 2 - twice_An * x1 * y1
            g2 = Ad * (x2 - y2) ** 2 - twice_An * x2 * y2
            den, n1, n2, srep = groups.get(key, (0, 0, 0, s))
            groups[key] = (den + w, n1 + w * g1, n2 + w * g2, srep)
    max_dev = top = 0
    for den, n1, n2, s in groups.values():
        s1, s2, den = ratio(s[0], D), ratio(s[1], D), den * Ad * D * D
        rhs1, rhs2 = a * s1 + b * s2 + 2 * e, c * s1 + d * s2 + 2 * f
        max_dev = max(max_dev, abs(ratio(n1, den) - rhs1), abs(ratio(n2, den) - rhs2))
        if not exact:
            top = max(top, abs(rhs1), abs(rhs2))
    # a float sum carries rounding relative to its size
    return RegressionReport(max_dev=float(max_dev), tol=tol * max(1, top),
                            exact=exact, n_groups=len(groups))


def tilt_member(mu: FiniteMeasure, theta) -> FiniteMeasure:
    """Exponentially tilted member: mass(x) -> mass(x) e^<theta,x> / L(theta).

    ValueError names theta when a tilted mass underflows to 0 (or its
    exponent passes the float range)."""
    if theta[0] == 0 and theta[1] == 0:
        return mu
    t1, t2 = float(theta[0]), float(theta[1])
    logs = [math.log(float(m)) + t1 * float(x[0]) + t2 * float(x[1])
            for x, m in zip(mu.support, mu.masses)]
    top = max(logs)
    raw = [math.exp(v - top) for v in logs]
    if not all(v > 0 for v in raw):
        raise ValueError(f"the masses tilted by theta ({t1}, {t2}) underflow to 0")
    z = sum(raw)
    return FiniteMeasure(mu.support, tuple(v / z for v in raw))
