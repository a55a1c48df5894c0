"""Finite atomic measures, cumulant calculus, and identity verification.

An accepted model is realized as the N-fold convolution of the atomic
mixture; masses stay exact rationals whenever the inputs are exact.  All
identity checks are parameterized by theta so that collinear (degenerate)
supports remain checkable without inverting a singular mean map.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from dataclasses import dataclass
from fractions import Fraction
import numpy as np

from ._num import (all_exact, merge_points, near_integer, point_key,
                   power_terms, widest_gap)
from .errors import (ConfigError, Degenerate, DomainViolation, NotAdmissible,
                     OutOfMeanDomain)
from .model import AdmissibilityVerdict, CandidateModel
from .roots import DiagonalVFParams

__all__ = [
    "FiniteMeasure",
    "DiagCheckReport",
    "RegressionReport",
    "realize_measure",
    "cumulant_eval",
    "mean_to_theta",
    "diag_variance_check",
    "regression_check",
    "tilt_member",
    "fd_hessian",
    "MAX_SUPPORT",
]

# Most support points a realized measure may have.  The regression check's
# pair walk, exact or float, visits every ordered pair of them, so its time
# grows with the square of this; at the cap the float walk is still the
# slowest input, a few seconds.
MAX_SUPPORT = 1500


def _collinear(points) -> bool:
    """True when the points lie on one line.

    Exact points are decided exactly: collinearity is then transitive, so
    the first point that differs from points[0] fixes the line.  Float
    points count as collinear when no cross product from points[0] passes
    1e-12.
    """
    if len(points) <= 2:
        return True
    x0, y0 = points[0]
    if all(all_exact(*pt) for pt in points):
        d = next(((x - x0, y - y0) for x, y in points if (x, y) != (x0, y0)), None)
        return d is None or all((x - x0) * d[1] == (y - y0) * d[0]
                                for x, y in points)
    for (x1, y1), (x2, y2) in itertools.combinations(points[1:], 2):
        cross = (x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0)
        if abs(float(cross)) > 1e-12:
            return False
    return True


@dataclass(frozen=True)
class FiniteMeasure:
    """Finitely supported probability measure in the plane."""

    support: tuple   # of (x1, x2)
    masses: tuple    # positive, summing to 1

    def __post_init__(self):
        if len(self.support) != len(self.masses):
            raise ValueError("support/mass length mismatch")
        if any(not m > 0 for m in self.masses):
            raise ValueError("masses must be positive")
        if abs(float(sum(self.masses)) - 1.0) > 1e-12:
            raise ValueError("masses must sum to 1")

    @property
    def degenerate(self) -> bool:
        """True when the support lies on a single affine line."""
        return _collinear(self.support)

    @property
    def is_exact(self) -> bool:
        return (all_exact(*self.masses)
                and all(all_exact(*x) for x in self.support))

    def laplace(self, theta) -> float:
        t1, t2 = float(theta[0]), float(theta[1])
        return float(sum(float(m) * math.exp(t1 * float(x[0]) + t2 * float(x[1]))
                         for x, m in zip(self.support, self.masses)))


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


def _kept_atoms(m: CandidateModel) -> list:
    """(atom, |alpha_i|) for the atoms of nonzero weight, which the verdict
    keeps."""
    return [(a, abs(w)) for a, w in zip(m.atoms, m.weights) if w != 0]


def realize_measure(m: CandidateModel, verdict: AdmissibilityVerdict) -> FiniteMeasure:
    """N-fold convolution of the atomic mixture with weights |alpha_i|.

    Zero-weight atoms are dropped first, as the verdict drops them.  The
    support of the N-fold power of n atoms has C(N + n - 1, n - 1) points;
    past MAX_SUPPORT this raises ConfigError before any term is built.  So
    it does for a float model when the least pair mass (min w)^(2N) of the
    regression walk falls below the least normal float.  The weights sum to
    1, so min w <= 1/n, and every multinomial coefficient of the power is
    at most n^N <= (min w)^-N: a model that passes cannot overflow them.
    Any model, exact too, stops when (2N max |coordinate|)^2 passes the
    largest float: the diag check, always in floats, and the float
    regression walk square sums of that size.  An exact power is built on
    integers over common denominators D and M, with Fractions once per point.
    """
    if not verdict.accepted:
        raise NotAdmissible(f"verdict is {verdict.outcome}: {verdict.reason}")
    N = verdict.N
    kept = _kept_atoms(m)
    if math.comb(N + len(kept) - 1, len(kept) - 1) > MAX_SUPPORT:
        raise ConfigError(f"the realized measure would have more than "
                          f"{MAX_SUPPORT} support points (the N-fold power "
                          f"of {len(kept)} atoms)")
    exact = m.is_exact
    if not exact and (2 * N * math.log(min(w for _, w in kept))
                      < math.log(sys.float_info.min)):
        raise ConfigError(f"the masses of the float N-fold power (N = {N}) "
                          f"underflow in the regression check")
    try:
        wide = (2 * N * max(abs(float(c)) for a, _ in kept for c in a)
                > math.sqrt(sys.float_info.max))
    except OverflowError:  # float() of a huge exact coordinate
        wide = True
    if wide:
        raise ConfigError(f"the float checks of the N-fold power (N = {N}) "
                          f"overflow: its coordinates pass the float range")
    atoms, weights = [a for a, _ in kept], [w for _, w in kept]
    if exact:
        # points D x and masses M^N mass, merged and sorted as merge_points does
        D = _common_denominator(c for a in atoms for c in a)
        M = _common_denominator(weights)
        power: dict = {}
        for _, coef, pt in power_terms([(N, 1)], [int(w * M) for w in weights], (0, 0),
                                       [(int(x * D), int(y * D)) for x, y in atoms]):
            power[pt] = power.get(pt, 0) + coef
        scale = M ** N
        merged = sorted((((Fraction(X, D), Fraction(Y, D)), Fraction(coef, scale))
                         for (X, Y), coef in power.items()),
                        key=lambda pm: (float(pm[0][0]), float(pm[0][1])))
    else:
        terms = power_terms([(N, 1.0)], weights, (0, 0), atoms)
        merged = [e[:2] for e in merge_points((t for t in terms if t[1] != 0), False)]
    return FiniteMeasure(tuple(pt for pt, _ in merged),
                         tuple(mass for _, mass in merged))


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


def mean_to_theta(m: CandidateModel, target, tol: float = 1e-10,
                  max_iter: int = 100):
    """Invert the mean map by damped Newton iteration from the origin.

    target/N is interior to the atoms' convex hull exactly when the vectors
    from it to the atoms leave no angular gap of pi or more; vectors of
    length at most 1e-9 (an atom at the target) and gaps within 1e-9 of pi
    (a target on an edge) count as on the boundary.
    """
    if _collinear(m.atoms):
        raise Degenerate("atoms are collinear; mean map is singular")
    N = float(m.r)
    t0, t1 = float(target[0]) / N, float(target[1]) / N
    diffs = [(float(a[0]) - t0, float(a[1]) - t1) for a in m.atoms]
    gap, _ = widest_gap([d for d in diffs if math.hypot(*d) > 1e-9])
    if gap >= math.pi - 1e-9:
        raise OutOfMeanDomain(
            f"target {tuple(target)} not interior to the domain of means")

    theta = np.zeros(2)
    goal = np.asarray([float(target[0]), float(target[1])])
    _, mean, _ = cumulant_eval(m, theta)
    res = np.linalg.norm(mean - goal)
    for _ in range(max_iter):
        if res <= tol:
            return tuple(theta)
        _, mean, cov = cumulant_eval(m, theta)
        try:
            step = np.linalg.solve(cov, goal - mean)
        except np.linalg.LinAlgError:
            raise Degenerate("singular covariance during Newton iteration")
        s = 1.0
        for _ in range(60):
            cand = theta + s * step
            _, mc, _ = cumulant_eval(m, cand)
            rc = np.linalg.norm(mc - goal)
            if rc < res:
                theta, res = cand, rc
                break
            s /= 2
        else:
            break
    if res <= tol:
        return tuple(theta)
    raise OutOfMeanDomain(
        f"Newton iteration stalled at residual {res:.3e} for target {tuple(target)}")


def diag_variance_check(m: CandidateModel, p: DiagonalVFParams,
                        theta_grid=None, tol: float = 1e-8) -> DiagCheckReport:
    """Compare both covariance diagonal entries to their quadratic forms.

    Evaluated along the theta-parametrized mean curve, so no mean-map
    inversion is needed and collinear supports are checkable too.  All
    theta points go through the one batched pass that `cumulant_eval` runs
    on a single row; the worst theta is the first of the largest
    deviations, and a nonpositive transform raises at the first bad theta.
    """
    if theta_grid is None:
        axis = np.linspace(-1.0, 1.0, 11)
        theta_grid = [(t1, t2) for t1 in axis for t2 in axis]
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


def _common_denominator(values) -> int:
    """Least common denominator of exact values."""
    return math.lcm(*(Fraction(v).denominator for v in values))


def _rhs_integers(p: DiagonalVFParams):
    """The right-hand sides a s1 + b s2 + 2e and c s1 + d s2 + 2f as
    integers (u, v, z) over one denominator Q each."""
    rhs = []
    for u, v, z in ((p.a, p.b, 2 * p.e), (p.c, p.d, 2 * p.f)):
        Q = _common_denominator((u, v, z))
        rhs.append((int(u * Q), int(v * Q), int(z * Q), Q))
    return rhs


def _power_regression(mu: FiniteMeasure, p: DiagonalVFParams,
                      model: CandidateModel):
    """Exact maximum deviation and group count when mu is the N-fold power
    of the model's mixture, from the law of one summand given the sum; else
    None.

    It applies to an exact model with 2 or 3 atoms of nonzero weight, not
    collinear, and an integer exponent N = r.  Every support point and mass
    of mu is first read against the multinomial closed form of that power
    with weights |alpha_i|; any mismatch gives None.  Then distinct
    multi-indices give distinct points, so the sum points of an i.i.d. pair
    are the compositions m of 2N, and given the sum, the multi-index of one
    summand is multivariate hypergeometric whatever the weights are.  So
    with the atoms scaled to integers V = D * atoms, S_k = sum m_i V_ik and
    Q_k = sum m_i V_ik^2,
        E[g_k | m] = (2+A)((N-1) S_k^2 + N Q_k) / ((2N-1) D^2)
                     - (1+A) S_k^2 / D^2,
    and each composition gives one integer numerator of the deviation over
    a denominator that is the same for all of them.
    """
    N = near_integer(model.r)
    kept = _kept_atoms(model)
    atoms = [a for a, _ in kept]
    if (not model.is_exact or N is None or N < 1 or len(kept) not in (2, 3)
            or (len(kept) == 3 and _collinear(atoms))):
        return None
    D = _common_denominator(c for a in atoms for c in a)
    V = [(int(x * D), int(y * D)) for x, y in atoms]
    M = _common_denominator(w for _, w in kept)
    # integer point -> integer mass over M^N
    power = {pt: coef for _, coef, pt in
             power_terms([(N, 1)], [int(w * M) for _, w in kept], (0, 0), V)}
    if len(mu.support) != len(power):
        return None
    scale = M ** N
    for (x, y), w in zip(mu.support, mu.masses):
        X, rx = divmod(x.numerator * D, x.denominator)
        Y, ry = divmod(y.numerator * D, y.denominator)
        coef = power.pop((X, Y), None)
        if rx or ry or coef is None or w.numerator * scale != coef * w.denominator:
            return None

    A = Fraction(p.A)
    An, Ad = A.numerator, A.denominator
    # num_k = c2 S_k^2 + cq Q_k - (lu S_1 + lv S_2) - c0 over
    # den_k = Ad (2N-1) D^2 Q
    forms, dens = [], []
    for u, v, z, Q in _rhs_integers(p):
        cl = D * Ad * (2 * N - 1)
        forms.append((Q * ((2 * Ad + An) * (N - 1) - (Ad + An) * (2 * N - 1)),
                      Q * (2 * Ad + An) * N, cl * u, cl * v, cl * z * D))
        dens.append(cl * D * Q)
    # m = (2N - i - j, i, j) moves S_k and Q_k from atom 0 by i and j steps
    # of (V_1k - V_0k, V_1k^2 - V_0k^2) and (V_2k - V_0k, V_2k^2 - V_0k^2);
    # two atoms get a zero second step and j = 0 only
    x0, y0 = V[0]
    e1, e2 = ([(x - x0, y - y0, x * x - x0 * x0, y * y - y0 * y0)
               for x, y in V[1:]] + [(0, 0, 0, 0)])[:2]
    top = [0, 0]
    for i in range(2 * N + 1):
        S = (2 * N * x0 + i * e1[0], 2 * N * y0 + i * e1[1])
        for k, (c2, cq, lu, lv, c0) in enumerate(forms):
            Qk = 2 * N * V[0][k] ** 2 + i * e1[2 + k]
            val = c2 * S[k] * S[k] + cq * Qk - lu * S[0] - lv * S[1] - c0
            # along j, num_k is quadratic: step by its first and second
            # differences
            b = e2[k]
            d = c2 * (2 * S[k] * b + b * b) + cq * e2[2 + k] - lu * e2[0] - lv * e2[1]
            dd = 2 * c2 * b * b
            hi = lo = val
            for _ in range(2 * N - i if len(V) == 3 else 0):
                val += d
                d += dd
                if val > hi:
                    hi = val
                elif val < lo:
                    lo = val
            top[k] = max(top[k], hi, -lo)
    n_groups = math.comb(2 * N + len(V) - 1, len(V) - 1)
    return max(Fraction(t, den) for t, den in zip(top, dens)), n_groups


def regression_check(mu: FiniteMeasure, p: DiagonalVFParams,
                     tol: float = 1e-10,
                     model: CandidateModel | None = None) -> RegressionReport:
    """Conditional-expectation identities for an i.i.d. pair, by enumeration.

    Exact rational arithmetic whenever the measure and parameters are exact,
    in which case a passing check has deviation exactly zero.  Given the
    model whose N-fold power mu is meant to be, an exact check that reads mu
    as that power takes the closed form of `_power_regression`; every other
    measure gets the walk over its ordered pairs.  The exact walk runs on
    integers: coordinates X / D, masses W / M and A = An / Ad make
    Ad D^2 g_k = Ad (X_k - Y_k)^2 - 2 An X_k Y_k, with
    g_k = (x_k - y_k)^2 - 2 A x_k y_k, and Fractions are formed once per sum
    point.  Floats take the same walk with D = M = Ad = 1, and pass at tol
    times the largest right-hand side, when that exceeds 1.
    """
    exact = mu.is_exact and p.is_exact
    found = exact and model is not None and _power_regression(mu, p, model)
    if found:
        return RegressionReport(max_dev=float(found[0]), tol=tol, exact=True,
                                n_groups=found[1])
    if exact:
        A, a, b, c, d, e, f = p.as_tuple()
        D = _common_denominator(v for x in mu.support for v in x)
        M = _common_denominator(mu.masses)
        An, Ad = Fraction(A).numerator, Fraction(A).denominator
        num, ratio = int, Fraction
    else:
        A, a, b, c, d, e, f = (float(x) for x in p.as_tuple())
        D = M = Ad = 1
        An, num, ratio = A, float, operator.truediv
    pts = [((num(x[0] * D), num(x[1] * D)), num(w * M))
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
    """Exponentially tilted member: mass(x) -> mass(x) e^<theta,x> / L(theta)."""
    if theta[0] == 0 and theta[1] == 0:
        return mu
    t1, t2 = float(theta[0]), float(theta[1])
    logs = [math.log(float(m)) + t1 * float(x[0]) + t2 * float(x[1])
            for x, m in zip(mu.support, mu.masses)]
    top = max(logs)
    raw = [math.exp(v - top) for v in logs]
    z = sum(raw)
    return FiniteMeasure(mu.support, tuple(v / z for v in raw))


def fd_hessian(m: CandidateModel, theta, h: float = 1e-4):
    """Central-difference Hessian of the cumulant; independent covariance oracle."""
    if not h > 0:
        raise ValueError("h must be positive")

    def k(t1, t2):
        val, _, _ = cumulant_eval(m, (t1, t2))
        return val

    t1, t2 = float(theta[0]), float(theta[1])
    k0 = k(t1, t2)
    h11 = (k(t1 + h, t2) - 2 * k0 + k(t1 - h, t2)) / h ** 2
    h22 = (k(t1, t2 + h) - 2 * k0 + k(t1, t2 - h)) / h ** 2
    h12 = (k(t1 + h, t2 + h) + k(t1 - h, t2 - h)
           - k(t1 + h, t2 - h) - k(t1 - h, t2 + h)) / (4 * h ** 2)
    return np.array([[h11, h12], [h12, h22]])
