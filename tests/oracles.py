"""Test-side oracles: independent computations the tests compare diagvf
against, and helpers only the tests use."""

import itertools
import math
from dataclasses import fields
from fractions import Fraction as F

import numpy as np

from diagvf import DiagVFError, Quartic, cumulant_eval, expand_series, make_model
from diagvf._num import widest_gap
from diagvf.measure import _collinear
from diagvf.pipeline import PipelineReport
from diagvf.roots import _ordinate


# an 11 x 11 theta grid over [-1, 1]^2
GRID_121 = [(t1, t2) for t1 in np.linspace(-1.0, 1.0, 11)
            for t2 in np.linspace(-1.0, 1.0, 11)]


class OutOfMeanDomain(DiagVFError):
    """Target mean lies outside the interior of the domain of means."""


class Degenerate(DiagVFError):
    """Operation needs non-collinear support (nonsingular covariance)."""


def report_from_dict(d: dict) -> PipelineReport:
    return PipelineReport(**{f.name: d[f.name] for f in fields(PipelineReport)
                             if f.name in d})


def build_dual_quartic(p) -> Quartic:
    """Monic quartic in the second-coordinate ordinate nu."""
    A, a, b, c, d, e, f = p.as_tuple()
    return Quartic((
        A * A * f * f - a * c * f * A + e * c * c * A,
        -(b * c * c - a * c * d + 2 * d * f * A),
        2 * A * f - a * c + d * d,
        -2 * d,
        1,
    ))


def diag_oracle(m, p, theta_grid):
    """The diag deviation of m from p, cumulant_eval at each theta in turn,
    and the first theta of the largest, a NaN one counting as the largest;
    an empty grid gives an infinite one.  DomainViolation comes from the
    first bad theta."""
    A, a, b, c, d, e, f = (float(x) for x in p.as_tuple())
    best = None
    for theta in theta_grid:
        _, mean, cov = cumulant_eval(m, theta)
        m1, m2 = mean
        d1 = abs(cov[0, 0] - (A * m1 * m1 + a * m1 + b * m2 + e))
        d2 = abs(cov[1, 1] - (A * m2 * m2 + c * m1 + d * m2 + f))
        dev = math.nan if math.isnan(d1) or math.isnan(d2) else float(max(d1, d2))
        if best is None or not math.isnan(best[0]) and (math.isnan(dev)
                                                        or dev > best[0]):
            best = dev, (float(theta[0]), float(theta[1]))
    return best or (math.inf, (0.0, 0.0))


def regression_oracle(mu, p):
    """The regression identities of an i.i.d. pair of mu, walked over every
    ordered pair and grouped by exact sum point, floats as the exact values
    they hold: the exact largest deviation and the number of sum points."""
    A, a, b, c, d, e, f = (F(x) for x in p.as_tuple())
    pts = [((F(x[0]), F(x[1])), F(w)) for x, w in zip(mu.support, mu.masses)]
    groups = {}
    for (x, wx), (y, wy) in itertools.product(pts, repeat=2):
        s = (x[0] + y[0], x[1] + y[1])
        w = wx * wy
        g1 = (x[0] - y[0]) ** 2 - 2 * A * x[0] * y[0]
        g2 = (x[1] - y[1]) ** 2 - 2 * A * x[1] * y[1]
        den, n1, n2 = groups.get(s, (F(0), F(0), F(0)))
        groups[s] = (den + w, n1 + w * g1, n2 + w * g2)
    dev = F(0)
    for s, (den, n1, n2) in groups.items():
        dev = max(dev, abs(n1 / den - (a * s[0] + b * s[1] + 2 * e)),
                  abs(n2 / den - (c * s[0] + d * s[1] + 2 * f)))
    return dev, len(groups)


def fd_hessian(m, theta, h: float = 1e-4):
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


def cluster_linkage(values, tol: float):
    """Single-linkage clustering of complex values, (mean, count) per group:
    each value joins the first group with a member within tol, then groups
    with members within tol merge; roots._cluster without its shortcut."""
    groups = []
    for v in values:
        for g in groups:
            if any(abs(v - w) <= tol for w in g):
                g.append(v)
                break
        else:
            groups.append([v])
    merged = True
    while merged:
        merged = False
        for i, j in itertools.combinations(range(len(groups)), 2):
            if any(abs(u - w) <= tol for u in groups[i] for w in groups[j]):
                groups[i].extend(groups.pop(j))
                merged = True
                break
    return [(sum(g) / len(g), len(g)) for g in groups]


def dual_ordinate(lam, p, tol: float = 1e-8):
    """Ordinate paired with a real abscissa, plus the second-relation residual.

    nu = (lam^2 - a*lam + e*A) / b; residual = nu^2 - c*lam - d*nu + f*A.
    The residual equals q(lam)/b^2 identically, so it vanishes at exact roots.
    """
    nu = _ordinate(lam, p, None, tol)
    return nu, nu * nu - p.c * lam - p.d * nu + p.f * p.A


def laplace(mu, theta) -> float:
    """The Laplace transform of the finite measure mu at theta, in floats."""
    t1, t2 = float(theta[0]), float(theta[1])
    return float(sum(float(m) * math.exp(t1 * float(x[0]) + t2 * float(x[1]))
                     for x, m in zip(mu.support, mu.masses)))


def first_negative_order(a1, a2, r, depth: int = 8):
    """The order k = |x - r x_pivot| of the point x of expand_series' first
    negative coefficient on atoms (0, 0), (1, 1) with weights a1, a2 (so
    x_pivot is the pivot's index), or None; its sign is that of C(r, k),
    whichever atom is the pivot."""
    rep = expand_series(make_model([(0, 0), (1, 1)], [a1, a2], r), depth)
    return rep.first_negative and abs(rep.first_negative[0][0] - r * rep.pivot)


def mean_to_theta(m, target, tol: float = 1e-10, max_iter: int = 100):
    """Invert the mean map of the model m by damped Newton iteration from
    the origin.

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
