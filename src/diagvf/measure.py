"""Finite atomic measures, cumulant calculus, and identity verification.

An accepted model's measure mu is the N-fold convolution of its atomic
mixture with weights |alpha_i|; masses stay exact rationals whenever the
inputs are exact.  `check_model` reads both identities off the kept atoms'
conic residuals, floats as the exact values they hold, and builds no
measure: the residuals bound the deviations at every theta and every pair
sum for any atoms, and on a strict convex chain at A N = -1 the bound is
the supremum.  `realize_measure` builds mu for the tilted family members.
"""

from __future__ import annotations

import math
import sys
from dataclasses import InitVar, dataclass
from fractions import Fraction
import numpy as np

from ._num import all_exact, cleared, format_number, point_key, power_terms
from .errors import ConfigError, DomainViolation, NotAdmissible
from .model import VERDICT_TOL, AdmissibilityVerdict, CandidateModel, _sign
from .roots import DiagonalVFParams

__all__ = ["FiniteMeasure", "CheckReport", "realize_measure", "check_model",
           "cumulant_eval", "tilt_member", "MAX_SUPPORT"]

# Most support points a realized measure may have (the checks build none)
MAX_SUPPORT = 1500


def _collinear(points) -> bool:
    """True when every point's difference u from points[0] crosses d, the
    first nonzero one, within 0 when all are exact and 1e-12 |u| |d| when
    any is a float.  The callers pass kept atoms: an N-fold power's support
    is collinear exactly when they are."""
    (x0, y0), d = points[0], None
    exact = all(all_exact(*pt) for pt in points)
    for x, y in points:
        u = (x - x0, y - y0) if exact else (float(x - x0), float(y - y0))
        cross = d and u[0] * d[1] - u[1] * d[0]
        if cross and (exact or abs(cross) > 1e-12 * math.hypot(*u) * math.hypot(*d)):
            return False
        d = d or (u if any(u) else None)
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


@dataclass(frozen=True)
class CheckReport:
    """One identity check of `check_model`; exact when mu and p are."""

    max_dev: float
    tol: float
    exact: bool

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
    """verdict.N of an accepted verdict, once (2N max |coordinate|)^2 of the
    kept form, the size a decimal certificate's float scale squares, is
    within the largest float (else ConfigError, before any work)."""
    if not verdict.accepted:
        raise NotAdmissible(f"verdict is {verdict.outcome}: {verdict.reason}")
    N = verdict.N
    _, D, atoms, _, _ = m._cleared
    wide = 2 * N * _float(max(abs(c) for a in atoms for c in a), D)
    if wide > math.sqrt(sys.float_info.max):
        raise ConfigError(f"the float checks of the N-fold power (N = {N}) "
                          f"overflow: its coordinates pass the float range")
    return N


def realize_measure(m: CandidateModel, verdict: AdmissibilityVerdict) -> FiniteMeasure:
    """N-fold convolution of the kept form's atoms with weights |alpha_i|.

    Before any term is built, the caps of `_check_caps` run, and ConfigError
    is raised when mu's support, C(N + n - 1, n - 1) points for n atoms,
    passes MAX_SUPPORT, or a float form's least mass (min w)^N falls below
    the least normal float (min w <= 1/n, so one that passes keeps every
    multinomial, at most n^N <= (min w)^-N, in range, and every partial
    product of a mass is at least the mass).  The power is summed over
    `power_terms`.  An exact measure takes its integer points (X, Y) as
    (X/D, Y/D) and masses W as W/M^N, sorted stably by the float key
    (X/D, Y/D); a float one takes the power's points, merged only where
    they are equal floats, sorted by `point_key`.
    """
    N = _check_caps(m, verdict)
    exact, D, atoms, M, weights = m._cleared
    if math.comb(N + len(atoms) - 1, len(atoms) - 1) > MAX_SUPPORT:
        raise ConfigError(f"the realized measure would have more than "
                          f"{MAX_SUPPORT} support points (the N-fold power "
                          f"of {len(atoms)} atoms)")
    if not exact and N * math.log(min(weights)) < math.log(sys.float_info.min):
        raise ConfigError(f"the masses of the float N-fold power (N = {N}) "
                          f"underflow")
    power: dict = {}
    for _, coef, pt in power_terms([(N, 1)], weights, (0, 0), atoms):
        power[pt] = power.get(pt, 0) + coef
    if exact:
        scale = M ** N
        points = sorted(power, key=lambda pt: (pt[0] / D, pt[1] / D))
        return FiniteMeasure(tuple((Fraction(X, D), Fraction(Y, D)) for X, Y in points),
                             tuple(Fraction(power[pt], scale) for pt in points))
    points = sorted(power, key=lambda pt: point_key(pt, False))
    # the verdict holds the weights' sum within VERDICT_TOL of 1, and the
    # masses sum to its N-th power, up to rounding
    return FiniteMeasure(tuple(points), tuple(power[pt] for pt in points),
                         tol=(1 + VERDICT_TOL) ** N - 1 + 1e-12)


def check_model(m: CandidateModel, p: DiagonalVFParams, verdict: AdmissibilityVerdict,
                tol: float = 1e-8) -> tuple[CheckReport, CheckReport]:
    """Diag report at tol and regression report at max(tol, 1e-10) of an
    accepted model, whose measure mu is the N-fold power of its kept atoms
    with weights |alpha_i|; no measure is built.

    The caps of `_check_caps` run first.  The diag bound is
    `_conic_certificate` at s = r, and the regression bound twice that at
    s = N (the same one when r = N), as a pair sum's composition m of 2N
    deviates by sum m_i rho_i(N) - 2 (A + 1/N) E[x_1 y_1 | m] (the second
    likewise).  Both bound mu's deviations for any atoms, and each is the
    supremum on a strict convex chain at A r = A N = -1, as every pipeline
    model's atoms form.  A float diag bound passes at tol times the largest
    size, term by term, of the right-hand sides at the chain vertices
    r (lam_i, nu_i), where their values vanish on a fitting model (0 past
    the float range), and a float regression bound at tol times the largest
    right-hand side, at a chain vertex 2N a_i.
    """
    N = _check_caps(m, verdict)
    cert = _conic_certificate(m, p, m.r)
    exact, D, atoms, _, _ = m._cleared   # mu is exact when these are, whatever r is
    exact, top, scale = exact and p.is_exact, 0, 0
    if not exact:
        pts = [(_float(x, D), _float(y, D)) for x, y in atoms]
        A, a, b, c, d, e, f = map(float, p.as_tuple())
        top = max(abs(2 * N * (u * x + v * y) + 2 * w)
                  for x, y in pts for u, v, w in ((a, b, e), (c, d, f)))
        scale = max(abs(A) * q * q + abs(u) * abs(x) + abs(v) * abs(y) + abs(w)
                    for x, y in ((float(m.r) * x, float(m.r) * y) for x, y in pts)
                    for q, u, v, w in ((x, a, b, e), (y, c, d, f)))
        scale = scale if scale < math.inf else 0
    bound = 2 * (cert if m.r == N else _conic_certificate(m, p, N))
    return (CheckReport(_float(cert), tol * max(1, scale), exact),
            CheckReport(_float(bound), max(tol, 1e-10) * max(1, top), exact))


def cumulant_eval(m: CandidateModel, theta):
    """Cumulant value, mean vector, and covariance matrix at theta, from the
    exponentially tilted mixture, its weights |alpha_i| when they share one
    sign by the verdict's rule (`model._sign`).  DomainViolation names
    theta where the mixture transform is nonpositive."""
    V = np.array([[float(a[0]), float(a[1])] for a in m.atoms])
    w = np.array([float(x) for x in m.weights])
    if _sign(m.weights):
        w = np.abs(w)
    z = V @ np.array([float(theta[0]), float(theta[1])])
    zmax = z.max()
    ew = w * np.exp(z - zmax)
    total = ew.sum()
    if not total > 0:
        raise DomainViolation(f"mixture transform nonpositive at theta="
                              f"({format_number(theta[0])}, {format_number(theta[1])})")
    N = float(m.r)
    P = ew / total
    PV = P @ V
    C = V - PV
    cov = N * (C.T * P) @ C
    return N * (zmax + math.log(total)), N * PV, (cov + cov.T) / 2


def _conic_certificate(m: CandidateModel, p: DiagonalVFParams, s):
    """The exact s (max(|rho_i|, |sigma_i|) + |1 + A s| max(lam_i^2, nu_i^2))
    over the kept atoms, rho_i = lam_i^2 - a lam_i - b nu_i - e/s and
    sigma_i = nu_i^2 - c lam_i - d nu_i - f/s.

    At every theta V_11 - rhs_1 = r sum P_i rho_i(r) - r (1 + A r) (sum P_i lam_i)^2,
    P_i(theta) the tilted probabilities of the kept atoms under weights
    |alpha_i| (V_22 likewise), so at s = r this bounds mu's diag deviation
    for any atoms.  At A r = -1 the gap term is 0, and each atom of a
    strict convex chain is a hull vertex whose P_i can be driven to 1, so
    there it is the supremum.  Floats count as their exact values.  All is
    cleared to integers: the params Q p, the atoms (X, Y) = D (lam_i, nu_i)
    and s = sn / sd.
    """
    Q, (A, a, b, c, d, e, f) = p._cleared or cleared(map(Fraction, p.as_tuple()))
    exact, D, atoms, _, _ = m._cleared
    if not exact:
        D, coords = cleared(Fraction(v) for pt in atoms for v in pt)
        atoms = tuple(zip(coords[::2], coords[1::2]))
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
