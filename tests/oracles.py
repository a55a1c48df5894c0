"""Test-side oracles: independent computations the tests compare diagvf
against, and helpers only the tests use."""

import itertools
from dataclasses import fields

import numpy as np

from diagvf import Quartic, cumulant_eval
from diagvf.pipeline import PipelineReport


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
