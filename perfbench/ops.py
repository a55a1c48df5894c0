"""Running one benchmark op against diagvf and checking what it returned.

An op is one library call behind a CLI subcommand:

    characterize  config JSON text -> parse_config -> run_characterize
                  -> emit_report
    lattice       star_condition(LatticeMatrix(rows), bound)
    expand        expand_series(model, depth)
    scan          magnitude_scan(form, r, grid) on the CLI's 2001-point grid

The library functions are looked up through their modules at call time, so
the tracer's wrappers see these calls.  Checks read the returned objects,
not the report bytes, and use oracles of their own (exact kernel
arithmetic, a cmath re-evaluation).
"""

from __future__ import annotations

import cmath
import traceback
from fractions import Fraction

import numpy as np

from diagvf import model, pipeline, series
from diagvf._num import parse_number
from diagvf.errors import NoDominantAtom

from workloads import SCAN_POINTS, SCAN_T_MAX

# Failure classes.  All but UNEXPECTED are known defects of the program
# (see README.md), which the defect census measures; the timed workloads
# are built to avoid them, and any failed op makes a run incorrect.
PROBE_OVERFLOW = "probe-overflow"
PROBE_MISS = "probe-miss"
LOST_EXACTNESS = "lost-exactness"
UNEXPECTED = "unexpected"


# ordered by |t|, as the CLI does
_GRID = np.linspace(-SCAN_T_MAX, SCAN_T_MAX, SCAN_POINTS)
_GRID = _GRID[np.argsort(np.abs(_GRID), kind="stable")]


def prepare(op):
    """Build the op's library inputs; returns the zero-argument call to time."""
    kind = op["kind"]
    if kind == "characterize":
        text = op["config"]

        def call():
            rep = pipeline.run_characterize(pipeline.parse_config(text))
            return rep, pipeline.emit_report(rep)
        return call
    if kind == "lattice":
        mat = model.LatticeMatrix(tuple(tuple(Fraction(x) for x in row)
                                        for row in op["rows"]))
        bound = op["bound"]
        return lambda: model.star_condition(mat, bound=bound)
    if kind == "expand":
        m = model.make_model([tuple(parse_number(x) for x in a) for a in op["atoms"]],
                             [parse_number(w) for w in op["weights"]],
                             parse_number(op["r"]))
        depth = op["depth"]
        return lambda: series.expand_series(m, depth)
    if kind == "scan":
        f = op["form"]
        form = series.EliminationForm(
            poly=tuple(f.get("poly", ())),
            exp_terms=tuple(tuple(t) for t in f.get("exp_terms", ())),
            linexp=tuple(f["linexp"]) if "linexp" in f else None,
            osc_blocks=tuple(tuple(b) for b in f.get("osc_blocks", ())))
        r = op["r"]
        return lambda: series.magnitude_scan(form, r, _GRID)
    raise ValueError(f"unknown op kind {kind!r}")


def classify_exception(op, exc: BaseException) -> str:
    """Failure class of an op that raised."""
    in_probe = any(fr.name == "_find_probe" and fr.filename.endswith("series.py")
                   for fr in traceback.extract_tb(exc.__traceback__))
    if in_probe and isinstance(exc, OverflowError):
        return PROBE_OVERFLOW
    if in_probe and isinstance(exc, NoDominantAtom) and op["kind"] == "expand":
        # the atoms lie on a parabola, so each is a vertex of their hull
        # and some probe direction dominates the pivot
        return PROBE_MISS
    return UNEXPECTED


def check(op, result):
    """None when the output is right, else (failure class, message)."""
    problem = _CHECKS[op["kind"]](op, result)
    if problem is None:
        return None
    if op["expect"].get("beyond_guard"):
        # exact input the root finder silently solved in floats
        return LOST_EXACTNESS, problem
    return UNEXPECTED, problem


def _check_characterize(op, result):
    rep, text = result
    exp = op["expect"]
    verdict = rep.verdict or {}
    if verdict.get("case") != exp["case"]:
        return f"verdict {verdict.get('case')} ({verdict.get('reason')}), " \
               f"built for {exp['case']}"
    if exp.get("N") is not None and verdict.get("N") != exp["N"]:
        return f"N {verdict.get('N')}, built for {exp['N']}"
    if exp.get("reason") and exp["reason"] not in (verdict.get("reason") or ""):
        return f"reason {verdict.get('reason')!r}, built for {exp['reason']!r}"
    if "status" in exp:
        if rep.status != exp["status"]:
            return f"status {rep.status}, built for {exp['status']}"
        if len(rep.atoms) != exp["atoms"]:
            return f"{len(rep.atoms)} atoms, built for {exp['atoms']}"
        if not rep.diag_check["pass"]:
            return f"diag check failed: {rep.diag_check['max_dev']}"
        if exp["exact"] and not (rep.regression["exact"]
                                 and rep.regression["max_dev"] == 0):
            return f"regression not exact: {rep.regression}"
        if not rep.regression["pass"]:
            return f"regression check failed: {rep.regression}"
    if pipeline.emit_report(rep) != text:
        return "emit_report differs between two calls"
    return None


def _check_lattice(op, rep):
    if rep.holds != op["expect"]["holds"]:
        return f"holds={rep.holds}, built for {op['expect']['holds']}"
    if rep.holds:
        return None
    w = rep.witness
    if (w is None or len(w) != 3 or not all(isinstance(x, int) for x in w)
            or not (any(x > 0 for x in w) and any(x < 0 for x in w))):
        return f"witness {w} is not a mixed-sign integer vector"
    rows = [[Fraction(x) for x in row] for row in op["rows"]]
    if any(sum(w[i] * rows[i][j] for i in range(3)) != 0 for j in range(3)):
        return f"witness {w} is not in the left kernel"
    return None


def _check_expand(op, rep):
    neg = rep.first_negative
    if neg is None:
        return f"no negative coefficient within depth {op['depth']}"
    point, coef = neg
    if not coef < 0 or rep.terms.get(point) != coef:
        return f"first negative {neg} is not a negative term of the series"
    return None


def _f_imag(form, t):
    """f(it) for an elimination form, evaluated here from its definition."""
    z = complex(0.0, t)
    val = sum(c * z ** k for k, c in enumerate(form.get("poly", ())))
    val += sum(a * cmath.exp(lam * z) for a, lam in form.get("exp_terms", ()))
    if "linexp" in form:
        b, g = form["linexp"]
        val += b * z * cmath.exp(g * z)
    for lam, g, a0, a1, b0, b1 in form.get("osc_blocks", ()):
        val += cmath.exp(lam * z) * ((a0 + z * b0) * cmath.cos(g * z)
                                     + (a1 + z * b1) * cmath.sin(g * z))
    return val


def _check_scan(op, witness):
    if not op["expect"]["witness"]:
        return None if witness is None else f"witness {witness} for a mixture"
    if witness is None:
        return "no witness for an eliminated shape"
    try:
        mag = abs(_f_imag(op["form"], float(witness))) ** float(op["r"])
    except OverflowError:
        return None
    if not mag > 1.0:
        return f"|f(it)|^r = {mag} <= 1 at witness t={witness}"
    return None


_CHECKS = {"characterize": _check_characterize, "lattice": _check_lattice,
           "expand": _check_expand, "scan": _check_scan}
