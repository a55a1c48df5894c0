"""Full characterization pipeline and its machine-readable report.

Config documents are JSON objects; every numeric field accepts a decimal
number or an exact rational string "p/q".  Rational inputs are echoed back
bit-exactly in reports so exact-arithmetic paths survive round trips.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_str
from typing import Optional

from ._num import format_number, parse_number
from .errors import ConfigError, NRootDeficit, WeightCountMismatch
from .model import (CandidateModel, _exponent, _verdict, admissibility_verdict,
                    candidate_model)
from .measure import _collinear, check_model
from .roots import (DiagonalVFParams, Quartic, classify_root_pattern,
                    solve_quartic)

__all__ = ["PipelineReport", "parse_params", "parse_config", "run_characterize",
           "report_to_dict", "emit_report"]

PARAM_KEYS = ("A", "a", "b", "c", "d", "e", "f")
# the top-level config keys that some subcommand reads
CONFIG_KEYS = frozenset({"params", "weights", "weight_search", "quartic", "atoms", "r",
                         "theta", "matrix", "poly", "exp_terms", "linexp", "osc_blocks"})


@dataclass
class PipelineReport:
    params: Optional[dict]
    quartic: list
    roots: list                  # of {re, im, mult}
    pattern: str
    n_r: int
    atoms: list = field(default_factory=list)     # of {lambda, nu}
    weights: list = field(default_factory=list)
    r: object = None
    verdict: Optional[dict] = None                # {case, N, reason}
    star: Optional[dict] = None                   # {holds, witness, method}
    diag_check: Optional[dict] = None             # {max_dev, pass}
    regression: Optional[dict] = None             # {max_dev, pass}
    series: Optional[dict] = None                 # {depth, first_negative}
    status: str = "Rejected"
    degenerate: bool = False


def _built(build, *values):
    """build(*values), with a value it refuses reported as an input error."""
    try:
        return build(*values)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _number(v):
    return _built(parse_number, v)


def _items(v, n=None, item=_number):
    """The entries of a config list (or of a tuple, as a parsed config holds
    them), n of them when n is given, each read by item: by default, as a
    number."""
    if not isinstance(v, (list, tuple)) or n is not None and len(v) != n:
        raise ConfigError(f"expected a list of {n or 'any number of'} entries, "
                          f"got {json.dumps(v, default=str)}")
    return tuple(item(x) for x in v)


def parse_params(obj) -> DiagonalVFParams:
    if isinstance(obj, DiagonalVFParams):
        return obj
    if not isinstance(obj, dict):
        raise ConfigError(f"params must be an object, got {type(obj).__name__}")
    try:
        vals = [obj[k] for k in PARAM_KEYS]
    except KeyError as exc:
        raise ConfigError(f"missing parameter field {exc}") from exc
    return _built(DiagonalVFParams, *map(_number, vals))


class _Config(dict):
    """A parse_config result, which run_characterize takes as it is: it refuses edits."""
    def _edit(self, *args, **kwargs):
        raise ConfigError("a parsed config cannot be edited: edit the document and parse it again")
    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _edit
    def __reduce__(self):  # copy and pickle without __setitem__
        return _Config, (dict(self),)


def parse_config(doc):
    """Parse a config document (dict or JSON text)."""
    if isinstance(doc, str):
        try:
            doc = json.loads(doc)
        except ValueError as exc:  # a JSONDecodeError, or an int past 4300 digits
            raise ConfigError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    # a misspelt key would otherwise drop out unseen
    unread = sorted(map(str, set(doc) - CONFIG_KEYS))
    if unread:
        raise ConfigError(f"config does not read {', '.join(unread)}")
    out = dict(doc)
    if "params" in doc:
        out["params"] = parse_params(doc["params"])
    if "weights" in doc:
        out["weights"] = _items(doc["weights"])
    if "params" in doc and "quartic" in doc:
        raise ConfigError("config takes 'params' or a diagnostic 'quartic', not both")
    if "quartic" in doc and not isinstance(doc["quartic"], Quartic):
        out["quartic"] = _built(Quartic, _items(doc["quartic"], 5))
    if "weight_search" in doc:
        ws = doc["weight_search"]
        if not isinstance(ws, dict):
            raise ConfigError("weight_search must be an object, "
                              f"got {type(ws).__name__}")
        unread = sorted(map(str, set(ws) - {"denominator"}))
        if unread:
            raise ConfigError(f"weight_search does not read {', '.join(unread)}")
        den = ws.get("denominator", 4)
        if isinstance(den, bool) or not isinstance(den, int) or den < 1:
            raise ConfigError("weight_search denominator must be an integer "
                              f">= 1, got {den!r}")
        out["weight_search"] = _Config(ws, denominator=den)
    return _Config(out)


def _roots_json(q, rs) -> dict:
    """The roots stage as `characterize` and `roots` print it."""
    roots = [{"re": float(v.real), "im": float(v.imag), "mult": mlt}
             if isinstance(v, complex) else {"re": format_number(v), "im": 0, "mult": mlt}
             for v, mlt in rs.entries]
    return {"quartic": [format_number(c) for c in q.coeffs], "roots": roots,
            "pattern": classify_root_pattern(rs).value, "n_r": rs.n_r}


def _star_json(star) -> dict:
    """A star condition report as `characterize` and `lattice` print it."""
    return {"holds": star.holds, "witness": list(star.witness) if star.witness else None,
            "method": star.method}


def _degenerate(m: CandidateModel, from_atoms: bool = False) -> bool:
    """Whether an accepted model's mu is collinear: of explicit atoms, when
    its kept atoms are; of params (on a parabola in nu), when it keeps two."""
    return _collinear(m._cleared[2]) if from_atoms else len(m._cleared[2]) == 2


def run_characterize(config, tol: float = 1e-8, bound: int = 50) -> PipelineReport:
    """Run the whole pipeline: quartic -> roots -> model -> verdict -> checks,
    both checks by `check_model`; a `parse_config` result is not parsed again.

    A `weight_search` with denominator D and no `weights` picks the first
    point (1, ..., 1, D - n_r + 1) / D of the weight simplex's 1/D grid.
    Every grid point has positive weights with exact sum 1, so only the
    lattice clause on the abscissas and the exponent clause on r can reject,
    and all points share the verdict of the first.  `_verdict` gives it from
    the roots' abscissas and r before any model is built; a grid with no
    point (D < n_r) or a rejected point ends the run, and an accepted point
    runs as explicit weights."""
    cfg = config if type(config) is _Config else parse_config(config)
    p = cfg.get("params")
    if p is None and "quartic" not in cfg:
        raise ConfigError("config needs 'params' (or a diagnostic 'quartic')")
    q = cfg.get("quartic") or p.quartic
    rs = solve_quartic(q, tol)
    report = PipelineReport(
        params={k: format_number(v) for k, v in
                zip(PARAM_KEYS, p.as_tuple())} if p else None,
        **_roots_json(q, rs),
    )

    def rejected(reason, case="Rejected"):
        report.verdict = {"case": case, "N": None, "reason": reason}
        report.status = case
        return report

    if rs.n_r < 2:
        return rejected("NRootDeficit: fewer than two distinct real roots")
    if p is None:
        return rejected("diagnostic quartic mode: no parameters, no ordinates "
                        "can be derived", "Inconclusive")

    weights = cfg.get("weights")
    if weights is None and "weight_search" in cfg:
        den = cfg["weight_search"]["denominator"]
        grid = (1,) * (rs.n_r - 1) + (den - rs.n_r + 1,)
        if den < rs.n_r or not _verdict(rs.real_roots, grid, _exponent(p), bound, den).accepted:
            return rejected(f"no admissible weights on the 1/{den} grid")
        weights = tuple(Fraction(w, den) for w in grid)
    if weights is None:
        raise ConfigError("config needs 'weights' or 'weight_search'")
    try:
        m = candidate_model(p, weights, tol, roots=rs)
    except (NRootDeficit, WeightCountMismatch) as exc:
        return rejected(f"{type(exc).__name__}: {exc}")
    verdict = admissibility_verdict(m, bound=bound)

    report.atoms = [{"lambda": format_number(a[0]), "nu": format_number(a[1])}
                    for a in m.atoms]
    report.weights = [format_number(w) for w in m.weights]
    report.r = format_number(m.r)
    report.verdict = {"case": verdict.outcome, "N": verdict.N,
                      "reason": verdict.reason}
    if verdict.star is not None:
        report.star = _star_json(verdict.star)
    if not verdict.accepted:
        if verdict.inconclusive:
            report.status = "Inconclusive"
        return report

    diag, reg = check_model(m, p, verdict, tol)
    report.degenerate = _degenerate(m)
    report.diag_check = {"max_dev": float(diag.max_dev), "pass": bool(diag.passed)}
    report.regression = {"max_dev": float(reg.max_dev), "pass": bool(reg.passed),
                         "exact": bool(reg.exact)}

    # An accepted model's weights share one sign and its exponent is an
    # integer, so every series coefficient is positive; its atoms lie on a
    # parabola, so each is a vertex of their convex hull and has a probe.
    # The depth echoes the default of `diagvf expand`.
    report.series = {"depth": 8, "first_negative": None}

    if diag.passed and reg.passed:
        report.status = "Degenerate-Admissible" if report.degenerate else "Admissible"
    return report


def report_to_dict(rep: PipelineReport) -> dict:
    # shallow: dataclasses.asdict's deep copy costs more than the JSON encoding
    return {f.name: getattr(rep, f.name) for f in fields(rep)}


def to_json(obj) -> str:
    """json.dumps(obj, sort_keys=True, indent=2), byte for byte, without the
    pure-Python encoder that any indent makes json take: str, int, float,
    bool and None in lists, tuples and dicts of str keys; others raise
    TypeError."""
    out: list = []
    _write_json(obj, "\n", out)
    return "".join(out)


def _write_json(v, indent: str, out: list) -> None:
    if isinstance(v, str):
        out.append(_json_str(v))
    elif v is None or isinstance(v, bool):
        out.append("null" if v is None else "true" if v else "false")
    elif isinstance(v, int):
        out.append(int.__repr__(v))
    elif isinstance(v, float):
        out.append(float.__repr__(v) if math.isfinite(v)
                   else "NaN" if v != v else "Infinity" if v > 0 else "-Infinity")
    elif not isinstance(v, (list, tuple, dict)):
        raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")
    elif not v:
        out.append("{}" if isinstance(v, dict) else "[]")
    else:
        inner, keyed = indent + "  ", isinstance(v, dict)
        for i, x in enumerate(sorted(v) if keyed else v):
            out.append(("," if i else "{" if keyed else "[") + inner)
            if keyed:   # _json_str refuses a key that is not a str
                out.append(_json_str(x) + ": ")
                x = v[x]
            _write_json(x, inner, out)
        out.append(indent + ("}" if keyed else "]"))


def emit_report(rep: PipelineReport) -> str:
    return to_json(report_to_dict(rep))
