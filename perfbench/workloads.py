"""Seeded input generators for the diagvf benchmark.

Each workload is an endless sequence of *cycles*.  A cycle is a fixed list of
strata (atom count, exponent N, denominator digits, outcome class, ...); the
seed only draws the numbers inside each stratum.  So every run of a workload
does the same mix of work, whatever its seed, and a run measures whole
cycles.

Ops are plain JSON-able dicts, so the set-up probe can receive its first op
on stdin:

    {"kind": "characterize" | "lattice" | "expand" | "scan",
     ...payload...,
     "expect": what the input was built to give,
     "props": input properties, tallied in the benchmark output}

This module does not import diagvf: the configs are built from prescribed
roots with exact rational arithmetic, which is what the checks rely on.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction as F

# roots._rational_roots falls back to float roots past this size of the
# cleared quartic's constant or leading coefficient
EXACT_ROOT_GUARD = 10 ** 12

E1_CONFIG = {"params": {"A": "-1", "a": "0", "b": "1", "c": "0", "d": "1",
                        "e": "0", "f": "0"},
             "weights": ["1/4", "1/2", "1/4"]}
P2_CONFIG = {"params": {"A": "-1", "a": "0", "b": "1", "c": "0", "d": "-1",
                        "e": "1", "f": "0"},
             "weights": ["1/4", "1/2", "1/4"]}

# The CLI's default grid for `diagvf scan` (t_max 50, 2001 points).
SCAN_T_MAX = 50.0
SCAN_POINTS = 2001


# ---------------------------------------------------------------- algebra

def _polymul(p, q):
    out = [F(0)] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


def monic(roots, quadratics=()):
    """Ascending coefficients of prod (x - r) * prod (x^2 + p x + q)."""
    poly = [F(1)]
    for r in roots:
        poly = _polymul(poly, [-r, F(1)])
    for p, q in quadratics:
        poly = _polymul(poly, [q, p, F(1)])
    return poly


def params_for_quartic(poly, A, b, e):
    """Parameters whose characteristic quartic is the given monic quartic.

    Inverts the coefficient map of roots.build_characteristic_quartic for
    a, d, c and f; A, b and e are free.  Equivalent to the tests'
    params_from_abscissas when the quartic has three prescribed roots.
    """
    c0, c1, c2, c3, _ = poly
    a = -c3 / 2
    d = (2 * A * e + a * a - c2) / b
    c = (-c1 - 2 * A * a * e + a * d * b) / (b * b)
    f = (c0 - A * A * e * e + e * d * b * A) / (b * b * A)
    return {"A": A, "a": a, "b": b, "c": c, "d": d, "e": e, "f": f}


def beyond_guard(poly) -> bool:
    """True when the cleared integer quartic is past the exact-root guard."""
    den = math.lcm(*(c.denominator for c in poly))
    ints = [int(c * den) for c in poly]
    return abs(ints[0]) > EXACT_ROOT_GUARD or abs(ints[-1]) > EXACT_ROOT_GUARD


def _digits(x: F) -> int:
    return len(str(x.denominator))


def _rational(rng, digits, lo, hi):
    """Rational in [lo, hi] whose denominator has the given number of digits;
    digits=0 draws a nonzero integer."""
    if digits == 0:
        return F(rng.choice([x for x in range(lo, hi + 1) if x]))
    while True:
        q = rng.randint(10 ** (digits - 1), 10 ** digits - 1)
        x = F(rng.randint(lo * q, hi * q), q)
        if _digits(x) == digits and x != 0:
            return x


def _distinct(rng, k, draw, gap=F(0)):
    while True:
        xs = sorted(draw() for _ in range(k))
        if all(xs[i + 1] - xs[i] > gap for i in range(k - 1)):
            return xs


def _positive_weights(rng, k, top=4):
    ns = [rng.randint(1, top) for _ in range(k)]
    return [F(n, sum(ns)) for n in ns]


def _leftmost_pivot_weights(rng, k, top=4):
    """Positive weights summing to 1, strictly largest on the first atom.

    Atoms come in increasing abscissa, so series._find_probe pivots on the
    leftmost atom and its probe direction (-1, 0) succeeds.  With the
    largest weight elsewhere the probe search can overflow or miss; those
    inputs are in the defect census, not in the timed workloads.
    """
    ns = [rng.randint(1, top) for _ in range(k - 1)]
    ns.insert(0, max(ns) + rng.randint(1, 2))
    return [F(n, sum(ns)) for n in ns]


def _middle_pivot_weights(rng, k, top=4):
    """Positive weights summing to 1, strictly largest on a middle atom."""
    ns = [rng.randint(1, top) for _ in range(k)]
    ns[rng.randrange(1, k - 1)] = max(ns) + rng.randint(1, 2)
    return [F(n, sum(ns)) for n in ns]


def _fmt(x, exact):
    if not exact:
        return float(x)
    return str(x.numerator) if x.denominator == 1 else str(x)


def _config(params, weights, exact):
    return json.dumps({"params": {k: _fmt(v, exact) for k, v in params.items()},
                       "weights": [_fmt(w, exact) for w in weights]})


def _characterize(config, expect, **props):
    return {"kind": "characterize", "config": config, "expect": expect,
            "props": props}


# ---------------------------------------------------------- exact-ladder

def _fixed(doc, name):
    return _characterize(json.dumps(doc), {
        "case": "CaseA", "N": 1, "atoms": 3, "status": "Admissible",
        "exact": True, "beyond_guard": False},
        outcome="admissible", arithmetic="exact", N=1, atoms=3,
        digits=1, example=name)


# least gap between abscissas: keeps the leftmost pivot's probe well inside
# series._find_probe's range of t
LADDER_GAP = F(1, 20)


def _ladder_op(rng, atoms, N, digits, weights=_leftmost_pivot_weights):
    """Admissible exact config with the given atom count, N and digits."""
    lams = _distinct(rng, atoms, lambda: _rational(rng, digits, -3, 3), LADDER_GAP)
    if atoms == 3:
        # the fourth root doubles one prescribed abscissa, as in the tests
        poly = monic(lams + [lams[rng.randrange(3)]])
    else:
        p = F(rng.randint(-3, 3))
        poly = monic(lams, [(p, p * p / 4 + F(rng.randint(1, 4), rng.randint(1, 3)))])
    params = params_for_quartic(poly, F(-1, N), F(rng.choice((1, 2, 3, -1, -2))),
                                F(rng.randint(-2, 2)))
    guard = beyond_guard(poly)
    return _characterize(
        _config(params, weights(rng, atoms), True),
        {"case": "CaseA", "N": N, "atoms": atoms,
         "status": "Admissible" if atoms == 3 else "Degenerate-Admissible",
         "exact": True, "beyond_guard": guard},
        outcome="admissible", arithmetic="exact", N=N, atoms=atoms,
        digits=max(_digits(x) for x in lams), beyond_guard=guard)


# (count, atoms, N, denominator digits); N = -1/A; 0 digits means integer
# abscissas.  Three ops in four are cheap (one digit, small N), so the
# median op is E1-like.  Eleven N=8 ops hold the 90th percentile, with one
# op each at N=10, 12 and 16 above them.  Every stratum is below the
# exact-root guard: four-digit three-atom quartics are past it, and they
# are in the defect census.
LADDER_STRATA = (
    # cheap
    (2, 2, 1, 1), (2, 2, 2, 1), (2, 2, 3, 1), (2, 2, 4, 1), (2, 2, 6, 1),
    (2, 2, 8, 1),
    (7, 3, 1, 0), (7, 3, 2, 0), (5, 3, 3, 0),
    (7, 3, 1, 1), (7, 3, 2, 1), (5, 3, 3, 1),
    (1, 3, 4, 1), (1, 3, 5, 1), (1, 3, 6, 1),
    # two and three digits: the exact root search dominates
    (1, 2, 2, 2), (1, 2, 6, 2), (1, 2, 12, 2), (1, 2, 16, 2),
    (1, 2, 3, 3), (1, 2, 4, 3),
    (1, 3, 1, 2), (1, 3, 2, 2), (1, 3, 4, 2), (1, 3, 6, 2),
    # heavy: the regression check grows with the square of the support
    (11, 3, 8, 1), (1, 3, 10, 1), (1, 3, 12, 1), (1, 3, 16, 1),
)


def exact_ladder(rng):
    ops = [_fixed(E1_CONFIG, "E1"), _fixed(P2_CONFIG, "P2")]
    ops += [_ladder_op(rng, atoms, N, digits)
            for count, atoms, N, digits in LADDER_STRATA for _ in range(count)]
    return ops


# ---------------------------------------------------------- float-screen

def _decimal(rng, lo, hi, places=2):
    return F(round(rng.uniform(lo, hi), places)).limit_denominator(10 ** places)


def _screen_op(rng, outcome, atoms, N=2, case="CaseA"):
    """Decimal config from the prescribed-root construction.

    outcome is the class the config is built to fall in: admissible, or one
    of the rejection classes nroot, nonint, mixed, sum.
    """
    gap = F(3, 10)
    if outcome == "nroot":
        p1, p2 = _decimal(rng, -2, 2), _decimal(rng, -2, 2)
        poly = monic([], [(p1, p1 * p1 / 4 + _decimal(rng, 0.3, 2)),
                          (p2, p2 * p2 / 4 + _decimal(rng, 0.3, 2))])
    elif atoms == 2:
        lams = _distinct(rng, 2, lambda: _decimal(rng, -2.5, 2.5), gap)
        p = _decimal(rng, -2, 2)
        poly = monic(lams, [(p, p * p / 4 + _decimal(rng, 0.3, 2))])
    else:
        # The star condition is decided before the sign, sum and exponent
        # clauses.  When the decimal abscissas have an integer relation
        # within its bound, whether the float pipeline finds it depends on
        # the rounding of its float roots, so such draws are redrawn.
        lams = _distinct(rng, 4, lambda: _decimal(rng, -2.5, 2.5), gap)
        while max(abs(g) for g in _four_atom_generator(lams)) <= SEARCH_BOUND:
            lams = _distinct(rng, 4, lambda: _decimal(rng, -2.5, 2.5), gap)
        poly = monic(lams)
    r = F(N) if outcome != "nonint" else F(rng.randint(1, 6)) + F(rng.choice((1, 2, 3)), 4)
    params = params_for_quartic(poly, -1 / r, F(rng.choice((1, 2, -1))),
                                _decimal(rng, -1, 1, 1))
    k = atoms if outcome != "nroot" else 2
    w = _positive_weights(rng, k, top=6)
    if case == "CaseB":
        w = [-x for x in w]
    if outcome == "mixed":
        w[rng.randrange(k)] *= -1
    elif outcome == "sum":
        scale = F(rng.choice((7, 8, 9, 11, 12, 13)), 10)
        w = [x * scale for x in w]
    expect = {"case": case if outcome == "admissible" else "Rejected",
              "N": N if outcome == "admissible" else None,
              "atoms": k, "exact": False, "beyond_guard": False,
              "reason": {"nroot": "NRootDeficit", "nonint": "exponent not",
                         "mixed": "weights have mixed signs",
                         "sum": "weights do not sum to",
                         "admissible": None}[outcome]}
    if outcome == "admissible":
        expect["status"] = "Degenerate-Admissible" if k == 2 else "Admissible"
    return _characterize(_config(params, w, False), expect,
                         outcome=outcome, arithmetic="decimal",
                         N=N if outcome != "nonint" else "non-integer",
                         atoms=0 if outcome == "nroot" else k)


# (outcome, atoms, N, case); 3 of 20 admissible
SCREEN_STRATA = (
    ("admissible", 2, 3, "CaseA"),
    ("nroot", 0, 2, "CaseA"), ("nonint", 2, 2, "CaseA"),
    ("mixed", 2, 2, "CaseA"), ("sum", 2, 2, "CaseA"),
    ("nroot", 0, 3, "CaseA"), ("nonint", 4, 2, "CaseA"),
    ("mixed", 4, 1, "CaseA"), ("sum", 4, 2, "CaseB"),
    ("admissible", 2, 4, "CaseB"),
    ("nroot", 0, 1, "CaseA"), ("nonint", 2, 2, "CaseA"),
    ("mixed", 2, 3, "CaseA"), ("sum", 2, 1, "CaseA"),
    ("nroot", 0, 4, "CaseA"), ("nonint", 4, 2, "CaseA"),
    ("mixed", 4, 2, "CaseA"), ("sum", 4, 3, "CaseA"),
    ("admissible", 2, 6, "CaseA"), ("sum", 2, 2, "CaseB"),
)


def float_screen(rng):
    return [_screen_op(rng, *s) for s in SCREEN_STRATA]


# -------------------------------------------------------- search-certify

def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def _small_vector(rng, lo=-4, hi=4):
    while True:
        v = tuple(rng.randint(lo, hi) for _ in range(3))
        if any(v):
            return v


def _lattice_op(rng, dim, mixed, bound):
    """3x3 rational matrix whose left kernel has the given dimension.

    The kernel {a : a^T M = 0} of M = sum_j w_j c_j^T is the orthogonal
    complement of the w_j when the c_j are independent; scaling columns by
    rationals changes no integer solution.
    """
    while True:
        if dim == 2:
            u, v = _small_vector(rng), _small_vector(rng)
            if not (_mixed(u) or _mixed(v)):
                continue        # keeps a witness well inside the bound
            ws = [_cross(u, v)]
        elif dim == 1:
            g = [rng.randint(1, 5) for _ in range(3)]
            if mixed:
                g[rng.randrange(3)] *= -1
            elif rng.random() < 0.5:
                g = [-x for x in g]
            w1 = _cross(g, _small_vector(rng))
            ws = [w1, _cross(g, w1)]
        else:
            ws = [_small_vector(rng) for _ in range(3)]
        cs = [_small_vector(rng) for _ in ws]
        rows = [[sum((F(w[r]) * c[i] for w, c in zip(ws, cs)), F(0))
                 for i in range(3)] for r in range(3)]
        if _rank(rows) != 3 - dim or any(not any(w) for w in ws):
            continue
        scales = [F(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice((1, -1))
                  for _ in range(3)]
        rows = [[x * s for x, s in zip(row, scales)] for row in rows]
        holds = not (dim == 2 or (dim == 1 and mixed))
        return {"kind": "lattice", "rows": [[_fmt(x, True) for x in row]
                                            for row in rows],
                "bound": bound, "expect": {"holds": holds, "dim": dim},
                "props": {"outcome": "holds" if holds else "witness",
                          "arithmetic": "exact", "kernel_dim": dim,
                          "bound": bound}}


def _mixed(v) -> bool:
    return any(x > 0 for x in v) and any(x < 0 for x in v)


def _rank(rows):
    m = [list(r) for r in rows]
    rank = 0
    for c in range(3):
        piv = next((i for i in range(rank, 3) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(3):
            if i != rank and m[i][c] != 0:
                fac = m[i][c] / m[rank][c]
                m[i] = [x - fac * y for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


# run_characterize's default lattice bound
SEARCH_BOUND = 50


def _four_atom_generator(lams):
    """Primitive left-kernel generator of the pipeline's four-atom lattice
    matrix, (x2 x3 (x3-x2), x3 x1 (x1-x3), x1 x2 (x2-x1)) with
    x_i = lam_(i+1) - lam_1; it is always mixed-sign."""
    x1, x2, x3 = (lam - lams[0] for lam in lams[1:])
    g = [x2 * x3 * (x3 - x2), x3 * x1 * (x1 - x3), x1 * x2 * (x2 - x1)]
    ints = [int(v * math.lcm(*(x.denominator for x in g))) for v in g]
    common = math.gcd(*ints)
    return [v // common for v in ints]


def _search_op(rng, atoms, den):
    """weight_search config with no admissible grid point.

    Three atoms: the exponent is not an integer.  Four integer abscissas:
    the lattice kernel generator is mixed-sign and within the bound, so the
    star condition rejects every grid point.
    """
    if atoms == 3:
        lams = _distinct(rng, 3, lambda: F(rng.randint(-6, 6), rng.randint(1, 2)))
        poly = monic(lams + [lams[rng.randrange(3)]])
        r = F(rng.randint(1, 5)) + F(rng.choice((1, 2, 3)), 4)
    else:
        lams = _distinct(rng, 4, lambda: F(rng.randint(-4, 4)))
        while max(abs(g) for g in _four_atom_generator(lams)) > SEARCH_BOUND:
            lams = _distinct(rng, 4, lambda: F(rng.randint(-4, 4)))
        poly = monic(lams)
        r = F(rng.randint(1, 4))
    params = params_for_quartic(poly, -1 / r, F(rng.choice((1, 2, -1))),
                                F(rng.randint(-1, 1)))
    doc = {"params": {k: _fmt(v, True) for k, v in params.items()},
           "weight_search": {"denominator": den}}
    return _characterize(json.dumps(doc), {
        "case": "Rejected", "N": None, "atoms": atoms, "exact": True,
        "beyond_guard": beyond_guard(poly),
        "reason": f"no admissible weights on the 1/{den} grid"},
        outcome="search-empty", arithmetic="exact", atoms=atoms,
        N="non-integer" if atoms == 3 else int(r), grid_denominator=den)


def _expand_op(rng, atoms, depth, exact, weights=_leftmost_pivot_weights):
    """Mixture power with a non-integer exponent: a negative coefficient
    must appear within the depth."""
    draw = (lambda: F(rng.randint(-6, 6), 4)) if exact else \
        (lambda: _decimal(rng, -1.5, 1.5))
    lams = _distinct(rng, atoms, draw, F(1, 5))
    r = F(rng.randint(0, min(4, depth - 3))) + F(rng.choice((1, 2, 3)), 4)
    w = weights(rng, atoms, top=6)
    return {"kind": "expand",
            "atoms": [[_fmt(l, exact), _fmt(l * l, exact)] for l in lams],
            "weights": [_fmt(x, exact) for x in w], "r": _fmt(r, exact),
            "depth": depth, "expect": {"negative": True},
            "props": {"outcome": "certificate",
                      "arithmetic": "exact" if exact else "decimal",
                      "atoms": atoms, "depth": depth}}


def _scan_op(rng, shape):
    """Elimination shapes get a witness; probability mixtures never do."""
    u = lambda lo, hi: round(rng.uniform(lo, hi), 3)
    if shape == "mixture":
        w = _positive_weights(rng, 3, top=5)
        form = {"exp_terms": [[float(x), u(-3, 3)] for x in w]}
    elif shape == "poly":
        form = {"poly": [u(0.2, 1), u(0.05, 1), u(0, 0.5)]}
    elif shape == "linexp":
        form = {"linexp": [u(0.1, 1) * rng.choice((1, -1)), u(-1, 1)]}
    else:
        form = {"osc_blocks": [[u(-0.5, 0.5), u(0.5, 2), u(0, 1), u(0, 1),
                                u(0.2, 1), u(0, 0.5)]]}
    return {"kind": "scan", "form": form, "r": rng.choice((0.5, 1.0, 2.0)),
            "expect": {"witness": shape != "mixture"},
            "props": {"outcome": "bounded" if shape == "mixture" else "witness",
                      "arithmetic": "decimal", "shape": shape}}


def search_certify(rng):
    """Mostly lattice and weight-search work, plus series certificates.

    The first op builds the bound-50 lattice table, which set-up pays.  The
    five mixture scans sit at the median; the three 2-D kernels at bound 60
    sit at the 90th percentile.
    """
    return [
        _lattice_op(rng, 2, True, 50),
        _scan_op(rng, "poly"),
        _search_op(rng, 3, 8),
        _expand_op(rng, 2, 12, True),
        _lattice_op(rng, 1, True, 50),
        _scan_op(rng, "mixture"),
        _search_op(rng, 4, 12),
        _expand_op(rng, 3, 16, True),
        _lattice_op(rng, 0, False, 50),
        _scan_op(rng, "linexp"),
        _lattice_op(rng, 2, True, 60),
        _expand_op(rng, 3, 16, False),
        _scan_op(rng, "mixture"),
        _lattice_op(rng, 1, False, 50),
        _search_op(rng, 3, 12),
        _expand_op(rng, 2, 8, False),
        _scan_op(rng, "osc"),
        _lattice_op(rng, 2, True, 50),
        _search_op(rng, 4, 8),
        _scan_op(rng, "mixture"),
        _lattice_op(rng, 1, True, 60),
        _expand_op(rng, 3, 24, True),
        _lattice_op(rng, 0, False, 60),
        _search_op(rng, 3, 16),
        _scan_op(rng, "mixture"),
        _lattice_op(rng, 2, True, 60),
        _expand_op(rng, 2, 20, False),
        _lattice_op(rng, 2, True, 60),
        _lattice_op(rng, 1, False, 60),
        _search_op(rng, 4, 10),
        _scan_op(rng, "mixture"),
        _lattice_op(rng, 2, True, 50),
    ]


# ---------------------------------------------------------- defect census

# (group, count, op maker): inputs the program is known to get wrong.  They
# are run once per benchmark run, untimed and outside `attempted`, and the
# share of each group that fails is reported (run.py), so the defects stay
# in view while the timed workloads hold only ops the program gets right.
DEFECT_GROUPS = (
    # exact three-atom configs with randomly placed weights, as in the
    # timed ladder otherwise: series._find_probe overflows math.exp when the
    # largest weight is not on the leftmost atom
    ("ladder_random_weights", 40,
     lambda rng: _ladder_op(rng, 3, 1, 1, _positive_weights)),
    # four-digit three-atom quartics, past roots' 10**12 exact-root guard:
    # the roots fall back to floats and the regression check is not exact
    ("beyond_guard", 8, lambda rng: _ladder_op(rng, 3, rng.choice((1, 2)), 4)),
    # series certificates whose largest weight is on the middle atom: the
    # fixed probe directions of series._find_probe miss or overflow
    ("expand_middle_pivot", 40,
     lambda rng: _expand_op(rng, 3, 12, rng.random() < 0.5, _middle_pivot_weights)),
)


def defect_census(seed: int):
    """[(group, op)] of the defect census; the same seed gives the same ops."""
    rng = random.Random(f"defects/{seed}")
    return [(group, make(rng)) for group, count, make in DEFECT_GROUPS
            for _ in range(count)]


WORKLOADS = {
    "exact-ladder": exact_ladder,
    "float-screen": float_screen,
    "search-certify": search_certify,
}


def cycle(workload: str, seed: int, index: int):
    """The ops of one cycle; the same (workload, seed, index) gives the same ops."""
    rng = random.Random(f"{workload}/{seed}/{index}")
    return WORKLOADS[workload](rng)
