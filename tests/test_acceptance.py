"""Acceptance suite.

Each criterion is one test that prints a single PASS/FAIL line.  Tolerances
are pinned in the assertions; oracles are independent of the code under
test (numpy polynomial reconstruction, exhaustive integer enumeration,
direct draw enumeration, finite differences, golden-file byte comparison).
"""

import functools
import json
import math
import time
from fractions import Fraction as F
from pathlib import Path

import numpy as np

from diagvf import (DiagonalVFParams, EliminationForm, admissibility_verdict,
                    build_characteristic_quartic,
                    candidate_model, cumulant_eval, diag_variance_check,
                    dual_ordinate, first_negative_coefficient,
                    magnitude_scan, make_model, mean_to_theta, realize_measure,
                    regression_check, run_characterize, solve_quartic,
                    star_condition, LatticeMatrix)
from diagvf.cli import main
from oracles import fd_hessian

E1 = DiagonalVFParams(F(-1), F(0), F(1), F(0), F(1), F(0), F(0))
P2 = DiagonalVFParams(F(-1), F(0), F(1), F(0), F(-1), F(1), F(0))
W3 = (F(1, 4), F(1, 2), F(1, 4))

E1_CONFIG = {"params": {"A": "-1", "a": "0", "b": "1", "c": "0", "d": "1",
                        "e": "0", "f": "0"},
             "weights": ["1/4", "1/2", "1/4"]}
P2_CONFIG = {"params": {"A": "-1", "a": "0", "b": "1", "c": "0", "d": "-1",
                        "e": "1", "f": "0"},
             "weights": ["1/4", "1/2", "1/4"]}

# E1, P2 and E1 at N = 8 (45 support points, 153 sum points in the
# regression check), four-atom runs on roots 0, 1, 5, 60 and 0, 1, 5, 200,
# c2, two atoms beside a complex pair that the float polish solves, and
# q4_tight, roots 0, 1, 2, 3, Inconclusive on the lattice witness (3, -3, 1),
# q4_decimal, the decimal twin of roots 0, 1, 5, 60 at N = 12, whose
# float checks read the conic residuals, and irrational4, exact params
# with four irrational atoms, roots of x^4 - 5 x^2 - x + 4:
# <name>.config.json holds each config, and <name>.characterize.json its
# characterize --json output, committed as produced by the CLI
GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_NAMES = ("e1", "p2", "e1_n8", "q4", "q4_wide", "c2", "q4_tight", "q4_decimal",
                "float_chain", "mixed_within_tol", "irrational4")


def reported(label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL {label}")
                raise
            print(f"PASS {label}")
        return wrapper
    return deco


def random_params(rng):
    A = -rng.uniform(0.1, 3.0)
    a, c, d, e, f = rng.uniform(-2, 2, size=5)
    b = rng.uniform(0.3, 2.0) * rng.choice([-1, 1])
    return DiagonalVFParams(A, a, b, c, d, e, f)


def _solve3(rows, rhs):
    M = [list(row) + [r] for row, r in zip(rows, rhs)]
    for c in range(3):
        piv = next(i for i in range(c, 3) if M[i][c] != 0)
        M[c], M[piv] = M[piv], M[c]
        M[c] = [x / M[c][c] for x in M[c]]
        for i in range(3):
            if i != c and M[i][c] != 0:
                fac = M[i][c]
                M[i] = [x - fac * y for x, y in zip(M[i], M[c])]
    return [M[i][3] for i in range(3)]


def params_from_abscissas(lams, A=F(-1), a=F(0), b=F(1), e=F(0)):
    """Parameters whose characteristic quartic has the three given roots."""
    nus = [(l * l - a * l + e * A) / b for l in lams]
    rows = [(l, n, -A) for l, n in zip(lams, nus)]
    rhs = [n * n for n in nus]
    c, d, f = _solve3(rows, rhs)
    return DiagonalVFParams(A, a, b, c, d, e, f)


def random_admissible_model(rng):
    """CaseA(1) model with exact rational data over all distinct real roots.

    Three abscissas are prescribed; the quartic's remaining root may add a
    fourth real atom, so the weight vector is sized after solving.
    """
    while True:
        lams = sorted(rng.choice(np.arange(-5, 6), size=3, replace=False))
        lams = [F(int(l)) for l in lams]
        # the root sum is 2a, so this choice of a doubles one prescribed
        # root and keeps the distinct-root count at three
        a = (sum(lams) + lams[int(rng.integers(0, 3))]) / 2
        p = params_from_abscissas(lams, a=a,
                                  b=F(int(rng.integers(1, 4))),
                                  e=F(int(rng.integers(-2, 3))))
        rs = solve_quartic(build_characteristic_quartic(p))
        if rs.n_r != 3:
            continue
        ns = [int(rng.integers(1, 5)) for _ in range(3)]
        weights = tuple(F(n, sum(ns)) for n in ns)
        m = candidate_model(p, weights)
        if admissibility_verdict(m).accepted:
            return m, p


@reported("criterion 1: Vieta reconstruction on 500 random parameter sets")
def test_criterion_01_quartic_vieta():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    for _ in range(500):
        q = build_characteristic_quartic(random_params(rng))
        rs = solve_quartic(q)
        roots = []
        for v, mult in rs.entries:
            roots.extend([complex(v)] * mult)
        rebuilt = np.poly(np.array(roots))[::-1].real
        scale = max(1.0, max(abs(float(c)) for c in q.coeffs))
        for c_new, c_old in zip(rebuilt, q.coeffs):
            assert abs(c_new - float(c_old)) <= 1e-8 * scale
    assert time.perf_counter() - start < 1.0


@reported("criterion 2: elimination identity and wrong-sign ordinate failure")
def test_criterion_02_elimination_identity():
    rng = np.random.default_rng(102)
    for _ in range(500):
        p = random_params(rng)
        q = build_characteristic_quartic(p)
        rs = solve_quartic(q)
        for lam in rs.real_roots:
            _, res = dual_ordinate(lam, p)
            assert abs(float(res)) <= 1e-8 * max(1.0, float(lam) ** 4) * q.scale

    # the -eA variant must fail the same identity whenever e != 0
    checked = 0
    failures = 0
    while checked < 100:
        p = random_params(rng)
        if abs(p.e) < 0.1:
            continue
        q = build_characteristic_quartic(p)
        rs = solve_quartic(q)
        if not rs.real_roots:
            continue
        checked += 1
        bad = False
        for lam in rs.real_roots:
            lam = float(lam)
            nu_wrong = (lam * lam - p.a * lam - p.e * p.A) / p.b
            res = nu_wrong ** 2 - p.c * lam - p.d * nu_wrong + p.f * p.A
            if abs(res) > 1e-8 * max(1.0, lam ** 4) * q.scale:
                bad = True
        failures += bad
    assert failures == checked == 100


@reported("criterion 3: end-to-end worked examples E1 and P2")
def test_criterion_03_worked_examples():
    for p, cfg, nus in ((E1, E1_CONFIG, [1, 0, 1]), (P2, P2_CONFIG, [0, -1, 0])):
        m = candidate_model(p, W3)
        assert [a[0] for a in m.atoms] == [-1, 0, 1]
        assert [a[1] for a in m.atoms] == nus
        rs = solve_quartic(build_characteristic_quartic(p))
        assert dict(rs.entries) == {-1: 1, 0: 2, 1: 1}
        v = admissibility_verdict(m)
        assert v.outcome == "CaseA" and v.N == 1
        _, mean, cov = cumulant_eval(m, (0.0, 0.0))
        assert np.allclose(cov, [[0.5, 0.0], [0.0, 0.25]], atol=1e-15)
        # exact and float twin alike: the conic residuals, no theta; the
        # twin's 121-point grid agrees
        diag = diag_variance_check(m, p)
        assert (diag.max_dev, diag.n_points) == (0.0, 0)
        fp = DiagonalVFParams(*(float(x) for x in p.as_tuple()))
        fm = candidate_model(fp, [float(w) for w in W3])
        diag = diag_variance_check(fm, fp)
        assert diag.n_points == 0 and diag.max_dev <= 1e-10
        axis = np.linspace(-1.0, 1.0, 11)
        diag = diag_variance_check(fm, fp, [(t1, t2) for t1 in axis for t2 in axis])
        assert diag.n_points == 121 and diag.max_dev <= 1e-10
        reg = regression_check(realize_measure(m, v), p)
        assert reg.exact and reg.max_dev == 0.0
        rep = run_characterize(cfg)
        assert rep.status == "Admissible"
        assert rep.pattern == "DoublePlusTwoSingleReal"

    # wrong-sign ordinates for P2 break the diagonal identity decisively
    wrong = make_model([(-1, 2), (0, 1), (1, 2)], W3, 1)
    assert diag_variance_check(wrong, P2).max_dev >= 0.5


@reported("criterion 4: necessity probes for each rejection clause")
def test_criterion_04_necessity_probes():
    rng = np.random.default_rng(104)
    atoms = [(-1, 1), (0, 0), (1, 1)]
    for _ in range(50):
        # one negative weight among positives
        w = [rng.uniform(0.1, 1.0), -rng.uniform(0.1, 1.0), rng.uniform(0.1, 1.0)]
        v = admissibility_verdict(make_model(atoms, w, 1))
        assert v.outcome == "Rejected" and "mixed signs" in v.reason
    for _ in range(50):
        # non-integer exponent with otherwise valid weights
        r = float(rng.uniform(0.2, 5.0))
        while abs(r - round(r)) < 0.05:
            r = float(rng.uniform(0.2, 5.0))
        w = rng.dirichlet(np.ones(3))
        v = admissibility_verdict(make_model(atoms, tuple(w), r))
        assert v.outcome == "Rejected" and "positive integer" in v.reason
        a1 = float(rng.uniform(0.55, 0.95))
        k = first_negative_coefficient(a1, 1.0 - a1, r, depth=math.ceil(r) + 1)
        assert k is not None and k <= math.ceil(r) + 1
    for _ in range(50):
        # odd exponent under the all-negative sign pattern
        n = int(rng.integers(0, 4)) * 2 + 1
        w = -rng.dirichlet(np.ones(3))
        v = admissibility_verdict(make_model(atoms, tuple(w), n))
        if n == 1:
            assert v.outcome == "Rejected"
        else:
            assert v.outcome == "Rejected" and "even" in v.reason


def _enumeration_oracle(rows, bound=20):
    cols = []
    for j in range(3):
        den = math.lcm(*(F(rows[i][j]).denominator for i in range(3)))
        cols.append([int(F(rows[i][j]) * den) for i in range(3)])
    M = np.array(cols, dtype=np.int64).T
    side = np.arange(-bound, bound + 1, dtype=np.int64)
    g = np.meshgrid(side, side, side, indexing="ij")
    a = np.stack([x.ravel() for x in g], axis=1)
    in_kernel = np.all(a @ M == 0, axis=1)
    mixed = ((a[:, 0] * a[:, 1] < 0) | (a[:, 0] * a[:, 2] < 0)
             | (a[:, 1] * a[:, 2] < 0))
    return bool(np.any(in_kernel & mixed))


@reported("criterion 5: star condition vs exhaustive search and lattice outputs")
def test_criterion_05_star_condition():
    rng = np.random.default_rng(105)
    start = time.perf_counter()
    for trial in range(200):
        def fr():
            return F(int(rng.integers(-4, 5)), int(rng.integers(1, 4)))
        kind = trial % 4
        if kind == 0:
            rows = [tuple(fr() for _ in range(3)) for _ in range(3)]
        elif kind == 1:
            r0 = tuple(fr() for _ in range(3))
            k1, k2 = (int(rng.integers(-3, 4)) for _ in range(2))
            rows = [r0, tuple(k1 * x for x in r0), tuple(k2 * x for x in r0)]
        elif kind == 2:
            r0 = tuple(fr() for _ in range(3))
            r1 = tuple(fr() for _ in range(3))
            k1, k2 = (int(rng.integers(-2, 3)) for _ in range(2))
            rows = [r0, r1, tuple(k1 * x + k2 * y for x, y in zip(r0, r1))]
        else:
            rows = [(fr(), F(0), F(0)), (F(0), fr(), F(0)), (F(0), F(0), F(0))]
        mat = LatticeMatrix(tuple(tuple(F(x) for x in r) for r in rows))
        rep = star_condition(mat)
        assert rep.holds == (not _enumeration_oracle(rows)), (rows, rep)

    # three-root lattice matrices: exact rational models, condition certain
    for _ in range(40):
        lams = sorted(rng.choice(np.arange(-6, 7), size=3, replace=False))
        atoms = [(F(int(l)), F(int(l)) ** 2) for l in lams]
        m = make_model(atoms, (F(1, 3),) * 3, 1)
        assert admissibility_verdict(m).star.holds

    # four-root lattice matrices from parameters with irrational roots
    for _ in range(20):
        p2 = float(rng.uniform(1.1, 3.0))
        q2 = float(rng.uniform(3.5, 7.0))
        lams = sorted(np.roots([1.0, 0.0, -(p2 + q2), 0.0, p2 * q2]).real)
        m = make_model([(l, l * l) for l in lams], (0.25,) * 4, 1.0)
        assert admissibility_verdict(m).star.holds
    assert time.perf_counter() - start < 10.0


@reported("criterion 6: Hessian agreement and mean-map round trips")
def test_criterion_06_cumulant_calculus():
    rng = np.random.default_rng(106)
    models = []
    while len(models) < 20:
        m, _ = random_admissible_model(rng)
        if not realize_measure(m, admissibility_verdict(m)).degenerate:
            models.append(m)
    for m in models:
        for _ in range(20):
            theta = tuple(rng.uniform(-1.0, 1.0, size=2))
            _, _, cov = cumulant_eval(m, theta)
            H = fd_hessian(m, theta)
            scale = max(1.0, float(np.abs(cov).max()))
            assert np.abs(H - cov).max() <= 1e-5 * scale

    done = 0
    while done < 100:
        m = models[done % len(models)]
        span = max(abs(float(x)) for a in m.atoms for x in a)
        theta = tuple(rng.uniform(-1.0, 1.0, size=2) / (1.0 + span))
        _, mean, _ = cumulant_eval(m, theta)
        back = mean_to_theta(m, tuple(mean))
        _, mean2, _ = cumulant_eval(m, back)
        assert np.linalg.norm(mean2 - mean) <= 1e-10
        done += 1


@reported("criterion 7: convolution Laplace-transform consistency")
def test_criterion_07_convolution_consistency():
    rng = np.random.default_rng(107)
    atoms = [(F(-1), F(1)), (F(0), F(0)), (F(2), F(4))]
    for N in (1, 2, 3, 4):
        weights = tuple(F(x, 10) for x in (3, 5, 2))
        m = make_model(atoms, weights, N)
        mu = realize_measure(m, admissibility_verdict(m))
        for _ in range(50):
            theta = rng.uniform(-1.5, 1.5, size=2)
            base = sum(float(w) * math.exp(theta[0] * float(a[0])
                                           + theta[1] * float(a[1]))
                       for a, w in zip(atoms, weights))
            want = base ** N
            assert abs(mu.laplace(theta) - want) <= 1e-10 * max(1.0, want)


@reported("criterion 8: magnitude witnesses for eliminated forms only")
def test_criterion_08_magnitude_witnesses():
    grid = np.linspace(-50.0, 50.0, 4001)
    grid = grid[np.argsort(np.abs(grid), kind="stable")]
    eliminated = [
        EliminationForm(poly=(1.0, 1.0)),
        EliminationForm(poly=(0.5, 0.0, 0.25)),
        EliminationForm(linexp=(1.0, 1.0)),
        EliminationForm(linexp=(-0.5, 0.0)),
        EliminationForm(osc_blocks=((0.0, 1.0, 0.0, 0.0, 1.0, 0.0),)),
        EliminationForm(osc_blocks=((0.5, 2.0, 1.0, 0.5, 0.0, 0.0),)),
        EliminationForm(poly=(0.5,), exp_terms=((0.25, -1.0), (0.25, 1.0)),
                        linexp=(0.1, 0.0)),
    ]
    for f in eliminated:
        for r in (0.5, 1.0, 2.0):
            assert magnitude_scan(f, r, grid) is not None, (f, r)

    rng = np.random.default_rng(108)
    for _ in range(20):
        k = int(rng.integers(2, 6))
        w = rng.dirichlet(np.ones(k))
        lams = rng.uniform(-4, 4, size=k)
        f = EliminationForm(exp_terms=tuple(zip(w, lams)))
        assert magnitude_scan(f, 1.0, grid) is None


@reported("criterion 9: A=-1 support lies on the coordinate parabola")
def test_criterion_09_parabola_support():
    rng = np.random.default_rng(109)
    for _ in range(30):
        m, p = random_admissible_model(rng)
        assert p.A == -1
        mu = realize_measure(m, admissibility_verdict(m))
        for x1, x2 in mu.support:
            res = (float(x1) ** 2 - float(p.a) * float(x1)
                   - float(p.b) * float(x2) + float(p.e) * float(p.A))
            assert abs(res) <= 1e-10


@reported("criterion 10: CLI golden-file determinism and exit codes")
def test_criterion_10_cli_determinism(tmp_path, capsys):
    for name in GOLDEN_NAMES:
        path = GOLDEN_DIR / f"{name}.config.json"
        assert main(["characterize", str(path), "--json"]) == 0
        first = capsys.readouterr().out
        assert main(["characterize", str(path), "--json"]) == 0
        assert capsys.readouterr().out == first
        golden = GOLDEN_DIR / f"{name}.characterize.json"
        assert first == golden.read_text()

    rejected = tmp_path / "rejected.json"
    rejected.write_text(json.dumps(dict(E1_CONFIG,
                                        weights=["1/2", "-1/4", "3/4"])))
    assert main(["characterize", str(rejected)]) == 1
    capsys.readouterr()
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["characterize", str(bad)]) == 2
    assert main(["characterize", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()
