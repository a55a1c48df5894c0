import itertools
import math
import os
import subprocess
import sys
import time
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from diagvf import (AdmissibilityVerdict, ConfigError, Degenerate, DiagonalVFParams, DomainViolation,
                    FiniteMeasure, NotAdmissible,
                    OutOfMeanDomain, admissibility_verdict, candidate_model,
                    cumulant_eval, diag_variance_check, expand_series,
                    make_model, mean_to_theta, realize_measure,
                    regression_check, run_characterize, tilt_member)
from diagvf import measure
from diagvf._num import merge_points, near_integer, power_terms
from oracles import fd_hessian

E1 = DiagonalVFParams(F(-1), F(0), F(1), F(0), F(1), F(0), F(0))
P2 = DiagonalVFParams(F(-1), F(0), F(1), F(0), F(-1), F(1), F(0))
W3 = (F(1, 4), F(1, 2), F(1, 4))


def model_and_measure(p, weights):
    m = candidate_model(p, weights)
    v = admissibility_verdict(m)
    return m, realize_measure(m, v)


def certified(m, p, tol=1e-10):
    """check_model's regression report of m at N the integer nearest r (the
    only field of the verdict it reads besides acceptance), which its
    certificate gives: no pair group is counted."""
    _, rep = measure.check_model(m, p, AdmissibilityVerdict("CaseA", N=near_integer(m.r)), tol)
    assert rep.n_groups == 0
    return rep


def float_twin(m):
    """The model with every number a float."""
    return make_model([(float(x), float(y)) for x, y in m.atoms],
                      [float(w) for w in m.weights], float(m.r))


# the diag check's default theta grid, which it runs off the conic rule
GRID_121 = [(t1, t2) for t1 in np.linspace(-1.0, 1.0, 11)
            for t2 in np.linspace(-1.0, 1.0, 11)]


def convolve_oracle(atoms, weights, N):
    """Independent oracle: enumerate all N-tuples of draws directly."""
    acc = {}
    for draws in itertools.product(range(len(atoms)), repeat=N):
        pt = (sum(atoms[i][0] for i in draws), sum(atoms[i][1] for i in draws))
        mass = F(1)
        for i in draws:
            mass *= weights[i]
        acc[pt] = acc.get(pt, F(0)) + mass
    return {k: v for k, v in acc.items() if v != 0}


class TestRealizeMeasure:
    def test_e1(self):
        _, mu = model_and_measure(E1, W3)
        assert mu.support == ((-1, 1), (0, 0), (1, 1))
        assert mu.masses == (F(1, 4), F(1, 2), F(1, 4))
        assert mu.is_exact and not mu.degenerate

    def test_p2_degenerate_flag(self):
        _, mu = model_and_measure(P2, W3)
        assert mu.support == ((-1, 0), (0, -1), (1, 0))
        assert not mu.degenerate

    def test_float_power_merges_equal_points_only(self):
        # at N = 2 the sums (0, 2e-12) and (0, 0) are two support points,
        # within 1e-9 of each other; the draw enumeration agrees, and the
        # certificate checks the model
        atoms, weights = [(-1.0, 1e-12), (0.0, 0.0), (1.0, 1e-12)], (0.25, 0.5, 0.25)
        m = make_model(atoms, weights, 2.0)
        mu = realize_measure(m, admissibility_verdict(m))
        assert not mu.is_exact and len(mu.support) == 6
        want = convolve_oracle(atoms, weights, 2)
        assert dict(zip(mu.support, mu.masses)) == pytest.approx(want, rel=1e-15)
        p = DiagonalVFParams(-0.5, 0.0, 1e12, 0.0, 1e-12, 0.0, 0.0)
        assert certified(m, p).max_dev < 1e-16

    def test_matches_draw_enumeration(self):
        atoms = [(F(0), F(0)), (F(1), F(1)), (F(2), F(4))]
        weights = (F(1, 2), F(1, 3), F(1, 6))
        for N in (1, 2, 3, 4):
            m = make_model(atoms, weights, N)
            v = admissibility_verdict(m)
            mu = realize_measure(m, v)
            oracle = convolve_oracle(atoms, weights, N)
            assert dict(zip(mu.support, mu.masses)) == oracle

    def test_case_b_uses_absolute_weights(self):
        m = make_model([(0, 0), (1, 1)], (F(-1, 2), F(-1, 2)), 2)
        v = admissibility_verdict(m)
        assert v.outcome == "CaseB"
        mu = realize_measure(m, v)
        assert dict(zip(mu.support, mu.masses)) == {
            (0, 0): F(1, 4), (1, 1): F(1, 2), (2, 2): F(1, 4)}

    def test_rejected_raises(self):
        m = make_model([(0, 0), (1, 1)], (F(1, 2), F(1, 2)), F(3, 2))
        with pytest.raises(NotAdmissible):
            realize_measure(m, admissibility_verdict(m))

    def test_support_merging(self):
        # atoms (0,0),(1,0),(2,0): at N=2 the point (2,0) arises both as
        # 2*(1,0) and (0,0)+(2,0); masses must merge
        atoms = [(F(0), F(0)), (F(1), F(0)), (F(2), F(0))]
        m = make_model(atoms, (F(1, 3),) * 3, 2)
        mu = realize_measure(m, admissibility_verdict(m))
        assert dict(zip(mu.support, mu.masses))[(2, 0)] == F(1, 9) + F(2, 9)


def pairwise_power_oracle(atoms, weights, N):
    """Independent oracle: the N-fold convolution of the mixture with
    weights |w| as N pairwise products of point -> mass dicts."""
    mixture = {a: abs(w) for a, w in zip(atoms, weights) if w}
    acc = {(F(0), F(0)): F(1)}
    for _ in range(N):
        nxt = {}
        for (x, y), mass in acc.items():
            for (u, v), w in mixture.items():
                nxt[(x + u, y + v)] = nxt.get((x + u, y + v), F(0)) + mass * w
        acc = nxt
    return acc


class TestIntegerPower:
    """The exact power, built on integers over common denominators, against
    an oracle that never leaves Fractions; support order is ascending."""

    @pytest.mark.parametrize("atoms, weights, N, case", [
        # two atoms with denominators
        ([(F(-1, 3), F(1, 9)), (F(1, 2), F(1, 4))], (F(2, 5), F(3, 5)), 5, "CaseA"),
        # three atoms off any parabola, denominators up to 7
        ([(F(-3, 7), F(2, 5)), (F(1, 4), F(-1, 6)), (F(5, 3), F(7, 2))],
         (F(1, 2), F(1, 3), F(1, 6)), 4, "CaseA"),
        # four atoms
        ([(F(0), F(0)), (F(1, 2), F(1, 3)), (F(1), F(-2, 3)), (F(3, 2), F(5, 4))],
         (F(1, 4), F(1, 8), F(3, 8), F(1, 4)), 3, "CaseA"),
        # a zero-weight atom is dropped
        ([(F(-1), F(1)), (F(0), F(0)), (F(2, 3), F(4, 9))],
         (F(1, 3), F(0), F(2, 3)), 4, "CaseA"),
        # collinear: distinct multi-indices share a point, so masses merge
        ([(F(0), F(0)), (F(1), F(1)), (F(2), F(2))], (F(1, 2), F(1, 3), F(1, 6)), 4, "CaseA"),
        ([(F(0), F(0)), (F(1, 2), F(1, 2)), (F(1), F(1)), (F(3, 2), F(3, 2))],
         (F(1, 8), F(3, 8), F(1, 4), F(1, 4)), 3, "CaseA"),
        # CaseB takes |w|
        ([(F(-1, 5), F(1, 25)), (F(2, 5), F(4, 25))], (F(-1, 3), F(-2, 3)), 4, "CaseB"),
    ])
    def test_matches_pairwise_oracle(self, atoms, weights, N, case):
        m = make_model(atoms, weights, N)
        mu = realize_measure(m, AdmissibilityVerdict(case, N=N))
        oracle = pairwise_power_oracle(m.atoms, m.weights, N)
        assert mu.support == tuple(sorted(oracle))
        assert mu.masses == tuple(oracle[pt] for pt in mu.support)


@st.composite
def integer_power_models(draw):
    """Exact 2-3 atom models on the parabola with an integer exponent N,
    CaseA or (all weights negative, N even) CaseB, and a depth >= N."""
    k = draw(st.integers(2, 3))
    lams = draw(st.lists(small_fraction, min_size=k, max_size=k, unique=True))
    ns = draw(st.lists(st.integers(1, 9), min_size=k, max_size=k))
    sign = draw(st.sampled_from((1, -1)))
    N = draw(st.integers(1, 5)) * (2 if sign < 0 else 1)
    m = make_model([(x, x * x) for x in lams],
                   [F(sign * n, sum(ns)) for n in ns], N)
    return m, N + draw(st.integers(0, 3))


class TestRealizeMatchesSeries:
    @settings(max_examples=150, deadline=None)
    @given(integer_power_models())
    def test_masses_are_the_series_terms(self, model_depth):
        m, depth = model_depth
        mu = realize_measure(m, admissibility_verdict(m))
        assert list(zip(mu.support, mu.masses)) == \
            list(expand_series(m, depth).terms.items())


class TestFiniteMeasure:
    def test_zero_weight_atoms_dropped(self):
        m = make_model([(0, 0), (1, 1), (2, 4)], (F(1, 2), F(0), F(1, 2)), 3)
        mu = realize_measure(m, admissibility_verdict(m))
        assert dict(zip(mu.support, mu.masses)) == convolve_oracle(
            [(0, 0), (2, 4)], (F(1, 2), F(1, 2)), 3)

    @pytest.mark.parametrize("r, n_atoms", [(53, 3), (54, 3), (1499, 2), (1500, 2)])
    def test_support_cap(self, r, n_atoms):
        # C(N + n - 1, n - 1) points: 1485 and 1500 fit, 1540 and 1501 do not
        atoms = [(F(0), F(0)), (F(1), F(1)), (F(2), F(4))][:n_atoms]
        m = make_model(atoms, (F(1, n_atoms),) * n_atoms, r)
        v = admissibility_verdict(m)
        if math.comb(r + n_atoms - 1, n_atoms - 1) <= measure.MAX_SUPPORT:
            assert len(realize_measure(m, v).support) == math.comb(r + n_atoms - 1,
                                                                   n_atoms - 1)
        else:
            with pytest.raises(ConfigError):
                realize_measure(m, v)

    def test_float_collinearity_is_relative_to_scale(self):
        # three points of a parabola near the origin, and a line whose
        # float points cross by rounding at 1e-4
        assert not measure._collinear([(0.0, 0.0), (1e-6, -1e-12), (3e-6, 3e-12)])
        assert measure._collinear([(k * 1e6, k * 1e6 / 3) for k in (1, 7, 13)])
        assert not measure._collinear([(0.0, 0.0), (1e6, 0.0), (0.0, 1e-3)])

    def test_exact_collinearity(self):
        # off the line by 1e-13: exactly not collinear, collinear in floats
        pts = [(F(-1), F(1, 10 ** 13)), (F(0), F(0)), (F(1), F(1, 10 ** 13))]
        assert not measure._collinear(pts)
        assert measure._collinear([(float(x), float(y)) for x, y in pts])
        assert measure._collinear([(F(k), F(2 * k + 1, 3)) for k in range(5)])

    def test_degenerate_collinear(self):
        mu = FiniteMeasure(((0, 0), (1, 1), (2, 2)), (F(1, 3),) * 3)
        assert mu.degenerate

    def test_mass_validation(self):
        with pytest.raises(ValueError, match="sum to 1"):
            FiniteMeasure(((0, 0), (1, 1)), (F(1, 2), F(1, 4)))
        with pytest.raises(ValueError, match="positive"):
            FiniteMeasure(((0, 0), (1, 1)), (F(3, 2), F(-1, 2)))

    def test_exact_masses_sum_exactly(self):
        # 1 + 1e-13 passes a float tolerance of 1e-12 but is no probability
        with pytest.raises(ValueError, match="sum to 1"):
            FiniteMeasure(((0, 0), (1, 1)), (F(1, 2), F(1, 2) + F(1, 10**13)))
        with pytest.raises(ValueError, match="sum to 1"):
            FiniteMeasure(((0, 0), (1, 1)), (F(1, 3), 2 * F(1, 3) - F(1, 10**40)))
        # float masses keep the tolerance, and so do exact and float mixed
        FiniteMeasure(((0, 0), (1, 1)), (0.5, 0.5 + 1e-13))
        FiniteMeasure(((0, 0), (1, 1)), (F(1, 2), 0.5 + 1e-13))
        FiniteMeasure(((0, 0), (1, 1), (2, 4)), (F(1, 3), F(1, 2), F(1, 6)))

    def test_laplace(self):
        mu = FiniteMeasure(((0, 0), (1, 2)), (F(1, 2), F(1, 2)))
        t = (0.3, -0.7)
        want = 0.5 + 0.5 * math.exp(0.3 - 1.4)
        assert abs(mu.laplace(t) - want) <= 1e-14


@st.composite
def accepted_powers(draw):
    """(params, model, measure): an exact model with 2 to 4 atoms on both
    conics of its params, realized CaseA or CaseB at N from 1 to 12 with
    A = -1/N.  The atoms lie on nu = (lam^2 - a lam + e A) / b with a half
    the sum of four abscissas; the second conic is fixed by three of them
    and passes through the fourth, since the quartic's roots sum to 2a."""
    case_b = draw(st.booleans())
    N = 2 * draw(st.integers(1, 6)) if case_b else draw(st.integers(1, 12))
    A = F(-1, N)
    lams = draw(st.lists(small_fraction, min_size=4, max_size=4, unique=True))
    a, b, e = sum(lams) / 2, draw(small_fraction.filter(bool)), draw(small_fraction)
    pts = [(lam, (lam * lam - a * lam + e * A) / b) for lam in lams]
    c, d, h = _solve3([(lam, nu, F(1)) for lam, nu in pts[:3]],
                      [nu * nu for _, nu in pts[:3]])
    p = DiagonalVFParams(A, a, b, c, d, e, -h / A)
    k = draw(st.integers(2, 4))
    ns = draw(st.lists(st.integers(1, 9), min_size=k, max_size=k))
    m = make_model(pts[:k], tuple((-1 if case_b else 1) * F(n, sum(ns)) for n in ns), N)
    v = AdmissibilityVerdict("CaseB" if case_b else "CaseA", N=N)
    return p, m, realize_measure(m, v)


def fraction_power(m):
    """The exact N-fold power as Fractions, N = r: power_terms on the
    Fraction atoms and weights |alpha_i|, merged by merge_points, which
    sorts the points stably by their floats."""
    kept = [(x, abs(w)) for x, w in zip(m.atoms, m.weights) if w]
    merged = merge_points(power_terms([(m.r, 1)], [w for _, w in kept], (0, 0),
                                      [x for x, _ in kept]), True)
    return tuple(pt for pt, _, _ in merged), tuple(c for _, c, _ in merged)


class TestClearedMeasure:
    """A realized exact measure is the model's power in Fractions, and its
    checks run on integers."""

    @settings(max_examples=150, deadline=None)
    @given(accepted_powers())
    def test_matches_fraction_power(self, model):
        p, m, mu = model
        assert (mu.support, mu.masses) == fraction_power(m)
        assert all(type(v) is F for pt in mu.support for v in pt)
        assert all(type(w) is F for w in mu.masses)
        twin = FiniteMeasure(mu.support, mu.masses)
        assert mu == twin and twin == mu and hash(mu) == hash(twin)
        assert twin.is_exact and twin.degenerate == mu.degenerate
        # the twin's walk is mu's; the model's certificate reads exactly 0
        rep = certified(m, p)
        assert rep.exact and rep.max_dev == 0
        assert regression_check(twin, p) == regression_check(mu, p)

    def test_checks_form_no_fractions(self):
        m, mu = model_and_measure(E1, W3)
        assert certified(m, E1).max_dev == 0
        assert regression_check(mu, E1).max_dev == 0
        assert not mu.degenerate and mu.is_exact
        assert mu.support == ((-1, 1), (0, 0), (1, 1))
        assert mu.masses == W3

    def test_constructor_keeps_its_tuples(self):
        pts, masses = ((0, 0), (1, 2)), (F(1, 2), F(1, 2))
        mu = FiniteMeasure(pts, masses)
        assert mu.support is pts and mu.masses is masses

    def test_cleared_form_is_validated(self):
        # integer weights W over a scale S, as realize_measure forms them
        with pytest.raises(ValueError, match="positive"):
            FiniteMeasure(((0, 0), (1, 1)), (F(3, 2), F(-1, 2)))
        with pytest.raises(ValueError, match="sum to 1"):
            FiniteMeasure(((0, 0), (1, 1)), (F(1, 4), F(2, 4)))


class TestCumulantEval:
    def test_e1_at_origin(self):
        m = candidate_model(E1, W3)
        k, mean, cov = cumulant_eval(m, (0.0, 0.0))
        assert abs(k) <= 1e-15
        assert np.allclose(mean, [0.0, 0.5], atol=1e-15)
        assert np.allclose(cov, [[0.5, 0.0], [0.0, 0.25]], atol=1e-15)

    def test_p2_at_origin(self):
        m = candidate_model(P2, W3)
        _, mean, cov = cumulant_eval(m, (0.0, 0.0))
        assert np.allclose(mean, [0.0, -0.5], atol=1e-15)
        assert np.allclose(cov, [[0.5, 0.0], [0.0, 0.25]], atol=1e-15)

    def test_matches_measure_laplace(self):
        rng = np.random.default_rng(3)
        for weights, r in [(W3, 1), ((F(1, 3), F(1, 3), F(1, 3)), 3)]:
            m = make_model([(-1, 1), (0, 0), (1, 1)], weights, r)
            mu = realize_measure(m, admissibility_verdict(m))
            for _ in range(20):
                theta = tuple(rng.uniform(-2, 2, size=2))
                k, _, _ = cumulant_eval(m, theta)
                assert abs(math.exp(k) - mu.laplace(theta)) <= 1e-10 * math.exp(k)

    def test_extreme_theta_no_overflow(self):
        m = candidate_model(E1, W3)
        k, mean, _ = cumulant_eval(m, (800.0, 0.0))
        assert math.isfinite(k) and abs(mean[0] - 1.0) <= 1e-6


class TestMeanToTheta:
    def test_roundtrip(self):
        m = candidate_model(E1, W3)
        rng = np.random.default_rng(17)
        for _ in range(30):
            theta = rng.uniform(-2, 2, size=2)
            _, mean, _ = cumulant_eval(m, theta)
            back = mean_to_theta(m, tuple(mean))
            _, mean2, _ = cumulant_eval(m, back)
            assert np.linalg.norm(mean2 - mean) <= 1e-10

    def test_out_of_domain(self):
        m = candidate_model(E1, W3)
        with pytest.raises(OutOfMeanDomain):
            mean_to_theta(m, (5.0, 5.0))

    def test_boundary_not_interior(self):
        m = candidate_model(E1, W3)
        # (0, 1) is on the hull edge between atoms (-1,1) and (1,1)
        with pytest.raises(OutOfMeanDomain):
            mean_to_theta(m, (0.0, 1.0))

    def test_collinear_raises(self):
        m = make_model([(0, 0), (1, 1), (2, 2)], (F(1, 3),) * 3, 1)
        with pytest.raises(Degenerate):
            mean_to_theta(m, (1.0, 1.0))

    @pytest.mark.parametrize("atoms, N", [
        ([(-1, 1), (0, 0), (1, 1)], 1),
        ([(-1, 0), (0, -1), (1, 0)], 3),
        ([(x, x * x) for x in (-2, F(-1, 2), 1, 3)], 2),
        ([(0, 0), (4, 1), (1, 4), (2, 2)], 3),    # one atom inside the hull
        # N * atom / N is not the atom in floats: a vertex target sits an
        # ulp off its atom
        ([(F(x, 10), F(x * x, 100)) for x in (1, 7, 13, 29)], 3),
    ])
    def test_interior_matches_hull_margin(self, atoms, N):
        from scipy.spatial import ConvexHull

        m = make_model(atoms, (F(1, len(atoms)),) * len(atoms), N)
        pts = [np.array(a, dtype=float) for a in atoms]
        eqs = ConvexHull(pts).equations

        def hull_interior(target):
            t = np.asarray(target) / N
            return (eqs[:, :2] @ t + eqs[:, 2]).max() <= -1e-9

        def accepted(target):
            try:
                mean_to_theta(m, target)
            except OutOfMeanDomain as exc:
                return "not interior" not in str(exc)
            return True

        targets = [N * p for p in pts]                                   # vertices
        targets += [N * (p + q) / 2 for p, q in itertools.combinations(pts, 2)]
        targets += [N * sum(pts) / len(pts)]
        rng = np.random.default_rng(5)
        lo, hi = np.min(pts, axis=0) - 1, np.max(pts, axis=0) + 1
        targets += [N * rng.uniform(lo, hi) for _ in range(200)]
        for target in targets:
            target = (float(target[0]), float(target[1]))
            assert accepted(target) == hull_interior(target), target


def test_import_leaves_scipy_out():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, diagvf; print('scipy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"


class TestDiagVarianceCheck:
    def test_e1_passes(self):
        # exact and float twin alike: the conic residuals decide, on no
        # theta; the twin's 121-point grid agrees
        m = candidate_model(E1, W3)
        rep = diag_variance_check(m, E1)
        assert (rep.max_dev, rep.n_points) == (0.0, 0) and rep.passed
        rep = diag_variance_check(float_twin(m), E1)
        assert (rep.max_dev, rep.n_points) == (0.0, 0) and rep.passed
        rep = diag_variance_check(float_twin(m), E1, GRID_121)
        assert rep.passed and rep.max_dev <= 1e-10
        assert rep.n_points == 121

    def test_p2_passes(self):
        m = candidate_model(P2, W3)
        rep = diag_variance_check(m, P2)
        assert rep.passed and rep.max_dev <= 1e-10

    def test_wrong_sign_ordinates_fail(self):
        # P2 atoms with the ordinate sign flipped: (lam^2 - e*A)/b
        m = make_model([(-1, 2), (0, 1), (1, 2)], W3, 1)
        rep = diag_variance_check(m, P2)
        assert not rep.passed and rep.max_dev >= 0.5

    def test_perturbed_params_fail(self):
        m = candidate_model(E1, W3)
        bad = DiagonalVFParams(F(-1), F(0), F(1), F(0), F(1), F(1, 10), F(0))
        rep = diag_variance_check(m, bad)
        assert not rep.passed and rep.max_dev >= 0.05

    def test_decimal_tolerance_scales_with_the_right_hand_sides(self):
        # roots 0, 1, 5, 2000 at N = 3: A's rounding leaves the gap term
        # r |1 + A r| max nu_i^2 = 6.6e-4, far below the size of the
        # right-hand sides' terms at the vertices, about 1.2e13; an
        # absolute tol rejected the model, whose exact twin is admissible
        params = {"A": -0.3333333333333333, "a": 1003, "b": 1, "c": 996996012,
                  "d": 994004, "e": 0, "f": 0}
        rep = run_characterize({"params": params, "weights": [0.25] * 4})
        assert 1e-4 < rep.diag_check["max_dev"] < 1e-3
        assert rep.diag_check["pass"] and rep.regression["pass"]
        assert rep.status == "Admissible"
        exact = dict(params, A="-1/3")
        rep = run_characterize({"params": exact, "weights": ["1/4"] * 4})
        assert rep.status == "Admissible" and rep.diag_check["max_dev"] == 0

    def test_exact_and_perturbed_decimal_tolerances(self):
        # exact input keeps the absolute tol; a decimal model off its
        # params by far more than rounding still fails at the scaled tol
        m = candidate_model(E1, W3)
        assert diag_variance_check(m, E1).tol == 1e-8
        twin = float_twin(m)
        rep = diag_variance_check(twin, E1)
        # E1's atoms (-1, 1), (0, 0), (1, 1) at r = 1: the largest size is
        # |A| + |b| = 2
        assert rep.tol == 2e-8 and rep.passed
        bad = DiagonalVFParams(-1.0, 0.0, 1.0, 0.0, 1.0, 0.1, 0.0)
        rep = diag_variance_check(twin, bad)
        assert not rep.passed and rep.max_dev >= 0.05


def regression_oracle(mu, p):
    """Independent oracle: every ordered pair, grouped by exact sum point.

    Returns the exact maximum deviation of the two conditional-expectation
    identities and the number of sum points.
    """
    A, a, b, c, d, e, f = (F(x) for x in p.as_tuple())
    groups = {}
    for (x, wx), (y, wy) in itertools.product(zip(mu.support, mu.masses), repeat=2):
        s = (F(x[0]) + y[0], F(x[1]) + y[1])
        w = F(wx) * wy
        g1 = (x[0] - y[0]) ** 2 - 2 * A * x[0] * y[0]
        g2 = (x[1] - y[1]) ** 2 - 2 * A * x[1] * y[1]
        den, n1, n2 = groups.get(s, (F(0), F(0), F(0)))
        groups[s] = (den + w, n1 + w * g1, n2 + w * g2)
    dev = F(0)
    for s, (den, n1, n2) in groups.items():
        dev = max(dev, abs(n1 / den - (a * s[0] + b * s[1] + 2 * e)),
                  abs(n2 / den - (c * s[0] + d * s[1] + 2 * f)))
    return dev, len(groups)


small_fraction = st.builds(F, st.integers(-4, 4), st.sampled_from((1, 2, 3)))


@st.composite
def exact_measures(draw):
    """Small exact measures; coordinates on a coarse grid so sums collide."""
    pts = draw(st.lists(st.tuples(small_fraction, small_fraction),
                        min_size=1, max_size=6, unique=True))
    ns = draw(st.lists(st.integers(1, 9), min_size=len(pts), max_size=len(pts)))
    return FiniteMeasure(tuple(pts), tuple(F(n, sum(ns)) for n in ns))


@st.composite
def exact_params(draw):
    A = -draw(st.builds(F, st.integers(1, 5), st.integers(1, 4)))
    b = draw(small_fraction.filter(bool))
    return DiagonalVFParams(A, draw(small_fraction), b,
                            *(draw(small_fraction) for _ in range(4)))


def diag_oracle(m, p, theta_grid):
    """Oracle: cumulant_eval at each theta in turn, and the first largest
    deviation, a NaN one counting as the largest; an empty grid gives an
    infinite one.  DomainViolation comes from the first bad theta."""
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


def diag_outcome(check, *args):
    try:
        return check(*args)
    except DomainViolation as exc:
        return str(exc)


@st.composite
def diag_models(draw, signs=("+", "-")):
    """Two to four atoms, exact or float, with weights of one sign (CaseA
    or CaseB) or, with signs="mixed", of both."""
    exact = draw(st.booleans())
    coord = small_fraction if exact else st.floats(-3, 3)
    k = draw(st.integers(2, 4))
    lams = draw(st.lists(coord, min_size=k, max_size=k, unique=True))
    atoms = [(lam, draw(coord)) for lam in lams]
    mags = draw(st.lists(st.integers(1, 9), min_size=k, max_size=k))
    sign = draw(st.sampled_from(signs))
    if sign == "mixed":
        ws = [F(n, 4) * draw(st.sampled_from((1, -1))) for n in mags]
    else:
        ws = [F(n, sum(mags)) * (1 if sign == "+" else -1) for n in mags]
    if not exact:
        ws = [float(w) for w in ws]
    r = draw(st.sampled_from((1, 2, 3, F(1, 2))))
    return make_model(atoms, ws, r if exact else float(r))


theta_grids = st.one_of(
    st.none(),
    st.lists(st.tuples(st.floats(-30, 30), st.floats(-30, 30)), max_size=40),
    st.lists(st.tuples(small_fraction, small_fraction), max_size=10))


class TestDiagDifferential:
    @settings(max_examples=200, deadline=None)
    @given(diag_models(), exact_params(), theta_grids)
    def test_matches_per_theta_oracle(self, m, p, grid):
        # named theta points always take the grid; with none, a model on
        # the conic rule gets the certificate, which bounds the oracle on
        # the default grid, and any other takes that grid
        rep = diag_variance_check(m, p, grid)
        cert = measure._conic_certificate(m, p, m.r)
        if grid is None and cert is not None:
            assert (rep.max_dev, rep.n_points) == (float(cert), 0)
            dev, _ = diag_oracle(m, p, GRID_121)
            assert dev <= float(cert) * (1 + 1e-9) + 1e-12
            return
        grid = GRID_121 if grid is None else grid
        assert (rep.max_dev, rep.worst_theta) == diag_oracle(m, p, grid)
        assert rep.n_points == len(grid)

    @settings(max_examples=100, deadline=None)
    @given(diag_models(signs=("mixed",)), exact_params(), theta_grids)
    def test_mixed_signs_match_oracle(self, m, p, grid):
        # the draw can give weights of one sign, such as (1/4, 1/4): on a
        # chain that gets the certificate, so name the grid then
        if grid is None and measure._conic_certificate(m, p, m.r) is not None:
            grid = GRID_121
        got = diag_outcome(diag_variance_check, m, p, grid)
        want = diag_outcome(diag_oracle, m, p, GRID_121 if grid is None else grid)
        if isinstance(got, str):
            assert got == want
        else:
            assert (got.max_dev, got.worst_theta) == want

    def test_nonpositive_transform_names_first_bad_theta(self):
        # 2 e^0 - e^(t1 + t2) <= 0 once t1 + t2 >= log 2
        m = make_model([(0, 0), (1, 1)], (F(2), F(-1)), 1)
        grid = [(0.0, 0.0), (0.5, 0.1), (0.4, 0.4), (1.0, 1.0)]
        with pytest.raises(DomainViolation) as exc:
            diag_variance_check(m, E1, grid)
        assert str(exc.value) == diag_outcome(diag_oracle, m, E1, grid)
        assert "theta=(0.4, 0.4)" in str(exc.value)

    def test_nan_deviation_fails(self):
        # ordinates 10^155: on the named grid some second-coordinate
        # covariances overflow; the certificate, from the exact values of
        # the floats, fails too
        p = DiagonalVFParams(F(-1), F(0), F(1, 10 ** 155), F(0), F(10 ** 155),
                             F(0), F(0))
        m = make_model([(-1.0, 1e155), (0.0, 0.0), (1.0, 1e155)],
                       (0.25, 0.5, 0.25), 1.0)
        with np.errstate(all="ignore"):
            rep = diag_variance_check(m, p, GRID_121)
            assert math.isnan(diag_oracle(m, p, GRID_121)[0])
        assert math.isnan(rep.max_dev) and not rep.passed
        rep = diag_variance_check(m, p)
        assert rep.n_points == 0 and not rep.passed

    def test_empty_grid_fails(self):
        m = make_model([(0.0, 0.0), (1.0, 1.0)], (0.5, 0.5), 1.0)
        rep = diag_variance_check(m, E1, [])
        assert rep.n_points == 0 and not rep.passed


class TestRegressionDifferential:
    def assert_matches_oracle(self, mu, p):
        rep = regression_check(mu, p)
        dev, n_groups = regression_oracle(mu, p)
        assert rep.exact
        assert rep.max_dev == float(dev)
        assert rep.n_groups == n_groups

    @settings(max_examples=150, deadline=None)
    @given(exact_measures(), exact_params())
    def test_random_measures(self, mu, p):
        self.assert_matches_oracle(mu, p)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4), st.lists(st.integers(1, 5), min_size=3, max_size=3),
           st.sampled_from(("e", "f", "a", "d")), small_fraction)
    def test_realized_models_perturbed(self, N, ns, field, delta):
        # E1 at A = -1/N: zero deviation unperturbed, nonzero otherwise
        base = dict(A=F(-1, N), a=F(0), b=F(1), c=F(0), d=F(1), e=F(0), f=F(0))
        _, mu = model_and_measure(DiagonalVFParams(**base),
                                  tuple(F(n, sum(ns)) for n in ns))
        base[field] += delta
        p = DiagonalVFParams(**base)
        self.assert_matches_oracle(mu, p)
        assert (regression_check(mu, p).max_dev == 0) == (delta == 0)


def _solve3(rows, rhs):
    """Cramer's rule for a 3x3 system of Fractions."""
    def det(m):
        return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))
    d = det(rows)
    return [det([row[:i] + (r,) + row[i + 1:] for row, r in zip(rows, rhs)]) / d
            for i in range(3)]


@st.composite
def parabola_models(draw):
    """(params, model, measure): a realized exact 2- or 3-atom model, CaseA
    or CaseB with N from 1 to 8, whose atoms lie on both parabolas
    lam^2 = a lam + b nu - e A and nu^2 = c lam + d nu - f A of the params.

    Three points with distinct abscissas, not collinear, fix the params;
    a 2-atom model keeps the first two of them.
    """
    case_b = draw(st.booleans())
    N = 2 * draw(st.integers(1, 4)) if case_b else draw(st.integers(1, 8))
    A = F(-1, N)
    pts = draw(st.lists(st.tuples(small_fraction, small_fraction), min_size=3,
                        max_size=3, unique_by=lambda pt: pt[0]))
    assume(not measure._collinear(pts))
    rows = [(lam, nu, F(1)) for lam, nu in pts]
    a, b, g = _solve3(rows, [lam * lam for lam, _ in pts])
    c, d, h = _solve3(rows, [nu * nu for _, nu in pts])
    p = DiagonalVFParams(A, a, b, c, d, -g / A, -h / A)
    k = draw(st.sampled_from((2, 3)))
    ns = draw(st.lists(st.integers(1, 9), min_size=k, max_size=k))
    sign = -1 if case_b else 1
    m = make_model(pts[:k], tuple(sign * F(n, sum(ns)) for n in ns), -1 / A)
    v = admissibility_verdict(m)
    assert v.outcome == ("CaseB" if case_b else "CaseA")
    return p, m, realize_measure(m, v)


@st.composite
def chain_models(draw):
    """(params, model, measure): four exact atoms on a strict convex chain,
    realized at N from 1 to 4 with A = -1/N and random a, b, c, d, e, f.
    The atoms lie on the parabola nu = (lam^2 - a lam + e A) / b, where the
    first conic's residuals vanish, or anywhere on a chain off it."""
    N = draw(st.integers(1, 4))
    A = F(-1, N)
    a, c, d, e, f = (draw(small_fraction) for _ in range(5))
    b = draw(small_fraction.filter(bool))
    lams = sorted(draw(st.lists(small_fraction, min_size=4, max_size=4,
                                unique=True)))
    if draw(st.booleans()):
        atoms = [(lam, (lam * lam - a * lam + e * A) / b) for lam in lams]
    else:
        atoms = [(lam, draw(small_fraction)) for lam in lams]
        assume(measure._convex_chain(atoms))
    ns = draw(st.lists(st.integers(1, 9), min_size=4, max_size=4))
    m = make_model(atoms, tuple(F(n, sum(ns)) for n in ns), -1 / A)
    mu = realize_measure(m, AdmissibilityVerdict("CaseA", N=N))
    return DiagonalVFParams(A, a, b, c, d, e, f), m, mu


def _perturbed(p, field, delta):
    vals = dict(zip("Aabcdef", p.as_tuple()))
    vals[field] += delta
    return DiagonalVFParams(**vals)


class TestRegressionClosedForm:
    """The conic-residual certificate against the pair-enumeration oracle."""

    def assert_matches_oracle(self, mu, p, m=None):
        """The walk over mu, or given its model the certificate, against the
        oracle; returns the oracle's deviation."""
        rep = regression_check(mu, p) if m is None else certified(m, p)
        dev, n_groups = regression_oracle(mu, p)
        assert rep.exact and rep.max_dev == float(dev)
        assert m is not None or rep.n_groups == n_groups
        return dev

    @settings(max_examples=80, deadline=None)
    @given(parabola_models(), st.sampled_from("acdef"),
           small_fraction.filter(bool))
    def test_realized_models(self, model, field, delta):
        p, m, mu = model
        assert self.assert_matches_oracle(mu, p, m) == 0
        q = _perturbed(p, field, delta)
        self.assert_matches_oracle(mu, q, m)

    @settings(max_examples=60, deadline=None)
    @given(parabola_models(), st.booleans())
    def test_other_measures_take_the_walk(self, model, extra_point):
        # one mass moved, or one extra point: the walk, which takes no
        # model, agrees with the oracle
        p, m, mu = model
        pts, ws = list(mu.support), list(mu.masses)
        if extra_point:
            pts.append((max(x for x, _ in pts) + 1, F(0)))
            ws = [w * F(6, 7) for w in ws] + [F(1, 7)]
        else:
            ws[0], ws[1] = ws[0] / 2, ws[1] + ws[0] / 2
        other = FiniteMeasure(tuple(pts), tuple(ws))
        self.assert_matches_oracle(other, p)

    @pytest.mark.parametrize("atoms, weights, r", [
        (((-1, 1), (0, 0), (1, 1)), W3, 1),
        # a zero-weight atom is dropped, as the verdict drops it
        (((-1, 1), (0, 0), (1, 1), (2, 4)), W3 + (F(0),), 1),
        (((-1, 1), (0, 0), (1, 1)), W3, F(1, 2)),
        (((-1, 1), (0, 0), (1, 1)), tuple(float(w) for w in W3), 1.0),
        (((-1, 1), (0, 0), (1, 1), (2, 4)), (F(1, 4),) * 4, 1),
    ], ids=["e1", "zero-weight", "fractional-r", "float", "four-atoms"])
    def test_applies_to_exact_chain_powers(self, atoms, weights, r):
        # mu is the power at N = 1 of the model's exact twin; check_model
        # reads the certificate at the verdict's N = 1 whatever r is, and on
        # the float model too, whose own power is mu up to rounding
        twin = make_model(atoms, tuple(F(w) for w in weights), 1)
        mu = realize_measure(twin, AdmissibilityVerdict("CaseA", N=1))
        m = make_model(atoms, weights, r)
        _, rep = measure.check_model(m, E1, AdmissibilityVerdict("CaseA", N=1))
        assert rep.n_groups == 0 and rep.max_dev == float(regression_oracle(mu, E1)[0])
        self.assert_matches_oracle(mu, E1)

    @settings(max_examples=80, deadline=None)
    @given(chain_models())
    def test_four_atom_chains(self, model):
        p, m, mu = model
        self.assert_matches_oracle(mu, p, m)

    def test_lattice_relation_merges_sums(self):
        # on nu = lam^2, lam = 0, 1, 2, 3 have the relation (1, -3, 3, -1),
        # so at 2N = 4 the compositions (1, 0, 3, 0) and (0, 3, 0, 1) share
        # a sum
        m = make_model([(k, k * k) for k in range(4)], (F(1, 4),) * 4, 2)
        mu = realize_measure(m, AdmissibilityVerdict("CaseA", N=2))
        p = DiagonalVFParams(F(-1, 2), F(0), F(1), F(1), F(2), F(3), F(4))
        assert regression_check(mu, p).n_groups < math.comb(4 + 3, 3)
        assert self.assert_matches_oracle(mu, p) > 0
        assert self.assert_matches_oracle(mu, p, m) > 0

    @pytest.mark.parametrize("atoms, N, p, on_rule", [
        # turns left, then right: (0, 0) is not a hull vertex
        (((-1, 1), (0, 0), (1, 1), (2, 0)), 1, E1, False),
        # a chain at A N = -2: the certificate with its gap term bounds the
        # walk, which regression_check, given no model, still takes
        (((-1, 1), (0, 0), (1, 1), (2, 4)), 2, E1, True),
    ], ids=["not-a-chain", "a-n-not-minus-one"])
    def test_other_four_atom_models_take_the_walk(self, atoms, N, p, on_rule):
        m = make_model(atoms, (F(1, 4),) * 4, N)
        mu = realize_measure(m, AdmissibilityVerdict("CaseA", N=N))
        if not on_rule:
            _, rep = measure.check_model(m, p, AdmissibilityVerdict("CaseA", N=N))
            assert rep == regression_check(mu, p, 1e-8)
            self.assert_matches_oracle(mu, p)
            return
        bound = 2 * measure._conic_certificate(m, p, m.r)
        dev, oracle_groups = regression_oracle(mu, p)
        assert 0 < dev <= bound and certified(m, p).max_dev == float(bound)
        walk = regression_check(mu, p)
        assert (walk.max_dev, walk.n_groups) == (float(dev), oracle_groups)

    def test_collinear_atoms_take_the_walk(self):
        # the atoms are no strict chain, so check_model realizes mu and
        # walks it; at 2N the sums (-1, 1) + (1, -1) and 2 (0, 0) coincide
        m = make_model([(-1, 1), (0, 0), (1, -1)], W3, 1)
        mu = realize_measure(m, admissibility_verdict(m))
        _, rep = measure.check_model(m, E1, admissibility_verdict(m))
        assert rep == regression_check(mu, E1, 1e-8)
        self.assert_matches_oracle(mu, E1)

    def test_e1_at_n_40_is_fast(self):
        p = DiagonalVFParams(F(-1, 40), F(0), F(1), F(0), F(1), F(0), F(0))
        m = candidate_model(p, W3)
        start = time.perf_counter()
        rep = certified(m, p)
        assert time.perf_counter() - start < 0.1
        assert rep.exact and rep.max_dev == 0


class TestConicResidual:
    """The diag check from the atoms' conic residuals."""

    @settings(max_examples=60, deadline=None)
    @given(chain_models(), st.lists(st.integers(1, 20), min_size=4, max_size=4),
           st.sampled_from((None, F(-1, 3), F(-2), F(-7, 5))))
    def test_identity_at_rational_tilts(self, model, ns, other_A):
        # V_kk - rhs_k = r sum P_i rho_i(r) - r (1 + A r) (sum P_i lam_i)^2
        # (sigma_i and nu_i for k = 2) for every probability vector P, so
        # for every tilt; all in Fractions.  The model keeps r = N when A
        # moves off -1/N, and the gap term then counts.
        p, m, _ = model
        if other_A is not None:
            p = _perturbed(p, "A", other_A - p.A)
        A, a, b, c, d, e, f = p.as_tuple()
        r, P = m.r, [F(n, sum(ns)) for n in ns]

        def mean(values):
            return sum(pi * v for pi, v in zip(P, values))

        lam, nu = [x for x, _ in m.atoms], [y for _, y in m.atoms]
        m1, m2 = r * mean(lam), r * mean(nu)
        v11 = r * (mean([x * x for x in lam]) - mean(lam) ** 2)
        v22 = r * (mean([y * y for y in nu]) - mean(nu) ** 2)
        rho = [x * x - a * x - b * y - e / r for x, y in m.atoms]
        sigma = [y * y - c * x - d * y - f / r for x, y in m.atoms]
        dev1 = v11 - (A * m1 * m1 + a * m1 + b * m2 + e)
        dev2 = v22 - (A * m2 * m2 + c * m1 + d * m2 + f)
        assert dev1 == r * mean(rho) - r * (1 + A * r) * mean(lam) ** 2
        assert dev2 == r * mean(sigma) - r * (1 + A * r) * mean(nu) ** 2
        cert = r * (max(abs(v) for v in rho + sigma)
                    + abs(1 + A * r) * max(v * v for v in lam + nu))
        assert measure._conic_certificate(m, p, r) == cert
        assert max(abs(dev1), abs(dev2)) <= cert
        rep = diag_variance_check(m, p)
        assert (rep.max_dev, rep.n_points) == (float(cert), 0)

    @settings(max_examples=80, deadline=None)
    @given(st.one_of(parabola_models(), chain_models()), st.sampled_from("Aacdef"),
           small_fraction)
    def test_grid_stays_below_certificate(self, model, field, delta):
        # the certificate bounds the 121-point grid of the exact model and
        # of its float twin, read as the exact values of its floats, and
        # twice it at s = N bounds the exact pair walk; a moved A leaves
        # A r = -1, and the gap term counts
        p, m, mu = model
        q = _perturbed(p, field, -abs(delta) if field == "A" else delta)
        cert = measure._conic_certificate(m, q, m.r)
        assume(cert != 0)
        for model in (m, float_twin(m)):
            bound = measure._conic_certificate(model, q, model.r)
            rep = diag_variance_check(model, q, GRID_121)
            assert rep.n_points == 121
            assert rep.max_dev <= float(bound) * (1 + 1e-9)
        assert float(bound) == pytest.approx(float(cert), rel=1e-9)
        dev, _ = regression_oracle(mu, q)
        assert dev <= 2 * cert and certified(m, q).max_dev == float(2 * cert)

    @pytest.mark.parametrize("atoms, weights, r, p, on_rule", [
        (((-1, 1), (0, 0), (1, 1)), (F(1, 8), F(1), F(-1, 8)), 1, E1, False),
        (((-1, 1), (0, 0), (1, 1)), W3, 2, E1, True),
        (((-1, 1), (0, 0), (1, 1), (2, 0)), (F(1, 4),) * 4, 1, E1, False),
        (((-1, 1), (0, 0), (1, -1)), W3, 1, E1, False),
        (((-1, 1), (0, 0), (1, 1)), (0.25, 0.5, 0.25), 1.0, E1, True),
        (((-1, 1), (0, 0), (1, 1)), W3, 1,
         DiagonalVFParams(*(float(v) for v in E1.as_tuple())), True),
    ], ids=["mixed-signs", "a-r-not-minus-one", "not-a-chain", "collinear",
            "float-model", "float-params"])
    def test_other_inputs_take_the_grid(self, atoms, weights, r, p, on_rule):
        # off the rule the check takes the grid; on it (A r != -1 with its
        # gap term, and floats read as their exact values) it takes the
        # certificate, and the grid only when the theta points are named
        m = make_model(atoms, weights, r)
        cert = measure._conic_certificate(m, p, m.r)
        assert (cert is not None) == on_rule
        want = diag_oracle(m, p, GRID_121)
        rep = diag_variance_check(m, p, GRID_121 if on_rule else None)
        assert rep.n_points == 121
        assert (rep.max_dev, rep.worst_theta) == want
        if on_rule:
            rep = diag_variance_check(m, p)
            assert (rep.max_dev, rep.n_points) == (float(cert), 0)
            assert want[0] <= float(cert) + 1e-12


class TestCachedForms:
    """An exact model keeps its cleared form; its reads must leave what
    realize_measure builds unchanged, and a float twin equal to the model
    must not see it."""

    P = DiagonalVFParams(F(-1, 2), F(0), F(1), F(0), F(1), F(0), F(0))

    def test_reads_leave_the_power(self):
        m, mu = model_and_measure(self.P, W3)
        v = admissibility_verdict(m)
        first = measure.check_model(m, self.P, v)
        assert first[1].exact and first[1].max_dev == 0 and first[1].n_groups == 0
        assert measure.check_model(m, self.P, v) == first
        assert realize_measure(m, v) == mu
        walk = regression_check(mu, self.P)
        assert walk.exact and walk.max_dev == 0 and walk.n_groups == 15

    def test_swapped_masses_get_no_certificate(self):
        # the walk takes the measure alone, so it reads the swap
        m, mu = model_and_measure(self.P, W3)
        masses = list(mu.masses)
        assert masses[0] != masses[1]
        masses[0], masses[1] = masses[1], masses[0]
        swapped = FiniteMeasure(mu.support, tuple(masses))
        rep = regression_check(swapped, self.P)
        dev, n_groups = regression_oracle(swapped, self.P)
        assert rep.exact and (rep.max_dev, rep.n_groups) == (float(dev), n_groups)
        assert rep.max_dev > 0

    def test_equal_float_twins_stay_float(self):
        # the twins' certificates read the same exact values, but their
        # measures and regression reports stay float, and the walk agrees
        m, mu = model_and_measure(E1, W3)
        assert measure._conic_certificate(m, E1, m.r) == 0
        twin = float_twin(m)
        assert twin == m and not twin.is_exact
        assert measure._conic_certificate(twin, E1, twin.r) == 0
        mu_f = realize_measure(twin, admissibility_verdict(twin))
        assert not mu_f.is_exact
        floats = DiagonalVFParams(*(float(v) for v in E1.as_tuple()))
        assert floats == E1 and E1.quartic.is_exact
        assert not floats.quartic.is_exact
        assert measure._conic_certificate(m, floats, m.r) == 0
        for measure_, params, model in ((mu_f, E1, twin), (mu, floats, m)):
            rep = certified(model, params)
            assert not rep.exact and rep.passed and rep.max_dev == 0.0
            walk = regression_check(measure_, params)
            assert not walk.exact and walk.max_dev == 0.0
            assert walk.n_groups == regression_oracle(mu, E1)[1]


class TestRegressionCheck:
    def test_e1_exact_zero(self):
        _, mu = model_and_measure(E1, W3)
        rep = regression_check(mu, E1)
        assert rep.exact and rep.max_dev == 0.0 and rep.passed

    def test_p2_exact_zero(self):
        _, mu = model_and_measure(P2, W3)
        rep = regression_check(mu, P2)
        assert rep.exact and rep.max_dev == 0.0

    def test_perturbed_e_fails(self):
        _, mu = model_and_measure(E1, W3)
        bad = DiagonalVFParams(F(-1), F(0), F(1), F(0), F(1), F(1, 10), F(0))
        rep = regression_check(mu, bad)
        assert not rep.passed and abs(rep.max_dev - 0.2) <= 1e-12

    def test_float_inputs_not_exact(self):
        _, mu = model_and_measure(E1, W3)
        mu_f = FiniteMeasure(tuple((float(x), float(y)) for x, y in mu.support),
                             tuple(float(w) for w in mu.masses))
        rep = regression_check(mu_f, E1)
        assert not rep.exact and rep.max_dev <= 1e-12

    def test_decimal_twin_passes_at_the_scale_of_its_sums(self):
        # the right-hand sides reach about 6e7: the float walk's max_dev is
        # 3.35e-8, past the absolute tol 1e-8 but far within tol * 6e7; the
        # report's certificate, from the exact values of the floats, is
        # 3.5e-9, and its scale, read at the chain vertices, is the walk's
        params = {"A": "-1/12", "a": "33", "b": "1", "c": "24192", "d": "724",
                  "e": "0", "f": "0"}
        exact = {"params": params, "weights": ["1/4"] * 4}
        decimal = {"params": {k: float(F(v)) for k, v in params.items()},
                   "weights": [0.25] * 4}
        for cfg in (exact, decimal):
            assert run_characterize(cfg).status == "Admissible"
        p = DiagonalVFParams(*(decimal["params"][k] for k in "Aabcdef"))
        m = candidate_model(p, decimal["weights"])
        mu = realize_measure(m, admissibility_verdict(m))
        walk = regression_check(mu, p, tol=1e-8)
        _, cert = measure.check_model(m, p, admissibility_verdict(m), tol=1e-8)
        assert walk.passed and cert.passed and not cert.exact
        assert walk.max_dev > 1e-8 > cert.max_dev
        assert cert.tol == pytest.approx(walk.tol, rel=1e-12) and cert.tol > 0.1
        assert run_characterize(decimal).regression["max_dev"] == cert.max_dev

    TINY_ORDINATES = {"params": {"A": -1, "a": 0, "b": 1e12, "c": 0, "d": 1e-12,
                                 "e": 0, "f": 0},
                      "weights": [0.25, 0.5, 0.25]}

    def test_decimal_twin_with_tiny_ordinates_passes_the_regression(self):
        # the atoms' ordinates 1e-12 fell into the sum point 0's group on
        # the float walk's absolute 1e-9 grid, which read max_dev 1.33; the
        # certificate reads the residuals, and bounds the exact oracle
        rep = run_characterize(self.TINY_ORDINATES)
        assert rep.regression["pass"] and rep.regression["max_dev"] < 1e-16
        assert rep.diag_check["pass"]
        p = DiagonalVFParams(*(self.TINY_ORDINATES["params"][k] for k in "Aabcdef"))
        m = candidate_model(p, self.TINY_ORDINATES["weights"])
        mu = realize_measure(m, admissibility_verdict(m))
        bound = 2 * measure._conic_certificate(m, p, m.r)
        assert rep.regression["max_dev"] == certified(m, p).max_dev == float(bound)
        assert regression_oracle(mu, p)[0] <= bound

    WIDE_ORDINATES = {"params": {"A": -0.16666666666666666, "a": -1390.9738705042373,
                                 "b": 3.028791426723095e-12, "c": -2.931709653666534e+32,
                                 "d": 6.383683894306459e+17, "e": 1.1579794130625674,
                                 "f": 2.4405504397589357e+29},
                      "weights": [0.12885053707826283, 0.39261788906599776,
                                  0.23387063664342403, 0.2446609372123155]}

    @pytest.mark.parametrize("name", ["TINY_ORDINATES", "WIDE_ORDINATES"])
    def test_decimal_twin_with_tiny_ordinates_passes(self, name):
        # three or more atoms on the parabola of p are never collinear; a
        # relative 1e-12 rule on their floats read these decimal chains
        # (ordinates 1e-12 apart; ordinates from -3.6e14 to 1.3e18) as
        # Degenerate-Admissible.  The exact twin of the first is Admissible
        # with max_dev 0
        exact = {"params": {"A": "-1", "a": "0", "b": "1000000000000", "c": "0",
                            "d": "1/1000000000000", "e": "0", "f": "0"},
                 "weights": ["1/4", "1/2", "1/4"]}
        assert run_characterize(exact).status == "Admissible"
        rep = run_characterize(getattr(self, name))
        assert (rep.status, rep.degenerate) == ("Admissible", False)

    def test_float_deviation_still_fails(self):
        _, mu = model_and_measure(E1, W3)
        mu_f = FiniteMeasure(tuple((float(x), float(y)) for x, y in mu.support),
                             tuple(float(w) for w in mu.masses))
        bad = DiagonalVFParams(-1.0, 0.0, 1.0, 0.0, 1.0, 0.1, 0.0)
        rep = regression_check(mu_f, bad)
        assert not rep.passed and abs(rep.max_dev - 0.2) <= 1e-12


class TestTiltMember:
    def test_identity_at_origin(self):
        _, mu = model_and_measure(E1, W3)
        assert tilt_member(mu, (0, 0)) is mu

    def test_concentrates_along_theta(self):
        m = make_model([(0, 0), (1, 1)], (F(1, 2), F(1, 2)), 1)
        mu = realize_measure(m, admissibility_verdict(m))
        tilted = tilt_member(mu, (10.0, 0.0))
        assert dict(zip(tilted.support, tilted.masses))[(1, 1)] > 0.99

    def test_mean_matches_cumulant(self):
        m = candidate_model(E1, W3)
        mu = realize_measure(m, admissibility_verdict(m))
        theta = (0.4, -0.9)
        tilted = tilt_member(mu, theta)
        got = np.array([
            sum(float(w) * float(x[0]) for x, w in zip(tilted.support, tilted.masses)),
            sum(float(w) * float(x[1]) for x, w in zip(tilted.support, tilted.masses))])
        _, mean, _ = cumulant_eval(m, theta)
        assert np.allclose(got, mean, atol=1e-12)


class TestFdHessian:
    def test_matches_covariance(self):
        rng = np.random.default_rng(29)
        m = candidate_model(E1, W3)
        for _ in range(20):
            theta = tuple(rng.uniform(-1.5, 1.5, size=2))
            _, _, cov = cumulant_eval(m, theta)
            H = fd_hessian(m, theta)
            scale = max(1.0, float(np.abs(cov).max()))
            assert np.abs(H - cov).max() <= 1e-5 * scale

    def test_error_shrinks_with_h(self):
        m = candidate_model(E1, W3)
        theta = (0.3, 0.2)
        _, _, cov = cumulant_eval(m, theta)
        errs = [np.abs(fd_hessian(m, theta, h) - cov).max()
                for h in (1e-2, 1e-3, 1e-4)]
        assert errs[2] < errs[0]

    def test_invalid_h(self):
        m = candidate_model(E1, W3)
        with pytest.raises(ValueError):
            fd_hessian(m, (0, 0), h=0.0)
