import math
import time
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diagvf import (DiagonalVFParams, EliminationForm, NoDominantAtom,
                    NotNormalized, admissibility_verdict, candidate_model,
                    expand_series, first_negative_coefficient, make_model,
                    magnitude_scan, realize_measure)

E1 = DiagonalVFParams(F(-1), F(0), F(1), F(0), F(1), F(0), F(0))
W3 = (F(1, 4), F(1, 2), F(1, 4))


class TestExpandSeries:
    def test_two_atom_integer_exponent_matches_convolution(self):
        m = make_model([(0, 0), (1, 1)], (F(1, 2), F(1, 2)), 2)
        rep = expand_series(m)
        mu = realize_measure(m, admissibility_verdict(m))
        assert rep.terms == dict(zip(mu.support, mu.masses))
        assert rep.first_negative is None

    def test_three_atom_integer_exponent(self):
        m = make_model([(0, 0), (1, 1), (2, 4)], (F(1, 2), F(1, 3), F(1, 6)), 3)
        rep = expand_series(m)
        mu = realize_measure(m, admissibility_verdict(m))
        assert rep.terms == dict(zip(mu.support, mu.masses))

    def test_pivot_is_max_weight(self):
        m = make_model([(0, 0), (1, 1)], (F(1, 4), F(3, 4)), 1)
        assert expand_series(m).pivot == 1

    def test_half_exponent_first_negative(self):
        # (3/4 + 1/4 e^t)^(1/2): the falling factorial flips sign at order 2
        m = make_model([(0, 0), (1, 1)], (F(3, 4), F(1, 4)), 0.5)
        rep = expand_series(m)
        assert rep.first_negative is not None
        pt, coef = rep.first_negative
        assert pt == (2, 2) and coef < 0

    def test_all_negative_weights_flipped(self):
        m = make_model([(0, 0), (1, 1)], (F(-1, 2), F(-1, 2)), 2)
        rep = expand_series(m)
        assert rep.terms[(1, 1)] == F(1, 2)
        assert rep.first_negative is None

    def test_exact_coefficients(self):
        m = make_model([(0, 0), (1, 1)], (F(1, 2), F(1, 2)), 2)
        rep = expand_series(m)
        assert all(isinstance(v, F) or isinstance(v, int)
                   for v in rep.terms.values())

    def test_e1_has_dominant_direction(self):
        # the middle atom of E1 dominates after tilting along -theta2
        m = candidate_model(E1, W3)
        rep = expand_series(m)
        assert rep.pivot == 1 and rep.probe[1] < 0

    def test_surrounded_pivot_raises(self):
        # collinear atoms with the heavy one in the middle: the flanking
        # exponentials average to at least 1 under every tilt
        m = make_model([(-1, 0), (0, 0), (1, 0)], W3, 1)
        with pytest.raises(NoDominantAtom):
            expand_series(m)

    def test_probe_dominance(self):
        m = make_model([(0, 0), (1, 1)], (F(3, 4), F(1, 4)), 0.5)
        rep = expand_series(m)
        t1, t2 = rep.probe
        assert (1 / 3) * math.exp(t1 + t2) < 1.0

    @pytest.mark.parametrize("atoms, weights, r", [
        # no fixed probe direction dominates the middle atom; the
        # bisector of the widest gap of the pivot differences does
        ([(F(-5, 4), F(25, 16)), (F(-1), F(1)), (F(-1, 4), F(1, 16))],
         (F(5, 16), F(3, 8), F(5, 16)), F(13, 4)),
        # summing the exponentials directly overflows along (-1, -1)
        ([(F(-1), F(1)), (F(5, 4), F(25, 16)), (F(3, 2), F(9, 4))],
         (F(3, 17), F(8, 17), F(6, 17)), F(5, 4)),
    ])
    def test_middle_pivot_on_parabola(self, atoms, weights, r):
        m = make_model(atoms, weights, r)
        rep = expand_series(m, 12)
        assert rep.pivot == 1 and rep.first_negative is not None
        t1, t2 = rep.probe
        (x0, y0), w0 = m.atoms[1], float(m.weights[1])
        total = sum(float(w) / w0 * math.exp(float(x - x0) * t1 + float(y - y0) * t2)
                    for i, ((x, y), w) in enumerate(zip(m.atoms, m.weights))
                    if i != 1)
        assert total < 1.0


def falling_factorial(r, k):
    """r(r-1)...(r-k+1), formed from scratch."""
    out = 1
    for j in range(k):
        out = out * (r - j)
    return out


class TestRunningFallingFactorial:
    def test_deep_exact_expansion_is_fast(self):
        # 1001 orders of an exact exponent 2000: products formed from
        # scratch per order took seconds
        m = make_model([(0, 0), (1, 1)], (F(1, 3), F(2, 3)), F(2000))
        start = time.perf_counter()
        rep = expand_series(m, 1000)
        assert time.perf_counter() - start < 1.0
        lead, beta = F(2, 3) ** 2000, F(1, 2)
        assert rep.terms == {(2000 - j, 2000 - j): lead * falling_factorial(2000, j)
                             / math.factorial(j) * beta ** j for j in range(1001)}

    @pytest.mark.parametrize("r", [0.5, F(1, 2), 2.5])
    def test_float_coefficients_keep_their_bits(self, r):
        m = make_model([(0.0, 0.0), (1.0, 1.0)], (0.75, 0.25), r)
        rep = expand_series(m, 170)
        lead = 0.75 ** float(r)
        assert rep.terms == {(j, j): lead * falling_factorial(r, j)
                             / float(math.factorial(j)) * (0.25 / 0.75) ** j
                             for j in range(171)}


class TestFirstNegativeCoefficient:
    def test_half(self):
        assert first_negative_coefficient(F(3, 4), F(1, 4), F(1, 2)) == 2

    def test_integer_exponent_none(self):
        assert first_negative_coefficient(F(1, 2), F(1, 2), 3) is None

    def test_five_halves(self):
        # r(r-1)(r-2)(r-3) = (5/2)(3/2)(1/2)(-1/2) is the first sign change
        assert first_negative_coefficient(F(3, 4), F(1, 4), F(5, 2)) == 4

    def test_depth_cutoff(self):
        assert first_negative_coefficient(F(3, 4), F(1, 4), F(5, 2), depth=3) is None

    def test_negative_pair_flipped(self):
        assert first_negative_coefficient(F(-3, 4), F(-1, 4), 2) is None
        assert first_negative_coefficient(F(-3, 4), F(-1, 4), F(1, 2)) == 2

    def test_bad_sum(self):
        with pytest.raises(NotNormalized):
            first_negative_coefficient(F(1, 2), F(1, 4), 1)

    def test_float_inputs(self):
        assert first_negative_coefficient(0.75, 0.25, 0.5) == 2

    def test_ceiling_bound(self):
        # for fractional r the sign flip happens no later than ceil(r)+1
        for num, den in [(1, 2), (3, 2), (5, 2), (7, 3), (1, 3)]:
            r = F(num, den)
            k = first_negative_coefficient(F(3, 4), F(1, 4), r, depth=16)
            assert k is not None and k <= math.ceil(r) + 1


def _grid(t_max=50.0, n=2001):
    g = np.linspace(-t_max, t_max, n)
    return g[np.argsort(np.abs(g), kind="stable")]


class TestMagnitudeScan:
    def test_affine_polynomial_witness(self):
        # 1 + theta: |1 + it| > 1 for any t != 0
        f = EliminationForm(poly=(1.0, 1.0))
        for r in (0.5, 1.0, 2.0):
            assert magnitude_scan(f, r, _grid()) is not None

    def test_linear_exponential_witness(self):
        f = EliminationForm(linexp=(1.0, 1.0))
        assert magnitude_scan(f, 1.0, _grid()) is not None

    def test_oscillatory_linear_block_witness(self):
        # t cos(gamma t) envelope grows linearly
        f = EliminationForm(osc_blocks=((0.0, 1.0, 0.0, 0.0, 1.0, 0.0),))
        assert magnitude_scan(f, 2.0, _grid()) is not None

    def test_mixed_form_witness(self):
        f = EliminationForm(poly=(0.5,), exp_terms=((0.25, -1.0), (0.25, 1.0)),
                            linexp=(0.1, 0.0))
        assert magnitude_scan(f, 0.5, _grid()) is not None

    def test_admissible_mixture_no_witness(self):
        # convex combinations of characters have magnitude at most 1
        rng = np.random.default_rng(13)
        for _ in range(20):
            k = int(rng.integers(2, 5))
            w = rng.dirichlet(np.ones(k))
            lams = rng.uniform(-3, 3, size=k)
            f = EliminationForm(exp_terms=tuple(zip(w, lams)))
            assert magnitude_scan(f, 1.0, _grid()) is None

    def test_pure_cosine_witness(self):
        # cos(gamma theta) continues to cosh(gamma t) on the imaginary axis
        f = EliminationForm(osc_blocks=((0.0, 1.0, 1.0, 0.0, 0.0, 0.0),))
        assert magnitude_scan(f, 1.0, _grid()) is not None

    def test_constant_no_witness(self):
        f = EliminationForm(poly=(1.0,))
        assert magnitude_scan(f, 2.0, _grid()) is None

    def test_witness_is_smallest_offender(self):
        # scanning in |t| order: constant 1 plus tiny linexp stays under the
        # threshold near zero, so the witness is strictly away from 0
        f = EliminationForm(poly=(1.0,), linexp=(0.01, 0.0))
        w = magnitude_scan(f, 1.0, _grid())
        assert w is not None and abs(w) > 0.05

    def test_empty_form_rejected(self):
        with pytest.raises(ValueError):
            EliminationForm()


small_fraction = st.builds(F, st.integers(-4, 4), st.sampled_from((1, 2, 3)))


@st.composite
def accepted_models(draw):
    """Exact or float models with 2 or 3 atoms on a parabola
    nu = (lam^2 - a lam + g) / b, CaseA or CaseB, N from 1 to 12."""
    exact = draw(st.booleans())
    case_b = draw(st.booleans())
    N = 2 * draw(st.integers(1, 6)) if case_b else draw(st.integers(1, 12))
    a, g = draw(small_fraction), draw(small_fraction)
    b = draw(small_fraction.filter(bool))
    k = draw(st.sampled_from((2, 3)))
    lams = draw(st.lists(small_fraction, min_size=k, max_size=k, unique=True))
    atoms = [(lam, (lam * lam - a * lam + g) / b) for lam in lams]
    ns = draw(st.lists(st.integers(1, 9), min_size=k, max_size=k))
    weights = [(-1 if case_b else 1) * F(n, sum(ns)) for n in ns]
    if not exact:
        atoms = [(float(x), float(y)) for x, y in atoms]
        weights = [float(w) for w in weights]
    m = make_model(atoms, weights, N if exact else float(N))
    assert admissibility_verdict(m).outcome == ("CaseB" if case_b else "CaseA")
    return m


class TestProperties:
    @settings(max_examples=200, deadline=None)
    @given(accepted_models(), st.integers(0, 12))
    def test_accepted_models_have_positive_series(self, m, depth):
        # the fact behind an accepted characterize report's series block
        rep = expand_series(m, depth)
        assert rep.first_negative is None
        assert all(c > 0 for c in rep.terms.values())

    @given(st.integers(min_value=1, max_value=8),
           st.fractions(min_value=F(1, 10), max_value=F(9, 10)))
    def test_integer_exponent_never_negative(self, n, a1):
        assert first_negative_coefficient(a1, 1 - a1, n, depth=16) is None

    @given(st.fractions(min_value=F(1, 10), max_value=F(9, 10)),
           st.integers(min_value=1, max_value=9),
           st.integers(min_value=2, max_value=5))
    def test_fractional_exponent_bound(self, a1, num, den):
        r = F(num, den)
        if r.denominator == 1:
            return
        k = first_negative_coefficient(a1, 1 - a1, r, depth=16)
        assert k is not None and k <= math.ceil(r) + 1
