import cmath
import itertools
import math
import time
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from diagvf import series
from diagvf._num import near_integer, power_terms
from diagvf import (ConfigError, DiagonalVFParams, EliminationForm, NoDominantAtom,
                    admissibility_verdict, candidate_model, expand_series, make_model,
                    magnitude_scan, realize_measure)
from oracles import first_negative_order

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

    def test_int_weights_expand_exactly(self):
        # (2 - e^<(1, 1), theta>)^3 on int weights divides exactly
        m = make_model([(0, 0), (1, 1)], [2, -1], 3)
        assert m.is_exact
        rep = expand_series(m)
        assert rep.terms == {(0, 0): 8, (1, 1): -12, (2, 2): 6, (3, 3): -1}
        assert all(isinstance(v, F) for v in rep.terms.values())
        assert rep.first_negative == ((1, 1), -12)

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

    def test_negative_pivot_weight_raises(self):
        # the largest |weight| is negative beside a positive one
        m = make_model([(0, 0), (1, 1)], (F(-3, 4), F(1, 4)), F(1, 2))
        with pytest.raises(NoDominantAtom, match="pivot weight is not positive"):
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


FRAC24 = make_model([(F(-3, 2), F(9, 4)), (F(-1, 4), F(1, 16)), (F(5, 4), F(25, 16))],
                    (F(1, 2), F(1, 3), F(1, 6)), F(9, 4))


@pytest.fixture
def fraction_counts(monkeypatch):
    """Counts of the Fractions formed and hashed while the test runs."""
    counts = {"formed": 0, "hashed": 0}
    new, hash_ = F.__new__, F.__hash__

    def counting_new(cls, *args, **kwargs):
        counts["formed"] += 1
        return new(cls, *args, **kwargs)

    def counting_hash(self):
        counts["hashed"] += 1
        return hash_(self)

    monkeypatch.setattr(F, "__new__", counting_new)
    monkeypatch.setattr(F, "__hash__", counting_hash)
    return counts


class TestSeriesTerms:
    """The terms of an exact expansion are held on cleared integer points."""

    def test_exact_expansion_forms_and_hashes_no_point(self, fraction_counts):
        # 325 merged points; the Fractions formed are the exact powers and
        # factors of each order, and the first negative's point
        rep = expand_series(FRAC24, 24)
        assert len(rep.terms) == 325
        assert fraction_counts["hashed"] == 0
        assert fraction_counts["formed"] <= 5 * (24 + 1)

    def test_len_forms_no_fraction(self, fraction_counts):
        rep = expand_series(FRAC24, 24)
        formed = fraction_counts["formed"]
        assert len(rep.terms) == 325
        assert fraction_counts["formed"] == formed

    def test_iteration_hashes_no_fraction(self, fraction_counts):
        rep = expand_series(FRAC24, 24)
        points = list(rep.terms)
        assert len(points) == 325 and fraction_counts["hashed"] == 0
        assert all(type(x) is F for pt in points for x in pt)
        # in the order of the points' float keys
        assert points == sorted(points, key=lambda pt: (float(pt[0]), float(pt[1])))
        assert [pt for pt, _ in rep.terms.items()] == points
        assert list(rep.terms.values()) == [rep.terms[pt] for pt in points]

    def test_lookups_clear_the_point(self):
        rep = expand_series(FRAC24, 24)
        # the pivot's point r v_pivot = (-27/8, 81/16) leads the series
        coef = rep.terms[(F(-27, 8), F(81, 16))]
        assert coef == 0.5 ** 2.25
        assert rep.terms[(-3.375, 5.0625)] == coef
        assert rep.terms.get((F(-27, 8), 5.0625)) == coef
        # every point on the lattice of the series, ints included
        m = make_model([(0, 0), (F(1, 2), F(1, 4)), (1, 1)], (F(1, 2), F(1, 4), F(1, 4)), 3)
        terms = expand_series(m, 8).terms
        assert terms[(0, 0)] == terms[(F(0), 0.0)] == F(1, 8)
        assert terms[(3, 3)] == terms[(3.0, F(3))] == F(1, 64)

    @pytest.mark.parametrize("point", [
        (0, 0),                      # on the lattice, not in the support
        (F(-27, 8), F(81, 17)),      # off the lattice
        (-3.375, 5.0625 + 2 ** -40), (F(1, 3), 0.1),
        (math.nan, 0.0), (math.inf, 1), (-3.375,), (-3.375, 5.0625, 0), "ab", None,
        ("-27/8", "81/16"), [F(-27, 8), F(81, 16)], (F(-27, 8), [5.0625]),
    ])
    def test_missing_points(self, point):
        terms = expand_series(FRAC24, 24).terms
        assert terms.get(point) is None and point not in terms
        with pytest.raises(KeyError):
            terms[point]

    def test_equals_a_dict_both_ways(self):
        terms = expand_series(FRAC24, 24).terms
        plain = dict(terms.items())
        assert terms == plain and plain == terms
        plain[next(iter(plain))] += 1.0
        assert terms != plain and plain != terms
        assert terms != dict(list(terms.items())[1:])
        # read-only
        with pytest.raises(TypeError):
            terms[(F(-27, 8), F(81, 16))] = 0.0

    def test_float_expansion_keeps_its_points(self):
        m = make_model([(0.0, 0.0), (0.1, 0.01)], (0.75, 0.25), 0.5)
        terms = expand_series(m, 6).terms
        points = list(terms)
        assert all(type(x) is float for pt in points for x in pt)
        assert points[1] == (0.1, 0.01)
        assert terms.get(points[1]) == terms[points[1]] and terms.get((F(1, 10), 0.01)) is None


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


def _bits(c):
    """A coefficient as a value that tells signed zeros and float bits apart."""
    return (type(c), c.hex()) if isinstance(c, float) else (type(c), c)


def _report_bits(rep):
    return ([(pt, _bits(c)) for pt, c in rep.terms.items()],
            None if rep.first_negative is None
            else (rep.first_negative[0], _bits(rep.first_negative[1])),
            rep.pivot, rep.probe)


def scalar_expansion(m, depth):
    """expand_series written out term by term, as `_report_bits` reads it:
    compositions in lexicographic order, each coefficient c_j times its
    multinomial times each power in turn (float(b ** n) when c_j is a
    float), each point the atoms' own sums from 0 (Fractions stay
    Fractions), merged by point_key's rule, summed from 0 in generation
    order and sorted stably by their floats; the probe is series' own.
    The verdict's rules read the model: the nonzero weights have the sign
    -1 when each is at most 0 and one is below 0, exactly when all are
    exact and within 1e-9 otherwise, r is an integer N within 1e-9 when a
    float and is then expanded as N, and an exact coefficient is negative
    below 0, a float one below -1e-12."""
    w = m.weights
    t = 0 if all(isinstance(x, (int, F)) for x in w if x) else 1e-9
    if all(x <= t for x in w if x) and not all(x >= -t for x in w if x):
        w = tuple(-x for x in w)
    pivot = max(range(len(w)), key=lambda i: abs(float(w[i])))
    probe = series._find_probe(m.atoms, w, pivot)
    others = [i for i in range(len(w)) if i != pivot]
    n_int = near_integer(m.r, 1e-9)
    r = m.r if n_int is None or n_int == m.r else float(n_int)
    max_j = depth if n_int is None or n_int > depth else n_int
    floats = not (m.is_exact and n_int is not None)
    ap = w[pivot]
    betas = [F(w[i], ap) if m.is_exact else w[i] / ap for i in others]
    lead = float(ap) ** float(r) if floats else ap ** n_int
    merged, ff = {}, 1
    for j in range(max_j + 1):
        fact = math.factorial(j)
        scale = lead * ff / fact if floats else F(lead * ff, fact)
        for ns in _compositions(j, len(others)):
            coef = scale * (fact // math.prod(math.factorial(n) for n in ns))
            for b, n in zip(betas, ns):
                coef = coef * (float(b ** n) if floats else b ** n)
            pt = []
            for axis in (0, 1):
                total = 0
                for n, i in zip(ns, others):
                    total = total + n * (m.atoms[i][axis] - m.atoms[pivot][axis])
                pt.append(r * m.atoms[pivot][axis] + total)
            key = tuple(pt) if m.is_exact else tuple(round(float(x) / 1e-9) for x in pt)
            entry = merged.setdefault(key, [tuple(pt), 0, j])
            entry[1] = entry[1] + coef
        ff = ff * (r - j)
    entries = [merged[k] for k in sorted(merged, key=lambda k: (float(k[0]), float(k[1])))]
    neg = min((e for e in entries if e[1] < (-1e-12 if floats else 0)), key=lambda e: e[2],
              default=None)
    return ([(pt, _bits(c)) for pt, c, _ in entries],
            None if neg is None else (neg[0], _bits(neg[1])), pivot, probe)


def _checked(m, depth):
    """expand_series(m, depth) against scalar_expansion; the report."""
    try:
        want = scalar_expansion(m, depth)
    except NoDominantAtom:
        with pytest.raises(NoDominantAtom):
            expand_series(m, depth)
        return None
    got = expand_series(m, depth)
    assert _report_bits(got) == want
    return got


@st.composite
def exact_series_models(draw):
    """Exact models on the parabola (lam, lam^2), int or Fraction atoms, a
    positive weight on the first atom at least as large as any other, zero
    weights allowed elsewhere, and integer or fractional r."""
    k = draw(st.integers(1, 4))
    if draw(st.booleans()):
        lams = draw(st.lists(st.integers(-4, 4), min_size=k, max_size=k, unique=True))
    else:
        lams = draw(st.lists(st.builds(F, st.integers(-12, 12), st.sampled_from((1, 2, 3, 4, 7))),
                             min_size=k, max_size=k, unique=True))
    lams = sorted(lams)
    ns = draw(st.lists(st.integers(0, 6), min_size=k - 1, max_size=k - 1))
    top = max(ns, default=0) + draw(st.integers(1, 3))
    weights = [F(top, top + sum(ns))] + [F(n, top + sum(ns)) for n in ns]
    r = draw(st.integers(1, 5) | st.builds(F, st.integers(1, 19), st.sampled_from((2, 3, 4, 5))))
    return make_model([(lam, lam * lam) for lam in lams], weights, r)


def _assert_zero_weight_terms(atoms, weights, r):
    # a zero-weight atom's terms sum to +0.0, whatever the sign of their
    # order's coefficient
    m = make_model(atoms, weights, r)
    rep = _checked(m, 12)
    zero = 2 if weights[2] == 0 else 1
    pt = tuple(r * a + 2 * (b - a) for a, b in zip(m.atoms[0], m.atoms[zero]))
    assert _bits(rep.terms[pt]) == (_bits(0.0) if isinstance(rep.terms[pt], float)
                                    else _bits(F(0)))


@st.composite
def decimal_series_models(draw, atoms=st.integers(1, 4)):
    """Decimal models on the parabola (lam, lam^2): abscissas on a grid of
    1/40 (integers, whose points merge, one time in four), a largest
    positive weight on the first atom, zero weights allowed elsewhere, and
    an integer or non-integer float r."""
    k = draw(atoms)
    scale = draw(st.sampled_from((1.0, 1.0, 1.0, 40.0)))
    lams = sorted(draw(st.lists(st.integers(-60, 60), min_size=k, max_size=k, unique=True)))
    lams = [x / scale for x in lams]
    ns = draw(st.lists(st.integers(0, 6), min_size=k - 1, max_size=k - 1))
    top = max(ns, default=0) + draw(st.integers(1, 3))
    weights = [top / (top + sum(ns))] + [n / (top + sum(ns)) for n in ns]
    r = draw(st.integers(1, 5).map(float) | st.floats(0.05, 6.0))
    return make_model([(lam, lam * lam) for lam in lams], weights, r)


class TestExpandSeriesDifferential:
    @settings(max_examples=300, deadline=None)
    @given(exact_series_models(), st.integers(0, 14))
    def test_cleared_points_match_fraction_points(self, m, depth):
        got = _checked(m, depth)
        assert got is None or all(isinstance(x, F) for pt in got.terms for x in pt)

    @settings(max_examples=300, deadline=None)
    @given(decimal_series_models(), st.integers(0, 14))
    def test_decimal_points_match_scalar_terms(self, m, depth):
        got = _checked(m, depth)
        assert got is None or all(type(x) is float for pt in got.terms for x in pt)

    @settings(max_examples=60, deadline=None)
    @given(st.booleans().flatmap(lambda exact: exact_series_models() if exact
                                 else decimal_series_models(st.integers(2, 3))),
           st.integers(15, 24))
    def test_non_integer_exponents_to_depth_24(self, m, depth):
        assume(near_integer(m.r, 1e-12) is None and len(m.atoms) <= 3)
        _checked(m, depth)

    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "decimal"])
    @pytest.mark.parametrize("r", [F(5, 2), F(7, 3)], ids=["r5_2", "r7_3"])
    def test_four_atoms_on_an_integer_parabola_merge(self, exact, r):
        lams = (0, 1, 2, 3) if exact else (0.0, 1.0, 2.0, 3.0)
        weights = (F(1, 2), F(1, 4), F(1, 8), F(1, 8))
        m = make_model([(x, x * x) for x in lams],
                       weights if exact else tuple(map(float, weights)),
                       r if exact else float(r))
        rep = _checked(m, 10)
        # 286 terms of orders 0..10 on fewer points
        assert len(rep.terms) < math.comb(13, 3)

    @pytest.mark.parametrize("weights", [(F(1, 2), F(0), F(1, 2)), (F(2, 3), F(1, 3), F(0))],
                             ids=["middle-zero", "last-zero"])
    @pytest.mark.parametrize("r", [F(7, 4), F(1, 3), 2, F(3)],
                             ids=["r7_4", "r1_3", "int-2", "fraction-3"])
    def test_zero_weights_keep_their_signed_zeros(self, weights, r):
        _assert_zero_weight_terms([(0, 0), (1, 1), (3, 9)], weights, r)

    @pytest.mark.parametrize("weights", [(0.5, 0.0, 0.5), (2 / 3, 1 / 3, 0.0)],
                             ids=["middle-zero", "last-zero"])
    @pytest.mark.parametrize("r", [1.75, 1 / 3, 2.0], ids=["r7_4", "r1_3", "int-2"])
    def test_decimal_zero_weights_keep_their_signed_zeros(self, weights, r):
        _assert_zero_weight_terms([(0.0, 0.0), (1.0, 1.0), (3.0, 9.0)], weights, r)

    @pytest.mark.parametrize("step, den, arrays", [
        (2 ** 49 - 1, 1, True), (2 ** 49, 1, False),
        (1, 2 ** 53 - 1, True), (1, 2 ** 53, False),
    ], ids=["points-below", "points-at", "den-below", "den-at"])
    def test_int64_bound(self, step, den, arrays):
        # order 16 of two atoms reaches the point 16 * step / den; points
        # and denominators below 2^53 take the array pass, others the int
        # loop
        orders = [(j, 1.0 / (j + 1)) for j in range(17)]
        found = series._array_terms(orders, [F(-1, 3)], (0, 0), [(step, step)], den)
        assert (found is not None) == arrays
        lam = F(step, den)
        m = make_model([(0, 0), (lam, lam)], (F(3, 4), F(1, 4)), F(1, 2))
        assert _checked(m, 16).first_negative is not None

    @pytest.mark.parametrize("depth, arrays", [(14, False), (15, True)])
    def test_short_expansions_take_the_python_loop(self, depth, arrays):
        # 15 terms of two atoms cost less in the loop than the pass's
        # fixed numpy calls; both give the same bits
        orders = [(j, 1.0 / (j + 1)) for j in range(depth + 1)]
        found = series._array_terms(orders, [-0.5], (0.0, 0.0), [(0.25, 0.5)], None)
        assert (found is not None) == arrays
        _checked(make_model([(0.0, 0.0), (0.25, 0.5)], (0.75, 0.25), 0.5), depth)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 9), st.floats(-10, 10, allow_nan=False)),
                    min_size=1, max_size=4),
           st.lists(st.builds(F, st.integers(-9, 9), st.integers(1, 9)), min_size=1, max_size=3))
    def test_float_power_terms_keep_their_bits(self, orders, bases):
        # each float coefficient times the exact power, as the product with
        # a Fraction rounds it
        steps = [(i, 0) for i in range(len(bases))]
        got = list(power_terms(orders, bases, (0, 0), steps))
        want = []
        for j, scale in orders:
            for ns in _compositions(j, len(bases)):
                coef = scale * (math.factorial(j) // math.prod(math.factorial(n) for n in ns))
                for b, n in zip(bases, ns):
                    coef = coef * b ** n
                want.append(coef)
        assert [_bits(c) for _, c, _ in got] == [_bits(c) for c in want]


def _compositions(total, parts):
    """Tuples of `parts` nonnegative ints summing to total, in lexicographic
    order, recursively."""
    if parts <= 1:
        return [(total,) * parts] if parts or not total else []
    return [(first,) + rest for first in range(total + 1)
            for rest in _compositions(total - first, parts - 1)]


class TestFirstNegativeCoefficient:
    def test_half(self):
        assert first_negative_order(F(3, 4), F(1, 4), F(1, 2)) == 2

    def test_integer_exponent_none(self):
        assert first_negative_order(F(1, 2), F(1, 2), 3) is None

    def test_five_halves(self):
        # r(r-1)(r-2)(r-3) = (5/2)(3/2)(1/2)(-1/2) is the first sign change
        assert first_negative_order(F(3, 4), F(1, 4), F(5, 2)) == 4

    def test_depth_cutoff(self):
        assert first_negative_order(F(3, 4), F(1, 4), F(5, 2), depth=3) is None

    def test_negative_pair_flipped(self):
        assert first_negative_order(F(-3, 4), F(-1, 4), 2) is None
        assert first_negative_order(F(-3, 4), F(-1, 4), F(1, 2)) == 2

    def test_float_inputs(self):
        assert first_negative_order(0.75, 0.25, 0.5) == 2

    @pytest.mark.parametrize("r", [10 ** 9, 20000])
    def test_exact_lead_past_the_bit_cap_is_refused_at_once(self, r):
        # (1/2)^r would take minutes to form for r = 10^9
        start = time.perf_counter()
        with pytest.raises(ConfigError, match="bits"):
            first_negative_order(F(1, 2), F(1, 2), r)
        assert time.perf_counter() - start < 1.0

    def test_ceiling_bound(self):
        # for fractional r the sign flip happens no later than ceil(r)+1
        for num, den in [(1, 2), (3, 2), (5, 2), (7, 3), (1, 3)]:
            r = F(num, den)
            k = first_negative_order(F(3, 4), F(1, 4), r, depth=16)
            assert k is not None and k <= math.ceil(r) + 1


def _grid(t_max=50.0, n=2001):
    g = np.linspace(-t_max, t_max, n)
    return g[np.argsort(np.abs(g), kind="stable")]


def f_imag_oracle(f, t):
    """f(it) at one float t by scalar cmath arithmetic; OverflowError when
    a value passes the float range."""
    z = 1j * t
    val = 0j
    for k, c in enumerate(f.poly):
        val += c * z ** k
    for amp, lam in f.exp_terms:
        val += amp * cmath.exp(lam * z)
    if f.linexp is not None:
        B, g = f.linexp
        val += B * z * cmath.exp(g * z)
    for lam, g, a0, a1, b0, b1 in f.osc_blocks:
        val += cmath.exp(lam * z) * ((a0 + z * b0) * cmath.cos(g * z)
                                     + (a1 + z * b1) * cmath.sin(g * z))
    return val


def term_scale(f, t):
    """Sum over the terms of f(it) of the product of their factors'
    magnitudes: the size of the values both evaluations round."""
    t = abs(t)
    scale = sum(abs(float(c)) * t ** k for k, c in enumerate(f.poly))
    scale += sum(abs(float(amp)) for amp, _ in f.exp_terms)
    if f.linexp is not None:
        scale += abs(float(f.linexp[0])) * t
    for _, g, a0, a1, b0, b1 in f.osc_blocks:
        # |cos(i g t)| = cosh(g t) and |sin(i g t)| = |sinh(g t)|
        scale += (abs(float(a0)) + t * abs(float(b0)) + abs(float(a1))
                  + t * abs(float(b1))) * math.cosh(float(g) * t)
    return scale


def scan_oracle(f, r, t_grid):
    """magnitude_scan as a scalar loop: f(it) at one t at a time, and an
    OverflowError is a witness, as is the ValueError of cmath.exp at an
    argument lambda t that overflowed to inf (numpy gives nan there).  A
    form of exp_terms only takes the scan's bound on its rounding: |f(it)|
    less 4 (n + 6) 2^-53 fsum |A_i|, for n terms, must pass the threshold
    by 2^-49, unless a coefficient or that sum is past the float range."""
    rf = float(r)
    margin, limit = 0.0, 1.0 + 1e-6
    if not (f.poly or f.linexp is not None or f.osc_blocks):
        try:
            mass = math.fsum(abs(float(amp)) for amp, _ in f.exp_terms)
            margin, limit = 4 * (len(f.exp_terms) + 6) * 2.0 ** -53 * mass, limit + 2.0 ** -49
        except OverflowError:
            pass
    for t in t_grid:
        t = float(t)
        try:
            mag = max(abs(f_imag_oracle(f, t)) - margin, 0.0) ** rf
        except (OverflowError, ValueError):
            return t
        if math.isinf(mag) or mag > limit:
            return t
    return None


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

    @pytest.mark.parametrize("index", [0, 31, 32, 95, 96, 223, 224])
    def test_witness_at_block_edges(self, index):
        # |1 + it| is 1 to within 1e-18 at the tiny t before index, and
        # sqrt(2) or more from there on; the blocks hold 32, 64, 128... points
        grid = [k * 1e-9 for k in range(1, index + 1)] + [1.0 + k for k in range(300)]
        f = EliminationForm(poly=(1.0, 1.0))
        for r in (0.5, 1, F(3, 2), 2):
            assert magnitude_scan(f, r, grid) == grid[index] == scan_oracle(f, r, grid)

    def test_overflow_is_a_witness(self):
        # cosh(20 t) passes the float range between t = 35.50 and 35.55; the
        # 1e-320 amplitude keeps every finite value below the threshold
        f = EliminationForm(exp_terms=((0.5, -1.0), (0.5, 1.0)),
                            osc_blocks=((0.25, 20.0, 0.0, 0.0, 1e-320, 0.0),))
        assert magnitude_scan(f, 2, _grid()) == -35.55 == scan_oracle(f, 2, _grid())

    def test_coefficient_past_float_range_is_a_witness_at_once(self):
        f = EliminationForm(poly=(F(10 ** 400),))
        assert magnitude_scan(f, 1, _grid()) == 0.0 == scan_oracle(f, 1, _grid())

    def test_empty_grid(self):
        assert magnitude_scan(EliminationForm(poly=(5.0,)), 1, []) is None

    @pytest.mark.parametrize("form, blocks", [
        # mass 1.25 > 1, but |0.75 - 0.5 exp(0.001 i t)| <= 0.28 on the grid
        (EliminationForm(exp_terms=((0.75, 0.0), (-0.5, 0.001))), [32, 64, 128, 256, 512, 1009]),
        (EliminationForm(poly=(2.0,)), [32]),
        (EliminationForm(poly=(1.0, 0.0005)), [32, 64, 128]),
        # a mixture of mass 1 is bounded by its mass: no point is evaluated
        (EliminationForm(exp_terms=((0.5, -1.0), (0.5, 1.0))), []),
        # mass 1 + 1e-6 is within rounding of the limit, so the grid is
        # walked (at lambda = 0.5 the product with exp(0.5 i t) rounds to a
        # modulus one ulp above the limit, within the witness's rounding bound)
        (EliminationForm(exp_terms=((1.0 + 1e-6, 0.0),)), [32, 64, 128, 256, 512, 1009]),
    ], ids=["mixture", "first-point", "index-100", "bounded-mixture", "mass-at-limit"])
    def test_blocks_double_from_32(self, monkeypatch, form, blocks):
        # an early witness ends the scan early: the grid is never evaluated
        # in one pass; a form that cannot have a witness is not evaluated
        seen = []
        full = EliminationForm.eval_imag
        monkeypatch.setattr(EliminationForm, "eval_imag",
                            lambda f, t: seen.append(len(t)) or full(f, t))
        magnitude_scan(form, 1, _grid())
        assert seen == blocks


# float and exact coefficients; the tiny and zero ones let osc blocks reach
# the float range (g t past 710 on the [-50, 50] grid) without a witness
# before it
coefficient = st.one_of(
    st.floats(-1, 1, allow_nan=False, allow_infinity=False),
    st.builds(F, st.integers(-8, 8), st.integers(1, 12)),
    st.sampled_from((0.0, 1e-320, 1e-300, 1e-200)))


@st.composite
def elimination_forms(draw):
    poly = tuple(draw(st.lists(coefficient, max_size=3)))
    exp_terms = tuple(draw(st.lists(st.tuples(coefficient, coefficient), max_size=3)))
    linexp = draw(st.none() | st.tuples(coefficient, coefficient))
    osc = tuple(draw(st.lists(st.tuples(
        coefficient, st.floats(0, 40, allow_nan=False) | st.sampled_from((14.3, 20.0, 36.0)),
        coefficient, coefficient, coefficient, coefficient), max_size=2)))
    assume(poly or exp_terms or linexp or osc)
    return EliminationForm(poly=poly, exp_terms=exp_terms, linexp=linexp, osc_blocks=osc)


@st.composite
def mixtures(draw):
    """Probability mixtures of characters: never a witness."""
    ns = draw(st.lists(st.integers(1, 9), min_size=1, max_size=4))
    lams = draw(st.lists(coefficient, min_size=len(ns), max_size=len(ns)))
    exact = draw(st.booleans())
    ws = [F(n, sum(ns)) if exact else n / sum(ns) for n in ns]
    return EliminationForm(exp_terms=tuple(zip(ws, lams)))


scan_exponents = st.sampled_from((0.5, 1, F(3, 2), 2))


@st.composite
def massed_forms(draw):
    """exp_terms forms of mass sum |A_i| = S from 1 - 1e-9 to 1 + 1e-5 up
    to rounding, signed float or Fraction amplitudes plus zero and
    subnormal ones, and exponents up to 1e300 and past 1e306, where
    lambda t overflows on the grid."""
    mass = 1 + draw(st.floats(-1e-9, 1e-5))
    shares = draw(st.lists(st.integers(1, 9), min_size=1, max_size=4))
    amps = []
    for n in shares:
        sign = draw(st.sampled_from((1, -1)))
        amp = F(sign * n, sum(shares)) * F(mass)
        amps.append(amp if draw(st.booleans()) else float(amp))
    amps += draw(st.lists(st.sampled_from((0.0, F(0), -0.0, 5e-324, -1e-310, 1e-320)),
                          max_size=2))
    lam = st.one_of(st.floats(-3, 3), st.floats(-1e300, 1e300),
                    st.sampled_from((0.0, 1e300, -1e300, 1e307, -1.7e308)))
    lams = draw(st.lists(lam, min_size=len(amps), max_size=len(amps)))
    return EliminationForm(exp_terms=tuple(zip(amps, lams)))


class TestMagnitudeScanDifferential:
    @settings(max_examples=300, deadline=None)
    @given(elimination_forms(), scan_exponents)
    def test_matches_scalar_oracle(self, f, r):
        assert magnitude_scan(f, r, _grid()) == scan_oracle(f, r, _grid())

    @settings(max_examples=200, deadline=None)
    @given(elimination_forms(), st.lists(st.floats(-50, 50), min_size=1, max_size=40))
    def test_values_match_scalar_oracle(self, f, ts):
        # same operation order; numpy's complex products and functions may
        # round differently, by a few units in the last place of each term
        with np.errstate(all="ignore"):
            vals = f.eval_imag(np.array(ts))
        for t, v in zip(ts, vals):
            try:
                want, scale = f_imag_oracle(f, t), term_scale(f, t)
            except OverflowError:
                assert not np.isfinite(v)
                continue
            if not cmath.isfinite(want):
                # cmath can also overflow to inf or nan without raising
                assert not np.isfinite(v)
                continue
            assert abs(v - want) <= 1e-13 * scale

    @settings(max_examples=300, deadline=None)
    @given(massed_forms(), st.sampled_from((0.5, 1, F(3, 2), 2, 1000)))
    # masses on the threshold, where numpy's rounding of |f(it)| passes it
    # and cmath's does not
    @example(EliminationForm(exp_terms=((0.5000005, 1.0), (0.5000005, 1.0), (0.0, 0.0))), 1)
    @example(EliminationForm(exp_terms=((1.0 + 1e-6, 0.5),)), 1)
    # a mass past the float range: no bound, the walk's witness is the first t
    @example(EliminationForm(exp_terms=((1e308, 0.0), (1e308, 1.0))), 1)
    def test_mass_bound_matches_scalar_oracle(self, f, r):
        # a form the bound decides has no witness by the scalar oracle
        # either; every other one is scanned
        assert magnitude_scan(f, r, _grid()) == scan_oracle(f, r, _grid())

    @settings(max_examples=60, deadline=None)
    @given(mixtures(), scan_exponents)
    def test_mixtures_have_no_witness(self, f, r):
        assert magnitude_scan(f, r, _grid()) is None
        assert scan_oracle(f, r, _grid()) is None


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


@st.composite
def verdict_accepted_models(draw):
    """accepted_models, each decimal one with its exponent moved off N, its
    weights scaled off a unit sum and, in half the draws, one weight of the
    opposite sign, all within the verdict's 1e-9: models the verdict
    accepts, with weights of one sign by its rule."""
    m = draw(accepted_models())
    if not m.is_exact:
        r = m.r + draw(st.floats(-9e-10, 9e-10))
        scale = 1 + draw(st.floats(-5e-10, 5e-10))
        weights = list(m.weights)
        if draw(st.booleans()):
            # atom i's weight moves to its neighbour, but for a tail of the
            # opposite sign, so the sum stays
            i = draw(st.integers(0, len(weights) - 1))
            tail = math.copysign(draw(st.floats(1e-13, 4e-10)), -weights[i])
            j = (i + 1) % len(weights)
            weights[j] += weights[i] - tail
            weights[i] = tail
        m = make_model(m.atoms, [w * scale for w in weights], r)
        assert admissibility_verdict(m).accepted
    return m


class TestProperties:
    @settings(max_examples=200, deadline=None)
    @given(accepted_models(), st.integers(0, 12))
    def test_accepted_models_have_positive_series(self, m, depth):
        # the fact behind an accepted characterize report's series block
        rep = expand_series(m, depth)
        assert rep.first_negative is None
        assert all(c > 0 for c in rep.terms.values())

    @settings(max_examples=200, deadline=None)
    @given(verdict_accepted_models())
    def test_verdict_accepted_models_expand_without_negatives(self, m):
        # expand reads the sign and the integer exponent by the verdict's
        # rules, and bounds the terms that hold an opposite-sign tail
        assert expand_series(m, 8).first_negative is None

    def test_tail_bound_past_the_float_range(self):
        # S^(N-1) = 4^599 overflows: the bound leaves no coefficient negative
        atoms = [(float(x), float(x * x)) for x in range(5)]
        m = make_model(atoms, [1.0, 1.0, 1.0, 1.0, -1e-10], 600)
        assert expand_series(m, 8).first_negative is None

    @pytest.mark.parametrize("delta", [-9e-10, 9e-10])
    def test_float_exponent_near_n_expands_as_n(self, delta):
        # the verdict's N = 2: the terms are mu's masses at mu's points
        atoms, weights = [(0.0, 0.0), (1.0, 1.0), (2.0, 4.0)], [0.25, 0.5, 0.25]
        rep = expand_series(make_model(atoms, weights, 2 + delta), 8)
        assert rep == expand_series(make_model(atoms, weights, 2.0), 8)
        m = make_model(atoms, weights, 2.0)
        mu = realize_measure(m, admissibility_verdict(m))
        assert dict(rep.terms.items()) == pytest.approx(dict(zip(mu.support, mu.masses)))

    @given(st.integers(min_value=1, max_value=8),
           st.fractions(min_value=F(1, 10), max_value=F(9, 10)))
    def test_integer_exponent_never_negative(self, n, a1):
        assert first_negative_order(a1, 1 - a1, n, depth=16) is None

    @given(st.fractions(min_value=F(1, 10), max_value=F(9, 10)),
           st.integers(min_value=1, max_value=9),
           st.integers(min_value=2, max_value=5))
    def test_fractional_exponent_bound(self, a1, num, den):
        r = F(num, den)
        if r.denominator == 1:
            return
        k = first_negative_order(a1, 1 - a1, r, depth=16)
        assert k is not None and k <= math.ceil(r) + 1
