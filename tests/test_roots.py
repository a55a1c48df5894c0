import math
import time
from fractions import Fraction as F
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diagvf import (DiagonalVFParams, NotARoot, Quartic, RootPattern,
                    build_characteristic_quartic, classify_root_pattern, run_characterize,
                    solve_quartic)
from diagvf._num import MAX_DIGITS, cleared, primitive
from diagvf.roots import (_cluster, _companion_roots, _ordinate, _rational_roots, _refine,
                          _repeated, _square_free)
from oracles import build_dual_quartic, cluster_linkage, dual_ordinate

E1 = DiagonalVFParams(F(-1), F(0), F(1), F(0), F(1), F(0), F(0))
P2 = DiagonalVFParams(F(-1), F(0), F(1), F(0), F(-1), F(1), F(0))


def random_params(rng):
    A = -rng.uniform(0.1, 3.0)
    a, c, d, e, f = rng.uniform(-2, 2, size=5)
    b = rng.uniform(0.3, 2.0) * rng.choice([-1, 1])
    return DiagonalVFParams(A, a, b, c, d, e, f)


class TestBuildQuartic:
    def test_e1(self):
        q = build_characteristic_quartic(E1)
        assert q.coeffs == (0, 0, -1, 0, 1)

    def test_p2(self):
        # 2Ae = -2, -db = +1, constant A^2 e^2 - edbA = 1 - 1 = 0
        q = build_characteristic_quartic(P2)
        assert q.coeffs == (0, 0, -1, 0, 1)

    def test_double_root_case(self):
        p = DiagonalVFParams(-1, 1, 1, 0, 0, 0, 0)
        q = build_characteristic_quartic(p)
        assert q.coeffs == (0, 0, 1, -2, 1)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            DiagonalVFParams(1, 0, 1, 0, 0, 0, 0)
        with pytest.raises(ValueError):
            DiagonalVFParams(-1, 0, 0, 0, 0, 0, 0)


def quartic_formula(A, a, b, c, d, e, f):
    """The characteristic quartic's coefficients as the params give them."""
    return (A * A * e * e - e * d * b * A + f * b * b * A,
            -(2 * A * a * e - a * d * b + c * b * b),
            2 * A * e + a * a - d * b,
            -2 * a,
            1)


def _bits(x):
    return x.hex() if isinstance(x, float) else (type(x), x)


exact_params = st.one_of(st.integers(-10 ** 4, 10 ** 4),
                         st.fractions(-10 ** 4, 10 ** 4, max_denominator=10 ** 4))
negative = st.one_of(st.integers(-10 ** 4, -1),
                     st.fractions(-10 ** 4, F(-1, 10 ** 4), max_denominator=10 ** 4))


class TestIntegerQuartic:
    """Exact params build the quartic from their cleared form; other
    params take the formula as they are."""

    @settings(max_examples=300, deadline=None)
    @given(negative, st.lists(exact_params, min_size=6, max_size=6).filter(lambda v: v[1]))
    def test_exact_params_match_fraction_formula(self, A, rest):
        p = DiagonalVFParams(A, *rest)
        q = build_characteristic_quartic(p)
        assert q.coeffs == quartic_formula(*(F(v) for v in p.as_tuple()))
        assert q.is_exact and all(isinstance(c, F) for c in q.coeffs[:4])
        assert q.coeffs[4] == 1

    @settings(max_examples=300, deadline=None)
    @given(st.floats(-1e3, -1e-3),
           st.lists(st.one_of(st.floats(-1e3, 1e3), exact_params), min_size=6,
                    max_size=6).filter(lambda v: v[1] and any(isinstance(x, float) for x in v)))
    def test_float_params_keep_their_bits(self, A, rest):
        # float A, or any float among the others, takes the formula as
        # written, Fractions and ints mixed in too
        for p in (DiagonalVFParams(A, *rest), DiagonalVFParams(F(A), *rest)):
            assert [_bits(c) for c in build_characteristic_quartic(p).coeffs] \
                == [_bits(c) for c in quartic_formula(*p.as_tuple())]


def horner(coeffs, x):
    c0, c1, c2, c3, c4 = coeffs
    return (((c4 * x + c3) * x + c2) * x + c1) * x + c0


exact_values = st.one_of(st.integers(-10 ** 6, 10 ** 6),
                         st.fractions(-10 ** 6, 10 ** 6, max_denominator=10 ** 6))


class TestQuarticEvaluation:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(exact_values, min_size=4, max_size=4), exact_values,
           st.floats(-1e3, 1e3), st.complex_numbers(max_magnitude=1e3))
    def test_cleared_sum_is_horner(self, coeffs, x, xf, xc):
        # an exact x takes the cleared integer sum, of the same value as
        # Horner's rule on Fractions; float and complex x keep its bits
        q = Quartic(tuple(coeffs) + (1,))
        assert q(x) == horner(q.coeffs, F(x))
        for v in (xf, xc):
            assert repr(q(v)) == repr(horner(q.coeffs, v))

    def test_float_coefficients_take_horner(self):
        q = Quartic((0.5, -1.0, F(1, 3), 2, 1))
        assert not q.is_exact
        assert repr(q(F(1, 3))) == repr(horner(q.coeffs, F(1, 3)))


class TestDualQuartic:
    def test_e1(self):
        q = build_dual_quartic(E1)
        assert q.coeffs == (0, 0, 1, -2, 1)

    def test_p2(self):
        q = build_dual_quartic(P2)
        assert q.coeffs == (0, 0, 1, 2, 1)

    def test_all_second_row_zero(self):
        p = DiagonalVFParams(-1, 1, 2, 0, 0, 1, 0)
        q = build_dual_quartic(p)
        assert q.coeffs[:4] == (0, 0, 0, 0)

    def test_dual_roots_match_dual_ordinates(self):
        # dual quartic roots must be the ordinates of the primal real roots
        for p in (E1, P2):
            prim = solve_quartic(build_characteristic_quartic(p))
            dual = solve_quartic(build_dual_quartic(p))
            nus = {dual_ordinate(lam, p)[0] for lam in prim.real_roots}
            dual_reals = {v for v, _ in dual.real_entries}
            assert nus <= dual_reals


class TestSolveQuartic:
    def test_e1_roots(self):
        rs = solve_quartic(Quartic((0, 0, -1, 0, 1)))
        assert dict((v, m) for v, m in rs.entries) == {-1: 1, 0: 2, 1: 1}
        assert rs.n_r == 3

    def test_quadruple_zero(self):
        rs = solve_quartic(Quartic((0, 0, 0, 0, 1)))
        assert rs.entries == ((F(0), 4),)
        assert rs.n_r == 1

    def test_eighth_roots_of_unity(self):
        rs = solve_quartic(Quartic((1, 0, 0, 0, 1)))
        assert rs.n_r == 0
        s = math.sqrt(2) / 2
        got = sorted((round(v.real, 9), round(v.imag, 9)) for v, _ in rs.entries)
        want = sorted((round(sr, 9), round(si, 9))
                      for sr in (-s, s) for si in (-s, s))
        assert got == want

    def test_multiplicities_sum_to_four(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            q = build_characteristic_quartic(random_params(rng))
            rs = solve_quartic(q)
            assert sum(m for _, m in rs.entries) == 4

    def test_conjugate_pairing(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            q = build_characteristic_quartic(random_params(rng))
            rs = solve_quartic(q)
            cpx = sorted((v for v, _ in rs.complex_entries),
                         key=lambda z: (z.real, z.imag))
            assert len(cpx) % 2 == 0
            for z in cpx:
                assert z.conjugate() in cpx


def _vieta_coeffs(rs):
    roots = []
    for v, m in rs.entries:
        roots.extend([complex(v)] * m)
    poly = np.poly(np.array(roots))  # descending, monic
    return poly[::-1].real


class TestVieta:
    def test_random_params(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            q = build_characteristic_quartic(random_params(rng))
            rs = solve_quartic(q)
            rebuilt = _vieta_coeffs(rs)
            scale = max(1.0, max(abs(float(c)) for c in q.coeffs))
            for c_new, c_old in zip(rebuilt, q.coeffs):
                assert abs(c_new - float(c_old)) <= 1e-8 * scale


def _poly_gcd_degree(coeffs):
    """Degree of approximate gcd(q, q') via repeated division with tolerance."""
    def norm(p):
        m = np.abs(p).max()
        return p / m if m > 0 else p

    def trim(p, tol=1e-8):
        i = 0
        while i < len(p) - 1 and abs(p[i]) < tol:
            i += 1
        return p[i:]

    a = np.array([float(c) for c in coeffs][::-1])
    b = np.polyder(a)
    a, b = norm(a), norm(trim(b))
    for _ in range(10):
        if len(b) == 1 and abs(b[0]) <= 1e-8:
            return len(a) - 1
        _, r = np.polydiv(a, b)
        if np.abs(r).max() <= 1e-8:
            return len(b) - 1
        a, b = b, norm(trim(r))
    return 0


class TestMultiplicityOracle:
    @pytest.mark.parametrize("roots", [
        (0.0, 1.0, -1.0, 2.0),
        (0.5, 0.5, 1.5, -2.0),
        (1.0, 1.0, 1.0, -1.0),
        (2.0, 2.0, 2.0, 2.0),
        (1.0, 1.0, -1.0, -1.0),
    ])
    def test_gcd_degree_matches(self, roots):
        coeffs = np.poly(roots)[::-1]
        # exact coefficients so multiplicity detection is not float-limited
        q = Quartic(tuple(F(float(c)) for c in coeffs[:-1]) + (1,))
        rs = solve_quartic(q)
        assert _poly_gcd_degree(q.coeffs) == 4 - len(rs.entries)


class TestClassification:
    CASES = [
        ((0.0, 1.0, -1.0, 3.0), RootPattern.FOUR_SINGLE_REAL),
        ((0.0, 0.0, 1.0, -1.0), RootPattern.DOUBLE_PLUS_TWO_SINGLE_REAL),
        ((1.0, 1.0, 1.0, -2.0), RootPattern.SINGLE_PLUS_TRIPLE_REAL),
        ((2.0, 2.0, 2.0, 2.0), RootPattern.QUADRUPLE_REAL),
        ((1.0, 1.0, -1.0, -1.0), RootPattern.TWO_DOUBLE_REAL),
        ((1.0, -1.0, 1j, -1j), RootPattern.TWO_REAL_TWO_COMPLEX),
        ((1j, -1j, 2j, -2j), RootPattern.FOUR_COMPLEX),
        ((1j, -1j, 1j, -1j), RootPattern.TWO_DOUBLE_COMPLEX),
        ((1.0, 1.0, 2j, -2j), RootPattern.DOUBLE_REAL_PLUS_COMPLEX_PAIR),
    ]

    @pytest.mark.parametrize("roots,pattern", CASES)
    def test_all_nine(self, roots, pattern):
        coeffs = np.poly(np.array(roots, dtype=complex))[::-1].real
        q = Quartic(tuple(F(float(c)) for c in coeffs[:-1]) + (1,))
        assert classify_root_pattern(solve_quartic(q)) is pattern

    def test_known_patterns(self):
        rs = solve_quartic(Quartic((0, 0, -1, 0, 1)))
        assert classify_root_pattern(rs) is RootPattern.DOUBLE_PLUS_TWO_SINGLE_REAL
        rs = solve_quartic(Quartic((1, 0, 0, 0, 1)))
        assert classify_root_pattern(rs) is RootPattern.FOUR_COMPLEX
        rs = solve_quartic(Quartic((0, 0, 0, 0, 1)))
        assert classify_root_pattern(rs) is RootPattern.QUADRUPLE_REAL


class TestDualOrdinate:
    def test_e1_root_one(self):
        nu, res = dual_ordinate(F(1), E1)
        assert nu == 1 and res == 0

    def test_p2_root_zero(self):
        nu, res = dual_ordinate(F(0), P2)
        assert nu == -1 and res == 0

    def test_zero_root_e_zero(self):
        # lam=0 with e=0: nu=0, residual = f*A
        p = DiagonalVFParams(F(-1), F(0), F(1), F(0), F(1), F(0), F(0))
        nu, res = dual_ordinate(F(0), p)
        assert nu == 0 and res == 0

    def test_non_root_rejected(self):
        with pytest.raises(NotARoot):
            dual_ordinate(F(1, 2), E1)

    def test_elimination_identity_random(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            p = random_params(rng)
            q = build_characteristic_quartic(p)
            rs = solve_quartic(q)
            for lam in rs.real_roots:
                _, res = dual_ordinate(lam, p)
                assert abs(float(res)) <= 1e-8 * max(1.0, float(lam) ** 4) * q.scale


def _solve3(Arows, rhs):
    """Exact 3x3 rational linear solve."""
    M = [list(row) + [r] for row, r in zip(Arows, rhs)]
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
    """Construct parameters whose characteristic quartic has the given roots.

    Ordinates follow from the first relation; c, d, f come from requiring
    the second relation to hold at each atom.
    """
    nus = [(l * l - a * l + e * A) / b for l in lams]
    rows = [(l, n, -A) for l, n in zip(lams, nus)]
    rhs = [n * n for n in nus]
    c, d, f = _solve3(rows, rhs)
    return DiagonalVFParams(A, a, b, c, d, e, f)


class TestForwardInverse:
    @pytest.mark.parametrize("lams", [
        (F(-1), F(0), F(1)),
        (F(0), F(1), F(3)),
        (F(-2), F(1, 2), F(2)),
        (F(-3), F(-1), F(5)),
    ])
    def test_chosen_abscissas_recovered(self, lams):
        p = params_from_abscissas(list(lams))
        rs = solve_quartic(build_characteristic_quartic(p))
        reals = [float(v) for v in rs.real_roots]
        for lam in lams:
            assert any(abs(float(lam) - v) <= 1e-9 for v in reals)


def trial_division_roots(q: Quartic):
    """Oracle: the exact root search by divisor-pair trial division that
    rationalize-and-verify replaced, unchanged except that the denominator
    divisors are listed once instead of once per numerator.  It is
    exhaustive only while the cleared integer quartic's constant and leading
    terms are within 10**12."""
    coeffs = [F(c) for c in q.coeffs]
    den = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c * den) for c in coeffs]

    def divisors(n):
        n = abs(n)
        out = set()
        i = 1
        while i * i <= n:
            if n % i == 0:
                out.add(i)
                out.add(n // i)
            i += 1
        return out

    def deflate(poly, r):
        desc = poly[::-1]
        out = [desc[0]]
        for c in desc[1:]:
            out.append(c + r * out[-1])
        if out[-1] != 0:
            return None
        return [F(c) for c in out[:-1][::-1]]

    poly = [F(c) for c in coeffs]
    found = []
    mult0 = 0
    while poly[0] == 0 and len(poly) > 1:
        poly = poly[1:]
        mult0 += 1
    if mult0:
        found.append((F(0), mult0))
    if len(poly) > 1 and abs(ints[0]) <= 10**12 and abs(ints[-1]) <= 10**12:
        cden = math.lcm(*(c.denominator for c in poly))
        ip = [int(c * cden) for c in poly]
        qdens = sorted(divisors(ip[-1]) or {1})
        for pnum in sorted(divisors(ip[0]) or {1}):
            for qden in qdens:
                for sign in (1, -1):
                    r = F(sign * pnum, qden)
                    mult = 0
                    while len(poly) > 1:
                        deflated = deflate(poly, r)
                        if deflated is None:
                            break
                        poly = deflated
                        mult += 1
                    if mult:
                        found.append((r, mult))
                if len(poly) == 1:
                    break
            if len(poly) == 1:
                break
    return found, poly


def divide_out(poly, r):
    """poly / (x - r) for ascending coefficients, r a root of poly."""
    out = [poly[-1]]
    for c in reversed(poly[1:-1]):
        out.append(c + r * out[-1])
    assert poly[0] + r * out[-1] == 0
    return out[::-1]


def rational_roots(q: Quartic):
    """_rational_roots as the oracle gives it: the found roots and the monic
    rest, q divided exactly by each found root to its multiplicity.  Its
    second value must be the rest's square-free part."""
    found, sf = _rational_roots(q)
    rest = [F(c) for c in q.coeffs]
    for r, m in found:
        for _ in range(m):
            rest = divide_out(rest, r)
    ints = primitive(cleared(rest)[1])
    assert list(sf) == list(_square_free(ints)[0] if len(ints) > 1 else [1])
    return found, rest


def within_old_guard(q: Quartic) -> bool:
    den = math.lcm(*(F(c).denominator for c in q.coeffs))
    return all(abs(int(F(c) * den)) <= 10**12 for c in (q.coeffs[0], q.coeffs[4]))


def polymul(p, q):
    """The product of two ascending coefficient lists."""
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def quartic_from(roots, quadratics=()):
    """Monic quartic prod (x - r) * prod (x^2 + u x + v), ascending."""
    poly = [F(1)]
    for factor in [[-r, F(1)] for r in roots] + [[v, u, F(1)] for u, v in quadratics]:
        poly = polymul(poly, factor)
    return Quartic(tuple(poly))


# roots with denominators of 0-2 digits and small numerators keep the
# oracle's divisor enumeration fast
small_root = st.builds(F, st.integers(-24, 24),
                       st.one_of(st.just(1), st.integers(2, 9), st.integers(10, 99)))
# b^2 - 4c for an irreducible quadratic x^2 + bx + c: no rational square
non_square = st.sampled_from([F(-3), F(-1), F(-2, 3), F(2), F(5, 4), F(-7, 9)])
root_or_zero = st.one_of(st.just(F(0)), small_root)
MULTIPLICITIES = {4: [(1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,)],
                  2: [(1, 1), (2,)], 0: [()]}


@st.composite
def prescribed_quartics(draw):
    """Quartics with every multiplicity pattern over the rationals: simple,
    double, triple and quadruple roots, zero roots, and up to two
    irreducible quadratic factors."""
    n_quad = draw(st.integers(0, 2))
    mults = draw(st.sampled_from(MULTIPLICITIES[4 - 2 * n_quad]))
    distinct = draw(st.lists(root_or_zero, min_size=len(mults),
                             max_size=len(mults), unique=True))
    quads = []
    for _ in range(n_quad):
        u = draw(small_root)
        quads.append((u, (u * u - draw(non_square)) / 4))
    return quartic_from([r for r, m in zip(distinct, mults) for _ in range(m)],
                        quads)


# b^2 - 4c of an irreducible quadratic x^2 + bx + c with real roots, and
# with complex ones
real_non_square = st.sampled_from([F(2), F(5, 4), F(3), F(7, 9)])
complex_disc = st.sampled_from([F(-3), F(-1), F(-2, 3), F(-7, 9)])
# multiplicities of distinct rational roots, or "quad^2" for a squared
# irreducible quadratic and "double*quad" for a rational double root times one
SHAPES = [(1, 1, 1, 1), (2, 1, 1), (3, 1), (4,), (2, 2), "quad^2", "double*quad"]


@st.composite
def shaped_quartics(draw):
    """(shape, quartic) over SHAPES; every shape but (1, 1, 1, 1) has a
    repeated root."""
    shape = draw(st.sampled_from(SHAPES))
    u = draw(small_root)
    quad = (u, (u * u - draw(st.one_of(real_non_square, complex_disc))) / 4)
    if shape == "quad^2":
        return shape, quartic_from((), [quad] * 2)
    if shape == "double*quad":
        r = draw(root_or_zero)
        return shape, quartic_from((r, r), [quad])
    distinct = draw(st.lists(root_or_zero, min_size=len(shape), max_size=len(shape),
                             unique=True))
    return shape, quartic_from([r for r, m in zip(distinct, shape) for _ in range(m)])


@st.composite
def square_free_quartics(draw):
    """("square-free", quartic): zero to four distinct rational roots times
    irreducible quadratics with real or complex roots."""
    n_quad = draw(st.integers(0, 2))
    roots = draw(st.lists(root_or_zero, min_size=4 - 2 * n_quad,
                          max_size=4 - 2 * n_quad, unique=True))
    quads = set()
    while len(quads) < n_quad:
        u = draw(small_root)
        quads.add((u, (u * u - draw(st.one_of(real_non_square, complex_disc))) / 4))
    return "square-free", quartic_from(roots, sorted(quads))


# integers of up to MAX_DIGITS digits, the input cap, and small ones
capped_int = st.one_of(st.integers(-30, 30),
                       st.integers(-10 ** MAX_DIGITS + 1, 10 ** MAX_DIGITS - 1))
# D with no rational square root: (k x - h)^2 - D m^2 is irreducible
non_square_int = st.sampled_from([-3, -1, 2, 3, 5, 7])


@st.composite
def factored_integer_quartics(draw):
    """Integer quartics, primitive with a positive leading coefficient, from
    linear factors k x - h (zero roots and leading coefficients above 1
    included) and irreducible quadratics (k x - h)^2 - D m^2, each to a
    multiplicity: double, triple and quadruple roots, squared quadratics,
    and their square-free products; entries up to the input cap."""
    def linear():
        return [draw(capped_int), draw(capped_int.filter(bool))]

    def quadratic():
        h, k, m = draw(capped_int), draw(capped_int.filter(bool)), draw(capped_int.filter(bool))
        return [h * h - draw(non_square_int) * m * m, -2 * h * k, k * k]

    shape = draw(st.sampled_from(["1111", "211", "22", "31", "4", "q11", "q2", "qq", "q^2"]))
    factors = {"1111": "llll", "211": "LLll", "22": "LLMM", "31": "LLLl", "4": "LLLL",
               "q11": "qll", "q2": "qLL", "qq": "qr", "q^2": "qq"}[shape]
    made = {}
    poly = [1]
    for f in factors:
        # a capital or repeated letter is one factor, drawn once
        if f in "lr" or f not in made:
            made[f] = quadratic() if f in "qr" else linear()
        poly = polymul(poly, made[f])
    return primitive(poly)


class TestRationalRoots:
    @settings(max_examples=200, deadline=None)
    @given(prescribed_quartics())
    def test_matches_trial_division(self, q):
        assert within_old_guard(q)
        assert rational_roots(q) == trial_division_roots(q)

    @settings(max_examples=300, deadline=None)
    @given(shaped_quartics())
    def test_repeated_roots_need_no_eigenvalues(self, shaped):
        # the repeated roots come from gcd(q, q'), so only a square-free q
        # reaches the eigenvalue search
        shape, q = shaped
        with mock.patch("diagvf.roots._companion_roots",
                        wraps=_companion_roots) as companion:
            got = rational_roots(q)
        assert within_old_guard(q)
        assert got == trial_division_roots(q)
        if shape != (1, 1, 1, 1):
            assert companion.call_count == 0

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(shaped_quartics(), square_free_quartics()))
    def test_square_free_quartics_need_no_remainder_sequence(self, shaped):
        # the invariants I and J decide square-freeness, so the primitive
        # remainder sequence runs only on a quartic with a repeated root
        shape, q = shaped
        with mock.patch("diagvf.roots._square_free", wraps=_square_free) as prs:
            _rational_roots(q)
        assert (prs.call_count == 0) is (shape in ((1, 1, 1, 1), "square-free"))
        assert rational_roots(q) == trial_division_roots(q)

    @pytest.mark.parametrize("roots", [
        (F(123456789, 1000000007), F(1), F(-2), F(3)),
        (F(-987654321, 999999937), F(1, 2), F(1, 2), F(0)),
    ])
    def test_denominators_past_float_precision(self, roots):
        # float(r) is not r here: r comes out as the exact lattice point
        q = quartic_from(roots)
        assert within_old_guard(q)
        assert rational_roots(q) == trial_division_roots(q)
        assert sorted(rational_roots(q)[0]) == sorted(
            (r, roots.count(r)) for r in set(roots))

    @pytest.mark.parametrize("roots", [
        (F(1, 999999), F(1, 1000000), F(1), F(2)),
        (F(1, 10000), F(1, 10001), F(1), F(2)),
    ])
    def test_close_roots_match_trial_division(self, roots):
        # the pair is closer than np.roots can resolve; Newton steps from
        # outside the pair only halve the error until it resolves
        q = quartic_from(roots)
        assert within_old_guard(q)
        assert rational_roots(q) == trial_division_roots(q)
        assert sorted(rational_roots(q)[0]) == sorted((r, 1) for r in roots)

    @pytest.mark.parametrize("roots, quadratics", [
        # np.roots puts two of the three close roots off the real axis
        ((F(1, 999999), F(1, 1000000), F(1, 1000001), F(3)), ()),
        ((F(1, 999999), F(1, 1000000)), [(F(0), F(1))]),
        ((F(7, 1000000), F(7, 1000001)), [(F(-2), F(-1))]),
    ] + [
        # 1/n and 1/(n + 1) are one step of the lattice (1/L)Z apart, L =
        # n (n + 1), beside a complex and beside an irrational pair
        ((F(1, n), F(1, n + 1)), [quadratic])
        for n in (2 ** 61 - 1, 2 ** 64, 10 ** 40, 10 ** 90)
        for quadratic in ((F(0), F(1)), (F(0), F(-2)))
    ])
    def test_close_roots_recovered_exactly(self, roots, quadratics):
        found, _ = rational_roots(quartic_from(roots, quadratics))
        assert sorted(found) == sorted((r, 1) for r in roots)

    @pytest.mark.parametrize("roots, quadratics", [
        ((F(1, 3), F(2), F(-5, 7), F(0)), ()),
        ((F(1, 999999), F(1, 1000000), F(1, 1000001), F(3)), ()),
        ((F(123456789, 1000000007), F(-7, 2)), [(F(0), F(-2))]),
        ((F(1, 10 ** 40), F(1, 10 ** 40 + 1)), [(F(0), F(1))]),
    ])
    def test_refine_asks_for_a_sixteenth_of_the_lattice_step(self, roots, quadratics):
        # the rational roots of sf lie on (1/L)Z, L its leading coefficient,
        # so rounding needs 2**-bits < 1/(16 L) and no more
        q = quartic_from(roots, quadratics)
        with mock.patch("diagvf.roots._refine", wraps=_refine) as refine:
            found, _ = _rational_roots(q)
        assert sorted(found) == sorted((r, 1) for r in roots)
        assert refine.call_count >= 1
        for call in refine.call_args_list:
            sf, _, bits = call.args
            assert bits == sf[-1].bit_length() + 4

    @pytest.mark.parametrize("seed", range(5))
    def test_beyond_old_guard_recovered_exactly(self, seed):
        rng = np.random.default_rng(seed)
        roots = []
        while len(roots) < 3:
            den = int(rng.integers(1000, 100000))
            r = F(int(rng.integers(-3 * den, 3 * den)), den)
            if r not in roots:
                roots.append(r)
        roots.append(roots[seed % 3])
        q = quartic_from(roots)
        assert not within_old_guard(q)
        found, sf = _rational_roots(q)
        assert sorted(found) == sorted((r, roots.count(r)) for r in set(roots))
        assert sf == [1]
        assert all(isinstance(v, F) for v, _ in solve_quartic(q).entries)

    def test_huge_abscissa_does_not_hang(self):
        cfg = {"params": dict(A="-1", a="123456789012345678901/7", b="1", c="0",
                              d="1", e="0", f="0"),
               "weights": ["1/4", "1/2", "1/4"]}
        start = time.perf_counter()
        rep = run_characterize(cfg)
        assert time.perf_counter() - start < 5.0
        # x (x - a) (x^2 - a x - 1): the rational roots 0 and a come out exact
        assert {"re": "0", "im": 0, "mult": 1} in rep.roots
        assert {"re": "123456789012345678901/7", "im": 0, "mult": 1} in rep.roots

    def test_huge_abscissa_keeps_four_distinct_roots(self):
        # x (x - a) (x^2 - a x - 1): the irrational pair (a +- sqrt(a^2+4))/2
        # is clustered at the scale of x^2 - a x - 1, not of the whole
        # quartic, whose ~a^2 coefficients would merge it into a fake root a/2
        p = DiagonalVFParams(F(-1), F(123456789012345678901, 7), F(1), F(0),
                             F(1), F(0), F(0))
        rs = solve_quartic(build_characteristic_quartic(p))
        assert classify_root_pattern(rs) == RootPattern.FOUR_SINGLE_REAL
        assert len(set(rs.real_roots)) == 4
        # the rest 7 x^2 - 7 a x - 7 whose roots were solved in floats
        assert rs.rest == (-7, -123456789012345678901, 7)

    def test_rest_is_kept_on_exact_input_only(self):
        assert solve_quartic(quartic_from([F(-1), F(0), F(0), F(1)])).rest == (1,)
        assert solve_quartic(quartic_from([F(1), F(1)], [(F(0), F(-3))])).rest == (-3, 0, 1)
        assert solve_quartic(Quartic((0.0, 0.0, -1.0, 0.0, 1))).rest is None

    def test_three_atoms_beyond_old_guard_stay_exact(self):
        lams = [F(-2713, 1009), F(1357, 2417), F(5011, 1999)]
        # a doubles the first abscissa, so the quartic has three distinct roots
        p = params_from_abscissas(lams, a=(sum(lams) + lams[0]) / 2)
        assert not within_old_guard(build_characteristic_quartic(p))
        rep = run_characterize({"params": p, "weights": [F(1, 3)] * 3})
        assert rep.status == "Admissible"
        assert rep.regression["exact"] and rep.regression["max_dev"] == 0


class TestSquareFreeByInvariants:
    @settings(max_examples=400, deadline=None)
    @given(factored_integer_quartics())
    @example((0, 0, -1, 0, 1))   # x^2 (x - 1)(x + 1)
    @example((1, 4, 6, 4, 1))    # (x + 1)^4
    @example((4, 0, -4, 0, 1))   # (x^2 - 2)^2
    @example((1, 0, 2, 0, 1))    # (x^2 + 1)^2
    @example((2, -3, 0, 0, 3))   # 3 x^4 - 3 x + 2
    @example((0, -2, 1, -2, 1))  # x (x - 2)(x^2 + 1)
    def test_invariants_decide_square_freeness(self, P):
        # 27 disc(P) = 4 I^3 - J^2 is nonzero exactly when gcd(P, P') = 1
        assert _repeated(P) is (tuple(_square_free(P)[1]) != (1,))


class TestRootStructure:
    """Multiplicity and realness are facts of the quartic, not of --tol."""

    @pytest.mark.parametrize("roots, quadratics, pattern", [
        ((), [(F(0), F(-2))] * 2, RootPattern.TWO_DOUBLE_REAL),
        ((), [(F(1), F(-1))] * 2, RootPattern.TWO_DOUBLE_REAL),
        ((), [(F(0), F(1))] * 2, RootPattern.TWO_DOUBLE_COMPLEX),
        ((F(0), F(0)), [(F(0), F(-2))], RootPattern.DOUBLE_PLUS_TWO_SINGLE_REAL),
        ((F(1), F(1)), [(F(0), F(-3))], RootPattern.DOUBLE_PLUS_TWO_SINGLE_REAL),
    ], ids=["(x2-2)^2", "(x2+x-1)^2", "(x2+1)^2", "x2(x2-2)", "(x-1)2(x2-3)"])
    def test_exact_pattern_does_not_depend_on_tol(self, roots, quadratics, pattern):
        q = quartic_from(roots, quadratics)
        solved = [solve_quartic(q, tol) for tol in (1e-8, 1e-10, 1e-12, 1e-14)]
        assert all(classify_root_pattern(rs) is pattern for rs in solved)
        assert all(rs.entries == solved[0].entries for rs in solved)

    def test_missed_rational_root_is_an_error(self, monkeypatch):
        # a rest (x - 1)^2 (x^2 - 2) has a square-free part of degree 3
        q = quartic_from((F(1), F(1)), [(F(0), F(-2))])
        sf = _square_free([int(c) for c in q.coeffs])[0]
        monkeypatch.setattr("diagvf.roots._rational_roots", lambda q: ([], sf))
        with pytest.raises(ArithmeticError):
            solve_quartic(q)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-2.0, 1.0), st.sampled_from([1e-8, 1e-10, 1e-12]))
    def test_float_pair_near_the_axis(self, v, tol):
        # (x - 3)(x + 2)((x - 1)^2 + delta^2), cluster_tol = tol * 12: delta =
        # cluster_tol * 10^v runs from well inside the realness bound
        # cluster_tol / 2 (v = -log10 2) to past cluster_tol (v = 0)
        d2 = (12 * tol * 10 ** v) ** 2
        rs = solve_quartic(Quartic((-6 * (1 + d2), 11 - d2, d2 - 3, -3.0, 1)), tol)
        reals = [x for x, _ in rs.real_entries]
        assert len(set(reals)) == len(reals)
        cpx = rs.complex_entries
        assert all((z.conjugate(), m) in cpx for z, m in cpx)


class TestOpenClusteringFounds:
    """Float root clustering defects named in CHANGES.md; each test passes
    once its defect is mended."""

    @pytest.mark.xfail(strict=True, reason="FOUND in CHANGES.md: exact input "
                       "still merges distinct close irrational roots")
    def test_exact_close_roots_stay_apart(self):
        # quartic (x - 3)(x + 2)(x^2 - 2x + 1 - 2e-16): four simple real roots
        cfg = {"params": {"A": "-1", "a": "3/2", "b": "1",
                          "c": "-31249999999999999/10000000000000000",
                          "d": "26250000000000001/5000000000000000", "e": "0",
                          "f": "14999999999999997/2500000000000000"},
               "weights": ["1/4", "1/4", "1/4", "1/4"]}
        assert run_characterize(cfg).pattern == "FourSingleReal"

    @pytest.mark.xfail(strict=True, reason="FOUND in CHANGES.md: decimal input "
                       "clusters float roots within an absolute tolerance")
    def test_decimal_roots_at_scale_stay_apart(self):
        # quartic x (x + 2e4)(x^2 - 1e8): roots -2e4, -1e4, 0 and 1e4
        cfg = {"params": {"A": -1, "a": -1e4, "b": 1, "c": 0, "d": 2e8,
                          "e": 0, "f": 0},
               "weights": [0.25, 0.25, 0.25, 0.25]}
        rep = run_characterize(cfg)
        assert rep.pattern == "FourSingleReal"
        assert [r["mult"] for r in rep.roots] == [1, 1, 1, 1]


finite_floats = st.floats(-1e6, 1e6, allow_nan=False)
cluster_parts = st.one_of(st.integers(-4, 4).map(lambda k: k / 2),
                          st.sampled_from([-0.0, math.nan, math.inf, -math.inf, 1e-8, 3e-9]),
                          st.floats(-2, 2))


class TestFloatRootsKeepTheirBits:
    """The roots stage's int and float shortcuts against the numpy and
    Fraction calls they replace, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(finite_floats, min_size=1, max_size=4),
           st.integers(0, 2), st.integers(0, 2), finite_floats.filter(bool))
    def test_companion_roots_are_np_roots(self, coeffs, lead_zeros, trail_zeros, scale):
        # degrees 1 to 4 (and their leading and trailing zeros), not monic
        poly = [0.0] * lead_zeros + [scale] + [c * scale for c in coeffs] + [0.0] * trail_zeros
        assert repr(_companion_roots(poly)) == repr(np.roots(poly).tolist())

    @pytest.mark.parametrize("poly", [[1.0], [0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 3.0, -6.0],
                                      [1.0, 0.0, 1.0], [1.0, -3.0, 3.0, -1.0]])
    def test_companion_roots_edges(self, poly):
        assert repr(_companion_roots(poly)) == repr(np.roots(poly).tolist())

    @pytest.mark.parametrize("poly", [[1.0, math.inf, 0.0], [1e-300, 1e300, 1.0],
                                      [1.0, math.nan, 2.0, 3.0], [2.0, -math.inf, 0.0, 0.0]])
    def test_companion_roots_refuse_a_non_finite_entry(self, poly):
        # 1e300 / 1e-300 overflows to inf in the companion matrix
        with pytest.raises(np.linalg.LinAlgError), np.errstate(over="ignore"):
            np.roots(poly)
        with pytest.raises(np.linalg.LinAlgError):
            _companion_roots(poly)

    def test_companion_roots_raise_on_no_convergence(self):
        # the LAPACK gufunc reports no convergence by the invalid flag
        def not_converging(mat, signature):
            return np.sqrt(np.full(len(mat), -1.0)).astype(complex)
        with mock.patch("diagvf.roots._eigvals", not_converging):
            with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
                _companion_roots([1.0, 2.0, 3.0])

    def test_companion_roots_ignore_the_other_kernel_flags(self):
        # as in np.linalg.eigvals, overflow, divide and underflow flags of
        # the kernel do not reach the caller's error settings
        def flagging(mat, signature):
            np.array([1e308]) * 10, np.array([1.0]) / 0, np.array([1e-308]) * 1e-308
            return np.linalg.eigvals(mat).astype(complex)
        with mock.patch("diagvf.roots._eigvals", flagging), np.errstate(all="raise"):
            assert _companion_roots([1.0, -3.0, 2.0]) == [2.0, 1.0]

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.builds(complex, cluster_parts, cluster_parts), max_size=6),
           st.sampled_from([0.5, 1.0, 1e-8]))
    def test_cluster_is_the_linkage(self, values, tol):
        # parts on the grid of 0.5 put pairs at exactly tol; NaN and inf
        # parts never lie within tol
        assert repr(_cluster(values, tol)) == repr(cluster_linkage(values, tol))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(exact_values, min_size=4, max_size=4),
           st.floats(-1e3, 1e3), st.complex_numbers(max_magnitude=1e3))
    def test_derivative_on_cached_floats(self, coeffs, xf, xc):
        # the Newton step's q' at q._floats, as the Fraction coefficients
        # give it at a float or complex point
        q = Quartic(tuple(coeffs) + (1,))
        c0, c1, c2, c3, d2, d3 = q._floats
        for x in (xf, xc, complex(xf)):
            want = ((4 * q.coeffs[4] * x + 3 * q.coeffs[3]) * x + 2 * q.coeffs[2]) * x + q.coeffs[1]
            assert repr(((4 * x + d3) * x + d2) * x + c1) == repr(want)

    @pytest.mark.parametrize("bits", range(1, 7))
    @pytest.mark.parametrize("limit", [1, 2, 3, 5, 8, 13])
    def test_nearest_fraction_every_small_point(self, bits, limit):
        # the nearest fraction with denominator at most the limit of every
        # X / 2**bits in [-4, 4] is a root r of (x - r)(x^3 + 2), which the
        # root search rounds from its refined float and confirms; no
        # candidate of the irrational real root -2^(1/3) deflates
        for r in {F(X, 1 << bits).limit_denominator(limit)
                  for X in range(-4 << bits, (4 << bits) + 1)}:
            found, _ = _rational_roots(Quartic((-2 * r, F(2), F(0), -r, F(1))))
            assert found == [(r, 1)]

    @settings(max_examples=500, deadline=None)
    @given(st.integers(-2 ** 200, 2 ** 200), st.integers(1, 300), st.integers(1, 2 ** 80))
    def test_nearest_fraction_is_limit_denominator(self, X, bits, limit):
        # large numerators and denominators, as above
        r = F(X, 1 << bits).limit_denominator(limit)
        found, _ = _rational_roots(Quartic((-2 * r, F(2), F(0), -r, F(1))))
        assert found == [(r, 1)]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(exact_values, min_size=6, max_size=6), exact_values,
           st.fractions(-10 ** 6, F(-1, 10 ** 6), max_denominator=10 ** 6))
    def test_integer_ordinate_is_the_fraction_formula(self, vals, lam, A):
        # f chosen so that lam is a root: q(lam) = b^2 (nu^2 - c lam - d nu + f A)
        a, b, c, d, e, _ = map(F, vals)
        b = b or F(1)
        lam = F(lam)
        nu = (lam * lam - a * lam + e * A) / b
        p = DiagonalVFParams(A, a, b, c, d, e, (c * lam + d * nu - nu * nu) / A)
        got = _ordinate(lam, p, None, 1e-8)
        assert type(got) is F and got == nu
