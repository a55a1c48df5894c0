import itertools
import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diagvf import (DiagonalVFParams, LatticeMatrix, NotARoot,
                    NRootDeficit, RootSet, WeightCountMismatch,
                    admissibility_verdict, candidate_model, make_model,
                    star_condition)
from diagvf.measure import check_model
from diagvf.model import StarReport, _abscissa_star, _verdict

from oracles import kept_fractions, weight_clauses
from test_roots import complex_disc, params_for, quartic_from, small_root

E1 = DiagonalVFParams(F(-1), F(0), F(1), F(0), F(1), F(0), F(0))
P2 = DiagonalVFParams(F(-1), F(0), F(1), F(0), F(-1), F(1), F(0))
W3 = (F(1, 4), F(1, 2), F(1, 4))


def lambda_matrix(lams):
    """The lattice matrix of ascending abscissas, built here as the oracle's
    input: rows (d_i, d_i^2, 0), zero-padded to 3x3, with d_i the Fraction of
    lambda_i - lambda_1 as the abscissas' own arithmetic gives it (subtracted
    in float for float abscissas), the first atom moved to the origin."""
    rows = [(d, d * d, F(0)) for d in (F(x - lams[0]) for x in lams[1:])]
    return LatticeMatrix(tuple(rows + [(F(0),) * 3] * (3 - len(rows))))


def brute_force_star(rows, bound=20):
    """Independent oracle: exhaustive exact search for mixed-sign kernel vectors.

    Denominators are cleared column-wise (integer solutions are unaffected)
    so the search runs on an exact integer matrix.
    """
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
    hits = np.flatnonzero(in_kernel & mixed)
    return tuple(int(x) for x in a[hits[0]]) if hits.size else None


def _left_kernel_basis(rows):
    """Basis of {a : a^T M = 0} over the rationals, via RREF of M^T."""
    n = len(rows)
    mt = [[F(rows[j][i]) for j in range(n)] for i in range(len(rows[0]))]
    pivots = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, len(mt)) if mt[i][c] != 0), None)
        if piv is None:
            continue
        mt[r], mt[piv] = mt[piv], mt[r]
        inv = mt[r][c]
        mt[r] = [x / inv for x in mt[r]]
        for i in range(len(mt)):
            if i != r and mt[i][c] != 0:
                fac = mt[i][c]
                mt[i] = [x - fac * y for x, y in zip(mt[i], mt[r])]
        pivots.append(c)
        r += 1
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        v = [F(0)] * n
        v[fc] = F(1)
        for i, pc in enumerate(pivots):
            v[pc] = -mt[i][fc]
        basis.append(tuple(v))
    return basis


def _primitive_integer(v):
    den = math.lcm(*(x.denominator for x in v))
    ints = [int(x * den) for x in v]
    g = math.gcd(*ints)
    return tuple(i // g for i in ints) if g else tuple(ints)


def rref_star(rows, bound=50):
    """Oracle by exact row reduction: a trivial kernel holds; a line's
    primitive RREF generator decides, mixed within the bound being a
    witness; a plane or more fails on the difference of the first two
    basis vectors."""
    basis = _left_kernel_basis(rows)
    if not basis:
        return StarReport(holds=True)
    if len(basis) > 1:
        return StarReport(holds=False, witness=_primitive_integer(
            [x - y for x, y in zip(basis[0], basis[1])]))
    g = _primitive_integer(basis[0])
    if not (any(x > 0 for x in g) and any(x < 0 for x in g)):
        return StarReport(holds=True)
    if max(map(abs, g)) <= bound:
        return StarReport(holds=False, witness=g)
    return StarReport(holds=True, method="bounded-search", bound=bound)


class TestCandidateModel:
    def test_e1(self):
        m = candidate_model(E1, W3)
        assert m.atoms == ((-1, 1), (0, 0), (1, 1))
        assert m.r == 1

    def test_p2(self):
        m = candidate_model(P2, W3)
        assert m.atoms == ((-1, 0), (0, -1), (1, 0))
        assert m.r == 1

    def test_root_deficit(self):
        # a=b=1, rest 0: quartic l^4 - 2l^3 + l^2 has real roots {0, 1} -> ok;
        # e=1 with d=0, f large makes all roots complex? use quartic l^4+1 params
        # directly: c0=1 from A^2 e^2 with the rest arranged is awkward, so use
        # a quadruple-zero quartic instead (all of a,c,d,e,f = 0).
        p = DiagonalVFParams(F(-1), F(0), F(1), F(0), F(0), F(0), F(0))
        with pytest.raises(NRootDeficit):
            candidate_model(p, (F(1),))

    def test_weight_count(self):
        with pytest.raises(WeightCountMismatch):
            candidate_model(E1, (F(1, 2), F(1, 2)))

    def test_given_roots_are_checked(self):
        # E1's quartic l^4 - l^2 has roots -1, 0 and 1, but not 2
        roots = RootSet(((F(-1), 1), (F(0), 1), (F(1), 1), (F(2), 1)))
        with pytest.raises(NotARoot):
            candidate_model(E1, (F(1, 4),) * 4, roots=roots)


class TestLambdaMatrix:
    def test_three_atoms(self):
        # E1's abscissas -1, 0, 1: rows (1, 1, 0), (2, 4, 0) and the
        # padding row, whose e_3 spans the kernel
        mat = lambda_matrix([-1, 0, 1])
        assert mat.rows == ((1, 1, 0), (2, 4, 0), (0, 0, 0))
        assert _abscissa_star([F(-1), F(0), F(1)], 50) == StarReport(holds=True)
        _assert_kernel_vector((0, 0, 1), mat.rows)
        v = admissibility_verdict(candidate_model(E1, W3))
        assert v.star == star_condition(mat)
        assert v.star.holds and v.star.method == "exact-kernel"

    def test_normalization_preserves_kernel(self):
        # shifting every abscissa moves the rows by a column operation, so
        # neither the generator nor the star outcome changes
        for lams in ([0, 1, 5, 60], [F(-7, 3), F(1, 2), 4], [-1.5, 0.25, 3.0]):
            g = _abscissa_star(lams, math.inf)
            base = star_condition(lambda_matrix(lams))
            for t in (F(-5, 2), 3, 0.125):
                shifted = [x + t for x in lams]
                assert _abscissa_star(shifted, math.inf) == g
                assert star_condition(lambda_matrix(shifted)) == base

    def test_four_atoms(self):
        mat = lambda_matrix([0, 1, 2, 3])
        assert mat.rows == ((1, 1, 0), (2, 4, 0), (3, 9, 0))
        assert _abscissa_star([0, 1, 2, 3], math.inf).witness == (3, -3, 1)
        _assert_kernel_vector((3, -3, 1), mat.rows)
        # the q4 golden's roots 0, 1, 5, 60: a mixed generator past bound 50
        assert _abscissa_star([0, 1, 5, 60], math.inf).witness == (825, -177, 1)
        assert _abscissa_star([0, 1, 5, 60], 50) == StarReport(
            holds=True, method="bounded-search", bound=50)

    @given(st.lists(st.fractions(-40, 40, max_denominator=9), min_size=4,
                    max_size=4, unique=True))
    def test_four_atom_generator_is_primitive_and_signed(self, lams):
        lams = sorted(lams)
        g = _abscissa_star(lams, math.inf).witness
        assert all(type(x) is int for x in g) and math.gcd(*g) == 1
        assert g[0] > 0 > g[1] and g[2] > 0
        _assert_kernel_vector(g, lambda_matrix(lams).rows)


def _assert_kernel_vector(a, rows):
    assert all(sum(ai * F(rows[i][j]) for i, ai in enumerate(a)) == 0
               for j in range(3)), (a, rows)


def _mat(rows):
    return LatticeMatrix(tuple(tuple(F(x) for x in r) for r in rows))


def _assert_mixed_kernel_vector(a, rows):
    """a is a mixed-sign integer vector with a^T M = 0, checked in Fractions."""
    assert len(a) == 3 and all(type(x) is int for x in a), a
    assert any(x > 0 for x in a) and any(x < 0 for x in a), a
    _assert_kernel_vector(a, rows)


class TestStarCondition:
    def test_one_dim_kernel_no_mixed(self):
        rep = star_condition(_mat([(1, -1, 0), (2, 0, 0), (0, 0, 0)]))
        assert rep.holds and rep.method == "exact-kernel"

    def test_two_dim_kernel_witness(self):
        rep = star_condition(_mat([(1, 1, 0), (2, 2, 0), (0, 0, 0)]))
        assert not rep.holds and rep.method == "exact-kernel"
        a = rep.witness
        rows = [(1, 1, 0), (2, 2, 0), (0, 0, 0)]
        assert all(sum(ai * rows[i][j] for i, ai in enumerate(a)) == 0
                   for j in range(3))
        assert any(x * y < 0 for x, y in itertools.combinations(a, 2))

    @pytest.mark.parametrize("rows", [
        # entries past 2**63 once denominators are cleared
        [(10**19, 1, 0), (2 * 10**19, 2, 0), (0, 0, 0)],
        # 2**62: an int64 product -4 * 2**62 wraps round to 0
        [(1, 0, 0), (2**62, 0, 0), (0, 0, 0)],
        [(0, 0, 0)] * 3,
    ], ids=["beyond-int64", "int64-wraparound", "zero"])
    def test_higher_dim_kernel_witness_is_exact(self, rows):
        rep = star_condition(_mat(rows))
        assert not rep.holds
        _assert_mixed_kernel_vector(rep.witness, rows)
        assert rep.method == "exact-kernel" and rep.bound is None

    def test_full_rank(self):
        rep = star_condition(_mat([(1, 0, 0), (0, 1, 0), (0, 0, 1)]))
        assert rep.holds and rep.witness is None

    def test_one_dim_kernel_mixed(self):
        # rows sum to zero: kernel generator (1, 1, -2)? construct simply
        rep = star_condition(_mat([(1, 0, 0), (1, 0, 0), (2, 0, 0)]))
        assert not rep.holds
        assert any(x * y < 0 for x, y in itertools.combinations(rep.witness, 2))

    def test_agrees_with_brute_force(self):
        rng = np.random.default_rng(42)
        for trial in range(60):
            kind = trial % 3
            def fr():
                return F(int(rng.integers(-5, 6)), int(rng.integers(1, 5)))
            if kind == 0:
                rows = [tuple(fr() for _ in range(3)) for _ in range(3)]
            elif kind == 1:
                r0 = tuple(fr() for _ in range(3))
                k1, k2 = (int(rng.integers(-3, 4)) for _ in range(2))
                rows = [r0, tuple(k1 * x for x in r0), tuple(k2 * x for x in r0)]
            else:
                r0 = tuple(fr() for _ in range(3))
                r1 = tuple(fr() for _ in range(3))
                k1, k2 = (int(rng.integers(-2, 3)) for _ in range(2))
                rows = [r0, r1, tuple(k1 * x + k2 * y for x, y in zip(r0, r1))]
            rep = star_condition(_mat(rows))
            oracle = brute_force_star(rows)
            assert rep.holds == (oracle is None), (rows, rep, oracle)
            if not rep.holds:
                _assert_mixed_kernel_vector(rep.witness, rows)

    def test_three_atom_lambda_matrices_always_hold(self):
        # two independent exponent rows in the plane admit no integer relation
        rng = np.random.default_rng(5)
        for _ in range(30):
            lams = sorted(rng.choice(np.arange(-6, 7), size=3, replace=False))
            assert star_condition(lambda_matrix([int(l) for l in lams])).holds

    def test_four_rational_atoms_collide(self):
        # three exponent rows in a rank-2 plane always carry a rational
        # relation; with small integer abscissas its primitive integer form
        # is within the bound and has mixed signs, so the condition fails
        mat = lambda_matrix([0, 1, 2, 3])
        rep = star_condition(mat)
        assert not rep.holds and rep.witness == (3, -3, 1)
        _assert_mixed_kernel_vector(rep.witness, mat.rows)
        m = make_model([(0, 0), (1, 1), (2, 4), (3, 9)], (F(1, 4),) * 4, 1)
        assert admissibility_verdict(m).star == rep

    def test_four_irrational_atoms_hold(self):
        # roots of l^4 - 5 l^2 + 6 are +-sqrt(2), +-sqrt(3); the only real
        # linear relation among the exponent rows has irrational ratios, so
        # no bounded integer witness exists and the condition holds
        lams = sorted(np.roots([1, 0, -5, 0, 6]).real)
        rep = star_condition(lambda_matrix([float(l) for l in lams]))
        assert rep.holds and rep.method == "bounded-search"
        m = make_model([(float(l), float(l) ** 2) for l in lams], (0.25,) * 4, 1.0)
        assert admissibility_verdict(m).star == rep


class TestVerdict:
    def test_case_a(self):
        m = candidate_model(E1, W3)
        v = admissibility_verdict(m)
        assert v.outcome == "CaseA" and v.N == 1
        assert v.star is not None and v.star.holds

    def test_case_b(self):
        m = make_model([(-1, 1), (0, 0), (1, 1)],
                       (F(-1, 3), F(-1, 3), F(-1, 3)), 2)
        v = admissibility_verdict(m)
        assert v.outcome == "CaseB" and v.N == 2

    def test_non_integer_exponent(self):
        m = make_model([(-1, 1), (0, 0), (1, 1)], W3, F(3, 2))
        v = admissibility_verdict(m)
        assert v.outcome == "Rejected"
        assert "positive integer" in v.reason

    def test_odd_exponent_case_b(self):
        m = make_model([(-1, 1), (0, 0), (1, 1)],
                       (F(-1, 3), F(-1, 3), F(-1, 3)), 3)
        v = admissibility_verdict(m)
        assert v.outcome == "Rejected"
        assert "even" in v.reason

    def test_mixed_signs(self):
        m = make_model([(-1, 1), (0, 0), (1, 1)],
                       (F(3, 4), F(-1, 4), F(1, 2)), 1)
        v = admissibility_verdict(m)
        assert v.outcome == "Rejected"
        assert "mixed" in v.reason

    def test_bad_sum(self):
        m = make_model([(-1, 1), (0, 0), (1, 1)],
                       (F(1, 4), F(1, 4), F(1, 4)), 1)
        v = admissibility_verdict(m)
        assert v.outcome == "Rejected"
        assert "sum" in v.reason

    def test_zero_weights_dropped(self):
        m = make_model([(-1, 1), (0, 0), (1, 1)],
                       (F(1, 2), F(0), F(1, 2)), 1)
        v = admissibility_verdict(m)
        assert v.outcome == "CaseA" and v.N == 1

    def test_one_weighted_atom_is_rejected(self):
        m = candidate_model(E1, (F(1), F(0), F(0)))
        v = admissibility_verdict(m)
        assert v.outcome == "Rejected"
        assert v.reason == "fewer than two atoms with nonzero weight"

    def test_two_atom_path(self):
        m = make_model([(0, 0), (1, 1)], (F(1, 2), F(1, 2)), 2)
        v = admissibility_verdict(m)
        assert v.outcome == "CaseA" and v.N == 2
        assert v.star is None  # one-dimensional reduction, no lattice check

    def test_permutation_invariance(self):
        atoms = [(-1, 1), (0, 0), (1, 1)]
        weights = [F(1, 4), F(1, 2), F(1, 4)]
        base = admissibility_verdict(make_model(atoms, weights, 1))
        for perm in itertools.permutations(range(3)):
            m = make_model([atoms[i] for i in perm],
                           [weights[i] for i in perm], 1)
            assert admissibility_verdict(m) == base

    @pytest.mark.parametrize("order", [(0, 1, 2), (1, 0, 2)])
    def test_atoms_closer_than_an_ulp_sort_exactly(self, order):
        # float() ties 1 + 10^-20 with 1; the exact order does not
        atoms = [(F(10 ** 20 + 1, 10 ** 20), F(2)), (F(1), F(1)), (F(3), F(5))]
        weights = [F(1, 4), F(1, 4), F(1, 2)]
        m = make_model([atoms[i] for i in order], [weights[i] for i in order], F(3, 2))
        assert m.atoms == (atoms[1], atoms[0], atoms[2])
        assert m.weights == (weights[1], weights[0], weights[2])

    def test_totality(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            w = rng.uniform(-1, 1, size=3)
            m = make_model([(-1, 1), (0, 0), (1, 1)], tuple(w),
                           float(rng.uniform(0.1, 4.0)))
            v = admissibility_verdict(m)
            assert v.outcome in ("CaseA", "CaseB", "Rejected")


@st.composite
def ranked_matrices(draw):
    """3x3 rational matrices of a drawn rank 0-3: rows are integer
    combinations of `rank` random rows, in random order."""
    rank = draw(st.integers(0, 3))
    size = draw(st.sampled_from((1, 5, 50)))
    entry = st.builds(F, st.integers(-size, size), st.integers(1, 6))
    basis = draw(st.lists(st.tuples(entry, entry, entry), min_size=rank, max_size=rank))
    rows = []
    for _ in range(3):
        ks = draw(st.lists(st.integers(-3, 3), min_size=rank, max_size=rank))
        rows.append(tuple(sum((k * v[j] for k, v in zip(ks, basis)), F(0))
                          for j in range(3)))
    return rows


class TestStarClosedForm:
    """star_condition's closed form against exact row reduction."""

    @settings(max_examples=500, deadline=None)
    @given(ranked_matrices(), st.sampled_from((1, 5, 50, math.inf)))
    def test_matches_rref_oracle(self, rows, bound):
        assert star_condition(_mat(rows), bound=bound) == rref_star(rows, bound)

    @pytest.mark.parametrize("rows", [
        [(0, 0, 0)] * 3,                                      # rank 0
        [(0, 0, 0), (F(1, 2), 1, F(-3, 2)), (-1, -2, 3)],     # rank 1, p = 1
        [(0, 0, 0), (0, 0, 0), (0, 0, -7)],                   # rank 1, p = 2
        [(0, 2, 0), (0, -3, 0), (0, 5, 0)],                   # rank 1, k = 1
        [(1, 0, 0), (0, 0, 0), (0, 0, 1)],                    # rank 2, e_2
        [(1, 1, 0), (2, 2, 0), (1, 0, 0)],                    # rank 2, mixed
        [(F(1, 2), 1, 0), (0, F(2, 3), 1), (1, 0, 3)],        # rank 3
    ])
    def test_every_rank(self, rows):
        for bound in (1, 2, 50):
            assert star_condition(_mat(rows), bound=bound) == rref_star(rows, bound)


class TestStarProperties:
    @given(st.lists(st.integers(min_value=-6, max_value=6),
                    min_size=9, max_size=9),
           st.permutations([0, 1, 2]))
    def test_row_permutation_invariance(self, flat, perm):
        rows = [tuple(F(x) for x in flat[3 * i:3 * i + 3]) for i in range(3)]
        base = star_condition(LatticeMatrix(tuple(rows)))
        shuffled = star_condition(LatticeMatrix(tuple(rows[i] for i in perm)))
        assert base.holds == shuffled.holds


def _abscissas(exact):
    if exact:
        return st.fractions(-60, 60, max_denominator=16)
    # decimal abscissas c + k put the float rounding of lambda_i - lambda_1
    # in play: 0.1 + k differences are often exactly integers
    return st.one_of(
        st.floats(-100, 100, allow_nan=False, allow_infinity=False,
                  allow_subnormal=False),
        st.tuples(st.sampled_from([0.1, 0.3, 12.34]), st.integers(-30, 30))
        .map(sum))


# distinct abscissas whose float differences d_i = lambda_i - lambda_1 round
# alike (or to 0), with the witness of bound 1; one exact abscissa among them
# makes every difference exact, so the last case does not collide
COLLIDING = [
    ([-1e17, 2.0, 6.0], (-1, 1, -1)),           # d_2 = d_3: rank 1
    ([-1e16, 2.0, 3.0, 5.0], (0, -1, 1)),       # d_3 = d_4
    ([-1e16, 2.0, 2.5, 6.0], (-1, 1, 0)),       # d_2 = d_3
    ([-1e17, 1.0, 3.0, 5.0], (0, 1, -1)),       # d_2 = d_3 = d_4: rank 1
    ([0.1, F(0.1) + F(1, 10**30), 1.0], None),  # d_2 = 10^-30, not 0.0
]
COLLIDING_IDS = ["three-equal", "four-last-equal", "four-first-equal",
                 "four-all-equal", "zero-difference"]


def _as_read(lams):
    """The abscissas as the star condition reads them: all exact once one is."""
    return [F(x) for x in lams] if any(type(x) is F for x in lams) else lams


class TestVerdictStarDifferential:
    """The verdict's closed-form star condition against the row reduction
    (`rref_star`) of the lattice matrix built here from the kept abscissas,
    the rows the verdict row-reduced before it read the closed form."""

    @settings(max_examples=300, deadline=None)
    @given(st.booleans().flatmap(lambda exact: st.lists(
               _abscissas(exact), min_size=3, max_size=4, unique=True)),
           st.booleans())
    def test_matches_row_reduction(self, lams, below):
        lams = sorted(lams)
        mat = lambda_matrix(lams)
        # the RREF generator at an unlimited bound; three exact atoms have
        # e_3 (float differences that round alike can give a plane)
        ref = rref_star(mat.rows, bound=math.inf)
        top = max(abs(x) for x in ref.witness) if ref.witness else 1
        if isinstance(lams[0], F):
            assert (ref.witness is None) == (len(lams) == 3)
        bound = top - 1 if below else top
        n = len(lams)
        w = (F(1, n) if isinstance(lams[0], F) else 1.0 / n,) * n
        m = make_model([(x, x * x) for x in lams], w, 1)
        star = admissibility_verdict(m, bound=bound).star
        assert star == rref_star(mat.rows, bound=bound) == star_condition(mat, bound=bound)

    def test_decimal_abscissas_keep_their_float_differences(self):
        # 0.1, 1.1, 2.1, 3.1 differ by exactly 1, 2, 3 in float, as for the
        # integers 0..3, so the witness is (3, -3, 1)
        m = make_model([(x, x * x) for x in (0.1, 1.1, 2.1, 3.1)], (0.25,) * 4, 1)
        v = admissibility_verdict(m)
        assert v.outcome == "Rejected" and v.inconclusive
        assert v.star == StarReport(holds=False, witness=(3, -3, 1))

    @pytest.mark.parametrize("lams, witness", COLLIDING, ids=COLLIDING_IDS)
    def test_colliding_float_differences(self, lams, witness):
        # float subtraction can round distinct abscissas to equal (or zero)
        # differences; the rows then have rank <= 2 with a short witness
        m = make_model([(x, x * x) for x in lams], (1 / len(lams),) * len(lams), 1)
        v = admissibility_verdict(m, bound=1)
        assert v.star == rref_star(lambda_matrix(_as_read(lams)).rows, bound=1)
        assert v.star.witness == witness and v.inconclusive == (witness is not None)

    @pytest.mark.parametrize("lams, witness", COLLIDING, ids=COLLIDING_IDS)
    def test_verdict_core_on_colliding_differences(self, lams, witness):
        # the core, given the abscissas with no model (as a weight search
        # gives them), reads their float differences as the model wrapper does
        w = (1 / len(lams),) * len(lams)
        m = make_model([(x, 0.0) for x in lams], w, 1)
        v = _verdict(lams, w, 1, bound=1)
        assert v == admissibility_verdict(m, bound=1)
        assert v.star.witness == witness and v.inconclusive == (witness is not None)

    def test_zero_weight_atoms_leave_the_lattice(self):
        # abscissas 0, 1, 2, 3 with the weight of 1 zero: the kept 0, 2, 3
        # have a trivial condition although all four collide
        m = make_model([(x, x * x) for x in range(4)],
                       (F(1, 2), F(0), F(1, 4), F(1, 4)), 1)
        v = admissibility_verdict(m)
        assert v.star == rref_star(lambda_matrix([0, 2, 3]).rows)
        assert v.outcome == "CaseA"


@st.composite
def exact_models(draw):
    """(params, weights, bound): exact params whose quartic has 2-4 distinct
    rational real roots (completed by a double root or a complex pair), with
    any exact r = -1/A, and exact weights for those roots: of one sign with
    unit sum, or free, zeros among them either way."""
    lams = sorted(draw(st.lists(small_root, min_size=2, max_size=4, unique=True)))
    u = draw(small_root)
    extra = {2: ((), [(u, (u * u - draw(complex_disc)) / 4)]),
             3: ((draw(st.sampled_from(lams)),), []), 4: ((), [])}[len(lams)]
    r = draw(st.integers(1, 6).map(F) if draw(st.integers(0, 3))
             else st.fractions(F(1, 50), 50).filter(bool))
    b = draw(st.fractions(-5, 5, max_denominator=9).filter(bool))
    e = draw(st.fractions(-5, 5, max_denominator=9))
    p = params_for(quartic_from(tuple(lams) + extra[0], extra[1]), -1 / r, b, e)
    n = len(lams)
    if draw(st.integers(0, 3)):
        raw, sign = draw(st.lists(st.sampled_from([0, 1, 2, 3, 5]), min_size=n, max_size=n)), \
            draw(st.sampled_from([1, -1]))
        weights = [sign * F(x, sum(raw) or 1) for x in raw]
    else:
        weights = draw(st.lists(st.fractions(-3, 3, max_denominator=12), min_size=n, max_size=n))
    return p, weights, draw(st.sampled_from([1, 50, 10 ** 9]))


class TestKeptForm:
    """An exact `candidate_model` model's kept form is the model cleared:
    Fractions of the nonzero-weight atoms and weights are the oracle, and a
    `make_model` twin on the same Fraction atoms clears to the same form,
    verdict and checks."""

    @settings(max_examples=300, deadline=None)
    @given(exact_models())
    def test_kept_form_is_the_model_cleared(self, model):
        p, weights, bound = model
        m = candidate_model(p, weights)
        assert all(nu == (lam * lam - p.a * lam + p.e * p.A) / p.b for lam, nu in m.atoms)
        exact, D, atoms, M, W = m._cleared
        lams, ws = kept_fractions(m)
        assert exact and all(type(x) is int for pt in atoms for x in pt) and D > 0
        assert [(F(X, D), F(Y, D)) for X, Y in atoms] == lams
        assert all(type(w) is int for w in W) and M > 0
        assert [F(w, M) for w in W] == ws and [abs(F(w, M)) for w in W] == list(map(abs, ws))
        twin = make_model(m.atoms, m.weights, m.r)
        assert twin._cleared == m._cleared
        v = admissibility_verdict(m, bound)
        assert v == admissibility_verdict(twin, bound)
        if v.star is None or v.star.holds:
            assert (v.outcome, v.N) == weight_clauses(ws, m.r)
        else:
            assert v.inconclusive and len(lams) == 4
            assert v.star == rref_star(lambda_matrix([x for x, _ in lams]).rows, bound)
        if v.accepted:
            reports = check_model(m, p, v)
            assert reports == check_model(twin, p, v)
            assert all(rep.exact and rep.max_dev == 0 for rep in reports)
