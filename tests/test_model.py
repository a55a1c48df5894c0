import itertools
import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from diagvf import (DiagonalVFParams, LatticeMatrix, NotARoot,
                    NRootDeficit, RootSet, UnsupportedArity, WeightCountMismatch,
                    admissibility_verdict, build_lambda_matrix,
                    candidate_model, make_model, normalize_model,
                    star_condition)

E1 = DiagonalVFParams(F(-1), F(0), F(1), F(0), F(1), F(0), F(0))
P2 = DiagonalVFParams(F(-1), F(0), F(1), F(0), F(-1), F(1), F(0))
W3 = (F(1, 4), F(1, 2), F(1, 4))


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


class TestNormalizeModel:
    def test_e1_shift(self):
        m = candidate_model(E1, W3)
        nm = normalize_model(m)
        assert nm.atoms == ((0, 0), (1, -1), (2, 0))

    def test_idempotent_when_first_at_origin(self):
        m = make_model([(0, 0), (1, 1), (2, 4)], W3, 1)
        assert normalize_model(m).atoms == m.atoms
        assert normalize_model(normalize_model(m)).atoms == m.atoms

    def test_two_atom(self):
        m = make_model([(0, 5), (1, 7)], (F(1, 2), F(1, 2)), 1)
        assert normalize_model(m).atoms == ((0, 0), (1, 1))


class TestLambdaMatrix:
    def test_three_atoms(self):
        m = candidate_model(E1, W3)
        lm = build_lambda_matrix(m)
        assert lm.rows == ((1, -1, 0), (2, 0, 0), (0, 0, 0))

    def test_normalization_preserves_kernel(self):
        # rows differ by a column operation after normalization, so the
        # star outcome must be identical either way
        m = candidate_model(E1, W3)
        assert (star_condition(build_lambda_matrix(m))
                == star_condition(build_lambda_matrix(normalize_model(m))))

    def test_four_atoms(self):
        m = make_model([(0, 0), (1, 1), (2, 4), (3, 9)],
                       (F(1, 4),) * 4, 1)
        lm = build_lambda_matrix(normalize_model(m))
        assert lm.rows == ((1, 1, 0), (2, 4, 0), (3, 9, 0))

    def test_two_atoms_unsupported(self):
        m = make_model([(0, 0), (1, 1)], (F(1, 2), F(1, 2)), 1)
        with pytest.raises(UnsupportedArity):
            build_lambda_matrix(m)


def _mat(rows):
    return LatticeMatrix(tuple(tuple(F(x) for x in r) for r in rows))


def _assert_mixed_kernel_vector(a, rows):
    """a is a mixed-sign integer vector with a^T M = 0, checked in Fractions."""
    assert len(a) == 3 and all(type(x) is int for x in a), a
    assert any(x > 0 for x in a) and any(x < 0 for x in a), a
    assert all(sum(ai * F(rows[i][j]) for i, ai in enumerate(a)) == 0
               for j in range(3)), (a, rows)


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
            atoms = [(F(int(l)), F(int(l)) ** 2) for l in lams]
            m = make_model(atoms, (F(1, 3),) * 3, 1)
            assert star_condition(build_lambda_matrix(m)).holds

    def test_four_rational_atoms_collide(self):
        # three exponent rows in a rank-2 plane always carry a rational
        # relation; with small integer abscissas its primitive integer form
        # is within the bound and has mixed signs, so the condition fails
        m = make_model([(0, 0), (1, 1), (2, 4), (3, 9)], (F(1, 4),) * 4, 1)
        rep = star_condition(build_lambda_matrix(m))
        assert not rep.holds and rep.witness == (3, -3, 1)
        rows = build_lambda_matrix(m).rows
        a = rep.witness
        assert all(sum(ai * rows[i][j] for i, ai in enumerate(a)) == 0
                   for j in range(3))

    def test_four_irrational_atoms_hold(self):
        # roots of l^4 - 5 l^2 + 6 are +-sqrt(2), +-sqrt(3); the only real
        # linear relation among the exponent rows has irrational ratios, so
        # no bounded integer witness exists and the condition holds
        lams = sorted(np.roots([1, 0, -5, 0, 6]).real)
        atoms = [(float(l), float(l) ** 2) for l in lams]
        m = make_model(atoms, (0.25,) * 4, 1.0)
        rep = star_condition(build_lambda_matrix(m))
        assert rep.holds and rep.method == "bounded-search"


class TestVerdict:
    def test_case_a(self):
        m = candidate_model(E1, W3)
        v = admissibility_verdict(m)
        assert v.outcome == "CaseA" and v.N == 1 and v.theta_domain_full
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

    def test_totality(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            w = rng.uniform(-1, 1, size=3)
            m = make_model([(-1, 1), (0, 0), (1, 1)], tuple(w),
                           float(rng.uniform(0.1, 4.0)))
            v = admissibility_verdict(m)
            assert v.outcome in ("CaseA", "CaseB", "Rejected")


class TestStarProperties:
    @given(st.lists(st.integers(min_value=-6, max_value=6),
                    min_size=9, max_size=9),
           st.permutations([0, 1, 2]))
    def test_row_permutation_invariance(self, flat, perm):
        rows = [tuple(F(x) for x in flat[3 * i:3 * i + 3]) for i in range(3)]
        base = star_condition(LatticeMatrix(tuple(rows)))
        shuffled = star_condition(LatticeMatrix(tuple(rows[i] for i in perm)))
        assert base.holds == shuffled.holds
