"""The verdict is invariant under the affine maps of the observation that
keep the diagonal form with the same A (Letac and Mora 1990, Ann. Statist.
18(1)).  With N = -1/A:

- scaling X -> sX, s > 0: a, b, c and d times s, e and f times s^2; each
  atom (lambda, nu) goes to (s lambda, s nu);
- translation by (u1, u2): a + 2 u1, d + 2 u2, e - N (u1^2 + a u1 + b u2)
  and f - N (u2^2 + d u2 + c u1); each atom moves by (u1, u2);
- coordinate swap (a, b, c, d, e, f) -> (d, c, b, a, f, e), for c != 0:
  each atom (lambda, nu) goes to (nu, lambda), and the weights follow
  their atoms into ascending nu.

Status, root pattern, verdict case, N and the pass flags of both checks
must not change, and on exact input every atom must map exactly.  The
models are drawn from prescribed roots, as in test_roots.py: rational ones,
whose atoms are exact, or two rational roots beside a real irrational pair,
whose two float atoms only the summary compares.
"""

import math
from fractions import Fraction as F

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from diagvf import DiagonalVFParams, run_characterize
from test_roots import complex_disc, params_for, quartic_from, real_non_square, small_root

# multiplicities of the distinct rational roots, and whether an irreducible
# quadratic with complex roots completes the quartic
SHAPES = [((1, 1, 1, 1), False), ((2, 1, 1), False), ((2, 2), False),
          ((3, 1), False), ((1, 1), True)]


def _params_and_weights(draw, q, n):
    """Exact params with characteristic quartic q, N from 1 to 4 or a
    non-integer exponent, and n weights in the order of the ascending roots,
    all positive, all negative, or of mixed signs."""
    A = draw(st.sampled_from([F(-1), F(-1, 2), F(-1, 3), F(-1, 4), F(-2, 3)]))
    b = draw(st.fractions(-3, 3, max_denominator=3).filter(bool))
    e = draw(st.fractions(-3, 3, max_denominator=3))
    ks = draw(st.lists(st.integers(1, 5), min_size=n, max_size=n))
    signs = draw(st.sampled_from(["+", "-", "mixed"]))
    weights = [F(k, sum(ks)) * (-1 if signs == "-" or signs == "mixed" and i == 0 else 1)
               for i, k in enumerate(ks)]
    return params_for(q, A, b, e), weights


@st.composite
def exact_models(draw):
    """(params, weights, distinct real roots): two to four distinct rational
    roots to every multiplicity, or two simple ones beside a complex pair."""
    mults, quad = draw(st.sampled_from(SHAPES))
    lams = draw(st.lists(small_root, min_size=len(mults), max_size=len(mults), unique=True))
    quads = []
    if quad:
        u = draw(small_root)
        quads.append((u, (u * u - draw(complex_disc)) / 4))
    q = quartic_from([lam for lam, m in zip(lams, mults) for _ in range(m)], quads)
    return (*_params_and_weights(draw, q, len(mults)), lams)


@st.composite
def irrational_models(draw):
    """(params, weights, distinct real roots): two rational roots beside the
    real irrational pair (u +- sqrt(D)) / 2, held to 40 digits.  u is not
    the rational roots' sum, where two ordinates would tie."""
    lams = draw(st.lists(small_root, min_size=2, max_size=2, unique=True))
    u, disc = draw(small_root), draw(real_non_square)
    assume(u != sum(lams))
    q = quartic_from(lams, [(-u, (u * u - disc) / 4)])
    root = F(math.isqrt(disc.numerator * disc.denominator * 10 ** 80),
             disc.denominator * 10 ** 40)
    return (*_params_and_weights(draw, q, 4), lams + [(u - root) / 2, (u + root) / 2])


def _run(p, weights):
    return run_characterize({"params": p, "weights": weights})


def _summary(rep):
    return (rep.status, rep.pattern, rep.verdict["case"], rep.verdict["N"],
            rep.diag_check and rep.diag_check["pass"],
            rep.regression and rep.regression["pass"])


def _atoms(rep):
    """The report's atoms as Fractions; every one must be exact."""
    assert all(isinstance(x, str) for a in rep.atoms for x in a.values())
    return [(F(a["lambda"]), F(a["nu"])) for a in rep.atoms]


def assert_maps(p, weights, mapped, mapped_weights, atom_map):
    before, after = _run(p, weights), _run(mapped, mapped_weights)
    assert _summary(after) == _summary(before)
    assert _atoms(after) == sorted(atom_map(lam, nu) for lam, nu in _atoms(before))


def scaled(p, s):
    return DiagonalVFParams(p.A, s * p.a, s * p.b, s * p.c, s * p.d, s * s * p.e, s * s * p.f)


@settings(max_examples=150, deadline=None)
@given(exact_models(), st.integers(1, 1000), st.integers(1, 1000))
def test_scaling_keeps_the_verdict(model, k, m):
    (p, weights, _), s = model, F(k, m)
    assert_maps(p, weights, scaled(p, s), weights, lambda lam, nu: (s * lam, s * nu))


@settings(max_examples=150, deadline=None)
@given(exact_models(), st.integers(1, 9), st.integers(-9, 9))
def test_scaling_by_powers_of_ten_keeps_the_verdict(model, k, e):
    (p, weights, _), s = model, k * F(10) ** e
    assert_maps(p, weights, scaled(p, s), weights, lambda lam, nu: (s * lam, s * nu))


def translated(p, u1, u2):
    N = -1 / p.A
    return DiagonalVFParams(p.A, p.a + 2 * u1, p.b, p.c, p.d + 2 * u2,
                            p.e - N * (u1 * u1 + p.a * u1 + p.b * u2),
                            p.f - N * (u2 * u2 + p.d * u2 + p.c * u1))


def swapped(p, weights, lams):
    """The swapped params, and the weights following the ascending roots'
    ordinates, the new abscissas."""
    nus = [(lam * lam - p.a * lam + p.e * p.A) / p.b for lam in sorted(lams)]
    return (DiagonalVFParams(p.A, p.d, p.c, p.b, p.a, p.f, p.e),
            [w for _, w in sorted(zip(nus, weights))])


@settings(max_examples=150, deadline=None)
@given(exact_models(), st.fractions(-100, 100, max_denominator=9),
       st.fractions(-100, 100, max_denominator=9))
def test_translation_keeps_the_verdict(model, u1, u2):
    p, weights, _ = model
    assert_maps(p, weights, translated(p, u1, u2), weights,
                lambda lam, nu: (lam + u1, nu + u2))


@settings(max_examples=150, deadline=None)
@given(exact_models())
def test_coordinate_swap_keeps_the_verdict(model):
    p, weights, lams = model
    assume(p.c != 0)
    assert_maps(p, weights, *swapped(p, weights, lams), lambda lam, nu: (nu, lam))


@settings(max_examples=100, deadline=None)
@given(irrational_models(), st.integers(1, 9), st.integers(-9, 9),
       st.fractions(-100, 100, max_denominator=9), st.fractions(-100, 100, max_denominator=9))
def test_irrational_rest_keeps_the_summary(model, k, e, u1, u2):
    # two of the atoms are floats, so only the summary is compared
    p, weights, lams = model
    before = _summary(_run(p, weights))
    assert _summary(_run(scaled(p, k * F(10) ** e), weights)) == before
    assert _summary(_run(translated(p, u1, u2), weights)) == before
    if p.c != 0:
        assert _summary(_run(*swapped(p, weights, lams))) == before


def test_scaling_by_a_billion_keeps_the_verdict():
    # Degenerate-Admissible, TwoRealTwoComplex; scaled by 10^9 the float
    # roots of its complex pair once merged into a double real root
    p = DiagonalVFParams(F(-1, 2), F(439, 224), F(1), F(152679455, 101154816),
                         F(-2207015, 451584), F(2), F(-3382231, 225792))
    s = F(10 ** 9)
    assert_maps(p, [F(3, 4), F(1, 4)], scaled(p, s), [F(3, 4), F(1, 4)],
                lambda lam, nu: (s * lam, s * nu))
