import itertools
import math
from fractions import Fraction as F

import pytest

from diagvf._num import compositions, merge_points


@pytest.mark.parametrize("total", range(6))
@pytest.mark.parametrize("parts", range(5))
def test_compositions_match_filtered_product(total, parts):
    # same tuples, same lexicographic order: the weight search returns the
    # first admissible grid point of this order
    expected = [ns for ns in itertools.product(range(total + 1), repeat=parts)
                if sum(ns) == total]
    assert list(compositions(total, parts)) == expected


def test_cleared_points_merge_as_their_fractions():
    # (2**60 + 1) / 3 and 2**60 / 3 round to one float: both keep the order
    # in which they were first seen, and a lone -0.0 sums to 0.0
    points = [(2 ** 60 + 1, 5), (2 ** 60, 5), (7, -2), (2 ** 60 + 1, 5), (-4, 0), (9, 3)]
    coefs = [0.5, F(1, 3), 0.25, -1.5, -0.0, F(2, 7)]
    terms = [(j % 3, c, pt) for j, (c, pt) in enumerate(zip(coefs, points))]
    got = merge_points(terms, True, 3)
    want = merge_points([(j, c, (F(x, 3), F(y, 3))) for j, c, (x, y) in terms], True)
    # the merged points stay integers, and clear to the Fraction merge's
    assert [pt for pt, _, _ in got] == [(-4, 0), (7, -2), (9, 3), (2 ** 60 + 1, 5), (2 ** 60, 5)]
    assert all(type(x) is int for pt, _, _ in got for x in pt)
    assert [[(F(x, 3), F(y, 3)), c, j] for (x, y), c, j in got] == want
    assert [pt for pt, _, _ in want] == [(F(-4, 3), F(0)), (F(7, 3), F(-2, 3)), (F(3), F(1)),
                                         (F(2 ** 60 + 1, 3), F(5, 3)), (F(2 ** 60, 3), F(5, 3))]
    assert math.copysign(1.0, got[0][1]) == 1.0
