import itertools

import pytest

from diagvf._num import compositions


@pytest.mark.parametrize("total", range(6))
@pytest.mark.parametrize("parts", range(5))
def test_compositions_match_filtered_product(total, parts):
    # same tuples, same lexicographic order: the weight search returns the
    # first admissible grid point of this order
    expected = [ns for ns in itertools.product(range(total + 1), repeat=parts)
                if sum(ns) == total]
    assert list(compositions(total, parts)) == expected
