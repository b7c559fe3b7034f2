"""Exact helpers: the fraction-free determinant against the Leibniz expansion."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from dope._util import fraction_det


def _leibniz(a):
    n = len(a)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(n), 2))
        total += (-1) ** inversions * math.prod(a[i][perm[i]] for i in range(n))
    return total


def test_fraction_det_of_the_empty_matrix_is_one():
    assert fraction_det([]) == 1


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_fraction_det_matches_leibniz(n):
    rng = random.Random(n)
    for trial in range(40):
        a = [[Fraction(rng.randint(-4, 4), rng.randint(1, 6)) for _ in range(n)] for _ in range(n)]
        if trial % 4 == 1:
            a[0][0] = Fraction(0)  # zero first pivot: a row swap is needed
        elif trial % 4 == 2 and n > 1:
            a[-1] = [Fraction(3, 2) * x - y for x, y in zip(a[0], a[1 % n])]  # singular
        elif trial % 4 == 3:
            for row in a:
                row[n - 1] = Fraction(0)  # zero column
        assert fraction_det(a) == _leibniz(a)


def test_fraction_det_swaps_past_a_vanishing_leading_minor():
    # the leading 2 x 2 minor vanishes, so the third pivot needs a row swap
    a = [[1, 2, 3], [2, 4, 7], [1, 1, 1]]
    assert fraction_det(a) == _leibniz([[Fraction(x) for x in row] for row in a]) == 1
