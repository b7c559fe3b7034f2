"""Shared numeric helpers: checked log-factorials, exact determinants."""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

__all__ = ["log_factorial", "log_binomial", "fraction_det"]


def _selfcheck() -> None:
    # lgamma must reproduce exact factorials over the whole float range of n!
    for n in (0, 1, 2, 5, 23, 71, 170):
        exact = math.log(math.factorial(n)) if n else 0.0
        got = math.lgamma(n + 1)
        if abs(got - exact) > 1e-12 * max(1.0, abs(exact)):
            raise AssertionError(f"lgamma disagrees with {n}! by more than 1e-12")


_selfcheck()


@lru_cache(maxsize=None)
def log_factorial(n: int) -> float:
    """ln(n!) for integer n >= 0."""
    if n < 0:
        raise ValueError("factorial of a negative integer")
    return math.lgamma(n + 1)


def log_binomial(n: int, k: int) -> float:
    """ln C(n, k); requires 0 <= k <= n."""
    if k < 0 or k > n:
        raise ValueError(f"binomial ({n}, {k}) outside the triangle")
    return log_factorial(n) - log_factorial(k) - log_factorial(n - k)


def fraction_det(rows: list[list[Fraction]]) -> Fraction:
    """Exact determinant, fraction-free: each row is scaled to integers by the
    lcm of its denominators, then Bareiss elimination runs over the integers,
    every division exact.  The 0 x 0 determinant is 1."""
    a, scale = [], Fraction(1)
    for row in rows:
        row = [Fraction(x) for x in row]
        d = math.lcm(*(x.denominator for x in row))
        a.append([x.numerator * (d // x.denominator) for x in row])
        scale /= d
    n, sign, prev = len(a), 1, 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            sign = -sign
        p = a[col][col]
        for r in range(col + 1, n):
            for c in range(col + 1, n):
                a[r][c] = (a[r][c] * p - a[r][col] * a[col][c]) // prev
        prev = p
    return sign * prev * scale
