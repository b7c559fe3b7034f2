"""Integer partitions, particle coordinates, and exact dimension formulas.

Everything in this module is exact: integers stay integers and ratios are
`fractions.Fraction`.  Floating point enters only downstream, in the
ensembles and kernels built on top of these combinatorial primitives.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

__all__ = [
    "Partition",
    "conjugate",
    "enumerate_partitions",
    "frobenius_dimension",
    "from_particles",
    "particles",
    "vandermonde_v",
    "weight_w",
]


class Partition:
    """A partition of a nonnegative integer: weakly decreasing positive parts.

    Trailing zeros are stripped at construction, so two descriptions of the
    same Young diagram compare equal.  Instances are immutable and hashable.
    """

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[int] = ()):
        cleaned = []
        prev = None
        for p in parts:
            if p != int(p):
                raise ValueError("partition parts must be integers")
            p = int(p)
            if p < 0:
                raise ValueError("partition parts must be nonnegative")
            if prev is not None and p > prev:
                raise ValueError("partition parts must be weakly decreasing")
            prev = p
            if p > 0:
                cleaned.append(p)
        object.__setattr__(self, "parts", tuple(cleaned))

    def __setattr__(self, name, value):
        raise AttributeError("Partition is immutable")

    @property
    def size(self) -> int:
        """Number of boxes in the diagram."""
        return sum(self.parts)

    @property
    def length(self) -> int:
        """Number of nonzero parts."""
        return len(self.parts)

    def part(self, i: int) -> int:
        """The i-th part (1-based), zero beyond the last row."""
        if i < 1:
            raise ValueError("part index is 1-based")
        return self.parts[i - 1] if i <= len(self.parts) else 0

    def padded(self, m: int) -> tuple[int, ...]:
        """Parts as a length-m tuple, padded with zeros; requires m >= length."""
        if m < len(self.parts):
            raise ValueError("padding length is shorter than the partition")
        return self.parts + (0,) * (m - len(self.parts))

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self) -> int:
        return hash(("Partition", self.parts))

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __getitem__(self, idx):
        return self.parts[idx]

    def __repr__(self) -> str:
        return f"Partition({list(self.parts)!r})"


def conjugate(lam: Partition) -> Partition:
    """Transpose of the Young diagram: lam'_j = #{i : lam_i >= j}."""
    if not lam.parts:
        return Partition()
    cols = []
    for j in range(1, lam.parts[0] + 1):
        cols.append(sum(1 for p in lam.parts if p >= j))
    return Partition(cols)


def vandermonde_v(lam: Partition, m: int) -> int:
    """V_m(lam) = prod over 1 <= i < j <= m of (lam_i - lam_j + j - i).

    Requires m >= length(lam); by the stability identity
    V_M W_M = V_l W_l the combination with weight_w does not depend on the
    padding length, which the tests verify.
    """
    if m < lam.length:
        raise ValueError("m must be at least the number of parts")
    p = lam.padded(m)
    out = 1
    for i in range(m):
        for j in range(i + 1, m):
            out *= p[i] - p[j] + j - i
    return out


def weight_w(lam: Partition, m: int) -> Fraction:
    """W_m(lam) = prod over i = 1..m of 1/(lam_i + m - i)!  (exact Fraction)."""
    if m < lam.length:
        raise ValueError("m must be at least the number of parts")
    p = lam.padded(m)
    denom = 1
    for i in range(m):
        denom *= math.factorial(p[i] + m - 1 - i)
    return Fraction(1, denom)


def frobenius_dimension(lam: Partition) -> int:
    """Number of standard Young tableaux of shape lam.

    Frobenius determinant form: f^lam = N! * V_l(lam) * W_l(lam) with
    N = |lam| and l = length(lam).  Always an exact integer.
    """
    n = lam.size
    l = lam.length
    if n == 0:
        return 1
    f = Fraction(math.factorial(n)) * vandermonde_v(lam, l) * weight_w(lam, l)
    if f.denominator != 1:
        raise ArithmeticError("dimension formula produced a non-integer")
    return int(f)


def enumerate_partitions(
    n: int,
    max_length: int | None = None,
    max_part: int | None = None,
) -> Iterator[Partition]:
    """Yield every partition of n with the given bounds, once each.

    Order is lexicographic with the largest first part leading, e.g. for
    n = 3: (3), (2, 1), (1, 1, 1).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if max_length is None:
        max_length = n
    if max_part is None:
        max_part = n

    def rec(remaining: int, bound: int, room: int, prefix: list[int]):
        if remaining == 0:
            yield Partition(prefix)
            return
        if room == 0:
            return
        top = min(bound, remaining)
        # smallest usable part still has to leave a feasible remainder
        for k in range(top, 0, -1):
            if remaining - k > (room - 1) * k:
                break
            prefix.append(k)
            yield from rec(remaining - k, k, room - 1, prefix)
            prefix.pop()

    yield from rec(n, max_part, max_length, [])


def particles(lam: Partition, m: int) -> tuple[int, ...]:
    """Particle coordinates h_i = lam_i + m - i, i = 1..m (strictly decreasing)."""
    if m < lam.length:
        raise ValueError("m must be at least the number of parts")
    p = lam.padded(m)
    return tuple(p[i] + m - 1 - i for i in range(m))


def from_particles(h: Sequence[int]) -> Partition:
    """Inverse of `particles`: lam_i = h_i - (m - i) for a strictly decreasing h."""
    m = len(h)
    for i in range(m - 1):
        if h[i] <= h[i + 1]:
            raise ValueError("particle coordinates must be strictly decreasing")
    if m and h[-1] < 0:
        raise ValueError("particle coordinates must be nonnegative")
    return Partition(tuple(h[i] - (m - 1 - i) for i in range(m)))
