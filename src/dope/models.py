"""Lattice models whose laws reduce to the discrete ensembles.

Four model families live here, each with an exact desk-scale route so the
ensemble reductions can be checked combinatorially:

* random words over a finite alphabet (longest weakly increasing subsequence),
* directed last-passage percolation with Bernoulli-distributed fast edges,
* uniform domino tilings of the Aztec diamond and their zig-zag paths,
* lozenge tilings of a regular hexagon, sliced along a vertical line.

The word law maps to the Charlier ensemble, percolation and zig-zag paths to
Krawtchouk ensembles, and the hexagon slice to a Hahn ensemble.  Every map is
exercised against brute-force enumeration in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, NamedTuple, Sequence

from .ensembles import (
    Charlier,
    Hahn,
    Krawtchouk,
    MultiplicativeFunctional,
    _gas_expectation,
    expectation,
    pmf_exact,
    word_shape_pmf,
)
from .partitions import enumerate_partitions
from .rsk import bernoulli_path_max

__all__ = [
    "PercolationSpec",
    "PercolationConstants",
    "AztecZigzag",
    "word_gap",
    "percolation_gap",
    "percolation_constants",
    "passage_time",
    "aztec_zigzag_pmf",
    "aztec_tiling_count",
    "enumerate_aztec_tilings",
    "aztec_zigzag_turns",
    "enumerate_plane_partitions",
    "plane_partition_slice",
    "hexagon_slice_pmf",
]

_EXACT_WORD_CAP = 20
_KRAWTCHOUK_SUPPORT_CAP = 24
_AZTEC_ENUM_CAP = 5
_PLANE_PARTITION_CAP = 4
_HEXAGON_SUPPORT_CAP = 20


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class PercolationSpec:
    """Directed nearest-neighbour percolation with two horizontal speeds.

    Vertical edges take time tau0; horizontal edges take the slow time kappa
    with probability q = 1 - p and the fast time lam with probability p.
    """

    tau0: Fraction | float
    kappa: Fraction | float
    lam: Fraction | float
    p: Fraction | float

    def __post_init__(self):
        if not self.tau0 > 0:
            raise ValueError("tau0 must be positive")
        if not self.kappa > self.lam:
            raise ValueError("kappa must exceed lam")
        if self.lam < 0:
            raise ValueError("lam must be nonnegative")
        if not 0 < self.p < 1:
            raise ValueError("p must lie in (0, 1)")

    @property
    def q(self):
        return 1 - self.p

    @property
    def rho(self):
        """Odds of a fast horizontal edge, p/q."""
        return self.p / self.q


class PercolationConstants(NamedTuple):
    """Law of large numbers slope and cube-root fluctuation scale."""

    mu: float
    sigma: float
    degenerate: bool


@dataclass(frozen=True)
class AztecZigzag:
    """A zig-zag path in the order-n Aztec diamond, identified by its turns.

    The path of index r runs along the r-th diagonal of white (or black)
    squares.  Between consecutive diagonal squares it either turns early or
    late; `turns` lists the positions of the early turns.  White paths turn
    east-then-south at positions in {0..n}, black paths south-then-east at
    positions in {0..n-1}; a tiling always produces exactly r turns.
    """

    n: int
    r: int
    color: str
    turns: tuple[int, ...] = field(default=())

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("diamond order must be at least 1")
        if not 1 <= self.r <= self.n:
            raise ValueError("row index must satisfy 1 <= r <= n")
        if self.color not in ("white", "black"):
            raise ValueError("color must be 'white' or 'black'")
        turns = tuple(sorted(int(t) for t in self.turns))
        if len(set(turns)) != len(turns):
            raise ValueError("turn positions must be distinct")
        if len(turns) != self.r:
            raise ValueError("need exactly r turn positions")
        top = self.n if self.color == "white" else self.n - 1
        if turns and (turns[0] < 0 or turns[-1] > top):
            raise ValueError(f"turns must lie in 0..{top}")
        object.__setattr__(self, "turns", turns)


# ---------------------------------------------------------------------------
# random words


def word_gap(m, t, *, n=None, alpha=None, tol=1e-8):
    """P[L(w) <= t] for the longest weakly increasing subsequence of a word.

    The word has letters drawn uniformly from an alphabet of size m.  With
    `n` set, the word length is fixed and the value is an exact Fraction
    obtained by summing the shape law over partitions of n with at most m
    rows and first part at most t.  With `alpha` set, the length is Poisson
    with mean alpha and the value is the float Charlier-ensemble gap
    probability (cross-checkable against the Fredholm-determinant route).
    A threshold that is not a whole number raises ValueError.
    """
    if m < 1:
        raise ValueError("alphabet size must be at least 1")
    if (n is None) == (alpha is None):
        raise ValueError("specify exactly one of n (fixed length) or alpha")
    if t != int(t):
        raise ValueError(f"threshold {t!r} is not a whole number")
    t = int(t)
    if n is not None:
        n = int(n)
        if n < 0:
            raise ValueError("word length must be nonnegative")
        if n > _EXACT_WORD_CAP:
            raise ValueError(
                f"exact enumeration is capped at length {_EXACT_WORD_CAP}; "
                "use the Monte Carlo sampler for longer words"
            )
        if t < 0:
            return Fraction(0)
        if t >= n:
            return Fraction(1)
        total = Fraction(0)
        for lam in enumerate_partitions(n, max_length=m, max_part=t):
            total += word_shape_pmf(m, n, lam)
        return total
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    if t < 0:
        return 0.0
    gap = MultiplicativeFunctional.indicator_gap(t)
    return expectation(Charlier(m, float(alpha)), gap, tol=tol)


# ---------------------------------------------------------------------------
# Bernoulli last-passage percolation


def percolation_gap(p, rows: int, cols: int, level: int) -> Fraction:
    """P[L(W) <= level] for a rows x cols Bernoulli(p) matrix W, 0 < p < 1.

    L(W) is the maximum number of ones collected along a path taking one
    entry per row with weakly increasing column indices.  The value is the
    Krawtchouk gap probability for cols particles on {0..cols+rows-1}: the
    largest particle stays at or below level + cols - 1 (`_gas_expectation`
    of `indicator_gap(level)`).  A rational p gives the exact value; a float
    p is read as the rational it stores.
    """
    if not 0 < p < 1:
        raise ValueError("p must lie in (0, 1)")
    if rows < 1 or cols < 1:
        raise ValueError("matrix dimensions must be positive")
    if level < 0:
        return Fraction(0)
    if level >= rows:
        return Fraction(1)
    top = cols + rows - 1
    if top > _KRAWTCHOUK_SUPPORT_CAP:
        raise ValueError(
            f"exact summation is capped at support size {_KRAWTCHOUK_SUPPORT_CAP}; "
            "use the Monte Carlo sampler for larger matrices"
        )
    return _gas_expectation(
        Krawtchouk(n=cols, k=top, p=p), MultiplicativeFunctional.indicator_gap(level), cols, top
    )


def percolation_constants(x, y, spec: PercolationSpec) -> PercolationConstants:
    """Time constant mu(x, y) and fluctuation scale sigma(x, y).

    T([nx], [ny]) grows like n mu with fluctuations of order sigma n^(1/3)
    governed by the Tracy-Widom law when py < qx.  On the boundary py = qx
    and beyond (py > qx, where the time constant is linear) sigma degenerates
    to 0 and the flag is set.
    """
    if not (x > 0 and y > 0):
        raise ValueError("direction coordinates must be positive")
    p, q = spec.p, spec.q
    base = spec.lam * x + spec.tau0 * y
    gap = q * x - p * y
    if gap <= 0:
        return PercolationConstants(float(base), 0.0, True)
    px, qy = float(p * x), float(q * y)
    qx, py = float(q * x), float(p * y)
    diff = math.sqrt(qx) - math.sqrt(py)
    mu = float(base) + float(spec.kappa - spec.lam) * diff * diff
    sigma = (
        (float(p * q) / float(x * y)) ** (1.0 / 6.0)
        * (math.sqrt(px) + math.sqrt(qy)) ** (2.0 / 3.0)
        * diff ** (2.0 / 3.0)
    )
    return PercolationConstants(mu, sigma, False)


def passage_time(spec: PercolationSpec, w: Sequence[Sequence[int]]):
    """Minimal passage time to (k, l) from the k x (l+1) fast-edge matrix w.

    Row i of w flags the fast horizontal edges at height i; the passage time
    is l * tau0 + k * kappa - (kappa - lam) * L(w) with L the best path count.
    """
    k = len(w)
    if k == 0:
        raise ValueError("need at least one matrix row")
    l = len(w[0]) - 1
    return l * spec.tau0 + k * spec.kappa - (spec.kappa - spec.lam) * bernoulli_path_max(w)


# ---------------------------------------------------------------------------
# Aztec diamond


def aztec_tiling_count(n: int) -> int:
    """Number of domino tilings of the order-n Aztec diamond, 2^(n(n+1)/2)."""
    if n < 0:
        raise ValueError("order must be nonnegative")
    return 1 << (n * (n + 1) // 2)


def _staircase_product(values: Sequence[int]) -> Fraction:
    """prod_{i<j} (values_j - values_i) / (j - i) for ascending values."""
    out = Fraction(1)
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            out *= Fraction(values[j] - values[i], j - i)
    return out


def _tilings_above(n: int, turns: Sequence[int]) -> Fraction:
    """Count of tilings of the region above a white zig-zag path, given the
    ascending turn positions."""
    r = len(turns)
    return Fraction(2) ** (r * (r - 1) // 2) * _staircase_product(turns)


def _tilings_below(n: int, turns: Sequence[int]) -> Fraction:
    """Count of tilings below a white zig-zag path, via the complementary
    positions in {0..n}."""
    r = len(turns)
    comp = [k for k in range(n + 1) if k not in set(turns)]
    return Fraction(2) ** ((n + 1 - r) * (n - r) // 2) * _staircase_product(comp)


def _krawtchouk_half_law(r: int, top: int, turns: Sequence[int]) -> Fraction:
    """Closed-form symmetric Krawtchouk probability of an r-subset of {0..top}.

    The constant in front is written out rather than obtained by summation,
    so this route is independent of the ensemble normalizer.
    """
    h = sorted(turns, reverse=True)
    const = Fraction(2) ** (r * (r - 1)) / Fraction(math.factorial(top)) ** (r - 1)
    for j in range(1, r):
        const *= Fraction(math.factorial(top - j), math.factorial(j))
    delta = 1
    for i in range(r):
        for j in range(i + 1, r):
            delta *= (h[i] - h[j]) ** 2
    weight = Fraction(1)
    for t in h:
        weight *= Fraction(math.comb(top, t), 2**top)
    return const * delta * weight


def aztec_zigzag_pmf(z: AztecZigzag) -> Fraction:
    """Probability of the given zig-zag path under the uniform tiling measure.

    White paths follow the symmetric Krawtchouk law for r particles on
    {0..n}, black paths the same law on {0..n-1}.  The value is computed by
    the closed-form law and, for white paths, also as (tilings above) times
    (tilings below) divided by the total count; the routes must agree
    exactly, and any mismatch raises.
    """
    top = z.n if z.color == "white" else z.n - 1
    closed = _krawtchouk_half_law(z.r, top, z.turns)
    ens = Krawtchouk(n=z.r, k=top, p=Fraction(1, 2))
    via_ensemble = pmf_exact(ens, tuple(sorted(z.turns, reverse=True)))
    if closed != via_ensemble:
        raise AssertionError(
            f"closed form {closed} disagrees with ensemble route {via_ensemble}"
        )
    if z.color == "white":
        above = _tilings_above(z.n, z.turns)
        below = _tilings_below(z.n, z.turns)
        if above.denominator != 1 or below.denominator != 1:
            raise AssertionError("tiling counts must be integers")
        product = above * below / aztec_tiling_count(z.n)
        if product != closed:
            raise AssertionError(
                f"counting route {product} disagrees with closed form {closed}"
            )
    return closed


def _diamond_cells(n: int) -> list[tuple[int, int]]:
    """Unit squares of the order-n diamond, as lower-left corners (j, k),
    ordered bottom row first and left to right within a row."""

    def arm(t: int) -> int:
        return t + 1 if t >= 0 else -t

    cells = [
        (j, k)
        for k in range(-n, n)
        for j in range(-n, n)
        if arm(j) + arm(k) <= n + 1
    ]
    cells.sort(key=lambda c: (c[1], c[0]))
    return cells


def enumerate_aztec_tilings(
    n: int,
) -> Iterator[tuple[tuple[tuple[int, int], tuple[int, int]], ...]]:
    """Yield every domino tiling of the order-n Aztec diamond.

    A tiling is a sorted tuple of dominoes; a domino is a pair of adjacent
    cell coordinates.  Backtracking fills the first uncovered cell in
    bottom-to-top, left-to-right order with one of the at most two dominoes
    that fit, so each tiling appears exactly once.
    """
    if n < 1:
        raise ValueError("order must be at least 1")
    if n > _AZTEC_ENUM_CAP:
        raise ValueError(f"enumeration is capped at order {_AZTEC_ENUM_CAP}")
    cells = _diamond_cells(n)
    region = set(cells)
    covered: set[tuple[int, int]] = set()
    dominoes: list[tuple[tuple[int, int], tuple[int, int]]] = []

    def fill(start: int) -> Iterator[tuple[tuple[tuple[int, int], tuple[int, int]], ...]]:
        i = start
        while i < len(cells) and cells[i] in covered:
            i += 1
        if i == len(cells):
            yield tuple(sorted(dominoes))
            return
        cell = cells[i]
        j, k = cell
        for partner in ((j + 1, k), (j, k + 1)):
            if partner in region and partner not in covered:
                covered.add(cell)
                covered.add(partner)
                dominoes.append((cell, partner))
                yield from fill(i + 1)
                dominoes.pop()
                covered.discard(cell)
                covered.discard(partner)

    yield from fill(0)


def aztec_zigzag_turns(
    tiling: Sequence[tuple[tuple[int, int], tuple[int, int]]],
    n: int,
    r: int,
    color: str = "white",
) -> tuple[int, ...]:
    """Extract the turn positions of the zig-zag path of index r from a tiling.

    The path runs between the corners of the r-th diagonal of same-colored
    squares and must avoid domino interiors, so each segment's route is
    forced by the orientation of the domino covering the diagonal square it
    passes.  A white path turns (east-then-south) at position k exactly when
    that domino extends south or west; a black path turns (south-then-east)
    when it extends north or east.
    """
    if not 1 <= r <= n:
        raise ValueError("row index must satisfy 1 <= r <= n")
    if color not in ("white", "black"):
        raise ValueError("color must be 'white' or 'black'")
    cover: dict[tuple[int, int], tuple[int, int]] = {}
    for a, b in tiling:
        cover[a] = b
        cover[b] = a
    turns = []
    if color == "white":
        for k in range(n + 1):
            cell = (-r + k, n - k - r)
            partner = cover[cell]
            if partner in ((cell[0], cell[1] - 1), (cell[0] - 1, cell[1])):
                turns.append(k)
    else:
        for k in range(n):
            cell = (-r + k, n - 1 - k - r)
            partner = cover[cell]
            if partner in ((cell[0], cell[1] + 1), (cell[0] + 1, cell[1])):
                turns.append(k)
    return tuple(turns)


# ---------------------------------------------------------------------------
# hexagon lozenge slices via plane partitions


def _bounded_rows(bound: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Weakly decreasing tuples dominated entrywise by `bound`."""
    a = len(bound)

    def rec(pos: int, cap: int, prefix: list[int]) -> Iterator[tuple[int, ...]]:
        if pos == a:
            yield tuple(prefix)
            return
        top = min(cap, bound[pos])
        for v in range(top, -1, -1):
            prefix.append(v)
            yield from rec(pos + 1, v, prefix)
            prefix.pop()

    yield from rec(0, bound[0] if a else 0, [])


def enumerate_plane_partitions(a: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Yield every a x a matrix with entries in 0..a that decreases weakly
    along rows and columns (plane partitions in the a x a x a box)."""
    if a < 1:
        raise ValueError("box side must be at least 1")
    if a > _PLANE_PARTITION_CAP:
        raise ValueError(f"enumeration is capped at side {_PLANE_PARTITION_CAP}")

    def rec(rows: list[tuple[int, ...]]) -> Iterator[tuple[tuple[int, ...], ...]]:
        if len(rows) == a:
            yield tuple(rows)
            return
        bound = rows[-1] if rows else (a,) * a
        for row in _bounded_rows(bound):
            rows.append(row)
            yield from rec(rows)
            rows.pop()

    yield from rec([])


def plane_partition_slice(
    pi: Sequence[Sequence[int]], a: int, k: int
) -> tuple[int, ...]:
    """Positions of the k vertical lozenges crossed by slice k of the hexagon.

    Reading the plane partition along the diagonal that the slice projects
    onto, entry s (1-based) contributes position pi[a-k+s][s] + k - s.  The
    positions are strictly decreasing as read and are returned ascending.
    """
    if not 0 <= k <= a:
        raise ValueError("slice index must satisfy 0 <= k <= a")
    vals = [pi[a - k + s - 1][s - 1] + k - s for s in range(1, k + 1)]
    return tuple(sorted(vals))


def hexagon_slice_pmf(a: int, k: int, h: Sequence[int]) -> Fraction:
    """Law of the vertical-lozenge positions on slice k of the a,a,a hexagon.

    Under the uniform lozenge-tiling measure the k positions on slice k form
    the Hahn ensemble `Hahn.hexagon(a, k)` on {0..a+k-1}: a squared
    Vandermonde times the site weight C(h+a-k, h) C(2a-1-h, a+k-1-h), with
    the normalizer an exact Hankel determinant (Heine's identity).  Out-of-range
    or repeated positions get probability 0.  `h` may be given in any order.
    """
    if a < 1:
        raise ValueError("hexagon side must be at least 1")
    if not 0 <= k <= a:
        raise ValueError("slice index must satisfy 0 <= k <= a")
    top = a + k - 1
    if top > _HEXAGON_SUPPORT_CAP:
        raise ValueError(f"exact summation is capped at support size {_HEXAGON_SUPPORT_CAP}")
    h = tuple(int(t) for t in h)
    if len(h) != k:
        raise ValueError("need exactly k positions")
    if k == 0:
        return Fraction(1)
    if len(set(h)) != k or min(h) < 0 or max(h) > top:
        return Fraction(0)
    return pmf_exact(Hahn.hexagon(a, k), sorted(h, reverse=True))
