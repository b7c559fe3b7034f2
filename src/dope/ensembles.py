"""Measures on partitions and particle configurations.

The Plancherel measure and its Poissonization live on partitions directly.
The Meixner, Charlier, Krawtchouk, and Hahn ensembles are Coulomb gases
Delta(h)^2 prod w(h_j) / Z in particle coordinates h_i = lam_i + M - i;
for each of them both the partition-coordinate density and the particle
form are implemented so the two routes can be checked against each other.

Probabilities of particle configurations always refer to the unordered
configuration (the strictly decreasing tuple), normalized so that the sum
over configurations is one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Sequence

from scipy.special import nbdtrc, pdtrc

from ._util import fraction_det, log_binomial, log_factorial
from .partitions import (
    Partition,
    enumerate_partitions,
    frobenius_dimension,
    vandermonde_v,
    weight_w,
)
from .specfun import ConvergenceError

__all__ = [
    "Charlier",
    "Hahn",
    "Krawtchouk",
    "Meixner",
    "MultiplicativeFunctional",
    "Plancherel",
    "PoissonizedPlancherel",
    "configurations",
    "coulomb_approx_F",
    "equilibrium_density",
    "expectation",
    "normalization",
    "pmf",
    "pmf_exact",
    "pmf_particles",
    "word_shape_pmf",
]


# ---------------------------------------------------------------------------
# ensemble descriptors


@dataclass(frozen=True)
class Plancherel:
    """Push-forward of the uniform measure on S_n: P[lam] = (f^lam)^2 / n!."""

    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("n must be nonnegative")


@dataclass(frozen=True)
class PoissonizedPlancherel:
    """Plancherel with the total size Poissonized at intensity alpha."""

    alpha: float

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")


@dataclass(frozen=True)
class Meixner:
    """m particles, negative-binomial site weight C(x+k-1, x) q^x, k = n-m+1."""

    m: int
    n: int
    q: Fraction | float

    def __post_init__(self):
        if self.m < 1 or self.n < self.m:
            raise ValueError("need n >= m >= 1")
        if not 0 < self.q < 1:
            raise ValueError("q must lie in (0, 1)")

    @property
    def k(self) -> int:
        return self.n - self.m + 1


@dataclass(frozen=True)
class Charlier:
    """m particles, Poisson site weight of intensity alpha/m."""

    m: int
    alpha: float

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be positive")
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")

    @property
    def a(self):
        return self.alpha / self.m


@dataclass(frozen=True)
class Krawtchouk:
    """n particles on {0..k}, binomial site weight C(k, x) p^x (1-p)^(k-x)."""

    n: int
    k: int
    p: Fraction | float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be positive")
        if self.k < self.n - 1:
            raise ValueError("support {0..k} cannot hold n distinct particles")
        if not 0 < self.p < 1:
            raise ValueError("p must lie in (0, 1)")


@dataclass(frozen=True)
class Hahn:
    """k particles on {0..n}, site weight C(x+a, x) C(n+b-x, n-x).

    The symmetric instance describing a regular hexagon's lozenge slice k
    lines from the top is `Hahn.hexagon(a, k)`.
    """

    k: int
    a: int
    b: int
    n: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be positive")
        if self.a < 0 or self.b < 0:
            raise ValueError("weight exponents must be nonnegative")
        if self.n < self.k - 1:
            raise ValueError("support {0..n} cannot hold k distinct particles")

    @classmethod
    def hexagon(cls, a: int, k: int) -> "Hahn":
        if not 1 <= k <= a:
            raise ValueError("need 1 <= k <= a")
        return cls(k=k, a=a - k, b=a - k, n=a + k - 1)


# ---------------------------------------------------------------------------
# site weights (exact where the parameters allow it)


def _site_weight_exact(spec, x: int) -> Fraction:
    if x < 0:
        return Fraction(0)
    if isinstance(spec, Meixner):
        q = Fraction(spec.q)
        return Fraction(math.comb(x + spec.k - 1, x)) * q**x
    if isinstance(spec, Krawtchouk):
        if x > spec.k:
            return Fraction(0)
        p = Fraction(spec.p)
        return Fraction(math.comb(spec.k, x)) * p**x * (1 - p) ** (spec.k - x)
    if isinstance(spec, Hahn):
        if x > spec.n:
            return Fraction(0)
        return Fraction(math.comb(x + spec.a, x) * math.comb(spec.n + spec.b - x, spec.n - x))
    raise TypeError(f"no exact site weight for {type(spec).__name__}")


def _log_site_weight(spec, x: int) -> float:
    """log w(x) of the Meixner or Charlier weight at a site x >= 0."""
    if isinstance(spec, Meixner):
        return log_binomial(x + spec.k - 1, x) + x * math.log(spec.q)
    a = spec.a
    return -a + x * math.log(a) - log_factorial(x)


def _check_config(h: Sequence[int]) -> tuple[int, ...]:
    h = tuple(int(x) for x in h)
    for i in range(len(h) - 1):
        if h[i] <= h[i + 1]:
            raise ValueError("particle configuration must be strictly decreasing")
    if h and h[-1] < 0:
        raise ValueError("particles live on nonnegative sites")
    return h


def _delta_sq_exact(h: Sequence[int]) -> int:
    return math.prod((a - b) ** 2 for i, a in enumerate(h) for b in h[i + 1 :])


# ---------------------------------------------------------------------------
# normalizing constants


def _hankel_det(weights: Sequence[Fraction], count: int) -> Fraction:
    """det[sum_x x^(j+k) w_x]_{j,k<count} over sites x = 0, 1, ...: by Heine's
    identity, the sum of Delta(h)^2 prod w_{h_i} over all count-subsets h."""
    moments = [sum(w * x**d for x, w in enumerate(weights)) for d in range(2 * count - 1)]
    return fraction_det([moments[j : j + count] for j in range(count)])


def _finite_support(spec) -> tuple[int, int]:
    """(top site, particle count) of a Krawtchouk or Hahn ensemble."""
    if isinstance(spec, Krawtchouk):
        return spec.k, spec.n
    if isinstance(spec, Hahn):
        return spec.n, spec.k
    raise TypeError("only Krawtchouk and Hahn have finite support")


def normalization(spec):
    """Normalizing constant of the Coulomb-gas form, where one is exposed.

    For Krawtchouk (closed product) and Hahn (`_hankel_det`) this is the sum
    of Delta^2 prod w over configurations, the probability's denominator.
    Meixner and Charlier return the constant relating Delta^2 prod w to the
    partition-coordinate density.  All are exact for the rational value of
    each parameter.
    """
    if isinstance(spec, Krawtchouk):
        p, n, k = Fraction(spec.p), spec.n, spec.k
        z = (p * (1 - p)) ** (n * (n - 1) // 2) * Fraction(math.factorial(k)) ** n
        for j in range(n):
            z *= Fraction(math.factorial(j), math.factorial(k - j))
        return z
    if isinstance(spec, Hahn):
        return _hankel_det([_site_weight_exact(spec, x) for x in range(spec.n + 1)], spec.k)
    if isinstance(spec, Meixner):
        m, n, q = spec.m, spec.n, Fraction(spec.q)
        z = q ** (m * (m - 1) // 2) * (1 - q) ** (-m * n)
        for j in range(m):
            z *= Fraction(math.factorial(j) * math.factorial(n - m + j), math.factorial(n - m))
        return z
    if isinstance(spec, Charlier):
        m = spec.m
        z = (Fraction(spec.alpha) / m) ** (m * (m - 1) // 2)
        for j in range(1, m):
            z *= math.factorial(j)
        return z
    raise TypeError(f"no normalization for {type(spec).__name__}")


def configurations(spec) -> Iterator[tuple[int, ...]]:
    """All particle configurations of a finite-support ensemble, decreasing tuples."""
    top, count = _finite_support(spec)
    for combo in itertools.combinations(range(top + 1), count):
        yield tuple(reversed(combo))


# ---------------------------------------------------------------------------
# probability mass functions


def pmf_exact(spec, x):
    """Exact rational probability of a partition (Plancherel) or of a particle
    configuration (Krawtchouk, Hahn: Delta^2 prod w / normalization)."""
    if isinstance(spec, Plancherel):
        lam = x
        if lam.size != spec.n:
            return Fraction(0)
        f = frobenius_dimension(lam)
        return Fraction(f * f, math.factorial(spec.n))
    if isinstance(spec, (Krawtchouk, Hahn)):
        top, count = _finite_support(spec)
        h = _check_config(x)
        if len(h) != count or (h and h[0] > top):
            return Fraction(0)
        num = Fraction(_delta_sq_exact(h)) * math.prod(_site_weight_exact(spec, t) for t in h)
        return num / normalization(spec)
    raise TypeError(f"no exact pmf for {type(spec).__name__}")


def pmf(spec, x) -> float:
    """Probability of a partition (Plancherel, Poissonized, Meixner, Charlier)
    or of a particle configuration (Krawtchouk, Hahn)."""
    if isinstance(spec, (Plancherel, Krawtchouk, Hahn)):
        return float(pmf_exact(spec, x))
    if isinstance(spec, PoissonizedPlancherel):
        lam: Partition = x
        l = lam.length
        if l == 0:
            return math.exp(-spec.alpha)
        vw = vandermonde_v(lam, l) * weight_w(lam, l)
        log_p = -spec.alpha + lam.size * math.log(spec.alpha)
        log_p += 2.0 * (math.log(vw.numerator) - math.log(vw.denominator))
        return math.exp(log_p)
    if isinstance(spec, Meixner):
        lam: Partition = x
        if lam.length > spec.m:
            return 0.0
        m, n = spec.m, spec.n
        log_p = m * n * math.log1p(-float(spec.q)) + lam.size * math.log(float(spec.q))
        for j in range(m):
            log_p += log_factorial(n - m) - log_factorial(j) - log_factorial(n - m + j)
        log_p += 2.0 * math.log(vandermonde_v(lam, m))
        lam_p = lam.padded(m)
        for i in range(1, m + 1):
            log_p += log_binomial(lam_p[i - 1] + n - i, lam_p[i - 1] + m - i)
        return math.exp(log_p)
    if isinstance(spec, Charlier):
        lam: Partition = x
        if lam.length > spec.m:
            return 0.0
        m = spec.m
        vw = vandermonde_v(lam, m) ** 2 * weight_w(lam, m)
        log_p = -spec.alpha + lam.size * math.log(spec.a)
        for j in range(1, m):
            log_p -= log_factorial(j)
        log_p += math.log(vw.numerator) - math.log(vw.denominator)
        return math.exp(log_p)
    raise TypeError(f"no pmf for {type(spec).__name__}")


def pmf_particles(spec, h: Sequence[int]) -> float:
    """Coulomb-gas route: Delta(h)^2 prod w(h_j) / Z for h_i = lam_i + m - i.

    Implemented independently of `pmf` (which works in partition
    coordinates for Meixner and Charlier) so the two can be compared.
    """
    h = _check_config(h)
    if isinstance(spec, (Krawtchouk, Hahn)):
        return float(pmf_exact(spec, h))
    if not isinstance(spec, (Meixner, Charlier)):
        raise TypeError(f"no particle-coordinate pmf for {type(spec).__name__}")
    if len(h) != spec.m:
        raise ValueError("need exactly m particles")
    z = normalization(spec)
    log_p = math.log(_delta_sq_exact(h)) - math.log(z.numerator) + math.log(z.denominator)
    for x in h:
        log_p += _log_site_weight(spec, x)
    return math.exp(log_p)


def word_shape_pmf(m: int, n: int, lam: Partition) -> Fraction:
    """Shape distribution of a uniform word of length n over m letters.

    P[lam] = (n! / m^n) * prod_{j<m} (1/j!) * V_m(lam)^2 * W_m(lam) for
    partitions of n with at most m rows.
    """
    if m < 1 or n < 0:
        raise ValueError("need m >= 1 and n >= 0")
    if lam.size != n or lam.length > m:
        return Fraction(0)
    out = Fraction(math.factorial(n), m**n)
    for j in range(1, m):
        out /= math.factorial(j)
    return out * vandermonde_v(lam, m) ** 2 * weight_w(lam, m)


# ---------------------------------------------------------------------------
# multiplicative linear statistics


class MultiplicativeFunctional:
    """g(lam) = prod_{i >= 1} f(lam_i + shift - i) with f(n) = 1 for n < 0.

    The generator must equal one on negative integers so the product has
    finitely many non-unit factors; `bound` must dominate sup |f| and is
    used for truncation estimates.
    """

    def __init__(self, f: Callable[[int], float], shift: int = 0, bound: float = 1.0):
        for probe in (-1, -2, -7):
            if f(probe) != 1:
                raise ValueError("generator must be 1 on negative integers")
        self.f = f
        self.shift = int(shift)
        self.bound = float(bound)

    @classmethod
    def indicator_gap(cls, n: int, shift: int = 0) -> "MultiplicativeFunctional":
        """f = 1 - chi_[n, inf): g(lam) = 1 iff lam_i + shift - i < n for all i.

        With shift 0 this is the indicator of {lam_1 <= n}.
        """

        def f(s: int) -> float:
            return 0.0 if s >= n else 1.0

        return cls(f, shift=shift, bound=1.0)

    def __call__(self, lam: Partition) -> float:
        rows = max(lam.length, self.shift)
        out = 1.0
        for i in range(1, rows + 1):
            out *= self.f(lam.part(i) + self.shift - i)
            if out == 0.0:
                return 0.0
        return out

    def phi(self, s: int) -> float:
        """phi = f - 1, the kernel-side perturbation."""
        return self.f(s) - 1.0


# ---------------------------------------------------------------------------
# expectations by direct summation


_SHELL_CAP = 10000


def _size_tail(spec, c: float, n: int) -> float:
    """Bound on sum over |lam| > n of P(lam) c^l(lam), for c >= 1, from the
    law of |lam|: Poisson(alpha) for the Poissonized Plancherel and Charlier
    measures, NB(mn, 1 - q) for Meixner (the total of an m x n geometric
    matrix).  The Poissonized bound uses l(lam) <= |lam|, the others
    l(lam) <= m."""
    if isinstance(spec, PoissonizedPlancherel):
        return math.exp(spec.alpha * (c - 1.0)) * pdtrc(n, spec.alpha * c)
    if isinstance(spec, Charlier):
        return c**spec.m * pdtrc(n, spec.alpha)
    return c**spec.m * nbdtrc(n, spec.m * spec.n, 1.0 - float(spec.q))


def _finite_expectation(spec, g: MultiplicativeFunctional) -> Fraction:
    """Exact E[g] over a Krawtchouk or Hahn ensemble of m particles h_i:
    g = prod_i f(h_i - m + shift) times the empty-row factors f(shift - i),
    m < i <= shift, summed over configurations by `_hankel_det`."""
    top, m = _finite_support(spec)
    tilt = [_site_weight_exact(spec, x) * Fraction(g.f(x - m + g.shift)) for x in range(top + 1)]
    empty = math.prod(Fraction(g.f(g.shift - i)) for i in range(m + 1, g.shift + 1))
    return _hankel_det(tilt, m) / normalization(spec) * empty


def expectation(spec, g: MultiplicativeFunctional, tol: float = 1e-10) -> float:
    """E[g] by direct summation, or by Hankel determinants.

    Plancherel sums over the partitions of n; Krawtchouk and Hahn return the
    float of the exact `_finite_expectation`.  The Poissonized Plancherel,
    Meixner and Charlier measures sum shell by shell over |lam| = 0, 1, ..., N
    (at most m rows for the last two), with N the first size where
    c^s T(N) < tol, c = max(g.bound, 1), s = max(g.shift, 0).  Since
    |g(lam)| <= c^(l(lam) + s), that bounds the neglected part, with
    T(N) >= sum_{|lam| > N} P(lam) c^l(lam):

    - Poissonized Plancherel: e^(alpha (c - 1)) P[Poisson(alpha c) > N];
    - Charlier: c^m P[Poisson(alpha) > N];
    - Meixner: c^m P[NB(mn, 1 - q) > N].

    Raises ConvergenceError past _SHELL_CAP shells.
    """
    if isinstance(spec, Plancherel):
        total = 0.0
        for lam in enumerate_partitions(spec.n):
            total += float(pmf_exact(spec, lam)) * g(lam)
        return total
    if isinstance(spec, (PoissonizedPlancherel, Meixner, Charlier)):
        rows = None if isinstance(spec, PoissonizedPlancherel) else spec.m
        c = max(g.bound, 1.0)
        weight = c ** max(g.shift, 0)
        total = 0.0
        for size in range(_SHELL_CAP + 1):
            for lam in enumerate_partitions(size, max_length=rows):
                total += pmf(spec, lam) * g(lam)
            if weight * _size_tail(spec, c, size) < tol:
                return total
        raise ConvergenceError("ensemble sum failed to truncate")
    if isinstance(spec, (Krawtchouk, Hahn)):
        return float(_finite_expectation(spec, g))
    raise TypeError(f"no expectation for {type(spec).__name__}")


# ---------------------------------------------------------------------------
# Coulomb-gas approximation to the Poissonized expectation


def coulomb_approx_F(alpha, m: int, g: MultiplicativeFunctional) -> Fraction:
    """Ratio F_m[g] / F_m[1] for the gas Delta(x)^2 prod alpha^{x_j} / (x_j!)^2
    on m particles, which approaches the Poissonized-Plancherel E[g] as m grows.

    Both are Heine-Hankel determinants (`_hankel_det`) of the weights over
    x <= 3 sqrt(alpha) + 6 m + 25, with and without the factor
    f(x + shift - m), in exact Fraction arithmetic: a float alpha, or a float
    from the generator, is read as the rational it stores.
    """
    if m < 1:
        raise ValueError("m must be positive")
    cutoff = int(3.0 * math.sqrt(float(alpha))) + 6 * m + 25
    weights = [Fraction(alpha) ** x / math.factorial(x) ** 2 for x in range(cutoff + 1)]
    tilted = [w * Fraction(g.f(x + g.shift - m)) for x, w in enumerate(weights)]
    return _hankel_det(tilted, m) / _hankel_det(weights, m)


def equilibrium_density(t: float, r: float) -> float:
    """Constrained equilibrium density of the rescaled gas: 1 on [0, 1-2/r],
    an arcsine ramp on [1-2/r, 1+2/r], zero beyond.  Requires r >= 2."""
    if r < 2:
        raise ValueError("r must be at least 2")
    if t < 0:
        return 0.0
    if t <= 1 - 2 / r:
        return 1.0
    if t >= 1 + 2 / r:
        return 0.0
    return 0.5 - math.asin(r * (t - 1) / 2.0) / math.pi
