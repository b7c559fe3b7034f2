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
import numbers
from dataclasses import dataclass
from functools import lru_cache
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


def _weight(spec) -> tuple[int | Fraction, Callable[[int], tuple[int, int]]]:
    """Site weight as w(0) and x -> w(x+1)/w(x), an integer pair.  Charlier's
    a^x / x! leaves out e^-a, and the Poissonized Plancherel alpha^x / (x!)^2
    (a particle per row of a partition with at most j rows) e^-alpha."""
    if isinstance(spec, Meixner):
        q = Fraction(spec.q)
        return 1, lambda x: ((x + spec.k) * q.numerator, (x + 1) * q.denominator)
    if isinstance(spec, Charlier):
        a = Fraction(spec.alpha) / spec.m
        return 1, lambda x: (a.numerator, (x + 1) * a.denominator)
    if isinstance(spec, PoissonizedPlancherel):
        a = Fraction(spec.alpha)
        return 1, lambda x: (a.numerator, (x + 1) ** 2 * a.denominator)
    if isinstance(spec, Krawtchouk):
        p, r, k = Fraction(spec.p), 1 - Fraction(spec.p), spec.k
        return r**k, lambda x: ((k - x) * p.numerator, (x + 1) * r.numerator)
    if isinstance(spec, Hahn):
        a, b, n = spec.a, spec.b, spec.n
        return math.comb(n + b, n), lambda x: ((x + a + 1) * (n - x), (x + 1) * (n + b - x))
    raise TypeError(f"no site weight for {type(spec).__name__}")


def _check_config(h: Sequence[int]) -> tuple[int, ...]:
    h = tuple(int(x) for x in h)
    for i in range(len(h) - 1):
        if h[i] <= h[i + 1]:
            raise ValueError("particle configuration must be strictly decreasing")
    if h and h[-1] < 0:
        raise ValueError("particles live on nonnegative sites")
    return h


def _exact(v) -> Fraction:
    """A generator value as a rational: itself if rational, else its float."""
    return Fraction(v) if isinstance(v, numbers.Rational) else Fraction(float(v))


def _gas_mass(spec, h: Sequence[int]) -> Fraction:
    """Delta(h)^2 prod w(h_i) for a nonempty decreasing h, w of `_weight`."""
    w0, ratio = _weight(spec)
    w = list(itertools.accumulate(range(h[0]), lambda v, t: v * Fraction(*ratio(t)), initial=w0))
    delta_sq = math.prod((a - b) ** 2 for i, a in enumerate(h) for b in h[i + 1 :])
    return delta_sq * math.prod(w[t] for t in h)


# ---------------------------------------------------------------------------
# normalizing constants


def _hankel_det(spec, count: int, top: int, f: Callable[[int], float] = lambda x: 1) -> Fraction:
    """det[sum_{x<=top} x^(j+k) f(x) w(x)]_{j,k<count}: by Heine's identity,
    the sum of Delta(h)^2 prod f(h_i) w(h_i) over the count-subsets h of
    {0..top}.  Each moment is one Horner pass down from the last site where
    f is nonzero, over the ratios of `_weight`, in integers num / den."""
    w0, ratio = _weight(spec)
    values = [_exact(f(x)) for x in range(top + 1)]
    while values and not values[-1]:
        values.pop()
    scale = math.lcm(*(v.denominator for v in values))
    ints = [v.numerator * (scale // v.denominator) for v in values]
    ratios = [ratio(x) for x in range(len(values) - 1)]
    moments, den = [], 1
    for d in range(2 * count - 1):
        num, den = 0, 1
        for x in reversed(range(len(ints))):
            p, q = ratios[x] if x < len(ratios) else (1, 1)
            den *= q
            num = num * p + ints[x] * x**d * den
        moments.append(num)
    hankel = [moments[j : j + count] for j in range(count)]
    return fraction_det(hankel) * Fraction(w0, den * scale) ** count


def _finite_support(spec) -> tuple[int, int]:
    """(top site, particle count) of a Krawtchouk or Hahn ensemble."""
    if isinstance(spec, Krawtchouk):
        return spec.k, spec.n
    if isinstance(spec, Hahn):
        return spec.n, spec.k
    raise TypeError("only Krawtchouk and Hahn have finite support")


@lru_cache(maxsize=64)
def normalization(spec):
    """Normalizing constant of the Coulomb-gas form, where one is exposed.

    For Krawtchouk (closed product) and Hahn (`_hankel_det`) this is the sum
    of Delta^2 prod w over configurations, the probability's denominator.
    Meixner and Charlier return the constant relating Delta^2 prod w to the
    partition-coordinate density.  All are exact for the rational value of
    each parameter, and cached per spec.
    """
    if isinstance(spec, Krawtchouk):
        p, n, k = Fraction(spec.p), spec.n, spec.k
        z = (p * (1 - p)) ** (n * (n - 1) // 2) * Fraction(math.factorial(k)) ** n
        for j in range(n):
            z *= Fraction(math.factorial(j), math.factorial(k - j))
        return z
    if isinstance(spec, Hahn):
        return _hankel_det(spec, spec.k, spec.n)
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
        return _gas_mass(spec, h) / normalization(spec)
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
    """Coulomb-gas route: Delta(h)^2 prod w(h_j) / Z for h_i = lam_i + m - i,
    exact up to `_rounded`.

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
    return _rounded(spec, _gas_mass(spec, h) / normalization(spec))


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
# expectations by Heine's identity


_SHELL_CAP = 10000


def _log_tail(spec, c: float, n: int) -> float:
    """log T(n) of `expectation`.  Once the terms of a tail fall, their sum
    past n is at most the first over 1 - the ratio of the next to it: the
    Poissonized (c alpha)^i / (i!)^2 always, the Charlier and Meixner size
    laws where `pdtrc` or `nbdtrc` underflow to 0.  Before that, inf."""
    if isinstance(spec, PoissonizedPlancherel):
        rho = c * spec.alpha / (n + 2) ** 2
        log_first = (n + 1) * math.log(c * spec.alpha) - 2.0 * math.lgamma(n + 2)
        return log_first + math.log(1.0 / (1.0 - rho) + 1.0 / c) if rho < 1 else math.inf
    if isinstance(spec, Charlier):
        tail = pdtrc(n, spec.alpha)
        rho = spec.alpha / (n + 2)
        log_first = (n + 1) * math.log(spec.alpha) - spec.alpha - math.lgamma(n + 2)
    else:
        r, q = spec.m * spec.n, float(spec.q)
        tail = nbdtrc(n, r, 1.0 - q)
        rho = (n + 1 + r) * q / (n + 2)
        log_first = log_binomial(n + r, n + 1) + (n + 1) * math.log(q) + r * math.log1p(-q)
    if tail > 0:
        return spec.m * math.log(c) + math.log(tail)
    return spec.m * math.log(c) + log_first - math.log1p(-rho) if rho < 1 else math.inf


def _gas_expectation(spec, g: MultiplicativeFunctional, count: int, top: int) -> Fraction:
    """Exact E[g] over count particles on {0..top} (times e^alpha for Charlier
    and Poissonized): `_hankel_det` of the weights tilted by
    f(h_i - count + shift), over the normalizer (alpha^C(count, 2) for the
    Poissonized measure), times the empty-row factors f(shift - i)."""
    poissonized = isinstance(spec, PoissonizedPlancherel)
    z = Fraction(spec.alpha) ** (count * (count - 1) // 2) if poissonized else normalization(spec)
    empty = math.prod(_exact(g.f(g.shift - i)) for i in range(count + 1, g.shift + 1))
    return _hankel_det(spec, count, top, lambda x: g.f(x - count + g.shift)) / z * empty


def _rounded(spec, value: Fraction) -> float:
    """float(value), times e^-alpha for Charlier and Poissonized: value / 2^k,
    k = round(alpha / ln 2), is rounded once, so nothing overflows, and
    e^(k ln 2 - alpha) adds a relative error of about alpha * 2e-16."""
    if not isinstance(spec, (Charlier, PoissonizedPlancherel)):
        return float(value)
    k = round(spec.alpha / math.log(2))
    return float(value / 2**k) * math.exp(k * math.log(2) - spec.alpha)


def expectation(spec, g: MultiplicativeFunctional, tol: float = 1e-10) -> float:
    """E[g]: Plancherel sums over the partitions of n; the Coulomb gases round
    the exact `_gas_expectation` once, Krawtchouk and Hahn over their
    support, Charlier and Meixner over sites 0..N+m-1 (lam_1 <= N), the
    Poissonized Plancherel measure over N rows and sites 0..2N-1
    (l(lam) <= N and lam_1 <= N).  N is the first cut-off where
    c^s T(N) < tol, c = max(g.bound, 1), s = max(g.shift, 0), compared in
    logs so that no power of c overflows.  As
    |g(lam)| <= c^(l(lam) + s), that bounds the neglected part, with
    T(N) >= the c^l(lam)-weighted mass left out:

    - Charlier: c^m P[Poisson(alpha) > N];
    - Meixner: c^m P[NB(mn, 1 - q) > N];
    - Poissonized Plancherel: sum_{i>N} (c alpha)^i / (i!)^2
      + c^N alpha^(N+1) / ((N+1)!)^2, from P(lam_1 >= i) <= alpha^i / (i!)^2
      (Baik-Deift-Johansson, J. AMS 12, 1999), l(lam) having the law of lam_1.

    An indicator gap with threshold at most N neglects nothing under Charlier
    and Meixner, so it is exact up to the final rounding (`_rounded`: a
    relative alpha * 2e-16 for Charlier).  Raises ConvergenceError when no
    cut-off up to _SHELL_CAP meets tol.
    """
    if isinstance(spec, Plancherel):
        total = 0.0
        for lam in enumerate_partitions(spec.n):
            total += float(pmf_exact(spec, lam)) * g(lam)
        return total
    if isinstance(spec, (Krawtchouk, Hahn)):
        top, count = _finite_support(spec)
        return _rounded(spec, _gas_expectation(spec, g, count, top))
    if not isinstance(spec, (PoissonizedPlancherel, Meixner, Charlier)):
        raise TypeError(f"no expectation for {type(spec).__name__}")
    c = max(g.bound, 1.0)
    log_weight, log_tol = max(g.shift, 0) * math.log(c), math.log(tol)
    cut = next(
        (n for n in range(_SHELL_CAP + 1) if log_weight + _log_tail(spec, c, n) < log_tol), None
    )
    if cut is None:
        raise ConvergenceError("ensemble sum failed to truncate")
    if isinstance(spec, PoissonizedPlancherel):
        return _rounded(spec, _gas_expectation(spec, g, cut, 2 * cut - 1))
    return _rounded(spec, _gas_expectation(spec, g, spec.m, cut + spec.m - 1))


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
    gas, tilt = PoissonizedPlancherel(alpha), lambda x: g.f(x + g.shift - m)
    return _hankel_det(gas, m, cutoff, tilt) / _hankel_det(gas, m, cutoff)


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
