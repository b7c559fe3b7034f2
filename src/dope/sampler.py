"""Seeded Monte Carlo generators for the lattice models.

All randomness flows through a counter-based Philox generator (numpy's
Philox4x64-10) keyed by an explicit (seed, stream) pair, so any run can be
reproduced bit-exactly from the recorded seed and parallel workers can draw
from independent streams of the same master seed.

Samplers produce exact-law draws; `empirical_law` tallies a statistic of the
draws into an `EmpiricalDistribution`, with exhaustive variants that replace
sampling by complete enumeration at desk scale.  Goodness-of-fit helpers
(chi-square with small-cell pooling, Kolmogorov-Smirnov distance) compare the
tallies against exact laws.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Iterable, Mapping, NamedTuple

import numpy as np
from scipy.stats import chi2 as _chi2

__all__ = [
    "make_rng",
    "sample_permutation",
    "sample_word",
    "sample_bernoulli_matrix",
    "sample_geometric_matrix",
    "sample_poisson",
    "EmpiricalDistribution",
    "empirical_law",
    "exhaustive_word_law",
    "exhaustive_permutation_law",
    "ChiSquareResult",
    "chi_squared",
    "ks_distance",
]


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator (Philox4x64-10) keyed by (seed, stream).

    Distinct streams under the same seed are independent, which is how
    parallel workers split a master seed.
    """
    if seed < 0 or stream < 0:
        raise ValueError("seed and stream must be nonnegative")
    bits = np.random.Philox(key=np.array([seed, stream], dtype=np.uint64))
    return np.random.Generator(bits)


# ---------------------------------------------------------------------------
# exact-law samplers


def sample_permutation(n: int, rng: np.random.Generator) -> tuple[int, ...]:
    """Uniform permutation of {0..n-1} by Fisher-Yates shuffling."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return tuple(rng.permutation(n).tolist())


def sample_word(m: int, n: int, rng: np.random.Generator) -> tuple[int, ...]:
    """Word of length n with i.i.d. uniform letters from {0..m-1}."""
    if m < 1 or n < 0:
        raise ValueError("need m >= 1 and n >= 0")
    return tuple(rng.integers(0, m, size=n).tolist())


def sample_bernoulli_matrix(
    rows: int, cols: int, p, rng: np.random.Generator
) -> np.ndarray:
    """rows x cols matrix of i.i.d. Bernoulli(p) entries in {0, 1}."""
    if rows < 1 or cols < 1:
        raise ValueError("matrix dimensions must be positive")
    if not 0 < p < 1:
        raise ValueError("p must lie in (0, 1)")
    return (rng.random(size=(rows, cols)) < float(p)).astype(np.int64)


def sample_geometric_matrix(n: int, q, rng: np.random.Generator) -> np.ndarray:
    """n x n matrix of i.i.d. geometric entries, P[a = k] = (1-q) q^k on k >= 0."""
    if n < 1:
        raise ValueError("matrix dimension must be positive")
    if not 0 < q < 1:
        raise ValueError("q must lie in (0, 1)")
    return rng.geometric(1.0 - float(q), size=(n, n)).astype(np.int64) - 1


def sample_poisson(alpha, rng: np.random.Generator) -> int:
    """Poisson(alpha) draw (inversion for small mean, rejection for large)."""
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    return int(rng.poisson(float(alpha)))


# ---------------------------------------------------------------------------
# empirical laws


@dataclass
class EmpiricalDistribution:
    """Tally of a statistic over samples, with the provenance to rerun it.

    `seed` is None for exhaustive enumerations, where `counts` are exact
    outcome counts rather than random tallies.
    """

    counts: dict[Any, int] = field(default_factory=dict)
    total: int = 0
    seed: int | None = None
    stream: int = 0

    def add(self, outcome: Any, weight: int = 1) -> None:
        self.counts[outcome] = self.counts.get(outcome, 0) + weight
        self.total += weight

    def frequency(self, outcome: Any) -> Fraction:
        if self.total == 0:
            raise ValueError("empty distribution")
        return Fraction(self.counts.get(outcome, 0), self.total)

    def check(self) -> None:
        if sum(self.counts.values()) != self.total:
            raise AssertionError("counts do not sum to total")


def empirical_law(
    sample_fn: Callable[[np.random.Generator], Any],
    statistic: Callable[[Any], Any],
    samples: int,
    seed: int,
    stream: int = 0,
) -> EmpiricalDistribution:
    """Tally statistic(sample_fn(rng)) over the given number of draws.

    Deterministic in (seed, stream): the same arguments always produce the
    same counts.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = make_rng(seed, stream)
    out = EmpiricalDistribution(seed=seed, stream=stream)
    for _ in range(samples):
        out.add(statistic(sample_fn(rng)))
    return out


def exhaustive_word_law(
    m: int, n: int, statistic: Callable[[tuple[int, ...]], Any]
) -> EmpiricalDistribution:
    """Exact counts of the statistic over all m^n words."""
    if m < 1 or n < 0:
        raise ValueError("need m >= 1 and n >= 0")
    out = EmpiricalDistribution(seed=None)
    for w in itertools.product(range(m), repeat=n):
        out.add(statistic(w))
    return out


def exhaustive_permutation_law(
    n: int, statistic: Callable[[tuple[int, ...]], Any]
) -> EmpiricalDistribution:
    """Exact counts of the statistic over all n! permutations of {0..n-1}."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    out = EmpiricalDistribution(seed=None)
    for perm in itertools.permutations(range(n)):
        out.add(statistic(perm))
    return out


# ---------------------------------------------------------------------------
# goodness of fit


class ChiSquareResult(NamedTuple):
    statistic: float
    dof: int
    pvalue: float
    cells: int


def chi_squared(
    observed: Mapping[Any, int],
    expected: Mapping[Any, float],
    total: int,
) -> ChiSquareResult:
    """Pearson chi-square test of observed counts against expected
    probabilities.

    Outcomes whose expected count falls below 5 are pooled into a single
    cell, as is any probability mass (and any observations) outside the
    listed outcomes.  Needs at least two cells after pooling.
    """
    if total < 1:
        raise ValueError("need a positive sample total")
    keep: list[tuple[int, float]] = []
    pool_obs = 0
    pool_exp = 0.0
    listed = 0
    for key, prob in expected.items():
        exp = float(prob) * total
        obs = observed.get(key, 0)
        listed += obs
        if exp < 5.0:
            pool_obs += obs
            pool_exp += exp
        else:
            keep.append((obs, exp))
    pool_obs += total - listed
    pool_exp += max(total - sum(e for _, e in keep) - pool_exp, 0.0)
    if pool_exp > 0.0 or pool_obs > 0:
        keep.append((pool_obs, pool_exp))
    if len(keep) < 2:
        raise ValueError("fewer than two cells after pooling")
    stat = 0.0
    for obs, exp in keep:
        if exp <= 0.0:
            if obs:
                stat = math.inf
            continue
        stat += (obs - exp) ** 2 / exp
    dof = len(keep) - 1
    return ChiSquareResult(stat, dof, float(_chi2.sf(stat, dof)), len(keep))


def ks_distance(
    points: Iterable[tuple[float, int]], cdf: Callable[[float], float]
) -> float:
    """Kolmogorov-Smirnov distance between a discrete empirical law and a cdf.

    `points` are (value, count) pairs; the supremum over jump points
    compares the cdf against the empirical cdf from both sides.
    """
    items = sorted(points)
    total = sum(c for _, c in items)
    if total == 0:
        raise ValueError("empty sample")
    out = 0.0
    cum = 0
    for value, count in items:
        f = cdf(value)
        out = max(out, abs(cum / total - f))
        cum += count
        out = max(out, abs(cum / total - f))
    return out
