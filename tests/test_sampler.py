"""Seeded sampling, empirical tallies, and goodness-of-fit helpers."""

import math
from fractions import Fraction

import numpy as np
import pytest

from dope.ensembles import Meixner, Plancherel, pmf, pmf_exact
from dope.partitions import enumerate_partitions
from dope.rsk import longest_weakly_increasing, matrix_rsk_shape, rsk_shape
from dope.sampler import (
    ChiSquareResult,
    EmpiricalDistribution,
    chi_squared,
    empirical_law,
    exhaustive_permutation_law,
    exhaustive_word_law,
    ks_distance,
    make_rng,
    sample_bernoulli_matrix,
    sample_geometric_matrix,
    sample_permutation,
    sample_poisson,
    sample_word,
)


def test_rng_is_deterministic_and_stream_separated():
    a = make_rng(7, 0).integers(0, 1 << 30, size=8)
    b = make_rng(7, 0).integers(0, 1 << 30, size=8)
    c = make_rng(7, 1).integers(0, 1 << 30, size=8)
    d = make_rng(8, 0).integers(0, 1 << 30, size=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
    with pytest.raises(ValueError):
        make_rng(-1)


def test_samplers_validate_arguments():
    rng = make_rng(0)
    with pytest.raises(ValueError):
        sample_permutation(-1, rng)
    with pytest.raises(ValueError):
        sample_word(0, 3, rng)
    with pytest.raises(ValueError):
        sample_bernoulli_matrix(0, 2, 0.5, rng)
    with pytest.raises(ValueError):
        sample_bernoulli_matrix(2, 2, 1.0, rng)
    with pytest.raises(ValueError):
        sample_geometric_matrix(2, 0.0, rng)
    with pytest.raises(ValueError):
        sample_poisson(0.0, rng)


def test_sampler_outputs_have_the_right_shape():
    rng = make_rng(3)
    perm = sample_permutation(6, rng)
    assert sorted(perm) == list(range(6))
    word = sample_word(4, 9, rng)
    assert len(word) == 9 and all(0 <= x < 4 for x in word)
    mat = sample_bernoulli_matrix(3, 5, Fraction(1, 3), rng)
    assert mat.shape == (3, 5) and set(np.unique(mat)) <= {0, 1}
    geo = sample_geometric_matrix(4, 0.25, rng)
    assert geo.shape == (4, 4) and geo.min() >= 0


@pytest.mark.parametrize("seed,stream", [(0, 0), (5, 3), (1600, 1)])
def test_word_and_permutation_tuples_are_unchanged_by_tolist(seed, stream):
    # the same draws as the element-by-element tuple(int(x) for x in ...)
    rng, ref = make_rng(seed, stream), make_rng(seed, stream)
    word = sample_word(7, 1600, rng)
    perm = sample_permutation(300, rng)
    assert word == tuple(int(x) for x in ref.integers(0, 7, size=1600))
    assert perm == tuple(int(x) for x in ref.permutation(300))
    assert all(type(x) is int for x in word + perm)


def test_geometric_matrix_mean():
    rng = make_rng(11)
    draws = sample_geometric_matrix(200, 0.2, rng)
    # mean q/(1-q) = 0.25, sd of the average ~ 0.56/200
    assert abs(draws.mean() - 0.25) < 4.0 * 0.56 / 200.0


def test_empirical_distribution_bookkeeping():
    d = EmpiricalDistribution(seed=5, stream=2)
    d.add("x")
    d.add("y", 3)
    assert d.total == 4
    assert d.frequency("y") == Fraction(3, 4)
    assert d.frequency("z") == 0
    d.check()


def test_empirical_law_is_reproducible():
    law1 = empirical_law(lambda rng: sample_word(2, 3, rng), sum, 500, seed=9)
    law2 = empirical_law(lambda rng: sample_word(2, 3, rng), sum, 500, seed=9)
    assert law1.counts == law2.counts
    assert law1.total == 500


def test_exhaustive_permutation_law_is_plancherel():
    law = exhaustive_permutation_law(4, rsk_shape)
    assert law.total == 24
    for lam in enumerate_partitions(4):
        assert law.frequency(lam) == pmf_exact(Plancherel(4), lam)


def test_exhaustive_word_law_counts():
    law = exhaustive_word_law(2, 4, longest_weakly_increasing)
    assert law.total == 16
    # L = 4 requires a weakly increasing word: 5 of the 16
    assert law.frequency(4) == Fraction(5, 16)


def test_uniform_permutation_chi_squared():
    n = 4
    law = empirical_law(lambda rng: sample_permutation(n, rng), tuple, 12000, seed=13)
    import itertools

    expected = {p: 1.0 / 24.0 for p in itertools.permutations(range(n))}
    res = chi_squared(law.counts, expected, law.total)
    assert isinstance(res, ChiSquareResult)
    assert res.pvalue > 1e-3


def test_geometric_rsk_shape_follows_meixner():
    q = 0.2
    spec = Meixner(m=3, n=3, q=q)
    law = empirical_law(
        lambda rng: matrix_rsk_shape(sample_geometric_matrix(3, q, rng)),
        lambda lam: lam,
        20000,
        seed=21,
    )
    expected = {}
    for size in range(0, 16):
        for lam in enumerate_partitions(size, max_length=3):
            expected[lam] = pmf(spec, lam)
    res = chi_squared(law.counts, expected, law.total)
    assert res.pvalue > 1e-3


def test_chi_squared_pools_small_cells():
    observed = {0: 45, 1: 40, 2: 10, 3: 5}
    expected = {0: 0.45, 1: 0.48, 2: 0.04, 3: 0.03}
    res = chi_squared(observed, expected, 100)
    # expected counts 4 and 3 fall below the pooling threshold and merge
    assert res.cells == 3
    assert res.dof == 2
    with pytest.raises(ValueError):
        chi_squared({0: 10}, {0: 1.0}, 10)


def test_chi_squared_flags_impossible_outcomes():
    res = chi_squared({0: 90, 7: 10}, {0: 1.0}, 100)
    assert res.statistic == math.inf
    assert res.pvalue == pytest.approx(0.0)


def test_ks_distance_hand_cases_against_continuous_cdfs():
    # reference cdfs are continuous, which is the contract: the supremum is
    # then attained at an atom, approached from one side or the other

    def uniform01(v):
        return min(1.0, max(0.0, v))

    # mass 3/4 at 0, 1/4 at 1: the gap just right of 0 is 3/4
    assert ks_distance([(0.0, 3), (1.0, 1)], uniform01) == 0.75
    # largest gap sits just left of the first atom: F_emp = 0 vs F = 1/2
    assert ks_distance([(0.5, 1), (0.75, 1)], uniform01) == pytest.approx(0.5)
    # single atom at the median of uniform[-1, 1]
    assert ks_distance([(0.0, 5)], lambda v: 0.5 * (v + 1.0)) == 0.5
    with pytest.raises(ValueError):
        ks_distance([], uniform01)


def test_poisson_sampling_matches_low_counts():
    alpha = 1.0
    law = empirical_law(lambda rng: sample_poisson(alpha, rng), lambda k: k, 20000, seed=4)
    expected = {k: math.exp(-alpha) / math.factorial(k) for k in range(12)}
    res = chi_squared(law.counts, expected, law.total)
    assert res.pvalue > 1e-3
