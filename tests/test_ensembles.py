"""Ensemble laws checked against exhaustive counts and against each other."""

import itertools
import math
from collections import Counter
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from dope import ensembles
from dope.ensembles import (
    Charlier,
    Hahn,
    Krawtchouk,
    Meixner,
    MultiplicativeFunctional,
    Plancherel,
    PoissonizedPlancherel,
    configurations,
    coulomb_approx_F,
    equilibrium_density,
    expectation,
    normalization,
    pmf,
    pmf_exact,
    pmf_particles,
    word_shape_pmf,
)
from dope.partitions import Partition, enumerate_partitions, from_particles, particles
from dope.rsk import matrix_rsk_shape, rsk_shape
from dope.specfun import ConvergenceError

ONE = MultiplicativeFunctional(lambda s: 1.0)


def test_descriptor_validation():
    with pytest.raises(ValueError):
        Plancherel(-1)
    with pytest.raises(ValueError):
        PoissonizedPlancherel(0.0)
    with pytest.raises(ValueError):
        Meixner(3, 2, Fraction(1, 2))
    with pytest.raises(ValueError):
        Meixner(2, 3, 1)
    with pytest.raises(ValueError):
        Charlier(2, -1.0)
    with pytest.raises(ValueError):
        Krawtchouk(3, 1, Fraction(1, 2))
    with pytest.raises(ValueError):
        Krawtchouk(2, 5, 0.0)
    with pytest.raises(ValueError):
        Hahn(k=3, a=1, b=1, n=1)
    with pytest.raises(ValueError):
        Hahn.hexagon(3, 4)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 6])
def test_plancherel_sums_to_one_exactly(n):
    total = sum(pmf_exact(Plancherel(n), lam) for lam in enumerate_partitions(n))
    assert total == 1


def test_plancherel_wrong_size_has_zero_mass():
    assert pmf_exact(Plancherel(3), Partition([2, 2])) == 0


@pytest.mark.parametrize("m,n", [(2, 2), (2, 4), (3, 3), (4, 3)])
def test_word_shape_pmf_matches_exhaustive_word_counts(m, n):
    counts = Counter(rsk_shape(w) for w in itertools.product(range(m), repeat=n))
    for lam in enumerate_partitions(n, max_length=m):
        assert word_shape_pmf(m, n, lam) == Fraction(counts[lam], m**n)
    total = sum(word_shape_pmf(m, n, lam) for lam in enumerate_partitions(n, max_length=m))
    assert total == 1


def test_word_shape_two_letter_worked_example():
    assert word_shape_pmf(2, 2, Partition([2])) == Fraction(3, 4)
    assert word_shape_pmf(2, 2, Partition([1, 1])) == Fraction(1, 4)


def test_word_shape_pmf_vanishes_off_support():
    assert word_shape_pmf(2, 3, Partition([1, 1, 1])) == 0
    assert word_shape_pmf(2, 3, Partition([2])) == 0


@pytest.mark.parametrize(
    "spec",
    [
        Krawtchouk(n=1, k=4, p=Fraction(1, 3)),
        Krawtchouk(n=2, k=5, p=Fraction(1, 2)),
        Krawtchouk(n=3, k=3, p=Fraction(3, 4)),
        Krawtchouk(n=4, k=7, p=Fraction(1, 4)),
    ],
)
def test_krawtchouk_closed_form_normalization_sums_to_one(spec):
    # the closed product constant must match the brute-force sum exactly
    total = sum(pmf_exact(spec, h) for h in configurations(spec))
    assert total == 1


@pytest.mark.parametrize(
    "spec",
    [
        Hahn(k=2, a=1, b=2, n=4),
        Hahn.hexagon(3, 2),
        Hahn.hexagon(4, 4),
        Hahn.hexagon(5, 4),
        Hahn(k=3, a=2, b=0, n=7),
    ],
)
def test_hahn_sums_to_one(spec):
    total = sum(pmf_exact(spec, h) for h in configurations(spec))
    assert total == 1


def test_normalization_is_computed_once_per_spec(monkeypatch):
    # a law summed over its 3,432 configurations pays for one normalizer
    calls = []
    hankel_det = ensembles._hankel_det

    def counted(*args, **kwargs):
        calls.append(args)
        return hankel_det(*args, **kwargs)

    monkeypatch.setattr(ensembles, "_hankel_det", counted)
    normalization.cache_clear()
    spec = Hahn.hexagon(7, 7)
    assert sum(pmf_exact(spec, h) for h in configurations(spec)) == 1
    assert len(calls) == 1


def test_particle_configurations_must_strictly_decrease():
    spec = Krawtchouk(n=2, k=4, p=Fraction(1, 2))
    with pytest.raises(ValueError):
        pmf_exact(spec, (1, 2))
    with pytest.raises(ValueError):
        pmf_exact(spec, (2, 2))
    with pytest.raises(ValueError):
        pmf_exact(spec, (2, -1))


def test_out_of_range_configuration_has_zero_mass():
    spec = Krawtchouk(n=2, k=4, p=Fraction(1, 2))
    assert pmf_exact(spec, (9, 0)) == 0
    assert pmf_exact(spec, (3,)) == 0


@pytest.mark.parametrize(
    "spec",
    [Meixner(m=3, n=5, q=Fraction(3, 10)), Charlier(m=3, alpha=2.5)],
)
def test_partition_and_particle_routes_agree(spec):
    for size in range(0, 7):
        for lam in enumerate_partitions(size, max_length=spec.m):
            a = pmf(spec, lam)
            b = pmf_particles(spec, particles(lam, spec.m))
            assert a == pytest.approx(b, rel=1e-12, abs=1e-300)


def test_charlier_pmf_is_poissonized_word_law():
    m, alpha = 3, 2.0
    spec = Charlier(m, alpha)
    for size in range(0, 8):
        pois = math.exp(-alpha + (size * math.log(alpha) if size else 0.0) - math.lgamma(size + 1))
        for lam in enumerate_partitions(size, max_length=m):
            expected = pois * float(word_shape_pmf(m, size, lam))
            assert pmf(spec, lam) == pytest.approx(expected, rel=1e-12, abs=1e-300)


def test_poissonized_plancherel_pmf_is_poisson_mixture():
    alpha = 1.5
    spec = PoissonizedPlancherel(alpha)
    for size in range(0, 8):
        pois = math.exp(-alpha + (size * math.log(alpha) if size else 0.0) - math.lgamma(size + 1))
        for lam in enumerate_partitions(size):
            expected = pois * float(pmf_exact(Plancherel(size), lam))
            assert pmf(spec, lam) == pytest.approx(expected, rel=1e-10, abs=1e-300)


def test_meixner_matches_truncated_geometric_matrix_enumeration():
    # 2 x 2 matrices of iid geometric(q) entries, truncated at 12; the
    # missing mass is below 4 * q^13 ~ 6e-7 for q = 3/10
    m = n = 2
    q = Fraction(3, 10)
    cap = 12
    law: Counter = Counter()
    for entries in itertools.product(range(cap + 1), repeat=m * n):
        w = Fraction(1)
        for e in entries:
            w *= (1 - q) * q**e
        a = [list(entries[i * n : (i + 1) * n]) for i in range(m)]
        law[matrix_rsk_shape(a)] += w
    spec = Meixner(m=m, n=n, q=q)
    checked = 0
    for lam, mass in law.items():
        if mass > 1e-6:
            assert pmf(spec, lam) == pytest.approx(float(mass), abs=1e-6)
            checked += 1
    assert checked > 20


@pytest.mark.parametrize(
    "spec",
    [
        Plancherel(5),
        PoissonizedPlancherel(1.5),
        Meixner(m=2, n=4, q=Fraction(2, 5)),
        Charlier(m=3, alpha=2.0),
        Krawtchouk(n=2, k=5, p=Fraction(1, 2)),
        Hahn.hexagon(3, 2),
        # the first shells carry no mass here; a sum that stopped on them
        # gave 5.5e-35 and 6.1e-29
        Charlier(m=2, alpha=100.0),
        Meixner(m=2, n=60, q=0.5),
    ],
)
def test_expectation_of_one_is_one(spec):
    assert expectation(spec, ONE, tol=1e-10) == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize(
    "spec,tol",
    [
        # the size law NB(mn, 1 - q) has a long tail here: past the first
        # run of shells lighter than tol lie several tol of mass
        (Meixner(m=1, n=10, q=0.97), 1e-10),
        (Meixner(m=2, n=20, q=0.9), 1e-10),
        (Meixner(m=1, n=30, q=0.95), 1e-6),
    ],
)
def test_expectation_of_one_is_within_tol(spec, tol):
    assert abs(1.0 - expectation(spec, ONE, tol=tol)) <= tol


@pytest.mark.parametrize("alpha", [3.0, 20.0])
def test_expectation_tail_carries_the_bound_per_row(alpha):
    # g = 2 on every nonempty one-row shape, so E[g] = 2 - e^-alpha; the
    # neglected tail weighs twice its probability
    two = MultiplicativeFunctional(lambda s: 2.0 if s >= 0 else 1.0, bound=2.0)
    tol = 1e-10
    value = expectation(Charlier(m=1, alpha=alpha), two, tol=tol)
    assert abs(value - (2.0 - math.exp(-alpha))) <= tol


@pytest.mark.parametrize("spec", [Charlier(2, 5.0), Meixner(2, 3, 0.5)])
def test_expectation_keeps_a_large_shift_bound_in_logs(spec):
    # the only non-unit factor is the empty row i = 1097 at site 3, so
    # E[g] = 2; the cut-off needs c^shift T(N) = 2^1100 T(N) < tol, far
    # past the N where pdtrc and nbdtrc underflow
    g = MultiplicativeFunctional(lambda s: 2.0 if s == 3 else 1.0, shift=1100, bound=2.0)
    assert expectation(spec, g) == pytest.approx(2.0, rel=1e-12)


def test_expectation_caps_raise_convergence_error(monkeypatch):
    monkeypatch.setattr(ensembles, "_SHELL_CAP", 3)
    with pytest.raises(ConvergenceError):
        expectation(Charlier(m=2, alpha=10.0), ONE)
    with pytest.raises(ConvergenceError):
        expectation(PoissonizedPlancherel(10.0), ONE)


@pytest.mark.parametrize(
    "alpha,m,n,expected",
    [(163.2, 21, 2, 1.34240960966878e-55), (286.5, 19, 3, 8.32326398791474e-96)],
)
def test_charlier_deep_tail_matches_the_configuration_sum(alpha, m, n, expected):
    # lam_1 <= n puts the m particles h_i = lam_i + m - i on {0..n+m-1}:
    # 253 and 1,540 configurations of Delta(h)^2 prod e^-a a^h / h! over
    # a^(m(m-1)/2) prod_{j<m} j!, summed in 40 digits
    with mpmath.workdps(40):
        a = mpmath.mpf(alpha) / m
        z = a ** (m * (m - 1) // 2) * mpmath.fprod(mpmath.factorial(j) for j in range(m))
        oracle = mpmath.fsum(
            math.prod((x - y) ** 2 for x, y in itertools.combinations(h, 2))
            * mpmath.fprod(a**x / mpmath.factorial(x) for x in h)
            for h in itertools.combinations(range(n + m), m)
        ) * mpmath.exp(-alpha) / z
    assert float(oracle) == pytest.approx(expected, rel=1e-13)
    value = expectation(Charlier(m, alpha), MultiplicativeFunctional.indicator_gap(n))
    assert value == pytest.approx(float(oracle), rel=1e-12)


def test_expectation_reads_a_numpy_float32_generator():
    # a value that is not a Python rational is summed as the float it stores
    def half(v):
        return MultiplicativeFunctional(lambda s: v if s >= 0 else 1.0)

    spec = Charlier(2, 3.0)
    value = expectation(spec, half(np.float32(0.5)))
    assert value == expectation(spec, half(0.5)) == pytest.approx(0.49952256)


def test_charlier_normalization_with_many_particles():
    spec = Charlier(m=30, alpha=5.0)
    z = normalization(spec)
    assert math.isfinite(float(z))
    # log Z = sum_{j<30} log j! + C(30, 2) log(alpha/m)
    log_z = math.fsum(math.lgamma(j + 1) for j in range(30)) + 435 * math.log(5.0 / 30)
    assert math.log(z) == pytest.approx(log_z, rel=1e-12)
    for lam in (Partition(()), Partition((2, 1)), Partition((1,) * 6)):
        assert pmf_particles(spec, particles(lam, 30)) == pytest.approx(pmf(spec, lam), rel=1e-11)


def test_indicator_gap_expectation_is_cumulative_largest_part():
    spec = Krawtchouk(n=3, k=6, p=Fraction(2, 5))
    for t in range(0, 6):
        direct = sum(
            float(pmf_exact(spec, h)) for h in configurations(spec) if h[0] - (3 - 1) <= t
        )
        g = MultiplicativeFunctional.indicator_gap(t)
        assert expectation(spec, g) == pytest.approx(direct, rel=1e-12)


def _site_weight(spec, x):
    if isinstance(spec, Krawtchouk):
        p = Fraction(spec.p)
        return math.comb(spec.k, x) * p**x * (1 - p) ** (spec.k - x)
    return Fraction(math.comb(x + spec.a, x) * math.comb(spec.n + spec.b - x, spec.n - x))


@pytest.mark.parametrize(
    "spec", [Krawtchouk(n=3, k=6, p=Fraction(2, 5)), Hahn(k=3, a=1, b=2, n=6)]
)
@pytest.mark.parametrize("shift", [0, 5])
def test_finite_expectation_matches_the_configuration_sum(spec, shift):
    # shift 5 exceeds the 3 particles, so rows 4 and 5 contribute f(1) f(0)
    values = (2.0, -0.5, 1.5, 0.25, -2.0)
    g = MultiplicativeFunctional(
        lambda s: 1.0 if s < 0 else values[s % 5], shift=shift, bound=2.0
    )
    num = den = Fraction(0)
    for h in configurations(spec):
        mass = math.prod((a - b) ** 2 for a, b in itertools.combinations(h, 2))
        mass *= math.prod(_site_weight(spec, x) for x in h)
        num += mass * Fraction(g(from_particles(h)))
        den += mass
    assert expectation(spec, g) == pytest.approx(float(num / den), rel=1e-12)


def test_multiplicative_functional_requires_unit_tail():
    with pytest.raises(ValueError):
        MultiplicativeFunctional(lambda s: 0.5)


def test_indicator_gap_values():
    g = MultiplicativeFunctional.indicator_gap(2)
    assert g(Partition([2, 1])) == 1.0
    assert g(Partition([3])) == 0.0
    assert g(Partition()) == 1.0


def test_coulomb_ratio_approaches_poissonized_expectation():
    g = MultiplicativeFunctional.indicator_gap(2)
    target = expectation(PoissonizedPlancherel(1.0), g, tol=1e-12)
    errs = [abs(float(coulomb_approx_F(1, m, g)) - target) for m in (4, 8, 16)]
    assert errs[2] < errs[0]
    assert errs[2] < 1e-6


@pytest.mark.parametrize("m", [4, 8, 16])
def test_coulomb_ratio_reads_a_float_alpha_exactly(m):
    g = MultiplicativeFunctional.indicator_gap(2)
    assert float(coulomb_approx_F(1.0, m, g)) == float(coulomb_approx_F(1, m, g))


def test_equilibrium_density_profile():
    assert equilibrium_density(-0.5, 4.0) == 0.0
    assert equilibrium_density(0.2, 4.0) == 1.0
    assert equilibrium_density(1.0, 4.0) == pytest.approx(0.5)
    assert equilibrium_density(2.0, 4.0) == 0.0
    with pytest.raises(ValueError):
        equilibrium_density(0.5, 1.0)
