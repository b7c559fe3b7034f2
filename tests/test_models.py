"""Lattice models against exhaustive enumeration oracles."""

import itertools
import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dope import ensembles, fredholm
from dope.ensembles import MultiplicativeFunctional
from dope.models import (
    AztecZigzag,
    PercolationSpec,
    aztec_tiling_count,
    aztec_zigzag_pmf,
    aztec_zigzag_turns,
    enumerate_aztec_tilings,
    enumerate_plane_partitions,
    hexagon_slice_pmf,
    passage_time,
    percolation_constants,
    percolation_gap,
    plane_partition_slice,
    word_gap,
)
from dope.rsk import bernoulli_path_max, longest_weakly_increasing

# ---------------------------------------------------------------------------
# descriptor validation


def test_percolation_spec_validation():
    with pytest.raises(ValueError):
        PercolationSpec(tau0=0, kappa=2, lam=1, p=Fraction(1, 2))
    with pytest.raises(ValueError):
        PercolationSpec(tau0=1, kappa=1, lam=1, p=Fraction(1, 2))
    with pytest.raises(ValueError):
        PercolationSpec(tau0=1, kappa=2, lam=-1, p=Fraction(1, 2))
    with pytest.raises(ValueError):
        PercolationSpec(tau0=1, kappa=2, lam=1, p=1)
    spec = PercolationSpec(tau0=1, kappa=2, lam=1, p=Fraction(1, 4))
    assert spec.q == Fraction(3, 4)
    assert spec.rho == Fraction(1, 3)


def test_zigzag_descriptor_validation():
    with pytest.raises(ValueError):
        AztecZigzag(n=0, r=1, color="white", turns=(0,))
    with pytest.raises(ValueError):
        AztecZigzag(n=2, r=3, color="white", turns=(0, 1, 2))
    with pytest.raises(ValueError):
        AztecZigzag(n=2, r=1, color="green", turns=(0,))
    with pytest.raises(ValueError):
        AztecZigzag(n=2, r=2, color="white", turns=(0, 0))
    with pytest.raises(ValueError):
        AztecZigzag(n=2, r=1, color="black", turns=(2,))
    z = AztecZigzag(n=2, r=2, color="white", turns=(2, 0))
    assert z.turns == (0, 2)


# ---------------------------------------------------------------------------
# Aztec diamond


def test_aztec_tiling_counts():
    for n, want in [(1, 2), (2, 8), (3, 64), (4, 1024)]:
        assert aztec_tiling_count(n) == want
        assert sum(1 for _ in enumerate_aztec_tilings(n)) == want
    with pytest.raises(ValueError):
        list(enumerate_aztec_tilings(6))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_zigzag_law_matches_enumeration_exactly(n):
    tilings = list(enumerate_aztec_tilings(n))
    total = len(tilings)
    for color in ("white", "black"):
        top = n if color == "white" else n - 1
        for r in range(1, n + 1):
            if r > top + 1:
                continue
            counts = Counter()
            for til in tilings:
                h = aztec_zigzag_turns(til, n, r, color)
                assert len(h) == r
                counts[h] += 1
            law_total = Fraction(0)
            for sub in itertools.combinations(range(top + 1), r):
                law = aztec_zigzag_pmf(AztecZigzag(n=n, r=r, color=color, turns=sub))
                law_total += law
                assert law == Fraction(counts.get(sub, 0), total)
            assert law_total == 1


def test_zigzag_closed_form_agrees_with_ensemble_route_beyond_enumeration():
    # the pmf itself asserts the closed product form against the ensemble
    # normalizer; exercising n > enumeration cap covers the identity there
    for n in (5, 6):
        for r in (1, n // 2, n):
            total = Fraction(0)
            for sub in itertools.combinations(range(n + 1), r):
                total += aztec_zigzag_pmf(AztecZigzag(n=n, r=r, color="white", turns=sub))
            assert total == 1
        for r in (1, n - 1):
            total = Fraction(0)
            for sub in itertools.combinations(range(n), r):
                total += aztec_zigzag_pmf(AztecZigzag(n=n, r=r, color="black", turns=sub))
            assert total == 1


# ---------------------------------------------------------------------------
# plane partitions and hexagon slices


def test_plane_partition_counts():
    assert sum(1 for _ in enumerate_plane_partitions(2)) == 20
    assert sum(1 for _ in enumerate_plane_partitions(3)) == 980
    with pytest.raises(ValueError):
        list(enumerate_plane_partitions(5))


@pytest.mark.parametrize("a", [2, 3])
def test_hexagon_slice_law_matches_plane_partition_enumeration(a):
    pps = list(enumerate_plane_partitions(a))
    for k in range(0, a + 1):
        counts = Counter(plane_partition_slice(p, a, k) for p in pps)
        total = Fraction(0)
        for h, c in counts.items():
            law = hexagon_slice_pmf(a, k, h)
            assert law == Fraction(c, len(pps))
            total += law
        assert total == 1


def test_hexagon_slice_agrees_with_hahn_ensemble():
    for a in (2, 3):
        for k in range(1, a + 1):
            hahn = ensembles.Hahn.hexagon(a, k)
            for h in ensembles.configurations(hahn):
                asc = tuple(sorted(h))
                assert hexagon_slice_pmf(a, k, asc) == ensembles.pmf_exact(hahn, h)


def test_empty_slice_is_certain():
    assert hexagon_slice_pmf(3, 0, ()) == 1


# ---------------------------------------------------------------------------
# last-passage percolation


@pytest.mark.parametrize("rows,cols", [(1, 1), (2, 2), (3, 2), (2, 3)])
def test_percolation_gap_matches_brute_force(rows, cols):
    for p in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
        law: Counter = Counter()
        for bits in itertools.product((0, 1), repeat=rows * cols):
            w = [bits[i * cols : (i + 1) * cols] for i in range(rows)]
            prob = p ** sum(bits) * (1 - p) ** (rows * cols - sum(bits))
            law[bernoulli_path_max(w)] += prob
        for level in range(-1, rows + 2):
            brute = sum(v for l, v in law.items() if l <= level)
            assert percolation_gap(p, rows, cols, level) == brute


@pytest.mark.parametrize("rows,cols", [(6, 6), (3, 8)])
@pytest.mark.parametrize("p", [Fraction(1, 3), 0.3])
def test_percolation_gap_is_the_krawtchouk_configuration_sum(rows, cols, p):
    # cols particles on {0..top}, weight C(top, x) p^x (1-p)^(top-x), summed
    # over the configurations whose top particle is at most level + cols - 1
    top, p_exact = rows + cols - 1, Fraction(p)
    weight = [math.comb(top, x) * p_exact**x * (1 - p_exact) ** (top - x) for x in range(top + 1)]
    by_top: Counter = Counter()
    for h in itertools.combinations(range(top + 1), cols):
        mass = math.prod((a - b) ** 2 for a, b in itertools.combinations(h, 2))
        by_top[h[-1]] += mass * math.prod(weight[x] for x in h)
    total = sum(by_top.values())
    for level in range(-1, rows + 2):
        inside = sum(v for t, v in by_top.items() if t <= level + cols - 1)
        assert percolation_gap(p, rows, cols, level) == inside / total


def test_percolation_gap_needs_p_inside_the_unit_interval():
    for p in (0, 1, Fraction(3, 2), -0.5):
        with pytest.raises(ValueError):
            percolation_gap(p, 2, 2, 1)


def test_percolation_gap_support_cap():
    with pytest.raises(ValueError):
        percolation_gap(Fraction(1, 2), 20, 20, 3)


@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
    st.fractions(min_value=Fraction(1, 10), max_value=Fraction(9, 10)),
)
@settings(max_examples=25, deadline=None)
def test_percolation_gap_is_a_cdf_in_the_level(rows, cols, p):
    values = [percolation_gap(p, rows, cols, lev) for lev in range(-1, rows + 1)]
    assert values[0] == 0
    assert values[-1] == 1
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_percolation_constants_branches():
    spec = PercolationSpec(tau0=1, kappa=2, lam=1, p=Fraction(1, 2))
    c = percolation_constants(1, 1, spec)
    assert c.degenerate and c.sigma == 0.0 and c.mu == pytest.approx(2.0)

    spec2 = PercolationSpec(tau0=1, kappa=2, lam=1, p=Fraction(1, 4))
    c2 = percolation_constants(2, 1, spec2)
    want_mu = 3.0 + (math.sqrt(1.5) - 0.5) ** 2
    assert not c2.degenerate
    assert c2.mu == pytest.approx(want_mu, abs=1e-14)
    assert c2.sigma > 0.0

    c3 = percolation_constants(1, 2, PercolationSpec(tau0=1, kappa=2, lam=1, p=Fraction(3, 4)))
    assert c3.degenerate and c3.mu == pytest.approx(3.0)

    with pytest.raises(ValueError):
        percolation_constants(0, 1, spec)


def test_passage_time_identity():
    spec = PercolationSpec(tau0=1, kappa=2, lam=1, p=Fraction(1, 4))
    w = [[1, 0, 1], [0, 1, 1]]
    assert passage_time(spec, w) == 2 * 1 + 2 * 2 - 1 * bernoulli_path_max(w)
    with pytest.raises(ValueError):
        passage_time(spec, [])


# ---------------------------------------------------------------------------
# longest weakly increasing subsequence of a random word


def test_word_gap_exact_hand_values():
    assert word_gap(2, 1, n=2) == Fraction(1, 4)
    assert word_gap(2, 2, n=2) == 1
    assert word_gap(5, 7, n=3) == 1
    assert word_gap(3, -1, n=2) == 0


def test_word_gap_exact_matches_brute_force():
    m, n = 3, 4
    for t in range(0, n + 1):
        count = sum(
            1
            for w in itertools.product(range(m), repeat=n)
            if longest_weakly_increasing(w) <= t
        )
        assert word_gap(m, t, n=n) == Fraction(count, m**n)


@pytest.mark.parametrize("t,length", [(2.9, {"n": 4}), (19.5, {"alpha": 40.0})])
def test_word_gap_rejects_a_threshold_that_is_not_whole(t, length):
    # int(t) would answer for t = 2 and t = 19
    with pytest.raises(ValueError, match="whole"):
        word_gap(3 if "alpha" in length else 2, t, **length)


def test_word_gap_argument_validation():
    with pytest.raises(ValueError):
        word_gap(2, 1)
    with pytest.raises(ValueError):
        word_gap(2, 1, n=2, alpha=1.0)
    with pytest.raises(ValueError):
        word_gap(2, 1, n=30)
    with pytest.raises(ValueError):
        word_gap(2, 1, alpha=-1.0)


# at (3, 40.0, 20) the short words carry no mass, and a sum that stopped
# on them gave 1.66e-10 against 0.630071151294; (5, 40.0, 20) and
# (4, 100.0, 30) took 5.5 s and 19.7 s summed partition by partition
@pytest.mark.parametrize(
    "m,alpha,t", [(3, 1.0, 2), (2, 0.7, 1), (3, 40.0, 20), (5, 40.0, 20), (4, 100.0, 30)]
)
def test_word_gap_poissonized_agrees_with_determinant_route(m, alpha, t):
    direct = word_gap(m, t, alpha=alpha)
    det = fredholm.charlier_expectation_det(
        alpha, m, MultiplicativeFunctional.indicator_gap(t)
    )
    assert det.converged
    assert direct == pytest.approx(det.value, abs=1e-8)
