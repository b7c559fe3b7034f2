"""Correlation kernels against high-precision and structural oracles."""

import math

import numpy as np
import pytest
from mpmath import mp

from dope.kernels import (
    AiryKernel,
    Bessel,
    CharlierKernel,
    DiscreteSineKernel,
    HermiteKernel,
    MeixnerKernel,
    SineKernel,
    airy_integral,
    bessel_diag_tail,
    bessel_series,
    bulk_scaled,
    edge_coordinates,
    intermediate_scaled,
    round_half_up,
    scaled_edge,
)
from dope.ensembles import MultiplicativeFunctional
from dope.fredholm import IntervalSystem, det_discrete, joint_rows
from dope.specfun import airy_ai, bessel_j, bessel_j_orderderiv, bessel_j_orders


def _moment_projection_oracle(weights, m, x, y, dps=60):
    """Rank-m projection kernel from raw moments and a Cholesky factor.

    Independent of the three-term recurrence route: the orthonormal
    polynomial coefficients come from inverting the Cholesky factor of the
    Hankel moment matrix.
    """
    with mp.workdps(dps):
        big = mp.matrix(m, m)
        for i in range(m):
            for j in range(m):
                big[i, j] = mp.fsum(w * mp.mpf(t) ** (i + j) for t, w in enumerate(weights))
        linv = mp.inverse(mp.cholesky(big))

        def col(t):
            mono = [mp.mpf(t) ** j for j in range(m)]
            root = mp.sqrt(weights[t])
            return [mp.fsum(linv[n, j] * mono[j] for j in range(n + 1)) * root for n in range(m)]

        cx, cy = col(x), col(y)
        return float(mp.fsum(a * b for a, b in zip(cx, cy)))


def _charlier_recurrence_oracle(m, alpha, x, y, dps=300):
    """Charlier projection kernel by the same recurrence at 300 digits.

    The upward recurrence below the band loses digits at a rate bounded by
    the dominant solution's growth; for every regime probed here that loss
    stays far under the working precision.
    """
    with mp.workdps(dps):
        a = mp.mpf(alpha) / m

        def column(t):
            phi = mp.e ** ((-a + t * mp.log(a) - mp.loggamma(t + 1)) / 2)
            prev = mp.mpf(0)
            out = [phi]
            for n in range(m - 1):
                nxt = ((t - (n + a)) * phi - mp.sqrt(n * a) * prev) / mp.sqrt((n + 1) * a)
                prev, phi = phi, nxt
                out.append(phi)
            return out

        cx, cy = column(x), column(y)
        return float(mp.fsum(p * q for p, q in zip(cx, cy)))


# ---------------------------------------------------------------------------
# Charlier kernel

CHARLIER_REGIMES = [(3, 1.0), (8, 0.25), (25, 0.28), (50, 0.02), (40, 40.0)]


def _charlier_probes(m, alpha):
    band = int(math.ceil(2.0 * math.sqrt(alpha)))
    xs = sorted({0, 1, max(0, m // 2), max(0, m - 2), m, m + 1, m + band + 3, m + band + 9})
    return xs


@pytest.mark.parametrize("m,alpha", CHARLIER_REGIMES)
def test_charlier_matches_high_precision_recurrence(m, alpha):
    kernel = CharlierKernel(m, alpha)
    xs = _charlier_probes(m, alpha)
    for x in xs:
        ref = _charlier_recurrence_oracle(m, alpha, x, x)
        assert kernel.eval(x, x) == pytest.approx(ref, rel=1e-8, abs=1e-12)
        assert kernel.projection_eval(x, x) == pytest.approx(ref, rel=1e-8, abs=1e-12)
    for x, y in zip(xs, xs[1:]):
        ref = _charlier_recurrence_oracle(m, alpha, x, y)
        assert kernel.eval(x, y) == pytest.approx(ref, rel=1e-7, abs=1e-12)
        assert kernel.projection_eval(x, y) == pytest.approx(ref, rel=1e-7, abs=1e-12)


def test_charlier_matches_moment_oracle():
    m, alpha = 5, 3.0
    a = alpha / m
    with mp.workdps(60):
        weights = [mp.e**-a * mp.mpf(a) ** t / mp.factorial(t) for t in range(400)]
    kernel = CharlierKernel(m, alpha)
    for x, y in [(0, 0), (2, 0), (4, 4), (5, 3), (9, 6), (12, 12)]:
        ref = _moment_projection_oracle(weights, m, x, y)
        assert kernel.eval(x, y) == pytest.approx(ref, rel=1e-9, abs=1e-13)


@pytest.mark.parametrize("m,alpha", CHARLIER_REGIMES)
def test_charlier_diagonal_is_a_projection_density(m, alpha):
    kernel = CharlierKernel(m, alpha)
    for x in _charlier_probes(m, alpha):
        d = kernel.eval(x, x)
        assert -1e-12 <= d <= 1.0 + 1e-12


def test_charlier_trace_is_rank():
    kernel = CharlierKernel(6, 3.0)
    cap = 6 + 60
    assert sum(kernel.eval(x, x) for x in range(cap)) == pytest.approx(6.0, abs=1e-10)


def test_charlier_contour_route_agrees_near_the_band_edge():
    kernel = CharlierKernel(10, 4.0)
    for x, y in [(9, 9), (10, 9), (12, 10), (14, 14), (16, 11)]:
        a = kernel.contour_eval(x, y)
        b = kernel.projection_eval(x, y)
        assert a == pytest.approx(b, rel=1e-8, abs=1e-11)


def test_charlier_rejects_bad_arguments():
    kernel = CharlierKernel(3, 1.0)
    with pytest.raises(ValueError):
        kernel.eval(-1, 2)
    with pytest.raises(TypeError):
        kernel.eval(1.5, 2)
    with pytest.raises(ValueError):
        CharlierKernel(0, 1.0)
    with pytest.raises(ValueError):
        CharlierKernel(3, 0.0)


# ---------------------------------------------------------------------------
# Meixner kernel


def test_meixner_matches_moment_oracle():
    q, k, m = 0.3, 2, 5
    with mp.workdps(60):
        qm = mp.mpf(q)
        weights = [
            mp.binomial(t + k - 1, t) * qm**t * (1 - qm) ** k for t in range(600)
        ]
    kernel = MeixnerKernel(q=q, k=k, m=m)
    for x, y in [(0, 0), (1, 0), (3, 3), (6, 2), (9, 9), (14, 5)]:
        ref = _moment_projection_oracle(weights, m, x, y)
        assert kernel.eval(x, y) == pytest.approx(ref, rel=1e-9, abs=1e-13)


def test_meixner_trace_is_rank():
    # regression: an unnormalized seed scales every diagonal by (1-q)^-k
    kernel = MeixnerKernel(q=0.3, k=2, m=5)
    assert sum(kernel.eval(x, x) for x in range(250)) == pytest.approx(5.0, abs=1e-9)
    for x in range(20):
        assert -1e-12 <= kernel.eval(x, x) <= 1.0 + 1e-12


def _meixner_exact_kernel(q, k, m, sites, dps=250):
    """{(x, y): K(x, y)} from the finite hypergeometric sums
    M_n(x) = sum_j (-n)_j (-x)_j / ((k)_j j!) (1 - 1/q)^j, with
    K(x, y) = sqrt(w(x) w(y)) sum_{n<m} M_n(x) M_n(y) (k)_n q^n / n! and
    w(x) = (k)_x q^x (1 - q)^k / x!; no recurrence is involved."""
    with mp.workdps(dps):
        qm = mp.mpf(q)
        z = 1 - 1 / qm
        norms = [mp.rf(k, n) * qm**n / mp.factorial(n) for n in range(m)]
        columns = {}
        for x in sorted({s for pair in sites for s in pair}):
            col = []
            for n in range(m):
                term, total = mp.mpf(1), mp.mpf(1)
                for j in range(min(n, x)):
                    term *= mp.mpf((j - n) * (j - x)) / ((k + j) * (j + 1)) * z
                    total += term
                col.append(total)
            weight = mp.rf(k, x) * qm**x * (1 - qm) ** k / mp.factorial(x)
            columns[x] = (col, mp.sqrt(weight))
        out = {}
        for x, y in sites:
            (cx, wx), (cy, wy) = columns[x], columns[y]
            out[x, y] = float(wx * wy * mp.fsum(a * b * c for a, b, c in zip(cx, cy, norms)))
    return out


@pytest.mark.parametrize("q,k,m", [(0.1, 4, 80), (0.5, 1, 120), (0.3, 2, 60)])
def test_meixner_matches_exact_hypergeometric_sums(q, k, m):
    # Sites far below the band of degree m need the dual route: the plain
    # upward recurrence gave K(0, 0) = 4.3e37 at (0.1, 4, 80) and 1.0016 at
    # (0.5, 1, 120) instead of 1.  A lost (-1)^(n+x) on the dual route
    # flips K(x, y) by (-1)^(x+y+1), so the even offset x + 2 is checked
    # beside x + 3.
    xs = [0, 1, 2, 5, 10, 30, 60, 100, 200]
    sites = [(x, x + d) for x in xs for d in (0, 2, 3)]
    exact = _meixner_exact_kernel(q, k, m, sites)
    kernel = MeixnerKernel(q=q, k=k, m=m)
    for x, y in sites:
        assert abs(kernel.eval(x, y) - exact[x, y]) <= 1e-12, (x, y)
    # a projection diagonal lies in [0, 1], here up to the same rounding
    for x in xs:
        assert -1e-12 <= kernel.eval(x, x) <= 1.0 + 1e-12, x


def test_meixner_validation():
    with pytest.raises(ValueError):
        MeixnerKernel(q=1.0, k=2, m=3)
    with pytest.raises(ValueError):
        MeixnerKernel(q=0.5, k=0, m=3)


# ---------------------------------------------------------------------------
# discrete Bessel kernel


@pytest.mark.parametrize("alpha", [0.25, 1.0, 4.0])
def test_bessel_eval_agrees_with_series(alpha):
    kernel = Bessel(alpha)
    for x in (-10, -3, -1, 0, 1, 4, 10):
        for y in (-10, -2, 0, 3, 7):
            assert abs(kernel.eval(x, y) - bessel_series(alpha, x, y)) < 1e-11


def test_bessel_symmetry_exact():
    kernel = Bessel(2.0)
    for x in range(-4, 5):
        for y in range(-4, 5):
            assert kernel.eval(x, y) == kernel.eval(y, x)


@pytest.mark.parametrize("alpha", [0.25, 1.0, 4.0])
def test_bessel_trace_identity(alpha):
    # sum_{x>=0} B(x, x) telescopes to sum_{n>=1} n J_n(2 sqrt(alpha))^2;
    # left side via the kernel's diagonals, right side via the series
    cap = int(math.ceil(2.0 * math.sqrt(alpha))) + 25
    lhs = math.fsum(Bessel(alpha).eval(x, x) for x in range(cap))
    rhs = math.fsum(n * bessel_j(n, alpha) ** 2 for n in range(1, cap + 2))
    assert lhs == pytest.approx(rhs, abs=1e-11)


def test_bessel_diag_tail_matches_term_by_term_sum():
    alpha = 4.0
    for start in (0, 3):
        direct = math.fsum(Bessel(alpha).eval(x, x) for x in range(start + 1, start + 40))
        assert bessel_diag_tail(alpha, start) == pytest.approx(direct, abs=1e-12)


def test_bessel_diagonal_values_lie_in_unit_interval():
    kernel = Bessel(4.0)
    for x in range(-6, 15):
        assert -1e-12 <= kernel.eval(x, x) <= 1.0 + 1e-12


BESSEL_ALPHAS = [1.0, 37.5, 400.0, 3000.0, 1e4]


@pytest.mark.parametrize("alpha", BESSEL_ALPHAS)
def test_bessel_diagonal_matches_order_derivative_route(alpha):
    # sqrt(a) (L_x J_{x+1} - J_x L_{x+1}), L = d/d nu J_nu, is the limit of
    # the Christoffel-Darboux quotient; the kernel sums squares instead
    kernel = Bessel(alpha)
    sa = math.sqrt(alpha)
    for x in range(-5, int(2.0 * sa) + 61):
        deriv = bessel_j_orderderiv(x, alpha) * bessel_j(x + 1, alpha)
        deriv -= bessel_j(x, alpha) * bessel_j_orderderiv(x + 1, alpha)
        assert abs(kernel.eval(x, x) - sa * deriv) <= 1e-13, x


@pytest.mark.parametrize("alpha", BESSEL_ALPHAS)
def test_bessel_diagonal_far_tail_relative_accuracy(alpha):
    kernel = Bessel(alpha)
    edge = int(2.0 * math.sqrt(alpha))
    with mp.workdps(30):
        z = 2 * mp.sqrt(alpha)
        for x in (edge + 20, edge + 60, edge + 120, edge + 200):
            ref = mp.fsum(mp.besselj(n, z) ** 2 for n in range(x + 1, x + 200))
            if ref < mp.mpf("1e-300"):
                continue
            assert abs(kernel.eval(x, x) / ref - 1) < 1e-12, x
    # past the order range: sum_k J_k^2 = 1 over all orders, 0 above them
    assert kernel.eval(-10**6, -10**6) == pytest.approx(1.0, abs=1e-13)
    assert kernel.eval(10**6, 10**6) == 0.0


@pytest.mark.parametrize("alpha", BESSEL_ALPHAS)
def test_bessel_diag_tail_relative_accuracy(alpha):
    # sum_{n>=1} n J_{x+n+1}^2 in 30-digit mpmath, from below the lowest
    # order of the J vector (where the tail goes on linearly) to the far tail
    top = len(bessel_j_orders(alpha))
    edge = int(2.0 * math.sqrt(alpha))
    with mp.workdps(30):
        z = 2 * mp.sqrt(alpha)
        squares = [mp.besselj(k, z) ** 2 for k in range(top + 8)]

        def square(k):
            return squares[abs(k)] if abs(k) < len(squares) else 0

        for x in (-top - 10, -40, -5, 0, edge, edge + 60):
            ref = mp.fsum(n * square(x + n + 1) for n in range(1, len(squares) - x))
            if ref < mp.mpf("1e-300"):
                continue
            assert abs(bessel_diag_tail(alpha, x) / ref - 1) < 1e-12, x


@pytest.mark.parametrize("alpha", [0.25, 4.0] + BESSEL_ALPHAS)
def test_bessel_series_matches_scalar_products(alpha):
    # the scalar route: an fsum of bessel_j products far past the edge
    edge = int(2.0 * math.sqrt(alpha))
    for x, y in [(-10, -10), (-7, 3), (0, 0), (2, edge), (edge, edge + 5),
                 (edge + 30, edge + 31), (-edge - 20, edge)]:
        count = edge - min(x, y) + 200
        ref = math.fsum(bessel_j(x + s, alpha) * bessel_j(y + s, alpha) for s in range(1, count))
        assert abs(bessel_series(alpha, x, y) - ref) <= 1e-15, (x, y)


def test_bessel_lattice_determinants_skip_the_order_derivative():
    # and the scalar J: every value comes from the one vector per alpha
    kernel = Bessel(23.7)
    before = bessel_j_orderderiv.cache_info(), bessel_j.cache_info()
    det_discrete(kernel, MultiplicativeFunctional.indicator_gap(9))
    joint_rows(kernel, IntervalSystem([11.0, 8.0]))
    assert (bessel_j_orderderiv.cache_info(), bessel_j.cache_info()) == before


def test_bessel_rejects_bad_arguments():
    with pytest.raises(ValueError):
        Bessel(0.0)
    with pytest.raises(TypeError):
        Bessel(1.0).eval(0.5, 1)


# ---------------------------------------------------------------------------
# continuum kernels


def test_airy_eval_agrees_with_integral_route():
    kernel = AiryKernel()
    for x, y in [(0.0, 0.0), (-2.0, 1.0), (3.0, 3.0), (-4.0, -4.0), (-1.0, -0.5)]:
        assert kernel.eval(x, y) == pytest.approx(airy_integral(x, y), abs=1e-12)


def test_airy_near_diagonal_branch_is_continuous():
    kernel = AiryKernel()
    base = kernel.eval(-1.0, -1.0)
    assert kernel.eval(-1.0, -1.0 + 2e-7) == pytest.approx(base, abs=1e-6)


def test_hermite_eval_matches_projection_sum():
    from dope.specfun import hermite_psi

    m = 6
    kernel = HermiteKernel(m)
    for x in (-2.3, 0.1, 1.7):
        for y in (-1.1, 0.1, 2.6):
            if x == y:
                continue
            cx = [hermite_psi(n + 1, x)[0] for n in range(m)]
            cy = [hermite_psi(n + 1, y)[0] for n in range(m)]
            direct = math.fsum(a * b for a, b in zip(cx, cy))
            assert kernel.eval(x, y) == pytest.approx(direct, rel=1e-10, abs=1e-13)


def test_hermite_trace_is_rank():
    xs = np.linspace(-12.0, 12.0, 4001)
    kernel = HermiteKernel(5)
    vals = np.array([kernel.eval(float(x), float(x)) for x in xs])
    assert np.trapezoid(vals, xs) == pytest.approx(5.0, abs=1e-8)


def test_sine_kernels():
    s = SineKernel()
    assert s.eval(0.3, 0.3) == 1.0
    assert s.eval(0.5, 0.0) == pytest.approx(2.0 / math.pi)
    d = DiscreteSineKernel(0.0)
    assert d.eval(5, 5) == pytest.approx(0.5)
    assert d.eval(1, 0) == pytest.approx(1.0 / math.pi)
    assert d.eval(2, 0) == pytest.approx(0.0, abs=1e-16)
    with pytest.raises(ValueError):
        DiscreteSineKernel(2.0)


# ---------------------------------------------------------------------------
# positive semidefiniteness


@pytest.mark.parametrize(
    "kernel,points",
    [
        (Bessel(4.0), [-3, 0, 2, 5, 7]),
        (CharlierKernel(8, 6.0), [0, 2, 5, 9, 14]),
        (MeixnerKernel(q=0.3, k=2, m=5), [0, 1, 4, 8]),
        (AiryKernel(), [-3.0, -1.0, 0.0, 1.5]),
        (DiscreteSineKernel(0.5), [0, 1, 3, 4]),
    ],
)
def test_gram_matrices_are_positive_semidefinite(kernel, points):
    g = np.array([[kernel.eval(x, y) for y in points] for x in points])
    assert np.allclose(g, g.T, atol=1e-12)
    assert np.linalg.eigvalsh(g).min() > -1e-10


# ---------------------------------------------------------------------------
# whole-matrix assembly


@pytest.mark.parametrize(
    "kernel,points",
    [
        (Bessel(1.0), [-4, -1, 0, 1, 2, 5, 9]),
        (Bessel(3000.0), [60, 95, 109, 110, 111, 118, 130, 150]),
        # unsorted, repeated and negative sites, and sites past the J vector
        # (orders -129..130 at alpha = 1, -428..429 at 3000), where J = 0
        (Bessel(1.0), [5, -4, 300, -1, 5, 0, 301, -300, 2, 9, 2, -300]),
        (Bessel(3000.0), [130, -150, 109, 109, 2000, 60, -2000, 111, 0]),
        # m = 20 lies above the recurrence crest for sites 0..2, so those
        # take the dual route and the others the upward recurrence
        (CharlierKernel(20, 200.0), [0, 2, 4, 5, 12, 20, 41, 63]),
        (MeixnerKernel(q=0.3, k=2, m=5), [0, 1, 4, 8, 13]),
        # 0.5 and 0.5 + 3e-7 are closer than the near-diagonal width
        (AiryKernel(), [-6.0, -3.0, -1.0, 0.0, 0.5, 0.5 + 3e-7, 1.5, 4.0]),
        (HermiteKernel(6), [-2.3, -1.1, 0.1, 1.7, 2.6]),
        # these sites straddle the crest of m = 80, so both routes are used
        (MeixnerKernel(q=0.1, k=4, m=80), [0, 3, 10, 40, 80, 120]),
    ],
)
def test_matrix_equals_eval_entry_for_entry(kernel, points):
    expected = np.array([[kernel.eval(x, y) for y in points] for x in points])
    assert np.array_equal(kernel.matrix(points), expected)


def test_bessel_matrix_reads_integer_arrays_and_rejects_other_points():
    kernel = Bessel(4.0)
    points = [7, -3, 0, 7, 40]
    assert np.array_equal(kernel.matrix(np.array(points)), kernel.matrix(points))
    assert kernel.matrix([]).shape == (0, 0)
    with pytest.raises(TypeError):
        kernel.matrix([0, 0.5])
    with pytest.raises(TypeError):
        kernel.matrix([True, False])


# ---------------------------------------------------------------------------
# scaling limits


def test_round_half_up():
    assert round_half_up(0.5) == 1
    assert round_half_up(-0.5) == 0
    assert round_half_up(2.49) == 2
    assert round_half_up(-1.5) == -1
    assert round_half_up(3.0) == 3


def test_edge_coordinates_bessel():
    # The effective coordinate is the cell centre (point + 1/2 - 2 sqrt(alpha))
    # / alpha^(1/6), not (point - 2 sqrt(alpha)) / alpha^(1/6): B(x, y) sums
    # over unit cells, and at alpha = 1e4 the scaled kernel is within 5.5e-4
    # of the Airy kernel at the cell centres but 3.0e-2 from it at the sites
    # themselves (test_bessel_edge_approaches_airy_between_cell_centers; the
    # kernel values agree with a 30-digit mpmath sum of J_{x+s} J_{y+s}).
    scale = 100.0 ** (1.0 / 6.0)
    point, eff = edge_coordinates(Bessel(100.0), 0.0)
    assert point == 20
    assert eff == pytest.approx(0.5 / scale)
    point, eff = edge_coordinates(Bessel(100.0), 1.0)
    assert point == round_half_up(20.0 + scale)
    assert eff == pytest.approx((point + 0.5 - 20.0) / scale)
    with pytest.raises(TypeError):
        edge_coordinates(AiryKernel(), 0.0)


def test_edge_coordinates_charlier_match_airy():
    # The Charlier edge nu = m + alpha/m + 2 sqrt(alpha) is not an integer, so
    # the effective coordinate must keep frac(nu) as well as the half cell:
    # the worst error is 2.2e-3 at (point + 1/2 - nu) / sigma and 3.1e-2 at
    # round_half_up(xi sigma) / sigma.
    kernel = CharlierKernel(400, 100.0)
    airy = AiryKernel()
    worst = 0.0
    for xi in (-1.0, 0.0, 1.0):
        for eta in (-1.0, 0.0, 1.0):
            _, eff_xi = edge_coordinates(kernel, xi)
            _, eff_eta = edge_coordinates(kernel, eta)
            value = scaled_edge(kernel, xi, eta)
            worst = max(worst, abs(value - airy.eval(eff_xi, eff_eta)))
    assert worst <= 1e-2, worst


def _edge_error_cell_centered(alpha):
    kernel = Bessel(alpha)
    scale = alpha ** (1.0 / 6.0)
    worst = 0.0
    for xi in (-1.0, 0.0, 1.0):
        for eta in (-1.0, 0.0, 1.0):
            x, _ = edge_coordinates(kernel, xi)
            y, _ = edge_coordinates(kernel, eta)
            xc = (x + 0.5 - 2.0 * math.sqrt(alpha)) / scale
            yc = (y + 0.5 - 2.0 * math.sqrt(alpha)) / scale
            err = abs(scale * kernel.eval(x, y) - AiryKernel().eval(xc, yc))
            worst = max(worst, err)
    return worst


def test_bessel_edge_approaches_airy_between_cell_centers():
    coarse = _edge_error_cell_centered(100.0)
    fine = _edge_error_cell_centered(10000.0)
    assert fine < coarse
    assert fine < 2e-3


def test_bessel_bulk_approaches_discrete_sine():
    limit = DiscreteSineKernel(0.0)

    def worst(alpha):
        return max(abs(bulk_scaled(alpha, 0.0, u) - limit.eval(u, 0)) for u in range(4))

    coarse, fine = worst(100.0), worst(1600.0)
    assert fine < coarse
    # measured worst offsets: 2.90e-2 at alpha = 100, 6.34e-3 at 1600
    assert fine < 1e-2


def test_intermediate_scaling_approaches_continuous_sine():
    assert intermediate_scaled(1e4, 0.3, 0.0, 0.0) == pytest.approx(1.0, abs=0.02)
    assert intermediate_scaled(1e4, 0.3, 0.5, 0.0) == pytest.approx(2.0 / math.pi, abs=0.1)
    with pytest.raises(ValueError):
        intermediate_scaled(1e4, 0.6, 0.0, 0.0)
    with pytest.raises(ValueError):
        intermediate_scaled(1e4, 1.0 / 6.0, 0.0, 0.0)
