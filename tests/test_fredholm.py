"""Fredholm determinants: truncation certificates, known values, joint laws."""

import itertools
import math

import mpmath
import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.special import airy, jv

from dope.ensembles import (
    Charlier,
    Meixner,
    MultiplicativeFunctional,
    PoissonizedPlancherel,
    expectation,
)
from dope.fredholm import (
    FredholmResult,
    IntervalSystem,
    admissible_counts,
    charlier_expectation_det,
    det_continuum,
    det_discrete,
    joint_rows,
    tracy_widom,
)
from dope.kernels import (
    AiryKernel,
    Bessel,
    CharlierKernel,
    DiscreteSineKernel,
    HermiteKernel,
    MeixnerKernel,
)
from dope.models import word_gap


def _gessel(alpha: int, n: int):
    """P[lam_1 <= n] = e^-alpha det[I_{j-k}(2 sqrt alpha)]_{n x n}, 120 digits."""
    with mpmath.workdps(120):
        x = 2 * mpmath.sqrt(alpha)
        i = [mpmath.besseli(d, x) for d in range(n)]
        toeplitz = mpmath.matrix([[i[abs(j - k)] for k in range(n)] for j in range(n)])
        return mpmath.exp(-alpha) * mpmath.det(toeplitz)


@pytest.mark.parametrize("n,rel", [(16, 1e-4), (20, 1e-7), (30, 1e-10), (40, 1e-11)])
def test_det_discrete_deep_tail_relative_accuracy(n, rel):
    # F runs from 5.8e-31 (n = 16) to 0.97 (n = 40) at alpha = 400
    ref = _gessel(400, n)
    got = det_discrete(Bessel(400.0), MultiplicativeFunctional.indicator_gap(n)).value
    assert abs(got - ref) <= rel * ref


def test_admissible_counts_are_ballot_sequences():
    assert admissible_counts(1) == [(0,)]
    assert sorted(admissible_counts(2)) == [(0, 0), (0, 1)]
    assert len(admissible_counts(3)) == 5
    assert len(admissible_counts(4)) == 14
    for vec in admissible_counts(4):
        partial = 0
        for r, n in enumerate(vec, start=1):
            partial += n
            assert partial <= r - 1


def test_interval_system_validation_and_lookup():
    with pytest.raises(ValueError):
        IntervalSystem([])
    with pytest.raises(ValueError):
        IntervalSystem([1.0, 2.0])
    sys = IntervalSystem([4.0, 3.0])
    assert sys.k == 2
    assert sys.interval_index(5.0) == 1
    assert sys.interval_index(4.0) == 2
    assert sys.interval_index(3.5) == 2
    assert sys.interval_index(3.0) is None


def test_empty_perturbation_gives_unit_determinant():
    result = det_discrete(Bessel(1.0), MultiplicativeFunctional(lambda s: 1.0))
    assert result.value == 1.0
    assert result.converged


def test_gap_at_zero_is_poisson_void_probability():
    # P[lam = empty] under the Poissonized measure is exactly e^-alpha
    for alpha in (0.5, 1.0, 2.0):
        r = det_discrete(Bessel(alpha), MultiplicativeFunctional.indicator_gap(0))
        assert r.converged
        assert r.value == pytest.approx(math.exp(-alpha), abs=1e-12)


@pytest.mark.parametrize("alpha", [0.7, 1.3])
def test_discrete_determinant_matches_direct_poissonized_sum(alpha):
    for n in range(0, 4):
        g = MultiplicativeFunctional.indicator_gap(n)
        direct = expectation(PoissonizedPlancherel(alpha), g, tol=1e-12)
        det = det_discrete(Bessel(alpha), g, tol=1e-12)
        assert det.converged
        assert det.value == pytest.approx(direct, abs=1e-9)


def test_general_multiplicative_functional_matches_direct_sum():
    g = MultiplicativeFunctional(lambda s: 1.3 if s == 1 else 1.0, bound=1.3)
    alpha = 1.2
    direct = expectation(PoissonizedPlancherel(alpha), g, tol=1e-12)
    det = det_discrete(Bessel(alpha), g)
    assert det.value == pytest.approx(direct, abs=1e-9)
    # phi is supported on the single site 1, so the matrix is 1 x 1
    assert det.truncation_size == 1


@pytest.mark.parametrize("n,shift", [(1, 2), (2, 1), (3, 3)])
def test_det_discrete_honours_the_functional_shift(n, shift):
    # E prod f(lam_i + shift - i); at (1, 2) the first factor is always 0
    g = MultiplicativeFunctional.indicator_gap(n, shift=shift)
    direct = expectation(PoissonizedPlancherel(1.0), g, tol=1e-12)
    det = det_discrete(Bessel(1.0), g)
    assert det.converged
    assert det.value == pytest.approx(direct, abs=1e-9)


@pytest.mark.parametrize("n,shift", [(2, 1), (3, 2)])
def test_charlier_det_honours_the_functional_shift(n, shift):
    g = MultiplicativeFunctional.indicator_gap(n, shift=shift)
    direct = expectation(Charlier(3, 1.0), g, tol=1e-12)
    det = charlier_expectation_det(1.0, 3, g)
    assert det.converged
    assert det.value == pytest.approx(direct, abs=1e-9)


def test_charlier_det_includes_the_empty_rows():
    # shift 5 > m = 3: rows 4 and 5 are empty and give f(1) f(0) = 1/2
    g = MultiplicativeFunctional(lambda s: 0.5 if s == 0 else 1.0, shift=5)
    direct = expectation(Charlier(3, 1.0), g, tol=1e-12)
    det = charlier_expectation_det(1.0, 3, g)
    assert direct == pytest.approx(0.5, abs=1e-9)
    assert det.converged
    assert det.value == pytest.approx(direct, abs=1e-9)


@pytest.mark.parametrize("kernel", [AiryKernel(), DiscreteSineKernel(0.5)], ids=["airy", "sine"])
def test_det_discrete_requires_a_lattice_kernel_with_a_diagonal_tail(kernel):
    with pytest.raises(TypeError):
        det_discrete(kernel, MultiplicativeFunctional.indicator_gap(1))


@pytest.mark.parametrize(
    "m,alpha,g",
    [
        (3, 1.0, MultiplicativeFunctional.indicator_gap(2)),
        (20, 200.0, MultiplicativeFunctional.indicator_gap(44)),
        (4, 9.0, MultiplicativeFunctional.indicator_gap(5, shift=2)),
        # shift 7 > m = 3: the empty rows give f(3) f(2) f(1) f(0) = 1/2
        (3, 1.0, MultiplicativeFunctional(lambda s: 0.5 if s == 1 else 1.0, shift=7)),
    ],
)
def test_det_discrete_on_the_charlier_kernel_is_the_charlier_determinant(m, alpha, g):
    assert det_discrete(CharlierKernel(m, alpha), g) == charlier_expectation_det(alpha, m, g)


def _meixner_functionals(m):
    """Gaps, shifted gaps, a bound above 1, and shifts past m whose empty
    rows carry factors other than 1."""
    return [
        MultiplicativeFunctional.indicator_gap(2),
        MultiplicativeFunctional.indicator_gap(5),
        MultiplicativeFunctional.indicator_gap(3, shift=1),
        MultiplicativeFunctional(lambda s: 1.5 if s == 2 else 1.0, bound=1.5),
        MultiplicativeFunctional(lambda s: 0.5 if s == 1 else 1.0, shift=m + 3),
        MultiplicativeFunctional(
            lambda s: 0.7 if s >= 0 and s % 2 == 0 else 1.0, shift=m + 2
        ),
    ]


@pytest.mark.parametrize(
    "m,n,q", [(1, 1, 0.5), (1, 3, 0.3), (2, 2, 0.5), (2, 5, 0.4), (3, 4, 0.25), (3, 6, 0.6)]
)
def test_det_discrete_on_the_meixner_kernel_matches_the_heine_sum(m, n, q):
    # the Meixner ensemble with m rows and n columns has the rank-m kernel
    # with k = n - m + 1; six functionals per ensemble, 36 cases in all
    kernel = MeixnerKernel(q, n - m + 1, m)
    for g in _meixner_functionals(m):
        det = det_discrete(kernel, g)
        heine = expectation(Meixner(m, n, q), g, tol=1e-13)
        assert det.converged
        assert abs(det.value - heine) <= det.tail_estimate, (g.shift, heine)


def test_result_certificate_fields():
    r = det_discrete(Bessel(1.0), MultiplicativeFunctional.indicator_gap(2), tol=1e-10)
    assert isinstance(r, FredholmResult)
    assert r.truncation_size > 0
    assert 0.0 <= r.tail_estimate < 1e-10
    assert r.converged


def test_gap_certificate_is_the_tail_trace():
    # sup|f| <= 1: the certificate is tailTrace = 2 diag_tail(X), which the
    # search has pushed below tol, also where the value itself is tiny
    kernel = Bessel(1e4)
    r = det_discrete(kernel, MultiplicativeFunctional.indicator_gap(160))
    assert r.value == pytest.approx(2.56e-25, rel=1e-2)
    assert r.converged
    cutoff = 160 + r.truncation_size - 1
    assert r.tail_estimate == 2.0 * kernel.diag_tail(cutoff) < 1e-10
    assert charlier_expectation_det(100, 15, MultiplicativeFunctional.indicator_gap(12)).converged


def test_certificate_above_unit_bound_stays_exponential():
    # sup|f| = 2 > 1: tailTrace exp(totalTrace + tailTrace)
    kernel = Bessel(4.0)
    g = MultiplicativeFunctional(lambda s: 2.0 if s >= 0 else 1.0, bound=2.0)
    r = det_discrete(kernel, g, tol=1e-8)
    cutoff = r.truncation_size - 1
    tail_trace = 3.0 * kernel.diag_tail(cutoff)
    total = math.fsum(kernel.eval(y, y) for y in range(cutoff + 1)) + tail_trace
    assert r.tail_estimate == pytest.approx(tail_trace * math.exp(total + tail_trace), rel=1e-12)
    assert r.tail_estimate > 2.0 * tail_trace
    assert r.converged


@pytest.mark.parametrize("alpha", [37.5, 400.0])
def test_truncated_gap_is_within_twice_the_tail(alpha):
    # |det_X - det| <= 2 diag_tail(X) for windows [n, X] cut by hand
    kernel = Bessel(alpha)
    n = round(2.0 * math.sqrt(alpha))
    full = det_discrete(kernel, MultiplicativeFunctional.indicator_gap(n))
    for cutoff in range(n, n + 40, 3):
        sites = list(range(n, cutoff + 1))
        det_x = float(np.linalg.det(np.eye(len(sites)) - kernel.matrix(sites)))
        gap = abs(det_x - full.value)
        assert gap <= 2.0 * kernel.diag_tail(cutoff) + full.tail_estimate, cutoff


@pytest.mark.parametrize("m,alpha,t", [(3, 1.0, 2), (2, 0.7, 1), (4, 2.0, 3)])
def test_charlier_determinant_matches_direct_word_law(m, alpha, t):
    det = charlier_expectation_det(alpha, m, MultiplicativeFunctional.indicator_gap(t))
    assert det.converged
    assert det.value == pytest.approx(word_gap(m, t, alpha=alpha), abs=1e-8)


def _scalar_eval_det(kernel, phi, sites, shift):
    """det(I + K_phi) assembled entry by entry from scalar eval."""
    mat = np.eye(len(sites)) + np.array(
        [[kernel.eval(x + shift, y + shift) * phi.phi(y) for y in sites] for x in sites]
    )
    return float(np.linalg.det(mat))


@pytest.mark.parametrize("alpha,n", [(1.0, 2), (37.5, 12), (37.5, 16)])
def test_det_discrete_equals_scalar_eval_determinant(alpha, n):
    kernel = Bessel(alpha)
    phi = MultiplicativeFunctional.indicator_gap(n)
    res = det_discrete(kernel, phi)
    # phi is nonzero exactly on the sites >= n
    sites = list(range(n, n + res.truncation_size))
    assert abs(res.value - _scalar_eval_det(kernel, phi, sites, 0)) <= 1e-13


@pytest.mark.parametrize("m,alpha,t", [(3, 1.0, 2), (20, 200.0, 44)])
def test_charlier_det_equals_scalar_eval_determinant(m, alpha, t):
    phi = MultiplicativeFunctional.indicator_gap(t)
    res = charlier_expectation_det(alpha, m, phi)
    sites = list(range(t, t + res.truncation_size))
    expected = _scalar_eval_det(CharlierKernel(m, alpha), phi, sites, m)
    assert abs(res.value - expected) <= 1e-13


def test_charlier_projection_diagonals_are_computed_once_per_call(monkeypatch):
    # the truncation search reaches site 77; the trace-identity tail sums
    # each site's projection diagonal once across its steps
    calls = []
    projection_eval = CharlierKernel.projection_eval

    def counted(self, x, y):
        calls.append((x, y))
        return projection_eval(self, x, y)

    monkeypatch.setattr(CharlierKernel, "projection_eval", counted)
    charlier_expectation_det(200.0, 20, MultiplicativeFunctional.indicator_gap(44))
    assert calls == [(h, h) for h in range(78)]


# ---------------------------------------------------------------------------
# continuum determinants


def test_tracy_widom_known_values():
    # reference digits from independent published evaluations of the
    # largest-eigenvalue edge law
    assert tracy_widom(-2.0) == pytest.approx(0.4132241425, abs=1e-7)
    assert tracy_widom(0.0) == pytest.approx(0.9693728283, abs=1e-7)


def test_tracy_widom_monotone_and_tight_tails():
    values = [tracy_widom(t) for t in (-3.0, -1.0, 0.0, 2.0)]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert values[-1] > 0.995
    assert values[0] < 0.1


@pytest.mark.parametrize("t", [-6.0, -7.0, -8.0, -9.0, -10.0])
def test_tracy_widom_left_tail_matches_the_asymptotic(t):
    # log F(s) = -|s|^3/12 - log|s|/8 + log(2)/24 + zeta'(-1) + 3/(64|s|^3)
    # + O(|s|^-6) (Deift-Its-Krasovsky 2008); compared in relative terms,
    # where the absolute tol of the Nystrom rule says nothing
    with mpmath.workdps(30):
        a = mpmath.mpf(-t)
        log_ref = (
            -(a**3) / 12
            - mpmath.log(a) / 8
            + mpmath.log(2) / 24
            + mpmath.zeta(-1, derivative=1)
            + 3 / (64 * a**3)
        )
        ref = float(mpmath.exp(log_ref))
    assert abs(tracy_widom(t) - ref) <= 1e-4 * ref


def test_tracy_widom_mean_and_variance():
    # published F_2 moments (Tracy-Widom 1994; Bornemann, Math. Comp. 2010),
    # from E X = b - int F and E X^2 = b^2 - 2 int t F over [-9, b]; the
    # tails left outside that interval weigh less than 1e-11
    lo, hi = -9.0, 6.0
    u, w = np.polynomial.legendre.leggauss(120)
    ts = 0.5 * (hi + lo) + 0.5 * (hi - lo) * u
    ws = 0.5 * (hi - lo) * w
    f = np.array([tracy_widom(float(t)) for t in ts])
    mean = hi - np.dot(ws, f)
    second = hi * hi - 2.0 * np.dot(ws, ts * f)
    assert mean == pytest.approx(-1.7710868074, abs=1e-9)
    assert second - mean * mean == pytest.approx(0.8131947928, abs=1e-9)


def test_finite_rank_edge_law_brackets_the_limit():
    # m = 8 eigenvalue edge law stays a proper distribution and is already
    # within a few thousandths of the limiting law at the origin
    vals = [det_continuum(HermiteKernel(8), t).value for t in (-2.0, 0.0, 2.0)]
    assert all(0.0 < v < 1.0 for v in vals)
    assert vals[0] < vals[1] < vals[2]
    assert abs(vals[1] - tracy_widom(0.0)) < 0.01


def test_det_continuum_requires_a_continuum_kernel():
    with pytest.raises(TypeError):
        det_continuum(Bessel(1.0), 0.0)


# ---------------------------------------------------------------------------
# joint laws


def test_bessel_joint_single_row_matches_gap_determinant():
    # threshold a on lam_1 - 1 is the gap indicator at a + 1
    for alpha, a in [(1.0, 2), (1.5, 3)]:
        joint = joint_rows(Bessel(alpha), IntervalSystem([float(a)]))
        gap = det_discrete(Bessel(alpha), MultiplicativeFunctional.indicator_gap(a + 1))
        assert joint == pytest.approx(gap.value, abs=1e-10)


def test_bessel_joint_equal_thresholds_collapse_to_single_row():
    j2 = joint_rows(Bessel(1.0), IntervalSystem([3.0, 3.0]))
    j1 = joint_rows(Bessel(1.0), IntervalSystem([3.0]))
    assert j2 == pytest.approx(j1, abs=1e-10)


def test_bessel_joint_monotone_in_each_threshold():
    base = joint_rows(Bessel(1.0), IntervalSystem([4.0, 3.0]))
    assert base <= joint_rows(Bessel(1.0), IntervalSystem([5.0, 3.0])) + 1e-10
    assert base >= joint_rows(Bessel(1.0), IntervalSystem([3.0, 3.0])) - 1e-10
    assert 0.0 <= base <= 1.0


def test_airy_joint_equal_thresholds_reproduce_the_marginal():
    assert joint_rows(AiryKernel(), IntervalSystem([0.0, 0.0])) == pytest.approx(
        tracy_widom(0.0), abs=1e-7
    )


def test_airy_joint_lies_between_the_bracketing_marginals():
    j = joint_rows(AiryKernel(), IntervalSystem([1.0, 0.0]))
    assert tracy_widom(0.0) - 1e-8 <= j <= tracy_widom(1.0) + 1e-8


def test_joint_rows_requires_bessel_or_airy():
    with pytest.raises(TypeError):
        joint_rows(HermiteKernel(4), IntervalSystem([0.0]))


# Cauchy-circle extraction: an oracle for the joint law that shares no step
# with the Janossy route but the kernel matrix, which comes from scipy here.


def _cauchy_joint(kmat: np.ndarray, labels: np.ndarray, k: int) -> float:
    """P[N_1 = 0, N_1 + N_2 <= 1, ...] for the points labelled 0, ..., k - 1
    by interval, by the trapezoid rule on the unit circle.

    D(t) = det(I - K + K T), T the diagonal with t_j on the points labelled
    j >= 1 and 0 on I_1, is sum_n P[N_1 = 0, N_2 = n_2, ...] t^n.  The rule
    with N roots of unity per variable returns the coefficient of t^n plus
    those of every m = n mod N, m != n, so the admissible sum is off by at
    most P[max_j N_j >= N] (aliasing bound).  D has degree at most the
    number of points labelled j in t_j, so N one above the largest of them
    makes the bound 0: the extraction is exact up to rounding.
    """
    v = k - 1
    nodes = max(k, max(np.count_nonzero(labels == j) for j in range(1, k)) + 1)
    roots = np.exp(2j * np.pi * np.arange(nodes) / nodes)
    eye = np.eye(len(labels))
    values = np.empty((nodes,) * v, dtype=complex)
    for idx in itertools.product(range(nodes), repeat=v):
        t = np.concatenate([[0.0], roots[list(idx)]])[labels]
        values[idx] = np.linalg.det(eye - kmat + kmat * t[None, :])
    coeff = np.fft.fftn(values) / nodes**v
    return math.fsum(coeff[n[1:]].real for n in admissible_counts(k))


def _labels(points, thresholds) -> np.ndarray:
    # interval index minus one: the number of thresholds at or above a point
    return np.array([sum(a >= p for a in thresholds) for p in points])


def _bessel_gram(alpha: float, floor: int):
    """Sites floor + 1, ..., X and B = A A^T with A[x, s] = J_{x+s}(2 sqrt a),
    s >= 1, from scipy; past X = z + 16 z^(1/3) + 40, z = 2 sqrt(alpha), the
    squares of J sum to far below 1e-40."""
    z = 2.0 * math.sqrt(alpha)
    top = int(math.ceil(z + 16.0 * z ** (1.0 / 3.0) + 40.0))
    sites = np.arange(floor + 1, top + 1)
    orders = sites[:, None] + np.arange(1, top - floor + 1)[None, :]
    a = np.where(orders <= top, jv(orders.astype(float), z), 0.0)
    return sites, a @ a.T


def _airy_nystrom(thresholds, n: int = 60):
    """Nodes with labels and the symmetrized Airy matrix, n Gauss-Legendre
    nodes on [a_1, max(a_1, 0) + 16] and on each finite interval, with
    scipy's Ai (Ai(16)^2 ~ 1e-37)."""
    u, w = leggauss(n)
    ends = [max(thresholds[0], 0.0) + 16.0, *thresholds]
    s = np.concatenate([0.5 * (hi + lo) + 0.5 * (hi - lo) * u for hi, lo in zip(ends, ends[1:])])
    weights = np.concatenate([0.5 * (hi - lo) * w for hi, lo in zip(ends, ends[1:])])
    ai, aip, _, _ = airy(s)
    with np.errstate(divide="ignore", invalid="ignore"):
        kmat = (np.outer(ai, aip) - np.outer(aip, ai)) / np.subtract.outer(s, s)
    np.fill_diagonal(kmat, aip * aip - s * ai * ai)
    root = np.sqrt(weights)
    return np.repeat(np.arange(len(thresholds)), n), root[:, None] * kmat * root[None, :]


# True values: the 40-digit mpmath Jacobi formula for the two-row Bessel
# laws, the Cauchy extraction otherwise.  The interpolation route this
# replaced gave -1.65e-2, -0.426, -6.7e-4 and -0.252 at the first four, and
# was off by 1.7e-6 and 3.7e-7 at the two k = 3 cases.
_WIDE = [
    (100.0, (25, 5), 7.917982455529822e-07),
    (1e4, (230, 150), 2.628199757192964e-33),
    (100.0, (25, 15, 5), 5.80546e-3),
    (400.0, (40, 30, 20), 6.0602e-4),
]


@pytest.mark.parametrize("alpha,thresholds,expected", _WIDE)
def test_bessel_joint_on_wide_intervals_matches_the_cauchy_oracle(alpha, thresholds, expected):
    value = joint_rows(Bessel(alpha), IntervalSystem(thresholds))
    sites, gram = _bessel_gram(alpha, thresholds[-1])
    oracle = _cauchy_joint(gram, _labels(sites, thresholds), len(thresholds))
    # the default tol 1e-8, plus the oracle's rounding
    assert abs(value - oracle) <= 1e-8 + 1e-13
    assert value == pytest.approx(expected, rel=1e-3)


@pytest.mark.parametrize("thresholds,expected", [((0.0, -6.0), 3.69e-4), ((-1.0, -8.0), 9.5e-12)])
def test_airy_joint_on_wide_intervals_matches_the_cauchy_oracle(thresholds, expected):
    value = joint_rows(AiryKernel(), IntervalSystem(thresholds))
    labels, kmat = _airy_nystrom(thresholds)
    oracle = _cauchy_joint(kmat, labels, len(thresholds))
    assert abs(value - oracle) <= 1e-8
    assert value == pytest.approx(expected, rel=1e-2)
    assert oracle == pytest.approx(expected, rel=1e-2)


def test_cauchy_oracle_matches_the_enumerated_two_row_law():
    # P[lam_1 <= 3, lam_2 <= 2] at alpha = 1, which criterion 11 checks
    # against exact enumeration
    sites, gram = _bessel_gram(1.0, 0)
    oracle = _cauchy_joint(gram, _labels(sites, (2, 0)), 2)
    assert oracle == pytest.approx(joint_rows(Bessel(1.0), IntervalSystem((2, 0))), abs=1e-14)


def test_bessel_joint_with_a_singular_window_is_zero():
    # x_1 >= -1 and x_2, x_3, x_4 >= -4 always, so four particles lie above
    # -5 and P[x_1 <= 0, x_2 <= -5] = 0; det(I - B) on the window is 0 up to
    # rounding, and the value must not come out negative or raise
    value = joint_rows(Bessel(1.0), IntervalSystem((0, -5)))
    assert -1e-14 <= value <= 1e-14
