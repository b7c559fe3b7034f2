"""Fredholm determinants for discrete and continuum correlation kernels.

Two settings share the same truncate-and-certify pattern:

* lattice operators K(x, y) phi(y) on the naturals.  One routine serves
  every lattice kernel, reading its origin, search start and empty rows
  from the kernel: it truncates where ``diag_tail`` certifies the neglected
  trace and takes det of ``kernel.matrix`` from LAPACK; the shift comes
  from the functional.  The Bessel joint law starts the same truncation
  search at the same site;
* integral operators on a half line (t, infinity), discretized by a
  Nystrom rule after the rational substitution s = t + c (1 + u)/(1 - u)
  and symmetrized as det(I - W^{1/2} K W^{1/2}), with the kernel in its
  edge frame; one node-doubling loop serves the marginal and the joint law.

On top of the determinants sit the distribution of the largest particle
(the Tracy-Widom law for the Airy kernel) and the joint law of the first
k particles, a sum of Janossy densities det(I - K) det M_SS with
M = (I - K)^{-1} K from one LU factorization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.linalg import lu_factor, lu_solve

from . import kernels
from .ensembles import MultiplicativeFunctional
from .specfun import ConvergenceError

_NYSTROM_OFFSET = 10.0
_NYSTROM_START = 40
_NYSTROM_CAP = 640
# steps of 4 sites the truncation search takes before giving up
_TRUNCATION_STEPS = 4000


@dataclass(frozen=True)
class FredholmResult:
    """A determinant value together with its truncation certificate."""

    value: float
    truncation_size: int
    tail_estimate: float
    converged: bool


@dataclass(frozen=True)
class IntervalSystem:
    """Thresholds a_1 >= ... >= a_k splitting (a_k, infinity) into
    I_1 = (a_1, inf) and I_{j+1} = (a_{j+1}, a_j]."""

    thresholds: tuple

    def __init__(self, thresholds):
        object.__setattr__(self, "thresholds", tuple(float(a) for a in thresholds))
        if not self.thresholds:
            raise ValueError("at least one threshold is required")
        for hi, lo in zip(self.thresholds, self.thresholds[1:]):
            if lo > hi:
                raise ValueError("thresholds must be weakly decreasing")

    @property
    def k(self) -> int:
        return len(self.thresholds)

    def labels(self, points) -> np.ndarray:
        """The number of thresholds at or above each point: j - 1 for a
        point in I_j, k for a point at or below a_k."""
        a = np.array(self.thresholds)
        return np.count_nonzero(a[None, :] >= np.asarray(points, dtype=float)[:, None], axis=1)

    def interval_index(self, x: float):
        """1-based index of the interval containing x, None if x <= a_k."""
        label = int(self.labels([x])[0])
        return label + 1 if label < self.k else None


def admissible_counts(k: int):
    """Count vectors n in N^k with sum_{j<=r} n_j <= r - 1 for every r."""
    out = []

    def extend(prefix, partial_sum):
        r = len(prefix)
        if r == k:
            out.append(tuple(prefix))
            return
        for n in range(r - partial_sum + 1):
            extend(prefix + [n], partial_sum + n)

    extend([], 0)
    return out


# ---------------------------------------------------------------------------
# Discrete determinants


def _truncation_point(kernel, shift: int, start: int, goal: float):
    """First X in start, start + 4, ... whose diagonal tail
    sum_{y > X} K(y + shift, y + shift) is below goal, and that tail."""
    x = start
    for _ in range(_TRUNCATION_STEPS):
        tail = kernel.diag_tail(x + shift)
        if tail < goal:
            return x, tail
        x += 4
    raise ConvergenceError("diagonal tail did not fall below the tolerance")


def _lattice_det(kernel, phi, tol: float):
    """det(I + K_phi) over the sites y >= 0, K_phi(x, y) = K(x + s, y + s)
    phi(y) with s = origin - phi.shift, so that a particle at h stands for
    the site h - s.  On the naturals the sites y + s < 0 are empty rows: no
    particle, a factor f(y) each.  The lattice is truncated at the first X
    where tailTrace, the diagonal tail times 1 + sup|f|, drops below tol.
    The process restricted to h <= X has the restricted kernel, so det_trunc
    is E prod_{h <= X} f(h): when sup|f| <= 1 it differs from det only if a
    particle lies above X, by at most 1 + sup|f|, and tailTrace bounds the
    error; otherwise tailTrace * exp(totalTrace + tailTrace) does.
    """
    shift = kernel._origin - phi.shift
    lowest = max(0, -shift)
    first = lowest if kernel.domain == "naturals" else 0
    start = lowest + int(math.ceil(2.0 * kernel._cd_const)) + 8
    norm = phi.bound + 1.0
    cutoff, tail = _truncation_point(kernel, shift, start, tol / max(norm, 1.0))
    sites = range(first, cutoff + 1)
    values = [phi.phi(y) for y in sites]
    points = [y for y, w in zip(sites, values) if w != 0.0]
    weights = np.array([w for w in values if w != 0.0], dtype=float)
    kmat = kernel.matrix([y + shift for y in points])
    tail_trace = tail * norm
    bound = tail_trace
    if phi.bound > 1.0:
        total_trace = math.fsum(abs(k * w) for k, w in zip(np.diag(kmat), weights)) + tail_trace
        bound *= math.exp(total_trace + tail_trace)
    # with no points the matrix is 0 x 0 and its determinant 1
    value = float(np.linalg.det(np.eye(len(points)) + kmat * weights))
    empty = math.prod(phi.f(y) for y in reversed(range(first)))
    bound = abs(empty) * bound
    return FredholmResult(empty * value, len(points), bound, bound < tol)


def det_discrete(
    kernel, phi: MultiplicativeFunctional, tol: float = 1e-10
) -> FredholmResult:
    """det(I + K_phi) on l2(N), K_phi(x, y) = K(x + s, y + s) phi(y), for
    a lattice kernel with a ``diag_tail``: Bessel (origin 0, particles
    lam_i - i) or a rank-m Charlier or Meixner kernel (origin m, particles
    lam_i + m - i); s = origin - L with L = ``phi.shift``.

    This is the expectation of prod_i f(lam_i + L - i).  The empty rows
    m < i <= L of a rank-m kernel give factors f(L - i), which multiply the
    value and its certificate.  The search starts 2 a_m + 8 sites above the
    lowest site, a_m the Christoffel-Darboux constant (sqrt(alpha) for
    Bessel and Charlier), and truncates where tailTrace, the diagonal tail
    sum times 1 + sup|f|, drops below tol; tailTrace certifies the neglected
    part when sup|f| <= 1, and tailTrace * exp(totalTrace + tailTrace)
    otherwise.

    Bessel, relative error of F = P[lam_1 <= n] at alpha = 400 against
    Gessel's Toeplitz determinant: 1e-12 at F = 0.97, 1e-11 at 8.8e-3, 1e-8
    at 1.2e-17, 1e-5 at 5.8e-31; none below F ~ 1e-40 (1.1e3 at n = 8, F = 8.1e-79).
    """
    if not hasattr(kernel, "diag_tail"):
        raise TypeError("det_discrete expects a lattice kernel with a diagonal tail")
    return _lattice_det(kernel, phi, tol)


def charlier_expectation_det(
    alpha: float, m: int, phi: MultiplicativeFunctional, tol: float = 1e-10
) -> FredholmResult:
    """``det_discrete`` on the rank-m Charlier kernel: the expectation of
    prod_i f(lam_i + L - i), L = ``phi.shift``, over the Charlier ensemble
    with m rows."""
    return _lattice_det(kernels.CharlierKernel(m, alpha), phi, tol)


# ---------------------------------------------------------------------------
# Continuum determinants (Nystrom)


def _edge_kernel_on_nodes(kernel, s: np.ndarray) -> np.ndarray:
    """Edge-scaled kernel matrix sigma K(nu + sigma s_i, nu + sigma s_j)."""
    nu, sigma = kernels._edge_frame(kernel)
    return sigma * kernel.matrix(nu + sigma * s)


def _halfline_nodes(t: float, n: int):
    """Gauss-Legendre nodes and weights for (t, inf) under the rational map."""
    u, w = leggauss(n)
    c = _NYSTROM_OFFSET
    s = t + c * (1.0 + u) / (1.0 - u)
    ds = 2.0 * c / (1.0 - u) ** 2
    return s, w * ds


def _det_value(kernel, t: float, n: int) -> float:
    s, weights = _halfline_nodes(t, n)
    kmat = _edge_kernel_on_nodes(kernel, s)
    root = np.sqrt(weights)
    sym = np.eye(n) - kmat * np.outer(root, root)
    return float(np.linalg.det(sym))


def _doubled(value_at, tol: float):
    """Double the node count from 40 until two resolutions agree within
    tol; return (value, nodes, change)."""
    n = _NYSTROM_START
    prev = value_at(n)
    while n < _NYSTROM_CAP:
        n *= 2
        value = value_at(n)
        change = abs(value - prev)
        if change < tol:
            return value, n, change
        prev = value
    raise ConvergenceError("Nystrom value did not stabilize")


def det_continuum(kernel, t: float, tol: float = 1e-8) -> FredholmResult:
    """det(I - K)|_{L^2(t, inf)} by a symmetrized Nystrom rule, for a
    kernel on the reals in its edge scaling (Airy or Hermite).

    Node count doubles from 40 until two resolutions agree within tol, so
    tol is an absolute accuracy.  Values below about 1e-40 (t < -10 for the
    Airy kernel) have no relative accuracy: F(-12) comes out as 2.4e-63
    where the left-tail asymptotic gives 1.85e-63.
    """
    if kernel.domain != "reals":
        raise TypeError("det_continuum expects the Airy or Hermite kernel")
    value, n, change = _doubled(lambda n: _det_value(kernel, t, n), tol)
    return FredholmResult(value, n, change, True)


def tracy_widom(t: float, tol: float = 1e-8) -> float:
    """F(t) = det(I - A)|_{L^2(t, inf)} for the Airy kernel, to absolute
    accuracy tol; see ``det_continuum`` for the deep left tail."""
    return det_continuum(kernels.AiryKernel(), t, tol).value


# ---------------------------------------------------------------------------
# Joint law of the first k particles


def _truncated_product(p: dict, q: dict, degree: int) -> dict:
    """Product of two polynomials {exponent tuple: coefficient}, keeping the
    monomials of total degree at most ``degree``."""
    out = {}
    for ep, cp in p.items():
        for eq, cq in q.items():
            e = tuple(a + b for a, b in zip(ep, eq))
            if sum(e) <= degree:
                out[e] = out.get(e, 0.0) + cp * cq
    return out


def _janossy_sum(m: np.ndarray, labels: np.ndarray, k: int) -> float:
    """sum_S det M_SS over the sets S the thresholds admit, for M on the
    sites below a_1 labelled 1, ..., k - 1 by interval.

    det(I + M T), T the diagonal with t_j on the sites labelled j, is the
    generating function of the Janossy sums; its coefficients of total
    degree below k are those of exp(sum_{p<k} (-1)^(p+1) tr((M T)^p) / p),
    and the admissible ones are summed.  For k = 2 this is 1 + tr M.
    """
    v = k - 1
    zero = (0,) * v
    # block[i][j] is M on interval i + 2 times interval j + 2; a product
    # along j_1, ..., j_p closes into tr(M_{j1 j2} ... M_{jp j1})
    rows = [np.nonzero(labels == j + 1)[0] for j in range(v)]
    block = [[m[np.ix_(r, c)] for c in rows] for r in rows]
    log = {}
    level = {(j,): np.eye(len(rows[j])) for j in range(v)}
    for p in range(1, k):
        if p > 1:
            level = {
                seq + (j,): prod @ block[seq[-1]][j] for seq, prod in level.items() for j in range(v)
            }
        for seq, prod in level.items():
            e = tuple(seq.count(j) for j in range(v))
            trace = float(np.sum(prod * block[seq[-1]][seq[0]].T))
            log[e] = log.get(e, 0.0) + (-1) ** (p + 1) * trace / p
    total, power = {zero: 1.0}, {zero: 1.0}
    for q in range(1, k):
        power = _truncated_product(power, log, v)
        for e, c in power.items():
            total[e] = total.get(e, 0.0) + c / math.factorial(q)
    return math.fsum(total.get(n[1:], 0.0) for n in admissible_counts(k))


def _joint_from_matrix(base: np.ndarray, labels: np.ndarray, k: int) -> float:
    """The joint law for the operator matrix ``base`` = K on points labelled
    0, ..., k - 1 by interval: det(I - K) times the Janossy sum of
    M = (I - K)^{-1} K, from one LU of I - K.  Only the columns of M on the
    points below a_1 are solved for; a determinant that is 0 in floating
    point gives 0."""
    n = len(labels)
    lu, piv = lu_factor(np.eye(n) - base, check_finite=False)
    det = float(np.prod(np.diag(lu)))
    if np.count_nonzero(piv != np.arange(n)) % 2:
        det = -det
    below = np.nonzero(labels > 0)[0]
    if det == 0.0 or len(below) == 0:
        return det
    m = lu_solve((lu, piv), base[:, below], check_finite=False)[below]
    return det * _janossy_sum(m, labels[below], k)


def _joint_discrete(kernel: kernels.Bessel, sys: IntervalSystem, tol: float):
    a = sys.thresholds
    goal = tol / (2.0 * sys.k + 1.0)
    start = int(math.ceil(2.0 * kernel._cd_const)) + 8
    cutoff, _ = _truncation_point(kernel, 0, start, goal)
    points = np.arange(int(math.floor(a[-1])) + 1, cutoff + 1)
    return _joint_from_matrix(kernel.matrix(points), sys.labels(points), sys.k)


def _joint_airy_nodes(sys: IntervalSystem, n: int):
    """Nodes and weights covering (a_k, inf), n on each interval."""
    a = sys.thresholds
    s, w = _halfline_nodes(a[0], n)
    s_all, w_all = [s], [w]
    u0, w0 = leggauss(n)
    for j in range(1, len(a)):
        lo, hi = a[j], a[j - 1]
        if hi - lo <= 0.0:
            continue
        half = 0.5 * (hi - lo)
        s_all.append(0.5 * (hi + lo) + half * u0)
        w_all.append(half * w0)
    return np.concatenate(s_all), np.concatenate(w_all)


def _joint_airy_value(kernel, sys: IntervalSystem, n: int) -> float:
    s, w = _joint_airy_nodes(sys, n)
    root = np.sqrt(w)
    weighted = _edge_kernel_on_nodes(kernel, s) * np.outer(root, root)
    return _joint_from_matrix(weighted, sys.labels(s), sys.k)


def joint_rows(kernel, sys: IntervalSystem, tol: float = 1e-8) -> float:
    """P[x^(1) <= a_1, ..., x^(k) <= a_k] for the ordered particles of the
    determinantal process with the given kernel.

    With N_j the particle count in I_1 = (a_1, inf) and
    I_j = (a_j, a_{j-1}], the event is N_1 + ... + N_r <= r - 1 for every r.
    Its probability is a sum of Janossy densities (Borodin-Soshnikov,
    J. Stat. Phys. 2003): det(I - K) sum_S det M_SS with M = (I - K)^{-1} K,
    S over the sets of sites below a_1 that the thresholds admit, from one
    LU factorization of I - K on (a_k, inf).  For k = 2 the sum is
    1 + tr M on I_2, Jacobi's formula.

    For the Bessel kernel the particles are lam_i - i of the Poissonized
    measure, on the sites above a_k up to the truncation X that the gap
    determinants use: the search starts at the same site, 2 sqrt(alpha) + 8,
    and stops where the diagonal tail, which bounds the change of the value,
    is below tol / (2k + 1).  For the Airy kernel this is the joint edge
    law, on Nystrom nodes doubled from 40 until two values agree within
    tol.
    """
    if not isinstance(kernel, (kernels.Bessel, kernels.AiryKernel)):
        raise TypeError("joint_rows supports the Bessel and Airy kernels")
    if kernel.domain == "integers":
        return _joint_discrete(kernel, sys, tol)
    value, _, _ = _doubled(lambda n: _joint_airy_value(kernel, sys, n), tol)
    return value
