"""Correlation kernels for discrete orthogonal polynomial ensembles and
their scaling limits.

Each kernel is a small frozen descriptor.  The Bessel, Charlier, Meixner,
Hermite and Airy kernels have Christoffel-Darboux form: each supplies a
pair (u(x), v(x)) of weighted functions, a constant and a diagonal
formula, and one shared quotient const (u(x) v(y) - v(x) u(y)) / (x - y)
gives both ``eval(x, y)`` and ``matrix(points)``, the whole kernel matrix
on a point list, entry for entry equal to ``eval``.  Diagonal values use
analytically differentiated forms, a projection sum or a sum of squares
(never a numeric limit of the quotient, which is 0/0 there).  The lattice
kernels also give ``diag_tail(x)``, the trace sum_{y > x} K(y, y) that
certifies a truncated Fredholm determinant.  The Charlier and Meixner
kernels share one rank-m projection base, with its stable dual route below
the band.
The discrete Bessel kernel reads its pair, its diagonal, its trace tail
and its series from one vector of J over the integer orders per alpha,
and its matrix indexes that vector at every point at once; the
order-derivative diagonal stays as its cross-check.  The Charlier
kernel has projection and contour routes, and the Airy kernel an integral
representation; the pairs of routes are kept separate so they can be
cross-checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import specfun
from ._util import log_binomial, log_factorial
from .specfun import ConvergenceError

__all__ = [
    "Bessel",
    "CharlierKernel",
    "MeixnerKernel",
    "HermiteKernel",
    "AiryKernel",
    "SineKernel",
    "DiscreteSineKernel",
    "bessel_series",
    "bessel_diag_tail",
    "airy_integral",
    "scaled_edge",
    "edge_coordinates",
    "bulk_scaled",
    "intermediate_scaled",
    "round_half_up",
]

_NEAR_DIAGONAL = 1e-6


def round_half_up(z: float) -> int:
    return int(math.floor(z + 0.5))


def _require_int(v, name: str) -> int:
    if not isinstance(v, (int,)) or isinstance(v, bool):
        raise TypeError(f"{name} must be an integer lattice point, got {v!r}")
    return v


# ---------------------------------------------------------------------------
# Weighted orthonormal recurrences
#
# phi_n(x) = p_n(x) sqrt(w(x)) with p_n orthonormal satisfies
#   x phi_n = a_{n+1} phi_{n+1} + b_n phi_n + a_n phi_{n-1}.
# Values are carried as mantissa * 2**e; the true phi_n are bounded by 1,
# so only the seed sqrt(w(x)) and transient growth need the scaling.


def _weighted_recurrence(x, count, log_w, a_fn, b_fn):
    """Return ([phi_0(x), ..., phi_{count-1}(x)], (phi_{count-1}(x), phi_count(x))).

    The column entries are read as the recurrence passes them, the trailing
    pair from its final scaled state.
    """
    ln2 = math.log(2.0)
    e = int(math.floor(0.5 * log_w / ln2))
    p_prev = 0.0
    p_cur = math.exp(0.5 * log_w - e * ln2)
    column = []
    for n in range(count):
        column.append(math.ldexp(p_cur, e) if -1074 < e < 1024 else 0.0)
        nxt = ((x - b_fn(n)) * p_cur - a_fn(n) * p_prev) / a_fn(n + 1)
        p_prev, p_cur = p_cur, nxt
        mag = max(abs(p_cur), abs(p_prev))
        if mag > 0.0 and not (2.0**-500 < mag < 2.0**500):
            shift = int(math.floor(math.log2(mag)))
            p_prev = math.ldexp(p_prev, -shift)
            p_cur = math.ldexp(p_cur, -shift)
            e += shift
    lo = math.ldexp(p_prev, e) if -1074 < e < 1024 else 0.0
    hi = math.ldexp(p_cur, e) if -1074 < e < 1024 else 0.0
    return column, (lo, hi)


# ---------------------------------------------------------------------------
# Christoffel-Darboux form


def _christoffel_darboux(const, x, ux, vx, y, uy, vy):
    """const (u(x) v(y) - v(x) u(y)) / (x - y), on floats or broadcast arrays."""
    return const * (ux * vy - vx * uy) / (x - y)


class _ChristoffelDarboux:
    """Shared ``eval`` and ``matrix`` of a kernel in Christoffel-Darboux form.

    A subclass supplies ``_pair(x) = (u(x), v(x))``, the constant
    ``_cd_const`` and the diagonal formula ``_diagonal(x)``.  On the reals
    the diagonal formula also serves pairs closer than _NEAR_DIAGONAL, at
    their midpoint, where the quotient is 0/0 up to rounding.
    """

    def _site(self, x):
        if self.domain == "reals":
            return x
        x = _require_int(x, "x")
        if self.domain == "naturals" and x < 0:
            raise ValueError(f"{type(self).__name__} arguments must be nonnegative")
        return x

    @property
    def _near_diagonal(self) -> float:
        # on a lattice |x - y| < 1/2 only when x == y
        return _NEAR_DIAGONAL if self.domain == "reals" else 0.5

    def _diagonal_near(self, x, y) -> float:
        # 0.5 (x + x) is x exactly, so an exact diagonal pair needs no midpoint
        return self._diagonal(x if x == y else 0.5 * (x + y))

    def eval(self, x, y) -> float:
        x, y = self._site(x), self._site(y)
        if abs(x - y) < self._near_diagonal:
            return self._diagonal_near(x, y)
        return _christoffel_darboux(self._cd_const, x, *self._pair(x), y, *self._pair(y))

    def matrix(self, points) -> np.ndarray:
        """[K(x, y)] for x (rows) and y (columns) in points, equal to eval
        entry for entry, with each point's pair evaluated once."""
        pts = [self._site(p) for p in points]
        u, v = np.array([self._pair(p) for p in pts], dtype=float).reshape(-1, 2).T
        col = np.array(pts)[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            mat = _christoffel_darboux(
                self._cd_const, col, u[:, None], v[:, None], col.T, u[None, :], v[None, :]
            )
        for i, j in zip(*np.nonzero(np.abs(col - col.T) < self._near_diagonal)):
            mat[i, j] = self._diagonal_near(pts[i], pts[j])
        return mat


# ---------------------------------------------------------------------------
# Kernel descriptors


@lru_cache(maxsize=16)
def _bessel_orders(alpha: float):
    """(lo, J, T1, T2), read-only: J_n = J_n(2 sqrt(alpha)) at the orders
    n = lo, ..., -lo, then one order with J = 0, and the tails
    T1(n) = sum_{k >= n} J_k^2 and T2(n) = sum_{k >= n} T1(k); entry i is
    order lo + i.

    The orders are those of ``specfun.bessel_j_orders``, every order whose
    square of J is representable, mirrored by J_{-k} = (-1)^k J_k.  Summed
    from the top down, the small terms go in first.
    """
    j = specfun.bessel_j_orders(alpha)
    two_sided = np.concatenate([(-1.0) ** np.arange(len(j) - 1, 0, -1) * j[:0:-1], j, [0.0]])
    t1 = np.cumsum((two_sided**2)[::-1])[::-1]
    t2 = np.cumsum(t1[::-1])[::-1]
    for arr in (two_sided, t1, t2):
        arr.flags.writeable = False
    return 1 - len(j), two_sided, t1, t2


@dataclass(frozen=True)
class Bessel(_ChristoffelDarboux):
    """Discrete Bessel kernel on the integer lattice, parameter alpha > 0.

    Off the diagonal,
        B(x, y) = sqrt(a) [J_x J_{y+1} - J_{x+1} J_y] / (x - y)
    with J_n = J_n(2 sqrt(a)), and B(x, x) = sum_{s>=1} J_{x+s}^2.  Both,
    and ``diag_tail``, are read from one J vector per alpha and its summed
    squares; orders past it hold J = 0.  The limit of the quotient, by the
    order derivative of J, is the diagonal's cross-check route.
    """

    alpha: float
    domain = "integers"
    _origin = 0

    def __post_init__(self):
        if not self.alpha > 0.0:
            raise ValueError("alpha must be positive")

    @property
    def _cd_const(self) -> float:
        return math.sqrt(self.alpha)

    def _pair(self, x: int):
        lo, j, _, _ = _bessel_orders(self.alpha)
        return tuple(float(j[i]) if 0 <= i < len(j) else 0.0 for i in (x - lo, x + 1 - lo))

    def _diagonal(self, x: int) -> float:
        # T1 at order x + 1; below the orders it is the sum of all squares
        lo, _, t1, _ = _bessel_orders(self.alpha)
        return float(t1[min(max(x + 1 - lo, 0), len(t1) - 1)])

    def matrix(self, points) -> np.ndarray:
        """[B(x, y)] on a list or array of integer sites, equal to eval entry
        for entry: the pair and the diagonal are read by indexing into the
        J vector and its T1 tail, with J = 0 at orders past the vector."""
        pts = np.asarray(points)
        if pts.size and pts.dtype.kind not in "iu":
            raise TypeError(f"x must be an integer lattice point, got {points!r}")
        pts = pts.astype(np.int64).reshape(-1)
        lo, j, t1, _ = _bessel_orders(self.alpha)

        def at(orders):
            i = orders - lo
            return np.where((i >= 0) & (i < len(j)), j[np.clip(i, 0, len(j) - 1)], 0.0)

        u, v = at(pts), at(pts + 1)
        col = pts[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            mat = _christoffel_darboux(
                self._cd_const, col, u[:, None], v[:, None], col.T, u[None, :], v[None, :]
            )
        diagonal = t1[np.clip(pts + 1 - lo, 0, len(t1) - 1)]
        return np.where(col == col.T, diagonal[:, None], mat)

    def diag_tail(self, x: int) -> float:
        """sum_{y > x} B(y, y)."""
        return bessel_diag_tail(self.alpha, x)


class _LatticeProjection(_ChristoffelDarboux):
    """Rank-m projection kernel K(x, y) = sum_{n<m} phi_n(x) phi_n(y) on the
    naturals, phi_n = p_n sqrt(w) the weighted orthonormal functions of a
    discrete orthogonal polynomial ensemble.

    A subclass supplies ``m``, ``_log_weight``, the recurrence coefficients
    ``_a_fn`` and ``_b_fn``, and ``_crest``.  The Christoffel-Darboux
    constant is a_m, the diagonal is the projection sum, and the particles
    lam_i + m - i have origin m.

    The orthonormal functions phi_n(x) are exponentially small when x lies
    far below the oscillatory band of degree n, and there the upward degree
    recurrence is unstable (the wanted solution is the recessive one).  In
    that wedge values are obtained through the degree-argument symmetry
    phi_n(x) = (-1)^(n+x) phi_x(n), which needs only a short recurrence of
    degree x at an argument above its band.  ``_crest(x)`` is the highest
    degree the upward recurrence at argument x can reach while the target is
    still at or before the crest of n -> |phi_n(x)|.
    """

    domain = "naturals"

    @property
    def _cd_const(self) -> float:
        return self._a_fn(self.m)

    @property
    def _origin(self) -> int:
        return self.m

    def _upward(self, x: int, count: int):
        return _weighted_recurrence(float(x), count, self._log_weight(x), self._a_fn, self._b_fn)

    def _phi_dual(self, n: int, x: int) -> float:
        # phi_n(x) for n past the crest, via phi_n(x) = (-1)^(n+x) phi_x(n).
        sgn = -1.0 if (n + x) & 1 else 1.0
        _, (_, val) = self._upward(n, x)
        return sgn * val

    def _pair(self, x: int):
        """Return (phi_m(x), phi_{m-1}(x)) by a stable route."""
        if self.m <= self._crest(x):
            _, (lo, hi) = self._upward(x, self.m)
            return hi, lo
        return self._phi_dual(self.m, x), self._phi_dual(self.m - 1, x)

    def _phi_column(self, x: int):
        """Return [phi_0(x), ..., phi_{m-1}(x)] by stable routes."""
        upward = min(self.m, self._crest(x) + 1)
        column, _ = self._upward(x, upward)
        return column + [self._phi_dual(n, x) for n in range(upward, self.m)]

    def _diagonal(self, x: int) -> float:
        return math.fsum(p * p for p in self._phi_column(x))

    def projection_eval(self, x: int, y: int) -> float:
        """Independent route: the projection sum sum_{n<m} phi_n(x) phi_n(y),
        valid on and off the diagonal."""
        x, y = self._site(x), self._site(y)
        cx = self._phi_column(x)
        cy = cx if y == x else self._phi_column(y)
        return math.fsum(px * py for px, py in zip(cx, cy))

    @cached_property
    def _projection_diagonals(self) -> dict:
        # site h -> K(h, h) by the projection sum, filled in by diag_tail
        return {}

    def diag_tail(self, x: int) -> float:
        """sum_{h > x} K(h, h), exact via the rank-m trace identity.

        Each projection diagonal is computed once per kernel instance; fsum
        is correctly rounded, so the kept values give the same tail as
        summing afresh.
        """
        if x < 0:
            return float(self.m)
        diagonals = self._projection_diagonals
        for h in range(x + 1):
            if h not in diagonals:
                diagonals[h] = self.projection_eval(h, h)
        return max(0.0, self.m - math.fsum(diagonals[h] for h in range(x + 1)))


@dataclass(frozen=True)
class CharlierKernel(_LatticeProjection):
    """Charlier kernel on the naturals: rank-m projection onto the span of
    the first m orthonormal Charlier functions with parameter a = alpha/m.

    Off-diagonal values come from the Christoffel-Darboux quotient with
    constant sqrt(alpha).  Diagonal values use the contour form (circle
    integrals of four bounded auxiliaries plus a branch-cut correction);
    when that form loses too many digits to cancellation, overflows, or
    fails to converge, the exact projection sum is used instead.
    """

    m: int
    alpha: float

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be a positive integer")
        if not self.alpha > 0.0:
            raise ValueError("alpha must be positive")

    @property
    def a(self) -> float:
        return self.alpha / self.m

    @property
    def _cd_const(self) -> float:
        # a_m exactly: the base's sqrt(m (alpha / m)) can be a bit off
        return math.sqrt(self.alpha)

    def _log_weight(self, x: int) -> float:
        a = self.a
        return -a + x * math.log(a) - log_factorial(x)

    def _a_fn(self, n: int) -> float:
        return math.sqrt(n * self.a)

    def _b_fn(self, n: int) -> float:
        return n + self.a

    def _crest(self, x: int) -> int:
        return int(math.ceil(x + 2.0 * math.sqrt(self.a * (x + 1.0)))) + 4

    def contour_eval(self, x: int, y: int) -> float:
        """Off-diagonal value from the circle-integral auxiliaries.

        Cross-check route.  Cancellation between the two products grows
        rapidly once an argument drops far below m, so compare against the
        projection route only near or above the band edge.
        """
        if x == y:
            return self.contour_diag(x)
        m, alpha = self.m, self.alpha
        ax = specfun.charlier_auxiliary_A(m, alpha, x)
        ay = specfun.charlier_auxiliary_A(m, alpha, y)
        d1x = specfun.charlier_contour_D(m, alpha, x, 1)
        d2x = specfun.charlier_contour_D(m, alpha, x, 2)
        d1y = specfun.charlier_contour_D(m, alpha, y, 1)
        d2y = specfun.charlier_contour_D(m, alpha, y, 2)
        return math.sqrt(ax * ay) * (d1x * d2y - d2x * d1y) / (x - y)

    def _contour_diag_pieces(self, x: int):
        m, alpha = self.m, self.alpha
        ax = specfun.charlier_auxiliary_A(m, alpha, x)
        d1, n1 = specfun.charlier_contour_D_witherr(m, alpha, x, 1)
        d2, n2 = specfun.charlier_contour_D_witherr(m, alpha, x, 2)
        d3, n3 = specfun.charlier_contour_D_witherr(m, alpha, x - 1, 3)
        d4, n4 = specfun.charlier_contour_D_witherr(m, alpha, x - 1, 4)
        f1, nf1 = specfun.charlier_cut_F_witherr(m, alpha, x, 1)
        f2, nf2 = specfun.charlier_cut_F_witherr(m, alpha, x, 2)
        val = ax * (d2 * d3 - d1 * d4) + ax * (f1 * d2 - f2 * d1)
        scale = ax * (
            abs(d2 * d3) + abs(d1 * d4) + abs(f1 * d2) + abs(f2 * d1)
        )
        # First-order propagation of each quadrature's own noise, plus the
        # roundoff left by cancellation between the assembled products.
        err = ax * (
            abs(d2) * n3 + abs(d3) * n2 + abs(d1) * n4 + abs(d4) * n1
            + abs(f1) * n2 + nf1 * abs(d2) + abs(f2) * n1 + nf2 * abs(d1)
        ) + 8e-16 * scale
        return val, err

    def contour_diag(self, x: int) -> float:
        """Diagonal value from the differentiated contour form: circle
        integrals of the logarithmic auxiliaries at argument x-1 plus the
        branch-cut correction terms.

        Cross-check route; accuracy degrades once x drops far below m.
        """
        return self._contour_diag_pieces(x)[0]

    def _diagonal(self, x: int) -> float:
        try:
            val, err = self._contour_diag_pieces(x)
        except (OverflowError, ConvergenceError):
            val, err = None, math.inf
        # A projection diagonal lies in [0, 1]; the contour value is used
        # only when its propagated noise estimate is negligible, otherwise
        # the exact projection sum takes over.
        ok = (
            val is not None
            and math.isfinite(val)
            and -1e-9 <= val <= 1.0 + 1e-9
            and err <= 1e-11
        )
        if not ok:
            return super()._diagonal(x)
        return val


@dataclass(frozen=True)
class MeixnerKernel(_LatticeProjection):
    """Meixner kernel on the naturals: rank-m projection built from the
    orthonormal functions for the weight binom(x+k-1, x) q^x."""

    q: float
    k: int
    m: int

    def __post_init__(self):
        if not 0.0 < self.q < 1.0:
            raise ValueError("q must lie in (0, 1)")
        if self.k < 1 or self.m < 1:
            raise ValueError("k and m must be positive integers")

    def _log_weight(self, x: int) -> float:
        # normalized so the seed sqrt(w) is the degree-zero orthonormal
        # function; without the (1-q)^k mass factor every phi_n picks up a
        # spurious constant and the diagonal is no longer a projection's
        return (
            log_binomial(x + self.k - 1, x)
            + x * math.log(self.q)
            + self.k * math.log1p(-self.q)
        )

    def _a_fn(self, n: int) -> float:
        return math.sqrt(n * (n + self.k - 1) * self.q) / (1.0 - self.q)

    def _b_fn(self, n: int) -> float:
        return (n + (n + self.k) * self.q) / (1.0 - self.q)

    def _crest(self, x: int) -> int:
        # degree at which the lower band edge b_n - 2 a_n passes x
        q, k, rq = self.q, self.k, math.sqrt(self.q)
        edge = (x * (1.0 - q) - k * q + (k - 1) * rq) / (1.0 - rq) ** 2
        return max(0, int(math.ceil(edge)) + 4)


@dataclass(frozen=True)
class HermiteKernel(_ChristoffelDarboux):
    """Hermite kernel on the reals built from the harmonic oscillator
    functions psi_n; the rank-m projection kernel of the squared-Vandermonde
    Gaussian ensemble."""

    m: int
    domain = "reals"

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be a positive integer")

    @property
    def _cd_const(self) -> float:
        return math.sqrt(self.m / 2.0)

    def _pair(self, x: float):
        psi_m1, psi_m = specfun.hermite_psi(self.m, x)
        return psi_m, psi_m1

    def _diagonal(self, x: float) -> float:
        m = self.m
        psi_m1, psi_m = specfun.hermite_psi(m, x)
        term = math.sqrt(2.0 * m) * psi_m1 * psi_m1
        if m >= 2:
            psi_m2 = specfun.hermite_psi(m - 1, x)[0]
            term -= math.sqrt(2.0 * (m - 1)) * psi_m2 * psi_m
        return self._cd_const * term


@dataclass(frozen=True)
class AiryKernel(_ChristoffelDarboux):
    """Airy kernel on the reals,
    A(s, t) = (Ai(s) Ai'(t) - Ai'(s) Ai(t)) / (s - t),
    with the derivative form Ai'(s)^2 - s Ai(s)^2 on the diagonal."""

    domain = "reals"
    _cd_const = 1.0

    def _pair(self, x: float):
        return specfun.airy_ai(x), specfun.airy_ai_prime(x)

    def _diagonal(self, x: float) -> float:
        ai, aip = self._pair(x)
        return aip * aip - x * ai * ai


@dataclass(frozen=True)
class SineKernel:
    """Sine kernel sin(pi(x-y)) / (pi(x-y)) on the reals."""

    domain = "reals"

    def eval(self, x: float, y: float) -> float:
        u = x - y
        if abs(u) < _NEAR_DIAGONAL:
            return 1.0
        return math.sin(math.pi * u) / (math.pi * u)


@dataclass(frozen=True)
class DiscreteSineKernel:
    """Discrete sine kernel sin(u R)/(u pi) on the integers, u = x - y,
    with R = arccos(r/2) for a bulk density parameter -2 < r < 2."""

    r: float
    domain = "integers"

    def __post_init__(self):
        if not -2.0 < self.r < 2.0:
            raise ValueError("r must lie in (-2, 2)")

    @property
    def R(self) -> float:
        return math.acos(self.r / 2.0)

    def eval(self, x: int, y: int) -> float:
        x = _require_int(x, "x")
        y = _require_int(y, "y")
        u = x - y
        if u == 0:
            return self.R / math.pi
        return math.sin(u * self.R) / (u * math.pi)


# ---------------------------------------------------------------------------
# Alternative representations


def bessel_series(alpha: float, x: int, y: int) -> float:
    """Series route for the discrete Bessel kernel,
    B(x, y) = sum_{j>=1} J_{x+j}(2 sqrt(a)) J_{y+j}(2 sqrt(a)).

    The terms run over the orders of the kernel's J vector, every order
    whose square of J is representable; past them |J| < 1e-161, and so is
    each term left out.
    """
    x = _require_int(x, "x")
    y = _require_int(y, "y")
    lo, j, _, _ = _bessel_orders(alpha)
    # the terms s = first, ..., first + count - 1 have both orders in range
    first = max(1, lo - x, lo - y)
    count = max(0, len(j) + lo - max(x, y) - first)
    ix, iy = x + first - lo, y + first - lo
    return math.fsum(j[ix:ix + count] * j[iy:iy + count])


def bessel_diag_tail(alpha: float, x: int) -> float:
    """sum_{j>=1} B(x+j, x+j) = sum_{n>=1} n J_{x+n+1}^2, the weighted single
    sum obtained by exchanging the two summations: T2 at order x + 2.

    Below the lowest order lo, where every T1 is T1(lo), T2 goes on
    linearly as T2(lo) + (lo - x - 2) T1(lo).
    """
    lo, _, t1, t2 = _bessel_orders(alpha)
    i = x + 2 - lo
    if i < 0:
        return float(t2[0] - i * t1[0])
    return float(t2[i]) if i < len(t2) else 0.0


def airy_integral(x: float, y: float) -> float:
    """Integral route for the Airy kernel: int_0^inf Ai(x+t) Ai(y+t) dt,
    truncated at t = 60, where the integrand is far below double precision."""

    def integrand(t):
        vals = np.empty_like(t)
        for i, ti in enumerate(t):
            vals[i] = specfun.airy_ai(x + ti) * specfun.airy_ai(y + ti)
        return vals

    return float(specfun._gauss_panels(integrand, 0.0, 60.0).real)


# ---------------------------------------------------------------------------
# Scaling limits


def _edge_frame(kernel) -> tuple[float, float]:
    """Edge location nu and edge scale sigma of a kernel: the point
    nu + xi sigma stands for the Airy coordinate xi, and sigma K there tends
    to the Airy kernel.  The Airy kernel is its own frame, nu = 0, sigma = 1."""
    if isinstance(kernel, Bessel):
        alpha = kernel.alpha
        return 2.0 * math.sqrt(alpha), alpha ** (1.0 / 6.0)
    if isinstance(kernel, CharlierKernel):
        m, alpha = kernel.m, kernel.alpha
        sa = math.sqrt(alpha)
        nu = m + alpha / m + 2.0 * sa
        return nu, (1.0 + sa / m) ** (2.0 / 3.0) * alpha ** (1.0 / 6.0)
    if isinstance(kernel, HermiteKernel):
        m = kernel.m
        return math.sqrt(2.0 * m), 1.0 / (math.sqrt(2.0) * m ** (1.0 / 6.0))
    if isinstance(kernel, AiryKernel):
        return 0.0, 1.0
    raise TypeError("edge scaling is defined for Bessel, Charlier, Hermite and Airy kernels")


def edge_coordinates(kernel, xi: float) -> tuple[int, float]:
    """Map an edge-scaled coordinate to the integer lattice point actually
    evaluated, returning (lattice point, effective scaled coordinate).

    Every lattice kernel takes the site point = round_half_up(nu + xi sigma),
    with nu the edge and sigma the edge scale, and the effective coordinate is
    the cell centre (point + 1/2 - nu) / sigma.  The lattice kernels sum over
    unit cells (B(x, y) = sum_{s>=1} J_{x+s} J_{y+s}), so by the midpoint rule
    the value at site x stands for the continuum point half a cell above x,
    not for x itself.  At alpha = 1e4 the scaled Bessel kernel on the 3x3 grid
    xi, eta in {-1, 0, 1} is within 5.5e-4 of the Airy kernel at the cell
    centres and 3.0e-2 from it at (point - nu) / sigma.  Returning the
    effective coordinate also keeps comparisons insensitive to the rounding
    convention, which differs at the half-integers only.
    """
    if kernel.domain == "reals":
        raise TypeError("edge lattice coordinates exist for the discrete kernels only")
    nu, sigma = _edge_frame(kernel)
    point = round_half_up(nu + xi * sigma)
    return point, (point + 0.5 - nu) / sigma


def scaled_edge(kernel, xi: float, eta: float) -> float:
    """Edge rescaling of a kernel; converges to the Airy kernel as the
    asymptotic parameter grows."""
    nu, sigma = _edge_frame(kernel)
    if kernel.domain == "reals":
        return sigma * kernel.eval(nu + xi * sigma, nu + eta * sigma)
    x, _ = edge_coordinates(kernel, xi)
    y, _ = edge_coordinates(kernel, eta)
    return sigma * kernel.eval(x, y)


def bulk_scaled(alpha: float, r: float, u: int) -> float:
    """Discrete Bessel kernel at bulk position r sqrt(alpha) and lattice
    offset u; converges to the discrete sine kernel sin(uR)/(u pi)."""
    if not -2.0 < r < 2.0:
        raise ValueError("r must lie in (-2, 2)")
    u = _require_int(u, "u")
    base = round_half_up(r * math.sqrt(alpha))
    return Bessel(alpha).eval(base, base + u)


def intermediate_scaled(alpha: float, delta: float, xi: float, eta: float) -> float:
    """Rescaled discrete Bessel kernel between edge and bulk; converges to
    the continuous sine kernel for 1/6 < delta < 1/2."""
    if not 1.0 / 6.0 < delta < 0.5:
        raise ValueError("delta must lie in (1/6, 1/2)")
    scale = math.pi * alpha ** (0.25 - 0.5 * delta)
    center = 2.0 * math.sqrt(alpha) - alpha**delta
    x = round_half_up(center + xi * scale)
    y = round_half_up(center + eta * scale)
    return scale * Bessel(alpha).eval(x, y)
