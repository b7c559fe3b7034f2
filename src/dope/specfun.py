"""Special-function evaluations living behind the correlation kernels.

The Airy function and integer-order Bessel values J_n(2 sqrt(alpha)), one
order at a time or as one vector over all orders, come from
`scipy.special`; the order-derivative of J comes from its contour and
real-line integral representation, evaluated by panel quadrature, and is
the cross-check route for the Bessel kernel's diagonal, which the kernel
itself sums from J alone; Hermite functions come from
their three-term recurrence; Charlier auxiliaries are the contour and cut
integrals the kernel's integral form is assembled from.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad
from scipy.special import airy, jv

from ._util import log_factorial

__all__ = [
    "ConvergenceError",
    "airy_ai",
    "airy_ai_prime",
    "bessel_j",
    "bessel_j_orderderiv",
    "charlier_auxiliary_A",
    "charlier_contour_D",
    "charlier_cut_F",
    "charlier_radius",
    "hermite_psi",
]


class ConvergenceError(RuntimeError):
    """A node-doubling quadrature failed to stabilize below its cap."""


TRAPEZOID_START = 256
TRAPEZOID_CAP = 1 << 16
_QUAD_TOL = 1e-12


def _trapezoid_periodic_witherr(integrand):
    """(1/2pi) * integral over [-pi, pi) of a smooth 2pi-periodic integrand,
    returned together with an absolute noise estimate.

    Uniform nodes, count doubling from TRAPEZOID_START until two successive
    refinements agree within _QUAD_TOL (spectral for periodic analytic data).
    Cancellation between large samples leaves a roundoff floor proportional
    to the largest sample magnitude; agreement below that floor is accepted
    and the floor is reported as the attainable accuracy.
    """
    prev = None
    n = TRAPEZOID_START
    while n <= TRAPEZOID_CAP:
        theta = -np.pi + (2.0 * np.pi / n) * np.arange(n)
        samples = integrand(theta)
        val = complex(np.mean(samples))
        floor = 8e-16 * float(np.max(np.abs(samples)))
        if prev is not None and abs(val - prev) <= max(_QUAD_TOL * max(1.0, abs(val)), floor):
            return val, max(floor, abs(val - prev))
        prev = val
        n *= 2
    raise ConvergenceError("periodic trapezoid rule did not stabilize")


@lru_cache(maxsize=64)
def _panel_rule(order: int):
    x, w = leggauss(order)
    return x, w


def _gauss_panels_witherr(integrand, a: float, b: float):
    """Integral over [a, b] by composite Gauss-Legendre with panel doubling,
    returned together with an absolute noise estimate."""
    x0, w0 = _panel_rule(32)
    prev = None
    panels = 8
    while panels <= 4096:
        edges = np.linspace(a, b, panels + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1] - edges[0])
        nodes = (mid[:, None] + half * x0[None, :]).ravel()
        weights = (half * np.broadcast_to(w0, (panels, len(w0)))).ravel()
        terms = weights * integrand(nodes)
        val = complex(np.sum(terms))
        floor = 8e-16 * float(np.sum(np.abs(terms)))
        if prev is not None and abs(val - prev) <= max(_QUAD_TOL * max(1.0, abs(val)), floor):
            return val, max(floor, abs(val - prev))
        prev = val
        panels *= 2
    raise ConvergenceError("panel quadrature did not stabilize")


def _gauss_panels(integrand, a: float, b: float) -> complex:
    return _gauss_panels_witherr(integrand, a, b)[0]


# ---------------------------------------------------------------------------
# Bessel functions of integer order, argument 2 sqrt(alpha)


@lru_cache(maxsize=1 << 18)
def bessel_j(x: int, alpha: float) -> float:
    """J_x(2 sqrt(alpha)) for integer order x of either sign."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    return float(jv(x, 2.0 * math.sqrt(alpha)))


def bessel_j_orders(alpha: float) -> np.ndarray:
    """J_n(2 sqrt(alpha)) for n = 0, 1, ..., N - 1, as one `jv` vector.

    N runs past the turning point 2 sqrt(alpha), in steps of 64, until the
    square of J_{N-1} underflows to 0, so no order whose square is
    representable is left out.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    z = 2.0 * math.sqrt(alpha)
    j = jv(np.arange(int(z) + 64), z)
    while j[-1] ** 2 > 0.0:
        j = np.concatenate([j, jv(np.arange(len(j), len(j) + 64), z)])
    return j


@lru_cache(maxsize=1 << 16)
def bessel_j_orderderiv(x: int, alpha: float) -> float:
    """d/d nu of J_nu(2 sqrt(alpha)) at integer nu = x."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    t = 2.0 * math.sqrt(alpha)
    sa = math.sqrt(alpha)

    def osc(theta):
        return theta * np.sin(x * theta - t * np.sin(theta))

    term1 = -_gauss_panels(osc, 0.0, np.pi).real / np.pi

    def line(s):
        return math.exp(sa * (s - 1.0 / s) + (x - 1.0) * math.log(s))

    term2, _ = quad(line, 0.0, 1.0, epsabs=1e-13, epsrel=1e-12, limit=300)
    return term1 - (-1.0) ** (x & 1) * term2


# ---------------------------------------------------------------------------
# Airy function


def airy_ai(x: float) -> float:
    """The Airy function Ai."""
    return float(airy(x)[0])


def airy_ai_prime(x: float) -> float:
    """Derivative Ai' of the Airy function."""
    return float(airy(x)[1])


# ---------------------------------------------------------------------------
# Hermite functions (orthonormal for weight e^{-x^2}, times e^{-x^2/2})


def hermite_psi(m: int, x: float) -> tuple[float, float]:
    """(psi_{m-1}(x), psi_m(x)) by the stable upward recurrence,
    psi_n = h_n e^{-x^2/2} with h_n orthonormal against e^{-x^2}."""
    if m < 1:
        raise ValueError("m must be positive")
    prev = 0.0
    cur = math.pi**-0.25 * math.exp(-0.5 * x * x)
    for n in range(m):
        nxt = x * math.sqrt(2.0 / (n + 1)) * cur - math.sqrt(n / (n + 1.0)) * prev
        prev, cur = cur, nxt
    return prev, cur


# ---------------------------------------------------------------------------
# Charlier kernel auxiliaries


def charlier_radius(m: int, alpha: float) -> float:
    """Contour radius: 1/2 in the large-m regime, pushed toward the unit
    circle (the edge saddle) otherwise, and kept 25% away from the branch
    circle sqrt(alpha)/m where the logarithmic auxiliaries have their cut."""
    sa = math.sqrt(alpha)
    branch = sa / m
    if m >= 4.0 * sa:
        r = 0.5
    else:
        r = max(0.5, 1.0 - 2.0 * sa / m)
    if r < 1.25 * branch:
        r = 1.3 * branch
    return r


def charlier_auxiliary_A(m: int, alpha: float, x: int) -> float:
    """Positive prefactor A(x) multiplying the contour products in the
    kernel's integral form; tends to sqrt(alpha) for x near m + O(sqrt(alpha))."""
    if x < 0:
        return 0.0
    a = alpha / m
    sa = math.sqrt(alpha)
    log_val = 0.5 * math.log(alpha) + log_factorial(m) - m * math.log(m)
    log_val += -a + x * math.log(a) - log_factorial(x)
    log_val += 2.0 * x * math.log1p(m / sa) - 2.0 * sa
    return math.exp(log_val)


def _charlier_g(which: int, z, m: int, alpha: float):
    sa = math.sqrt(alpha)
    if which == 1:
        return np.ones_like(z)
    if which == 2:
        return z - 1.0
    w = (sa + m * z) / (sa + m)
    if which == 3:
        return w * np.log(w)
    if which == 4:
        return (z - 1.0) * w * np.log(w)
    raise ValueError("which must be 1..4")


def charlier_contour_D_witherr(
    m: int, alpha: float, x: int, which: int, r: float | None = None
):
    """Circle integral (1/2pi) int g(z) e^{sqrt(alpha)(1-z)} W(z)^x z^{-m} dtheta
    on z = r e^{i theta}, with W(z) = (sqrt(alpha) + m z)/(sqrt(alpha) + m),
    returned together with an absolute noise estimate.

    The polynomial auxiliaries (which 1, 2) are periodic-analytic and use
    the trapezoid rule; the logarithmic ones (3, 4) lose periodicity when
    the contour encloses the branch point and switch to panel quadrature.
    """
    if r is None:
        r = charlier_radius(m, alpha)
    sa = math.sqrt(alpha)

    def integrand(theta):
        z = r * np.exp(1j * theta)
        w = (sa + m * z) / (sa + m)
        log_core = sa * (1.0 - z) + x * np.log(w) - m * np.log(z)
        return _charlier_g(which, z, m, alpha) * np.exp(log_core)

    crosses_cut = r > sa / m
    if which in (3, 4) and crosses_cut:
        val, noise = _gauss_panels_witherr(integrand, -np.pi, np.pi)
        val /= 2.0 * np.pi
        noise /= 2.0 * np.pi
    else:
        val, noise = _trapezoid_periodic_witherr(integrand)
    return val.real, noise


def charlier_contour_D(m: int, alpha: float, x: int, which: int, r: float | None = None) -> float:
    return charlier_contour_D_witherr(m, alpha, x, which, r)[0]


def charlier_cut_F_witherr(
    m: int, alpha: float, x: int, which: int, r: float | None = None
):
    """Cut correction int_{sqrt(alpha)/m}^{r} g(-s) e^{sqrt(alpha)(1+s)}
    |(sqrt(alpha) - m s)/(sqrt(alpha) + m)|^x s^{-m} ds/s with alternating
    sign, returned together with an absolute noise estimate; identically
    zero when the contour stays inside the branch circle.

    The auxiliary g is evaluated at -s, the point on the negative real axis
    the deformed contour actually passes through; evaluating it at +s leaves
    an O(1) defect against the exact projection kernel.
    """
    if r is None:
        r = charlier_radius(m, alpha)
    sa = math.sqrt(alpha)
    lower = sa / m
    if r <= lower:
        return 0.0, 0.0
    sign = (-1.0) ** ((x + m + 1) & 1)

    def line(s):
        g = float(np.real(_charlier_g(which, np.array(-s + 0j), m, alpha)))
        log_core = sa * (1.0 + s) - (m + 1.0) * math.log(s)
        body = abs((sa - m * s) / (sa + m))
        if body == 0.0:
            return 0.0
        log_core += x * math.log(body)
        return g * math.exp(log_core)

    val, err = quad(line, lower, r, epsabs=1e-13, epsrel=1e-12, limit=300)
    return sign * val, max(err, 1e-15 * abs(val))


def charlier_cut_F(m: int, alpha: float, x: int, which: int, r: float | None = None) -> float:
    return charlier_cut_F_witherr(m, alpha, x, which, r)[0]
