"""Independent routes the benchmark checks every library result against.

None of these calls into `dope`: each recomputes the quantity by another
formula, so a defect in a library route cannot hide in its own check.  Each
oracle returns ``(value, err)`` where ``err`` bounds the oracle's own error;
a library value passes when it is within the tolerance the call was asked
for plus ``err``.

* Tracy-Widom F(t): Nystrom rule with Gauss-Legendre nodes on the truncated
  interval [t, max(t, 0) + 16] and `scipy.special.airy` values (Bornemann,
  Math. Comp. 2010).  The library maps the half line rationally and uses its
  own Airy series.
* Discrete Bessel gaps: the Gram form B = A A^T with A[x, s] = J_{x+s}(2 sqrt a)
  from `scipy.special.jv` (Borodin-Okounkov-Olshanski, JAMS 2000), with
  det(I - B) and the two-row law by Jacobi's formula.  The library uses the
  Christoffel-Darboux quotient with quadrature Bessel values.
* Charlier gaps: the projection sum over the classical Charlier polynomials
  in mpmath at 30 digits, reduced to an m x m determinant by Sylvester's
  identity.  The library uses the Christoffel-Darboux quotient and contour
  integrals.
* Monte Carlo draws: the weak LIS of a word by a dynamic program over
  letters, and the first row of the RSK shape of a matrix as its
  last-passage time (Greene's theorem).  The library uses patience piles
  and row insertion.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from mpmath import mp, mpf
from numpy.polynomial.legendre import leggauss
from scipy.special import airy, jv

_EPS = np.finfo(float).eps

# ---------------------------------------------------------------------------
# Tracy-Widom F(t)

_TW_NODES = 160
_TW_CHECK_NODES = 128
_TW_REACH = 16.0  # Ai(16)^2 ~ 1e-37, far below double precision


def _tw_det(t: float, n: int) -> float:
    u, w = leggauss(n)
    lo, hi = t, max(t, 0.0) + _TW_REACH
    s = 0.5 * (hi + lo) + 0.5 * (hi - lo) * u
    w = 0.5 * (hi - lo) * w
    ai, aip, _, _ = airy(s)
    with np.errstate(divide="ignore", invalid="ignore"):
        k = (np.outer(ai, aip) - np.outer(aip, ai)) / np.subtract.outer(s, s)
    np.fill_diagonal(k, aip * aip - s * ai * ai)
    root = np.sqrt(w)
    return float(np.linalg.det(np.eye(n) - root[:, None] * k * root[None, :]))


def tracy_widom(t: float):
    """F_2(t) at 160 nodes; the error is the change from 128 nodes."""
    value = _tw_det(t, _TW_NODES)
    err = abs(value - _tw_det(t, _TW_CHECK_NODES)) + 64 * _EPS
    return value, err


# ---------------------------------------------------------------------------
# Discrete Bessel kernel, Gram form

_J_FLOOR = 1e-22


@lru_cache(maxsize=2)
def _bessel_orders(alpha: float) -> np.ndarray:
    """J_k(2 sqrt(alpha)) for k = 0..N, with |J_k| < 1e-22 past N; cached
    because a request checks all its rows at one alpha."""
    z = 2.0 * math.sqrt(alpha)
    top = int(math.ceil(z + 16.0 * z ** (1.0 / 3.0) + 40.0))
    vals = jv(np.arange(top + 1, dtype=float), z)
    big = np.nonzero(np.abs(vals) >= _J_FLOOR)[0]
    if big[-1] + 8 > top:
        raise ArithmeticError("Bessel order range too short for the Gram oracle")
    return vals[: big[-1] + 2]


def _gram(jvals: np.ndarray, sites: np.ndarray) -> np.ndarray:
    """B[x, y] = sum_{s >= 1} J_{x+s} J_{y+s} on nonnegative lattice sites."""
    top = len(jvals)
    cols = np.arange(1, top)
    idx = sites[:, None] + cols[None, :]
    a = np.where(idx < top, jvals[np.minimum(idx, top - 1)], 0.0)
    return a @ a.T


# The Gram entries carry scipy's relative error (~1e-15) times the trace of
# B, which is below the number of sites; 1e-12 covers up to a few hundred.
_GRAM_ERR = 1e-12


def bessel_gap(alpha: float, n: int):
    """P[lam_1 <= n] under Poissonized Plancherel(alpha) = det(I - B) on
    the sites x >= n of the particles lam_i - i."""
    jvals = _bessel_orders(alpha)
    sites = np.arange(n, len(jvals))
    if len(sites) == 0:
        return 1.0, _GRAM_ERR
    b = _gram(jvals, sites)
    return float(np.linalg.det(np.eye(len(sites)) - b)), _GRAM_ERR


def bessel_two_rows(alpha: float, a1: float, a2: float):
    """P[x_1 <= a1, x_2 <= a2] for the two largest particles.

    With N_1, N_2 the particle counts in (a1, inf) and (a2, a1], this is
    P[N_1 = 0, N_2 <= 1] = D + dD/dz_2 at z = (-1, -1) for the generating
    determinant D(z) = det(I + B diag(z_j on I_j)), and Jacobi's formula
    gives dD/dz_2 = D tr((I - B)^{-1} B chi_2).
    """
    jvals = _bessel_orders(alpha)
    sites = np.arange(int(math.floor(a2)) + 1, len(jvals))
    b = _gram(jvals, sites)
    m = np.eye(len(sites)) - b
    d = np.linalg.det(m)
    second = sites <= a1
    one_particle = np.trace(np.linalg.solve(m, b)[np.ix_(second, second)])
    return float(d * (1.0 + one_particle)), _GRAM_ERR


# ---------------------------------------------------------------------------
# Charlier kernel, high-precision projection sum

_CHARLIER_DPS = 30
_CHARLIER_TAIL = mpf("1e-34")


def charlier_gap(alpha: float, m: int, n: int):
    """det(I - K) on the sites h >= n + m of the rank-m Charlier kernel with
    a = alpha / m: the Poissonized word measure's P[lam_1 <= n].

    K(h, h') = sqrt(w(h) w(h')) sum_{j<m} C_j(h) C_j(h') a^j / j!, where
    w(h) = e^{-a} a^h / h! and the classical Charlier polynomials satisfy
    a C_{j+1} = (j + a - h) C_j - j C_{j-1}, C_0 = 1.
    """
    rows = []
    with mp.workdps(_CHARLIER_DPS):
        a = mpf(alpha) / m
        norms = [mp.sqrt(mp.power(a, j) / mp.factorial(j)) for j in range(m)]
        band_top = (math.sqrt(m) + math.sqrt(float(a))) ** 2
        h = n + m
        while True:
            root_w = mp.exp((h * mp.log(a) - a - mp.loggamma(h + 1)) / 2)
            c_prev, c_cur = mpf(0), mpf(1)
            col = []
            for j in range(m):
                col.append(root_w * c_cur * norms[j])
                c_prev, c_cur = c_cur, ((j + a - h) * c_cur - j * c_prev) / a
            mass = mp.fsum(c * c for c in col)
            rows.append([float(c) for c in col])
            if h > band_top + 8 and mass < _CHARLIER_TAIL:
                break
            h += 1
    phi = np.array(rows)
    value = float(np.linalg.det(np.eye(m) - phi.T @ phi))
    # Past the band the column masses fall faster than geometrically, so the
    # neglected tail is below the last one; the rest is double rounding of
    # the m x m Gram matrix.
    return value, float(_CHARLIER_TAIL) + 64 * m * _EPS


# ---------------------------------------------------------------------------
# Monte Carlo statistics


def weak_lis(word, m: int) -> int:
    """Longest weakly increasing subsequence of a word on letters 0..m-1."""
    return weak_lis_many([word], m)[0]


def weak_lis_many(words, m: int) -> list[int]:
    """`weak_lis` of each word on letters 0..m-1, the words side by side.

    f_c(t) is the longest one in the first t letters using letters <= c;
    letter c's block ends it, so f_c(t) = max_{t' <= t} (f_{c-1}(t') - P_c(t'))
    + P_c(t) with P_c the prefix count of letter c.  Shorter words are
    padded with the letter m, which no P_c counts, so f stays flat there.
    """
    length = max(len(w) for w in words)
    w = np.full((len(words), length), m, dtype=np.int64)
    for row, word in zip(w, words):
        row[: len(word)] = word
    prefix = np.zeros((len(words), length + 1), dtype=np.int64)
    f = np.zeros_like(prefix)
    for c in range(m):
        np.cumsum(w == c, axis=1, out=prefix[:, 1:])
        f = np.maximum.accumulate(f - prefix, axis=1) + prefix
    return [int(v) for v in f[:, -1]]


def last_passage(a) -> int:
    """Maximum weight of an up-right lattice path through a matrix, which by
    Greene's theorem is the first row of its RSK shape."""
    rows = [[int(v) for v in row] for row in a]
    g = [0] * len(rows[0])
    for row in rows:
        left = 0
        for j, v in enumerate(row):
            left = v + max(left, g[j])
            g[j] = left
    return g[-1]
