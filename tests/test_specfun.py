"""Special-function routines checked against mpmath and series oracles."""

import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest
from mpmath import mp

import dope
from dope.specfun import (
    ConvergenceError,
    airy_ai,
    airy_ai_prime,
    bessel_j,
    bessel_j_orderderiv,
    bessel_j_orders,
    charlier_contour_D,
    charlier_cut_F,
    charlier_radius,
    hermite_psi,
)

ALPHAS = [0.25, 1.0, 4.0, 25.0, 100.0]


@pytest.mark.parametrize("alpha", ALPHAS)
def test_bessel_matches_mpmath(alpha):
    t = 2.0 * math.sqrt(alpha)
    with mp.workdps(30):
        for x in range(-8, 26):
            ref = float(mp.besselj(x, t))
            assert bessel_j(x, alpha) == pytest.approx(ref, rel=1e-11, abs=1e-13)


def test_bessel_negative_order_symmetry():
    for x in range(0, 9):
        assert bessel_j(-x, 2.0) == pytest.approx(
            (-1.0) ** x * bessel_j(x, 2.0), rel=1e-13, abs=1e-16
        )


def test_bessel_deep_tail_keeps_relative_accuracy():
    # far past the turning point the value is tiny; it must still carry
    # relative accuracy there, because the kernel multiplies it by large
    # order-derivative factors
    with mp.workdps(40):
        ref = float(mp.besselj(40, 2.0))
    val = bessel_j(40, 1.0)
    assert ref != 0.0
    assert abs(val - ref) <= 1e-10 * abs(ref)


@pytest.mark.parametrize("alpha", [1.0, 400.0, 1e4])
def test_bessel_orders_vector_runs_to_underflow(alpha):
    j = bessel_j_orders(alpha)
    assert j[-1] ** 2 == 0.0 and j[-65] ** 2 > 0.0
    assert len(j) > 2.0 * math.sqrt(alpha)
    for x in range(0, len(j), 7):
        assert j[x] == bessel_j(x, alpha)


def test_bessel_rejects_nonpositive_alpha():
    with pytest.raises(ValueError):
        bessel_j(0, 0.0)
    with pytest.raises(ValueError):
        bessel_j_orderderiv(0, 0.0)


@pytest.mark.parametrize("alpha", [0.25, 1.0, 4.0])
def test_order_derivative_matches_mpmath(alpha):
    t = 2.0 * math.sqrt(alpha)
    with mp.workdps(30):
        for x in range(0, 6):
            ref = float(mpmath.diff(lambda v: mp.besselj(v, t), x))
            assert bessel_j_orderderiv(x, alpha) == pytest.approx(ref, rel=1e-8, abs=1e-10)


def test_airy_matches_mpmath_across_the_switch():
    xs = [-15.0, -9.0, -8.05, -7.95, -4.0, -1.0, 0.0, 1.0, 3.5, 7.95, 8.05, 10.0, 15.0]
    with mp.workdps(30):
        for x in xs:
            ai = float(mp.airyai(x))
            aip = float(mp.airyai(x, 1))
            assert airy_ai(x) == pytest.approx(ai, rel=1e-11, abs=1e-14)
            assert airy_ai_prime(x) == pytest.approx(aip, rel=1e-11, abs=1e-14)


def test_airy_known_values_at_zero():
    assert airy_ai(0.0) == pytest.approx(3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0), rel=1e-14)
    assert airy_ai_prime(0.0) == pytest.approx(-(3.0 ** (-1.0 / 3.0)) / math.gamma(1.0 / 3.0), rel=1e-14)


def test_hermite_psi_low_orders():
    for x in (-1.7, 0.0, 0.3, 2.4):
        e = math.pi**-0.25 * math.exp(-0.5 * x * x)
        psi0, psi1 = hermite_psi(1, x)
        assert psi0 == pytest.approx(e, rel=1e-14)
        assert psi1 == pytest.approx(math.sqrt(2.0) * x * e, rel=1e-13, abs=1e-16)
        psi1b, psi2 = hermite_psi(2, x)
        assert psi1b == pytest.approx(psi1, rel=1e-14, abs=1e-16)
        assert psi2 == pytest.approx((2.0 * x * x - 1.0) / math.sqrt(2.0) * e, rel=1e-12, abs=1e-15)
    with pytest.raises(ValueError):
        hermite_psi(0, 1.0)


def test_hermite_psi_normalized():
    import numpy as np

    xs = np.linspace(-12.0, 12.0, 6001)
    for m in (1, 4, 9):
        vals = np.array([hermite_psi(m, float(x))[1] for x in xs])
        assert np.trapezoid(vals * vals, xs) == pytest.approx(1.0, abs=1e-8)


def test_charlier_radius_stays_off_the_branch_circle():
    for m, alpha in [(2, 50.0), (5, 100.0), (50, 25.0), (200, 1e4)]:
        r = charlier_radius(m, alpha)
        assert r > 1.2 * math.sqrt(alpha) / m
        assert 0.0 < r


def _poly_contour_coeff(m, alpha, x, k):
    """[z^k] e^{sqrt(alpha)(1-z)} ((sqrt(alpha)+m z)/(sqrt(alpha)+m))^x, mpmath."""
    with mp.workdps(40):
        sa = mp.sqrt(alpha)
        total = mp.mpf(0)
        for j in range(0, min(k, x) + 1):
            c = mp.binomial(x, j) * (m / (sa + m)) ** j * (sa / (sa + m)) ** (x - j)
            total += c * (-sa) ** (k - j) / mp.factorial(k - j)
        return float(mp.e**sa * total)


@pytest.mark.parametrize("m,alpha,x", [(3, 2.0, 4), (6, 9.0, 5), (10, 4.0, 12)])
def test_polynomial_contour_integrals_match_series_coefficients(m, alpha, x):
    d1 = charlier_contour_D(m, alpha, x, 1)
    c_m = _poly_contour_coeff(m, alpha, x, m)
    assert d1 == pytest.approx(c_m, rel=1e-10, abs=1e-13)
    d2 = charlier_contour_D(m, alpha, x, 2)
    c_prev = _poly_contour_coeff(m, alpha, x, m - 1)
    # multiplying the integrand by z lowers the extracted coefficient index
    assert d2 == pytest.approx(c_prev - c_m, rel=1e-10, abs=1e-13)


def test_polynomial_contour_integral_is_radius_independent():
    a = charlier_contour_D(4, 3.0, 5, 1, r=0.4)
    b = charlier_contour_D(4, 3.0, 5, 1, r=0.8)
    assert a == pytest.approx(b, rel=1e-11, abs=1e-14)


def test_logarithmic_contour_integral_is_radius_independent_inside_cut():
    # branch circle at sqrt(4)/3 = 2/3; both radii stay inside it
    a = charlier_contour_D(3, 4.0, 5, 3, r=0.3)
    b = charlier_contour_D(3, 4.0, 5, 3, r=0.55)
    assert a == pytest.approx(b, rel=1e-9, abs=1e-12)


def test_cut_correction_vanishes_inside_branch_circle():
    assert charlier_cut_F(3, 4.0, 5, 3, r=0.5) == 0.0
    assert charlier_cut_F(3, 4.0, 5, 4, r=0.2) == 0.0


def test_cut_plus_contour_is_deformation_invariant():
    # crossing the branch circle changes the logarithmic circle integral at
    # argument x-1 and the cut correction at argument x separately, but
    # their sum is unchanged (the cut jump of w log w carries one factor w)
    m, alpha, x = 3, 4.0, 5
    for which_d, which_f in [(3, 1), (4, 2)]:
        inside = charlier_contour_D(m, alpha, x - 1, which_d, r=0.55)
        outside = charlier_contour_D(m, alpha, x - 1, which_d, r=0.9)
        outside += charlier_cut_F(m, alpha, x, which_f, r=0.9)
        assert outside == pytest.approx(inside, rel=1e-10, abs=1e-13)


def test_convergence_error_is_a_runtime_error():
    assert issubclass(ConvergenceError, RuntimeError)


def test_the_library_does_not_import_mpmath():
    # mpmath is a test oracle only; a fresh interpreter shows what the
    # package itself pulls in
    src = str(Path(dope.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys, dope, dope.cli; print('mpmath' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"
