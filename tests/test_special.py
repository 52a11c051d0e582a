import math

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import i0 as scipy_i0
from scipy.special import lambertw as scipy_lambertw

from dwlab._kernels import bessel_i0_kernel
from dwlab.grid import GridSpec, moment
from dwlab.special import (DataFamily, HorizonError, M0_M1_ZERO, M0_NONZERO,
                           M0_ZERO_M1_NONZERO, gaussian_derivative,
                           lambert_w0, make_data_family, predict_lifespan,
                           predicted_exponent, tilde_T2p,
                           tilde_T2p_closed_form)

SPEC = GridSpec(40.0, 1024)
RT_PI = math.sqrt(math.pi)


# ----------------------------------------------------------------------
# special functions
# ----------------------------------------------------------------------


def test_bessel_i0_against_scipy():
    y = np.concatenate([np.linspace(0.0, 19.9, 57), np.linspace(20.0, 600.0, 47)])
    ours = bessel_i0_kernel(y)
    # compare in log space beyond the overflow knee
    small = y < 100.0
    assert_allclose(ours[small], scipy_i0(y[small]), rtol=2e-12)
    big = ~small
    assert_allclose(np.log(ours[big]), np.log(scipy_i0(y[big])), rtol=1e-12)


def test_bessel_i0_series_asymptotic_seam():
    # mpmath oracle at y = 19.5 to 21
    for y in (19.5, 20.0, 20.5, 21.0):
        ref = float(mpmath.besseli(0, y))
        assert_allclose(bessel_i0_kernel(y), ref, rtol=1e-12)


def test_bessel_i0_zero_d_input():
    out = bessel_i0_kernel(0.0)
    assert out.shape == () and out == 1.0


def test_lambert_w0_identity_and_scipy():
    z = np.concatenate([[0.0], np.geomspace(1e-12, 1e12, 49)])
    w = lambert_w0(z)
    assert_allclose(w * np.exp(w), z, rtol=1e-12, atol=1e-13)
    assert_allclose(w[1:], np.real(scipy_lambertw(z[1:])), rtol=1e-12)
    assert lambert_w0(0.0) == 0.0
    assert lambert_w0(math.e) == pytest.approx(1.0, rel=1e-13)
    with pytest.raises(ValueError):
        lambert_w0(-0.5)


# ----------------------------------------------------------------------
# data families
# ----------------------------------------------------------------------


def test_gaussian_derivative_closed_forms():
    x = SPEC.nodes
    g0 = gaussian_derivative(0, SPEC).values
    g1 = gaussian_derivative(1, SPEC).values
    g2 = gaussian_derivative(2, SPEC).values
    base = np.exp(-0.25 * x * x)
    assert_allclose(g0, base, rtol=0, atol=0)
    assert_allclose(g1, -0.5 * x * base, rtol=1e-15, atol=1e-300)
    assert_allclose(g2, (0.25 * x * x - 0.5) * base, rtol=1e-15, atol=1e-300)
    for j in (3, 4):
        with pytest.raises(ValueError):
            gaussian_derivative(j, SPEC)


def test_family_moment_classes():
    fam0 = make_data_family(M0_NONZERO, 0.1, SPEC)
    fam1 = make_data_family(M0_ZERO_M1_NONZERO, 0.1, SPEC)
    fam2 = make_data_family(M0_M1_ZERO, 0.1, SPEC)
    # profiles are unit scale: moments of f0 + f1 at profile level
    s1 = fam1.f0 + fam1.f1
    assert_allclose(moment(fam0.f0 + fam0.f1, 0), 2.0 * RT_PI, rtol=1e-13)
    assert moment(s1, 0) == pytest.approx(0.0, abs=1e-13)
    assert_allclose(moment(s1, 1), -2.0 * RT_PI, rtol=1e-13)
    s2 = fam2.f0 + fam2.f1
    assert moment(s2, 0) == pytest.approx(0.0, abs=1e-13)
    assert moment(s2, 1) == pytest.approx(0.0, abs=1e-13)
    assert fam0.moment_class == M0_NONZERO
    assert fam2.moment_class == M0_M1_ZERO


def test_initial_data_scaling_and_degenerate():
    fam = make_data_family(M0_ZERO_M1_NONZERO, 0.1, SPEC)
    u0, u1 = fam.initial_data()
    assert_allclose(u0.values, 0.1 * fam.f0.values, rtol=0, atol=0)
    with pytest.raises(ValueError):
        DataFamily(fam.f0, fam.f1, fam.moment_class, fam.label,
                   -1.0).initial_data()
    # a family with epsilon 0 is degenerate: its effective data vanish
    u0d, u1d = make_data_family(M0_NONZERO, 0.0, SPEC).initial_data()
    assert not np.any(u0d.values) and not np.any(u1d.values)
    with pytest.raises(ValueError):
        make_data_family(M0_NONZERO, -0.2, SPEC)
    with pytest.raises(ValueError):
        make_data_family("M7_zero", 0.1, SPEC)


# ----------------------------------------------------------------------
# lifespan predictions
# ----------------------------------------------------------------------


def test_predict_lifespan_reference_values():
    # borderline power with M1 data: 0.01^{-2/3} * exp(2 W(10)/3) = 68.98
    pred = predict_lifespan(1.5, 0.01, M0_ZERO_M1_NONZERO)
    assert_allclose(pred.value, 68.9788, rtol=1e-4)
    # p = 3 generic data: exp(eps^{-2})
    p3 = predict_lifespan(3.0, 0.5, M0_NONZERO)
    assert_allclose(p3.value, math.exp(4.0), rtol=1e-12)
    with pytest.raises(ValueError):
        predict_lifespan(1.0, 0.1, M0_NONZERO)
    with pytest.raises(ValueError):
        predict_lifespan(2.0, -0.1, M0_NONZERO)


def test_predict_lifespan_class_ordering_small_eps():
    # M1-carrying data blows up sooner than moment-cancelled data
    for eps in (1e-2, 1e-3, 1e-4):
        t1 = predict_lifespan(1.25, eps, M0_ZERO_M1_NONZERO).value
        t3 = predict_lifespan(1.25, eps, M0_M1_ZERO).value
        assert t1 < t3


def test_predict_lifespan_past_the_float_range_is_inf():
    # exp(eta^-2) at p = 3 overflows from eta = 1e-3 (M0_M1_zero, eps 0.1),
    # eta^{-2(p-1)/(3-p)} just below p = 3, and eta = eps^3 underflows to 0
    for p, eps, klass in ((3.0, 0.1, M0_M1_ZERO),
                          (3.0, 0.1, M0_ZERO_M1_NONZERO),
                          (2.99, 1e-3, M0_NONZERO),
                          (3.0, 1e-120, M0_M1_ZERO)):
        assert predict_lifespan(p, eps, klass).value == math.inf
    assert predict_lifespan(3.0, 0.1, M0_NONZERO).value == pytest.approx(
        math.exp(100.0), rel=1e-12)


def test_predicted_exponent_table():
    assert predicted_exponent(1.25, M0_ZERO_M1_NONZERO) == pytest.approx(-1.0 / 3.0)
    assert predicted_exponent(2.0, M0_ZERO_M1_NONZERO) == pytest.approx(-4.0)
    assert predicted_exponent(2.0, M0_NONZERO) == pytest.approx(-2.0)
    assert predicted_exponent(1.5, M0_ZERO_M1_NONZERO) is None
    assert predicted_exponent(3.0, M0_NONZERO) is None


# ----------------------------------------------------------------------
# threshold time
# ----------------------------------------------------------------------


def test_tilde_root_satisfies_equation():
    for p, eps in ((2.0, 1e-3), (1.5, 1e-3), (1.25, 1e-4)):
        T = tilde_T2p(p, eps)
        a = (2.0 * p - 1.0) / 2.0
        if abs(a - 1.0) < 1e-12:
            integral = math.log1p(T)
        else:
            integral = ((1.0 + T) ** (1.0 - a) - 1.0) / (1.0 - a)
        lhs = math.sqrt(T + 1.0) * integral
        assert_allclose(lhs, eps ** (-(p - 1.0)), rtol=1e-10)


def test_tilde_monotone_and_errors():
    assert tilde_T2p(2.0, 1e-4) > tilde_T2p(2.0, 1e-3)
    with pytest.raises(HorizonError):
        tilde_T2p(2.0, 10.0)      # no root above T = 1
    with pytest.raises(HorizonError):
        tilde_T2p(3.0, 1e-200)    # eps^-2 overflows: no root below 1e30
    with pytest.raises(ValueError):
        tilde_T2p(0.9, 1e-3)
    with pytest.raises(ValueError):
        tilde_T2p(2.0, -1e-3)


def test_tilde_closed_form_critical_pointwise():
    # at p = 3/2 the Lambert form solves the equation up to the +1 shifts
    for eps in np.geomspace(1e-4, 1e-2, 9):
        root = tilde_T2p(1.5, float(eps))
        closed = tilde_T2p_closed_form(1.5, float(eps))
        assert abs(closed / root - 1.0) < 0.05


def test_tilde_slope_p2():
    eps = np.geomspace(1e-5, 1e-3, 7)
    roots = np.array([tilde_T2p(2.0, float(e)) for e in eps])
    slope = np.polyfit(np.log(eps), np.log(roots), 1)[0]
    assert abs(slope - (-2.0)) < 0.02


# ----------------------------------------------------------------------
# property tests
# ----------------------------------------------------------------------

from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=0.0, max_value=1e8, allow_nan=False))
def test_lambert_w0_inverts_everywhere(z):
    w = lambert_w0(z)
    assert w >= 0.0
    assert w * math.exp(w) == pytest.approx(z, rel=1e-11, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=1.05, max_value=2.95),
       st.floats(min_value=1e-6, max_value=1e-2))
def test_tilde_root_property(p, eps):
    T = tilde_T2p(p, eps)
    a = (2.0 * p - 1.0) / 2.0
    if abs(a - 1.0) < 1e-12:
        integral = math.log1p(T)
    else:
        integral = ((1.0 + T) ** (1.0 - a) - 1.0) / (1.0 - a)
    assert math.sqrt(T + 1.0) * integral == pytest.approx(
        eps ** (-(p - 1.0)), rel=1e-9)
    assert T > 1.0
