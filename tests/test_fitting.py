import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import minimize_scalar

from dwlab.fitting import fit_critical_lifespan, fit_loglog
from dwlab.special import lambert_w0


def lambert_ladder(eps, A, B):
    """T(eps) = A eps^{-2/3} exp(2 W(B eps^{-1/2}) / 3), the p = 3/2 law."""
    return A * eps ** (-2.0 / 3.0) * np.exp(2.0 * lambert_w0(B / np.sqrt(eps))
                                            / 3.0)


def test_fit_loglog_exact_power():
    x = np.geomspace(1.0, 100.0, 12)
    y = 3.5 * x ** -1.75
    fit = fit_loglog(x, y)
    assert_allclose(fit.slope, -1.75, rtol=1e-12)
    assert_allclose(math.exp(fit.intercept), 3.5, rtol=1e-12)
    assert fit.r_squared == pytest.approx(1.0)
    assert fit.accepted
    assert_allclose(np.exp(fit.intercept) * x ** fit.slope, y, rtol=1e-12)


def test_fit_loglog_window_and_rejection():
    x = np.geomspace(1.0, 1000.0, 30)
    y = x ** -2.0
    y[x < 10.0] = 1.0   # pollute outside the window
    inside = x >= 10.0
    fit = fit_loglog(x[inside], y[inside])
    assert_allclose(fit.slope, -2.0, rtol=1e-10)
    assert not fit_loglog(x, y).accepted   # the polluted samples count
    noisy = x ** -1.0 * np.exp(np.sin(7.0 * np.log(x)) * 2.0)
    bad = fit_loglog(x, noisy)
    assert not bad.accepted
    few = fit_loglog(x[:2], y[:2])
    assert not few.accepted and math.isnan(few.slope)


def test_critical_fit_recovers_parameters():
    eps = np.geomspace(0.01, 0.5, 6)
    A, B = 2.3, 1.7
    T = lambert_ladder(eps, A, B)
    Af, Bf, r2 = fit_critical_lifespan(eps, T)
    assert_allclose(Af, A, rtol=1e-5)
    assert_allclose(Bf, B, rtol=1e-4)
    assert r2 > 0.999999


def test_critical_fit_pure_power_degenerates():
    # data with no Lambert correction: B collapses toward 0, r2 still judges
    # how much of the log-T spread the model explains
    eps = np.geomspace(0.05, 0.5, 5)
    T = 9.0 * eps ** -0.55
    A, B, r2 = fit_critical_lifespan(eps, T)
    assert B < 1e-3
    assert r2 > 0.9


def test_critical_fit_matches_scipy_bounded_search():
    # the golden-section search lands on scipy's bounded minimizer
    rng = np.random.default_rng(7)
    for A, B, eps in ((2.3, 1.7, np.geomspace(0.01, 0.5, 6)),
                      (0.8, 0.05, np.geomspace(0.05, 0.5, 5)),
                      (5.0, 12.0, np.geomspace(1e-3, 0.2, 8))):
        T = lambert_ladder(eps, A, B) * (1.0 + 0.01 * rng.standard_normal(
            len(eps)))
        Af, Bf, r2 = fit_critical_lifespan(eps, T)
        y = np.log(T) + (2.0 / 3.0) * np.log(eps)
        x = 1.0 / np.sqrt(eps)

        def sse(logB):
            w = (2.0 / 3.0) * lambert_w0(math.exp(logB) * x)
            return float(np.sum((y - np.mean(y - w) - w) ** 2))

        ref = minimize_scalar(sse, bounds=(-15.0, 15.0), method="bounded",
                              options={"xatol": 1e-10})
        logT = np.log(T)
        r2_ref = 1.0 - ref.fun / float(np.sum((logT - logT.mean()) ** 2))
        assert abs(math.log(Bf) - ref.x) < 1e-6
        assert abs(r2 - r2_ref) < 1e-9
