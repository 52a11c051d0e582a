"""Special functions and closed-form lifespan laws.

Covers the principal Lambert W branch on [0, inf), the Gaussian derivative
data families g, g', g'' with their moment classes, the lifespan
predictions for each moment regime, and the threshold time root tilde_T2p.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import GridFunction, GridSpec

__all__ = [
    "HorizonError",
    "lambert_w0",
    "gaussian_derivative",
    "DataFamily",
    "MOMENT_CLASSES",
    "M0_NONZERO",
    "M0_ZERO_M1_NONZERO",
    "M0_M1_ZERO",
    "make_data_family",
    "LifespanPrediction",
    "predict_lifespan",
    "tilde_T2p",
    "tilde_T2p_closed_form",
]


class HorizonError(ValueError):
    """The requested root or horizon does not exist in the admissible range."""


# ----------------------------------------------------------------------
# Lambert W, principal branch on [0, inf)
# ----------------------------------------------------------------------

def lambert_w0(z):
    """Principal-branch W(z) for z >= 0 via Halley iteration from log(1+z).

    Converges to |W e^W - z| <= 1e-13 * max(1, z).
    """
    arr = np.asarray(z, dtype=np.float64)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr).copy()
    if np.any(arr < 0.0):
        raise ValueError("lambert_w0 requires z >= 0")
    w = np.log1p(arr)
    for _ in range(100):
        ew = np.exp(w)
        resid = w * ew - arr
        if np.all(np.abs(resid) <= 1e-13 * np.maximum(1.0, arr)):
            break
        w1 = w + 1.0
        # Halley step, guarded against the w = -1 pole (never hit for z >= 0)
        w = w - resid / (ew * w1 - (w + 2.0) * resid / (2.0 * w1))
    if scalar:
        return float(w[0])
    return w


# ----------------------------------------------------------------------
# Gaussian-derivative data families
# ----------------------------------------------------------------------

def _gauss_profile(j: int, x: np.ndarray) -> np.ndarray:
    g = np.exp(-0.25 * x * x)
    if j == 0:
        return g
    if j == 1:
        return -0.5 * x * g
    if j == 2:
        return (0.25 * x * x - 0.5) * g
    raise ValueError(f"gaussian derivative order must be 0..2, got {j}")


def gaussian_derivative(j: int, spec: GridSpec) -> GridFunction:
    """j-th derivative of g(x) = exp(-x^2/4) sampled on the grid, j = 0..2."""
    return GridFunction(spec, _gauss_profile(int(j), spec.nodes))


M0_NONZERO = "M0_nonzero"
M0_ZERO_M1_NONZERO = "M0_zero_M1_nonzero"
M0_M1_ZERO = "M0_M1_zero"

MOMENT_CLASSES = (M0_NONZERO, M0_ZERO_M1_NONZERO, M0_M1_ZERO)


@dataclass(frozen=True)
class DataFamily:
    """Unit-amplitude data pair (f0, f1) plus a default amplitude epsilon.

    f0 and f1 are stored at profile scale; moments quoted for a family
    refer to these unscaled profiles.  The fields actually handed to a
    solver are epsilon * (f0, f1), built by initial_data().
    """

    f0: GridFunction
    f1: GridFunction
    moment_class: str
    label: str
    epsilon: float

    def initial_data(self):
        """Return (u0, u1) = epsilon * (f0, f1)."""
        if self.epsilon < 0.0:
            raise ValueError("epsilon must be >= 0")
        return (GridFunction(self.f0.spec, self.f0.values * self.epsilon),
                GridFunction(self.f1.spec, self.f1.values * self.epsilon))


def make_data_family(kind: str, epsilon: float, spec: GridSpec) -> DataFamily:
    """Build the canonical unit-profile family for a moment class.

    kinds, the MOMENT_CLASSES: "M0_nonzero" -> (g, 0);
    "M0_zero_M1_nonzero" -> (g', 0); "M0_M1_zero" -> (g'', 0).  epsilon
    is recorded as the family's default amplitude; the profiles
    themselves stay at unit scale.
    """
    eps = float(epsilon)
    if eps < 0.0:
        raise ValueError("epsilon must be >= 0")
    if kind not in MOMENT_CLASSES:
        raise ValueError(f"unknown data family kind {kind!r}")
    zero = GridFunction(spec, np.zeros(spec.points))
    f0 = gaussian_derivative(MOMENT_CLASSES.index(kind), spec)
    return DataFamily(f0, zero, kind, label=kind, epsilon=eps)


# ----------------------------------------------------------------------
# lifespan predictions
# ----------------------------------------------------------------------

SUBCRITICAL_M1 = "subcritical_M1"
CRITICAL_M1 = "critical_M1"
GENERIC = "generic"


@dataclass(frozen=True)
class LifespanPrediction:
    """The law's regime, its value at eps, and its log-log slope in eps:
    None where the law is not a pure power of eps."""

    regime: str
    value: float
    exponent: float | None


def _is_cubic(p: float) -> bool:
    return abs(p - 3.0) < 1e-12


def _t1p(eta: float, p: float) -> float:
    """T_{1,p}(eta): eta^{-2(p-1)/(3-p)} for p < 3, exp(eta^{-2}) at p = 3;
    math.inf where that passes the float range (at p = 3 already for
    eta = 1e-3, and near p = 3 for a larger eta)."""
    try:
        if _is_cubic(p):
            return math.exp(eta ** (-2.0))
        return eta ** (-2.0 * (p - 1.0) / (3.0 - p))
    except (OverflowError, ZeroDivisionError):  # the latter: eta == 0.0
        return math.inf


def _is_critical(p: float) -> bool:
    return abs(p - 1.5) < 1e-12


def predict_lifespan(p: float, eps: float,
                     moment_class: str) -> LifespanPrediction:
    """Predicted lifespan for small data of size eps in the given moment class.

    With M0 = 0 the three regimes are: p < 3/2 and M1 != 0 gives
    eps^{-(p-1)/(2-p)}; p = 3/2 and M1 != 0 gives
    eps^{-2/3} * exp(2 W(eps^{-1/2}) / 3); otherwise T_{1,p}(eps^p).
    Data with M0 != 0 follows the classical law T_p(eps) instead
    (same exponent family applied to eps rather than eps^p).  A law past
    the float range is math.inf.  The exponent is None at p = 3/2 with
    M1 != 0 and at p = 3, where the law is no pure power of eps.
    """
    p = float(p)
    eps = float(eps)
    if not (1.0 < p <= 3.0):
        raise ValueError(f"p must lie in (1, 3], got {p}")
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    if moment_class not in MOMENT_CLASSES:
        raise ValueError(f"unknown moment class {moment_class!r}")

    if moment_class == M0_ZERO_M1_NONZERO and _is_critical(p):
        val = eps ** (-2.0 / 3.0) * math.exp(2.0 * lambert_w0(1.0 / math.sqrt(eps)) / 3.0)
        return LifespanPrediction(CRITICAL_M1, val, None)
    if moment_class == M0_ZERO_M1_NONZERO and p < 1.5:
        exponent = -(p - 1.0) / (2.0 - p)
        try:
            val = eps ** exponent
        except OverflowError:   # a subnormal eps near p = 3/2
            val = math.inf
        return LifespanPrediction(SUBCRITICAL_M1, val, exponent)
    if _is_cubic(p):
        exponent = None
    elif moment_class == M0_NONZERO:
        exponent = -2.0 * (p - 1.0) / (3.0 - p)
    else:
        exponent = -2.0 * p * (p - 1.0) / (3.0 - p)
    eta = eps if moment_class == M0_NONZERO else eps ** p
    return LifespanPrediction(GENERIC, _t1p(eta, p), exponent)


# ----------------------------------------------------------------------
# threshold time tilde_T2p
# ----------------------------------------------------------------------

def _tilde_lhs(T: float, p: float) -> float:
    """(T+1)^{1/2} * int_0^T (1+t)^{-(2p-1)/2} dt, closed-form integral."""
    a = (2.0 * p - 1.0) / 2.0
    if abs(a - 1.0) < 1e-12:
        integral = math.log1p(T)
    else:
        integral = ((1.0 + T) ** (1.0 - a) - 1.0) / (1.0 - a)
    return math.sqrt(T + 1.0) * integral


def tilde_T2p(p: float, eps: float) -> float:
    """Root T > 1 of (T+1)^{1/2} int_0^T (1+t)^{-(2p-1)/2} dt = eps^{-(p-1)}.

    Bracketed bisection on the monotone left-hand side; raises HorizonError
    when the root falls at or below T = 1 (eps too large for the regime)
    or above 1e30.  A constant C on the right-hand side is the same
    equation at eps C^{-1/(p-1)}.
    """
    p = float(p)
    eps = float(eps)
    if not (1.0 < p <= 3.0):
        raise ValueError(f"p must lie in (1, 3], got {p}")
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    try:
        rhs = eps ** (-(p - 1.0))
    except OverflowError:   # past the float range: no root below 1e30
        rhs = math.inf
    if _tilde_lhs(1.0, p) >= rhs:
        raise HorizonError(
            f"threshold equation has no root above T = 1 for p={p}, eps={eps}")
    lo, hi = 1.0, 2.0
    while _tilde_lhs(hi, p) < rhs:
        hi *= 4.0
        if hi > 1e30:
            raise HorizonError("threshold root exceeds 1e30; eps is too small to bracket")
    while hi - lo > 1e-13 * hi:
        mid = 0.5 * (lo + hi)
        if _tilde_lhs(mid, p) < rhs:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def tilde_T2p_closed_form(p: float, eps: float) -> float:
    """Closed form of the threshold root, which exists at p = 3/2 only.

    There the defining equation sqrt(T+1) log(T+1) = eps^{-1/2} is solved
    exactly by T + 1 = exp(2 W(eps^{-1/2} / 2)); the factor 2 inside W is
    required for the root to match (it is usually absorbed into a free
    constant).  Any other p raises ValueError.
    """
    if not _is_critical(float(p)):
        raise ValueError(f"the closed form holds at p = 3/2 only, got {p}")
    return math.exp(2.0 * lambert_w0(0.5 * eps ** -0.5)) - 1.0
