"""Linear propagators for u_tt + u_t - u_xx = 0 and their comparison operators.

S(t) denotes the solution operator with S(0) = 0, dS/dt(0) = Id.  Its Fourier
symbol is

    sigma(t, xi) = e^{-t/2} sinh(t mu)/mu,  mu = sqrt(1/4 - xi^2),  |xi| < 1/2,
    sigma(t, xi) = e^{-t/2} sin(t nu)/nu,   nu = sqrt(xi^2 - 1/4),  |xi| > 1/2,

with the removable seam at |xi| = 1/2 handled by a short Taylor series.  A
free solution with data (u0, u1) is u(t) = S(t)(u0 + u1) + dS/dt(t) u0.  The
physical-space form of S(t) is the light-cone Bessel average

    S(t)f(x) = e^{-t/2} * (1/2) * int_{-t}^{t} I0(sqrt(t^2 - y^2)/2) f(x - y) dy,

whose total mass is 1 - e^{-t}.  The residual scan compares S(t) with the
heat multiplier e^{-t xi^2} on the same grid.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _kernels
from .fitting import ExponentFit, fit_loglog
from .grid import GridFunction, GridSpec, lp_norm

__all__ = [
    "TruncationError",
    "KernelRangeError",
    "PropagatorSymbol",
    "damped_symbol",
    "linear_pair_matrix",
    "apply_S",
    "apply_dtS",
    "apply_S_kernel",
    "DecayReport",
    "decay_scan",
    "residual_scan",
    "HEAT_EXPANSION_SLOPES",
]


class TruncationError(ValueError):
    """Input does not decay at the domain boundary; periodic images would pollute."""


class KernelRangeError(ValueError):
    """Kernel quadrature requested outside its supported time range."""


_SEAM_Z = 0.1  # switch to the Taylor series when |t| * sqrt(|1/4 - xi^2|) < this


def _symbol_pair(t, xi: np.ndarray, rate: bool = True):
    """(sigma, d sigma/dt) at time t on an arbitrary wavenumber array.

    t may also be a 1-D array of times; each output then has one row per
    time, and every row equals the scalar call at that time bit for bit.
    With rate=False d sigma/dt is not built and comes back as None.  Where
    e^{-t/2} underflows to 0 (t above about 1490) the oscillatory modes
    are 0 without a sine or cosine taken.
    """
    ts = np.asarray(t, dtype=float)
    if np.any(ts < 0.0):
        raise ValueError("t must be >= 0")
    shape = ts.shape + xi.shape
    col = ts.shape + (1,) * xi.ndim
    w = 0.25 - xi * xi
    # e^{-t/2} from math.exp, one value per time, as the scalar call takes it
    damp = np.array([math.exp(-0.5 * s) for s in ts.flat]).reshape(col)
    T, W, D = (np.broadcast_to(a, shape) for a in (ts.reshape(col), w, damp))
    sigma = np.empty(shape)
    sigma_t = np.empty(shape) if rate else None

    seam = T * np.sqrt(np.abs(w)) < _SEAM_Z   # z = t sqrt|w|
    hyp = (w > 0.0) & ~seam
    trig = (w < 0.0) & ~seam
    if not damp.all():
        under = trig & (D == 0.0)
        trig &= ~under
        sigma[under] = 0.0
        if rate:
            sigma_t[under] = 0.0

    if np.any(seam):
        # sinh(t mu)/mu and cosh(t mu) are entire in w = mu^2; six terms of
        # the Taylor series in w t^2 are exact to 1e-16 for |z| < 0.1
        ti, di = T[seam], D[seam]
        q = W[seam] * ti * ti
        s = np.zeros_like(q)   # sinh(t mu)/(t mu)
        c = np.zeros_like(q)   # cosh(t mu)
        qk = np.ones_like(q)
        for m in range(6):
            s += qk / math.factorial(2 * m + 1)
            if rate:
                c += qk / math.factorial(2 * m)
            qk = qk * q
        sig = di * ti * s
        sigma[seam] = sig
        if rate:
            sigma_t[seam] = di * c - 0.5 * sig

    if np.any(hyp):
        ti = T[hyp]
        mu = np.sqrt(W[hyp])
        # e^{-t/2} folded into the exponentials keeps everything in [0, 1]
        ep = np.exp(ti * (mu - 0.5))
        em = np.exp(-ti * (mu + 0.5))
        sig = (ep - em) / (2.0 * mu)
        sigma[hyp] = sig
        if rate:
            sigma_t[hyp] = 0.5 * (ep + em) - 0.5 * sig

    if np.any(trig):
        ti, di = T[trig], D[trig]
        nu = np.sqrt(-W[trig])
        sig = di * np.sin(ti * nu) / nu
        sigma[trig] = sig
        if rate:
            sigma_t[trig] = di * np.cos(ti * nu) - 0.5 * sig

    return sigma, sigma_t


@dataclass(frozen=True)
class PropagatorSymbol:
    """sigma and d sigma/dt sampled on the real-FFT wavenumbers of a grid."""

    sigma: np.ndarray
    sigma_t: np.ndarray


def damped_symbol(t: float, spec: GridSpec) -> PropagatorSymbol:
    return PropagatorSymbol(*_symbol_pair(t, spec.freqs))


def linear_pair_matrix(t: float, spec: GridSpec):
    """Exact propagator of the first-order system (u, u_t) in Fourier space.

    Returns (m11, m12, m21, m22) with u(t)^ = m11 u0^ + m12 u1^ and
    u_t(t)^ = m21 u0^ + m22 u1^.
    """
    xi = spec.freqs
    sigma, sigma_t = _symbol_pair(t, xi)
    return (sigma_t + sigma, sigma, -(xi * xi) * sigma, sigma_t)


def _check_boundary(f: GridFunction, tol: float = 1e-12) -> None:
    v = f.values
    scale = float(np.max(np.abs(v)))
    if scale == 0.0:
        return
    edge = max(abs(v[0]), abs(v[-1]))
    if edge > tol * scale:
        raise TruncationError(
            f"boundary value {edge:.3e} exceeds {tol:.0e} * max|f| = {tol * scale:.3e}; "
            "enlarge the domain")


def _apply_multiplier(f: GridFunction, mult: np.ndarray) -> GridFunction:
    out = np.fft.irfft(np.fft.rfft(f.values) * mult, n=f.spec.points)
    return GridFunction(f.spec, out)


def apply_S(t: float, f: GridFunction) -> GridFunction:
    """S(t) f via the Fourier multiplier; f must vanish at the boundary."""
    _check_boundary(f)
    return _apply_multiplier(f, damped_symbol(t, f.spec).sigma)


def apply_dtS(t: float, f: GridFunction) -> GridFunction:
    """dS/dt (t) f via the Fourier multiplier; equals f at t = 0.  f must
    vanish at the boundary."""
    _check_boundary(f)
    return _apply_multiplier(f, damped_symbol(t, f.spec).sigma_t)


def _heat_symbol(t: float, xi: np.ndarray) -> np.ndarray:
    if t < 0.0:
        raise ValueError("t must be >= 0")
    return np.exp(-t * xi * xi)


# ----------------------------------------------------------------------
# physical-space Bessel kernel for S(t)
# ----------------------------------------------------------------------

_KERNEL_T_MAX = 50.0
_UPSAMPLE = 8
_NODES_PER_CELL = 8


def _cubic_lagrange_weights(r: np.ndarray) -> np.ndarray:
    """Cubic Lagrange weights on taps (-1, 0, 1, 2) evaluated at r in [0, 1)."""
    w = np.empty((len(r), 4))
    w[:, 0] = -r * (r - 1.0) * (r - 2.0) / 6.0
    w[:, 1] = (r + 1.0) * (r - 1.0) * (r - 2.0) / 2.0
    w[:, 2] = -(r + 1.0) * r * (r - 2.0) / 2.0
    w[:, 3] = (r + 1.0) * r * (r - 1.0) / 6.0
    return w


def kernel_quadrature(t: float, h: float):
    """Simpson nodes and weights on [-t, t], spacing <= h/_NODES_PER_CELL.

    Returns (y nodes, weights including kernel values and the e^{-t/2}/2
    prefactor), so that sum(w * f(x - y)) approximates S(t)f(x).
    """
    n_iv = 2 * max(4, math.ceil(_NODES_PER_CELL * t / (2.0 * h)) * 2)
    hq = 2.0 * t / n_iv
    y = -t + hq * np.arange(n_iv + 1)
    w = np.full(n_iv + 1, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    w *= hq / 3.0
    # I0 argument as sqrt((t-y)(t+y))/2: no cancellation near |y| = t
    arg = 0.5 * np.sqrt(np.maximum((t - y) * (t + y), 0.0))
    kv = _kernels.bessel_i0_kernel(arg)
    return y, 0.5 * math.exp(-0.5 * t) * w * kv


def apply_S_kernel(t: float, f: GridFunction) -> GridFunction:
    """S(t) f by direct light-cone quadrature of the Bessel kernel.

    Composite Simpson in y with at least _NODES_PER_CELL nodes per grid cell
    (endpoints land exactly on +/- t); f is evaluated off-grid by cubic
    interpolation of its 8x band-limited upsampling, which
    _kernels.kernel_convolve applies on f's own spectrum.  Supported for
    0 < t <= 50; beyond that the kernel dynamic range makes the quadrature
    pointless and KernelRangeError is raised.
    """
    t = float(t)
    if not (0.0 < t <= _KERNEL_T_MAX):
        raise KernelRangeError(f"kernel quadrature supports 0 < t <= {_KERNEL_T_MAX}, got {t}")
    spec = f.spec
    if 2.0 * t > 2.0 * spec.half_width:
        raise KernelRangeError("light cone wider than the periodic cell")
    y, wk = kernel_quadrature(t, spec.h)

    R = _UPSAMPLE
    hf = spec.h / R
    s = y / hf                      # shift in fine-grid units
    mq = np.ceil(s).astype(np.int64)
    rho = mq - s                    # in [0, 1)
    lag = _cubic_lagrange_weights(rho)
    out = _kernels.kernel_convolve(f.values, wk, mq, lag, R, spec.points)
    return GridFunction(spec, out)


# ----------------------------------------------------------------------
# decay and residual scans
# ----------------------------------------------------------------------

# target slopes for ||S(t) f||_{L^p} with f = g, g', g'' in L^1:
# heat-expansion rates -1/(2p') - k/2.
def HEAT_EXPANSION_SLOPES(p: float):
    a = (p - 1.0) / (2.0 * p)
    return (-a, -a - 0.5, -a - 1.0)


@dataclass(frozen=True)
class DecayReport:
    times: np.ndarray
    norms: np.ndarray
    fit: ExponentFit

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("t,norm\n")
            for t, v in zip(self.times, self.norms):
                fh.write(f"{t:.17g},{v:.17g}\n")


@lru_cache(maxsize=1)
def _scan_sigmas(spec: GridSpec, times: tuple) -> tuple:
    """sigma(t) on spec for each scan time; the scans of one input share it."""
    return tuple(_symbol_pair(t, spec.freqs, rate=False)[0] for t in times)


@lru_cache(maxsize=1)
def _scan_gaps(spec: GridSpec, times: tuple) -> tuple:
    """The residual scan's multipliers sigma(t) - e^{-t xi^2}, one per scan
    time, as (k, the multiplier on modes < k).  From mode k on the heat
    symbol has underflowed to 0, so the multiplier there is sigma(t) to the
    bit; the scans of every input share these heads with _scan_sigmas."""
    xi = spec.freqs
    gaps = []
    for t, sig in zip(times, _scan_sigmas(spec, times)):
        heat = _heat_symbol(t, xi)
        k = int(np.flatnonzero(heat)[-1]) + 1
        gaps.append((k, sig[:k] - heat[:k]))
    return tuple(gaps)


def _scan_terms(f: GridFunction, times: np.ndarray):
    """Once per scan: the boundary check, rfft(f) and the S(t) multipliers."""
    _check_boundary(f)
    return np.fft.rfft(f.values), _scan_sigmas(f.spec, tuple(times.tolist()))


def _scan_norm(g: np.ndarray, spec: GridSpec, p: float) -> float:
    """||irfft(g)||_{L^p} on spec for a half spectrum g.

    At p = 2 no transform runs: the discrete Parseval identity gives the
    same h * sum of squares from g, with the DC and Nyquist bins read as
    real (as irfft reads them) and every other bin counted twice for its
    conjugate partner.
    """
    if p == 2.0:
        inner = g[1:-1]
        energy = (2.0 * np.vdot(inner, inner).real
                  + g[0].real ** 2 + g[-1].real ** 2)
        return math.sqrt(spec.h / spec.points * energy)
    return lp_norm(GridFunction(spec, np.fft.irfft(g, n=spec.points)), p)


def decay_scan(f: GridFunction, p: float, times) -> DecayReport:
    """||S(t) f||_{L^p} over the given times with a log-log fit over all
    of them.

    One rfft(f) per scan; each norm comes from the spectrum rfft(f)*sigma(t),
    by Parseval at p = 2 and through one irfft per time otherwise.
    """
    times = np.asarray(times, dtype=float)
    fh, sigmas = _scan_terms(f, times)
    norms = np.array([_scan_norm(fh * sig, f.spec, p) for sig in sigmas])
    return DecayReport(times, norms, fit_loglog(times, norms))


def residual_scan(f: GridFunction, p: float, times) -> DecayReport:
    """Decay of S(t)f minus its parabolic approximation,
    ||S(t)f - e^{t Lap} f||_{L^p}, e^{t Lap} by the multiplier e^{-t xi^2},
    fitted as in decay_scan.

    The gap is one multiplier, sigma(t) - e^{-t xi^2}, applied to rfft(f)
    (see _scan_gaps); its norm is taken as in decay_scan.
    """
    times = np.asarray(times, dtype=float)
    fh, sigmas = _scan_terms(f, times)
    norms = []
    for sig, (k, head) in zip(sigmas, _scan_gaps(f.spec, tuple(times.tolist()))):
        g = fh * sig
        g[:k] = fh[:k] * head
        norms.append(_scan_norm(g, f.spec, p))
    norms = np.array(norms)
    return DecayReport(times, norms, fit_loglog(times, norms))
