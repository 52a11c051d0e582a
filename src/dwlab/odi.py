"""Memory-kernel integral inequality simulator run at equality.

Marches

    v(t) = eps + t^gamma * ( int_{t-1}^t (t - tau) f(tau) dtau
                           + int_{t0}^{t-1}  f(tau) dtau ),
    f(tau) = v(tau)^p * tau^{-beta},

on a uniform grid with trapezoidal memory quadrature.  The one-unit window
and the history tail are maintained as rolling sums, so each step costs
O(1) regardless of how long the march has run.  The grid is t0 + k*dt,
so a trace stores t0, dt and v, not the times.  Solutions are
self-reinforcing: v never decreases once the window is full, and for
small eps the blow-up time scales like eps^{-(p-1)/(1-beta)} when
0 <= beta < 1.

Two consumers:

* simulate_odi drives the plain inequality (gamma = 0 is the bare
  memory-kernel form; gamma = 1/2 adds the sqrt(t) prefactor of the
  corridor functional bound).
* w_inequality_fit chains two marches: the corridor form with
  beta = p - 1/2 up to the threshold time returned by tilde_T2p, then a
  restart of the plain form with beta = (p-1)/2 seeded by
  v = T^{-1/2} w(T).  The total elapsed time is fitted against eps.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._kernels import odi_march
from .fitting import ExponentFit, fit_loglog
from .special import HorizonError, tilde_T2p

__all__ = [
    "OdiConfig",
    "OdiTrace",
    "PlateauViolation",
    "simulate_odi",
    "odi_scaling_fit",
    "odi_target_slope",
    "w_inequality_total_time",
    "w_inequality_fit",
]

BLOW_FACTOR = 1e8
GROWTH_LIMIT = 10.0
_MAX_NODES = 20_000_000
_CHECK_BLOCK = 1 << 16  # nodes per block of OdiTrace's monotonicity check


class PlateauViolation(RuntimeError):
    """Phase-1 corridor march left the eps-plateau regime.

    Raised when the corridor inequality blows up (or has no room to run)
    before the threshold time, i.e. the seed is too large for the
    small-data mechanism to be visible.
    """

    def __init__(self, message, eps, blowup_time=None):
        super().__init__(message)
        self.eps = eps
        self.blowup_time = blowup_time


@dataclass(frozen=True)
class OdiConfig:
    """Parameters of one inequality march; eps is the march's seed v(t0)."""

    p: float
    beta: float
    gamma: float = 0.0
    t0: float = 4.0
    eps: float = 1e-3
    dt: float = 1.0 / 32.0
    horizon: float = 1e5

    def __post_init__(self):
        if not self.p > 1.0:
            raise ValueError(f"p must exceed 1, got {self.p}")
        if not (0.0 <= self.beta < 1.0):
            raise ValueError(f"beta must lie in [0, 1), got {self.beta}")
        if not self.t0 >= 4.0:
            raise ValueError(f"t0 must be >= 4, got {self.t0}")
        if not self.eps >= 0.0:
            raise ValueError("eps must be non-negative")
        if not self.dt > 0.0:
            raise ValueError("dt must be positive")
        if not self.horizon > self.t0:
            raise ValueError("horizon must exceed t0")
        if not math.isfinite(self.horizon):
            raise ValueError(f"horizon must be finite, got {self.horizon}")


@dataclass(frozen=True)
class OdiTrace:
    """March output: v[k] at t0 + k*dt, plus the blow-up time.

    blowup_time is None when the march reached its horizon.  v is
    non-decreasing once the memory window is full (checked here up to
    rounding slack), reflecting the self-reinforcing structure of the
    inequality at equality.
    """

    t0: float
    dt: float
    v: np.ndarray
    blowup_time: float | None = None

    def __post_init__(self):
        v = np.asarray(self.v, dtype=float)
        if v.ndim != 1 or len(v) == 0:
            raise ValueError("v must be a non-empty 1d array")
        if not self.dt > 0.0:
            raise ValueError("dt must be positive")
        if np.any(v < 0.0):
            raise ValueError("v must be non-negative")
        # the filled window starts at the first node with t >= t0 + 1; the
        # check walks it in blocks to keep temporaries small
        seg = v[_window_start(self.t0, self.dt):]
        if len(seg) > 1:
            top = float(np.max(seg, where=np.isfinite(seg), initial=1.0))
            floor = -1e-9 * max(1.0, top)
            for i in range(0, len(seg) - 1, _CHECK_BLOCK):
                if np.any(np.diff(seg[i:i + _CHECK_BLOCK + 1]) < floor):
                    raise ValueError("v decreases after the memory window fills")
        v.setflags(write=False)
        object.__setattr__(self, "v", v)
        if self.blowup_time is not None:
            object.__setattr__(self, "blowup_time", float(self.blowup_time))

    @property
    def blown_up(self) -> bool:
        return self.blowup_time is not None


def _window_start(t0: float, dt: float) -> int:
    """First k with t0 + k*dt >= t0 + 1, both sides rounded as floats.

    t0 + k*dt rounds exactly as np.arange(n) * dt + t0 does, so this is
    the index np.searchsorted finds on that array.
    """
    edge = t0 + 1.0
    k = math.ceil(1.0 / dt)
    while k > 0 and t0 + (k - 1) * dt >= edge:
        k -= 1
    while t0 + k * dt < edge:
        k += 1
    return k


def _snap_dt(dt: float):
    """Round dt to 1/m so the one-unit window is a whole number of steps."""
    m = max(1, int(round(1.0 / dt)))
    return 1.0 / m, m


def _march(seed, p, beta, gamma, t0, dt, horizon):
    """Run the kernel loop; returns (dt snapped to 1/m, v, blow index or -1).

    v[k] sits at t0 + k*dt.  The kernel takes Python floats: float **
    float raises OverflowError where a numpy scalar would return inf.
    """
    dt, m = _snap_dt(dt)
    n_max = int(math.ceil((horizon - t0) / dt)) + 1
    if n_max > _MAX_NODES:
        raise ValueError(
            f"march would need {n_max} nodes; shrink horizon or grow dt")
    seed = float(seed)
    v, _, blow = odi_march(
        seed, float(p), float(beta), float(gamma), float(t0), dt, m, n_max,
        BLOW_FACTOR * seed, GROWTH_LIMIT)
    return dt, v, blow


def simulate_odi(cfg: OdiConfig) -> OdiTrace:
    """March the inequality at equality until blow-up or cfg.horizon.

    Blow-up is declared when v reaches 1e8 times the seed or grows by
    more than a factor of 10 in one step.  A zero seed is the exact fixed
    point and returns a two-node zero trace.
    """
    if cfg.eps == 0.0:
        return OdiTrace(cfg.t0, cfg.horizon - cfg.t0, np.zeros(2))
    dt, v, blow = _march(cfg.eps, cfg.p, cfg.beta, cfg.gamma, cfg.t0,
                         cfg.dt, cfg.horizon)
    return OdiTrace(cfg.t0, dt, v,
                    cfg.t0 + blow * dt if blow >= 0 else None)


def odi_target_slope(p: float, beta: float) -> float:
    """Predicted log-log slope of blow-up time vs eps: -(p-1)/(1-beta)."""
    if not (0.0 <= beta < 1.0):
        raise ValueError("scaling law requires 0 <= beta < 1")
    return -(p - 1.0) / (1.0 - beta)


def odi_scaling_fit(cfg_base: OdiConfig, eps_list) -> ExponentFit:
    """Fit blow-up time against eps on log-log axes.

    Every eps in the list must produce a blow-up before cfg_base.horizon;
    a surviving run aborts the fit since its time is censored.  Compare
    the slope with odi_target_slope(cfg_base.p, cfg_base.beta).
    """
    eps_arr = np.asarray(eps_list, dtype=float)
    if eps_arr.ndim != 1 or len(eps_arr) < 3:
        raise ValueError("need at least 3 eps values")
    if np.any(eps_arr <= 0.0):
        raise ValueError("eps values must be positive")
    times = np.empty_like(eps_arr)
    for i, e in enumerate(eps_arr):
        trace = simulate_odi(replace(cfg_base, eps=float(e)))
        if not trace.blown_up:
            raise RuntimeError(
                f"run at eps={e:g} survived to the horizon; "
                "blow-up time is censored, fit aborted")
        times[i] = trace.blowup_time
    window = (float(np.min(eps_arr)), float(np.max(eps_arr)))
    return fit_loglog(eps_arr, times, window=window)


def w_inequality_total_time(p: float, eps: float, m1_abs: float = 1.0,
                            dt: float = 1.0 / 32.0,
                            threshold_const: float = 1.0) -> float:
    """Two-phase blow-up time for the corridor functional bound.

    Phase 1 marches the sqrt(t)-weighted window inequality with
    beta = p - 1/2 from t = 4 up to the threshold time T solving
    sqrt(T+1) * int_0^T (1+t)^{-(2p-1)/2} dt = threshold_const * eps^{-(p-1)};
    the march must stay on its eps-plateau (no blow-up) for the small-data
    mechanism to apply.  Phase 2 restarts the plain memory-kernel march
    with beta = (p-1)/2, seeded by v = T^{-1/2} w(T) where w(T) is the
    phase-1 endpoint.  Returns T plus the phase-2 duration.

    Raises PlateauViolation when eps is too large for phase 1 to run
    (no threshold root above t = 5, or blow-up before the threshold).
    """
    p = float(p)
    eps = float(eps)
    if not (1.0 < p <= 1.5):
        raise ValueError(f"p must lie in (1, 3/2], got {p}")
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    seed = eps * m1_abs
    t0 = 4.0
    try:
        t_thresh = tilde_T2p(p, eps, C=threshold_const)
    except HorizonError as exc:
        raise PlateauViolation(
            f"no threshold time above 1 at eps={eps:g}; "
            "seed too large for the plateau regime", eps) from exc
    if t_thresh <= t0 + 1.0:
        raise PlateauViolation(
            f"threshold time {t_thresh:.3g} leaves no room above t0={t0:g} "
            f"at eps={eps:g}", eps)
    dt1, v1, blow1 = _march(seed, p, p - 0.5, 0.5, t0, dt, t_thresh)
    if blow1 >= 0:
        t_blow = t0 + blow1 * dt1
        raise PlateauViolation(
            f"corridor march blew up at t={t_blow:.4g} before the "
            f"threshold {t_thresh:.4g} at eps={eps:g}", eps,
            blowup_time=t_blow)
    w_end = float(v1[-1])
    restart = w_end / math.sqrt(t_thresh)
    beta2 = 0.5 * (p - 1.0)
    scale = restart ** (-2.0 * (p - 1.0) / (3.0 - p))
    horizon2 = t0 + max(100.0, 8.0 * scale)
    for _ in range(8):
        dt2 = dt
        while (horizon2 - t0) / dt2 > 0.5 * _MAX_NODES and dt2 < 1.0:
            dt2 *= 2.0
        cfg2 = OdiConfig(p=p, beta=beta2, gamma=0.0, t0=t0, eps=restart,
                         dt=dt2, horizon=horizon2)
        trace2 = simulate_odi(cfg2)
        if trace2.blown_up:
            return t_thresh + (trace2.blowup_time - t0)
        horizon2 = t0 + 2.0 * (horizon2 - t0)
    raise RuntimeError(
        f"restart march survived to {horizon2:g} at eps={eps:g}; "
        "cannot form a total time")


def w_inequality_fit(p: float, eps_list, m1_abs: float = 1.0,
                     dt: float = 1.0 / 32.0,
                     threshold_const: float = 1.0) -> ExponentFit:
    """Fit the two-phase total time against eps on log-log axes.

    The slope should track -(p-1)/(2-p) below the p = 3/2 borderline; at
    the borderline itself the threshold time carries a logarithmic
    correction, so compare totals pointwise against the closed-form
    predictor there instead of reading one power law.
    """
    eps_arr = np.asarray(eps_list, dtype=float)
    if eps_arr.ndim != 1 or len(eps_arr) < 3:
        raise ValueError("need at least 3 eps values")
    totals = np.array([
        w_inequality_total_time(p, e, m1_abs=m1_abs, dt=dt,
                                threshold_const=threshold_const)
        for e in eps_arr
    ])
    window = (float(np.min(eps_arr)), float(np.max(eps_arr)))
    return fit_loglog(eps_arr, totals, window=window)
