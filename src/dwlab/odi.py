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

gamma = 0 is the bare memory-kernel form; gamma = 1/2 adds the sqrt(t)
prefactor of the corridor functional bound.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._kernels import odi_march
from .fitting import fit_loglog

__all__ = [
    "OdiConfig",
    "OdiTrace",
    "simulate_odi",
    "odi_scaling_fit",
    "odi_target_slope",
]

BLOW_FACTOR = 1e8
GROWTH_LIMIT = 10.0
_MAX_NODES = 20_000_000
_CHECK_BLOCK = 1 << 16  # nodes per block of OdiTrace's monotonicity check


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


def simulate_odi(cfg: OdiConfig) -> OdiTrace:
    """March the inequality at equality until blow-up or cfg.horizon.

    Blow-up is declared when v reaches 1e8 times the seed or grows by
    more than a factor of 10 in one step.  A zero seed is the exact fixed
    point and returns a two-node zero trace.  dt is snapped to 1/m, and
    v[k] sits at t0 + k*dt.
    """
    if cfg.eps == 0.0:
        return OdiTrace(cfg.t0, cfg.horizon - cfg.t0, np.zeros(2))
    dt, m = _snap_dt(cfg.dt)
    n_max = int(math.ceil((cfg.horizon - cfg.t0) / dt)) + 1
    if n_max > _MAX_NODES:
        raise ValueError(
            f"march would need {n_max} nodes; shrink horizon or grow dt")
    # the kernel takes Python floats: float ** float raises OverflowError
    # where a numpy scalar would return inf
    seed = float(cfg.eps)
    v, _, blow = odi_march(
        seed, float(cfg.p), float(cfg.beta), float(cfg.gamma), float(cfg.t0),
        dt, m, n_max, BLOW_FACTOR * seed, GROWTH_LIMIT)
    return OdiTrace(cfg.t0, dt, v,
                    cfg.t0 + blow * dt if blow >= 0 else None)


def odi_target_slope(p: float, beta: float) -> float:
    """Predicted log-log slope of blow-up time vs eps: -(p-1)/(1-beta)."""
    if not (0.0 <= beta < 1.0):
        raise ValueError("scaling law requires 0 <= beta < 1")
    return -(p - 1.0) / (1.0 - beta)


def odi_scaling_fit(cfg_base: OdiConfig, eps_list):
    """March each eps in order, then fit blow-up time against eps.

    Returns (times, fit): the blow-up times of the eps marched, in list
    order, and the log-log fit over the full eps range.  The march stops
    at the first eps that survives to cfg_base.horizon, since its time is
    censored; fit is then None and times holds the eps before it.
    Compare the slope with odi_target_slope(cfg_base.p, cfg_base.beta).
    """
    eps_arr = np.asarray(eps_list, dtype=float)
    if eps_arr.ndim != 1 or len(eps_arr) < 3:
        raise ValueError("need at least 3 eps values")
    if np.any(eps_arr <= 0.0):
        raise ValueError("eps values must be positive")
    times = []
    for e in eps_arr:
        trace = simulate_odi(replace(cfg_base, eps=float(e)))
        if not trace.blown_up:
            return times, None
        times.append(trace.blowup_time)
    window = (float(np.min(eps_arr)), float(np.max(eps_arr)))
    return times, fit_loglog(eps_arr, times, window=window)
