"""Memory-kernel integral inequality simulator run at equality.

Marches

    v(t) = eps + int_{t-1}^t (t - tau) f(tau) dtau
               + int_{T0}^{t-1}  f(tau) dtau,
    f(tau) = v(tau)^p * tau^{-beta},

on an adaptive mesh (``_kernels.odi_march``): f is a cubic Hermite on
each mesh step, the kernel is integrated exactly, and the step follows
v's growth time, so it grows far past the unit delay while v changes
slowly and shrinks as v blows up.  This is the delay equation v'' = f(t) -
f(t-1).  A trace stores the node times and v.  Solutions are
self-reinforcing: v never decreases once the window is full, and for
small eps the blow-up time scales like eps^{-(p-1)/(1-beta)} when
0 <= beta < 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._kernels import odi_march
from .fitting import MIN_POINTS, fit_loglog

__all__ = [
    "OdiConfig",
    "OdiTrace",
    "simulate_odi",
    "odi_scaling_fit",
    "odi_target_slope",
]

BLOW_FACTOR = 1e8
T0 = 4.0  # the march starts here, at v(T0) = eps


@dataclass(frozen=True)
class OdiConfig:
    """Parameters of one inequality march; eps is the march's seed v(T0)."""

    p: float
    beta: float
    eps: float = 1e-3
    horizon: float = 1e5

    def __post_init__(self):
        if not self.p > 1.0:
            raise ValueError(f"p must exceed 1, got {self.p}")
        if not (0.0 <= self.beta < 1.0):
            raise ValueError(f"beta must lie in [0, 1), got {self.beta}")
        if not (self.eps >= 0.0 and math.isfinite(self.eps)):
            raise ValueError(f"eps must be finite and non-negative, "
                             f"got {self.eps}")
        if not self.horizon > T0:
            raise ValueError(f"horizon must exceed T0 = {T0:g}")
        if not math.isfinite(self.horizon):
            raise ValueError(f"horizon must be finite, got {self.horizon}")


@dataclass(frozen=True)
class OdiTrace:
    """March output: v[k] at the node time t[k], plus the blow-up time.

    blowup_time is None when the march reached its horizon.  t never
    decreases.  v is non-decreasing once the memory window is full
    (checked here up to rounding slack), reflecting the self-reinforcing
    structure of the inequality at equality.
    """

    t: np.ndarray
    v: np.ndarray
    blowup_time: float | None = None

    def __post_init__(self):
        # copies, so freezing them leaves the caller's arrays writable
        t = np.array(self.t, dtype=float)
        v = np.array(self.v, dtype=float)
        if v.ndim != 1 or len(v) == 0:
            raise ValueError("v must be a non-empty 1d array")
        if t.shape != v.shape:
            raise ValueError("t and v must have the same shape")
        if np.any(np.diff(t) < 0.0):
            raise ValueError("t must be non-decreasing")
        if np.any(v < 0.0):
            raise ValueError("v must be non-negative")
        # the filled window starts at the first node with t >= t[0] + 1
        seg = v[np.searchsorted(t, t[0] + 1.0):]
        if len(seg) > 1:
            top = float(np.max(seg, where=np.isfinite(seg), initial=1.0))
            if np.any(np.diff(seg) < -1e-9 * max(1.0, top)):
                raise ValueError("v decreases after the memory window fills")
        for name, arr in (("t", t), ("v", v)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.blowup_time is not None:
            object.__setattr__(self, "blowup_time", float(self.blowup_time))

    @property
    def blown_up(self) -> bool:
        return self.blowup_time is not None

    @property
    def steps(self) -> int:
        """Solver steps taken: the nodes after the seed."""
        return len(self.t) - 1


def simulate_odi(cfg: OdiConfig) -> OdiTrace:
    """March the inequality at equality until blow-up or cfg.horizon.

    Blow-up is the crossing of BLOW_FACTOR times the seed (see
    odi_march); its time is the last node's.  A zero seed is the exact
    fixed point and returns a two-node zero trace.
    """
    if cfg.eps == 0.0:
        return OdiTrace(np.array([T0, cfg.horizon]), np.zeros(2))
    # the kernel takes Python floats: float ** float raises OverflowError
    # where a numpy scalar would return inf
    seed = float(cfg.eps)
    nodes, n, blow = odi_march(
        seed, float(cfg.p), float(cfg.beta), T0,
        float(cfg.horizon), BLOW_FACTOR * seed)
    t, v = nodes.T
    return OdiTrace(t, v, t[blow] if blow >= 0 else None)


def odi_target_slope(p: float, beta: float) -> float:
    """Predicted log-log slope of blow-up time vs eps: -(p-1)/(1-beta)."""
    if not (0.0 <= beta < 1.0):
        raise ValueError("scaling law requires 0 <= beta < 1")
    return -(p - 1.0) / (1.0 - beta)


def odi_scaling_fit(cfg_base: OdiConfig, eps_list):
    """March each eps in order, then fit blow-up time against eps.

    Returns (traces, fit): the traces of the eps that blew up, in list
    order, and the log-log fit of their blow-up times over every eps.  The
    march stops at the first eps that survives to cfg_base.horizon, since
    its time is censored; fit is then None and traces holds the eps before
    it.  Compare the slope with odi_target_slope(cfg_base.p, cfg_base.beta).
    """
    eps_arr = np.asarray(eps_list, dtype=float)
    if eps_arr.ndim != 1 or len(eps_arr) < MIN_POINTS:
        raise ValueError(f"need at least {MIN_POINTS} eps values")
    if not np.all((eps_arr > 0.0) & np.isfinite(eps_arr)):
        raise ValueError("eps values must be positive and finite")
    traces = []
    for e in eps_arr:
        trace = simulate_odi(replace(cfg_base, eps=float(e)))
        if not trace.blown_up:
            return traces, None
        traces.append(trace)
    times = [tr.blowup_time for tr in traces]
    return traces, fit_loglog(eps_arr, times)
