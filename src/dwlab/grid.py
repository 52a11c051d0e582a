"""Uniform periodic grids and the measurement layer built on them.

Everything in the package lives on a truncated torus [-L, L) sampled at N
equispaced nodes.  This module owns the grid description, sampled functions,
trapezoidal quadrature and moment functionals.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GridError",
    "MomentOrderError",
    "GridSpec",
    "GridFunction",
    "Trajectory",
    "lp_norm",
    "moment",
]


class GridError(ValueError):
    """Invalid grid construction or incompatible grid operands."""


class MomentOrderError(ValueError):
    """Moment order too high to trust on a truncated domain."""


@dataclass(frozen=True)
class GridSpec:
    """Periodic grid on [-L, L) with N nodes, x_j = -L + j*h, h = 2L/N.

    N is 2^k or 3 2^k, at least 16: the sizes the lifespan march grows its
    sub-grids through, all of them fast FFT lengths.
    """

    half_width: float
    points: int

    def __post_init__(self):
        L = float(self.half_width)
        N = int(self.points)
        if not math.isfinite(L) or L <= 0.0:
            raise GridError(f"half_width must be positive and finite, got {self.half_width}")
        m = N // 3 if N % 3 == 0 else N
        if N < 16 or (m & (m - 1)) != 0:
            raise GridError(f"points must be 2^k or 3*2^k, at least 16, got {self.points}")
        object.__setattr__(self, "half_width", L)
        object.__setattr__(self, "points", N)

    @property
    def h(self) -> float:
        return 2.0 * self.half_width / self.points

    @property
    def nodes(self) -> np.ndarray:
        return -self.half_width + self.h * np.arange(self.points)

    @property
    def freqs(self) -> np.ndarray:
        """Real-FFT wavenumbers xi_k = pi*k/L, k = 0..N/2."""
        return 2.0 * np.pi * np.fft.rfftfreq(self.points, d=self.h)


@dataclass(frozen=True)
class GridFunction:
    """Real samples of a function on a GridSpec; immutable after construction."""

    spec: GridSpec
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != (self.spec.points,):
            raise GridError(f"values shape {v.shape} does not match grid with N={self.spec.points}")
        if not np.all(np.isfinite(v)):
            raise GridError("values must be finite")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution history on one grid: u[i] and v[i] = du/dt at times[i].

    u and v are float64 arrays of shape (len(times), N).  The record holds
    read-only views of the arrays it is given and copies none of them.
    """

    spec: GridSpec
    times: np.ndarray
    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=np.float64)
        if t.ndim != 1 or len(t) == 0:
            raise GridError("times must be a non-empty 1-D array")
        if t[0] != 0.0:
            raise GridError("trajectory must start at t = 0")
        if not (np.all(np.diff(t) > 0.0) and math.isfinite(t[-1])):
            raise GridError("times must be finite and strictly increasing")
        object.__setattr__(self, "times", _read_only(t))
        for name in ("u", "v"):
            a = np.asarray(getattr(self, name), dtype=np.float64)
            if a.shape != (len(t), self.spec.points):
                raise GridError(f"{name} shape {a.shape} is not "
                                f"(len(times), N) = ({len(t)}, {self.spec.points})")
            # min and max propagate NaN and +-inf without an n N temporary
            if not (math.isfinite(a.min()) and math.isfinite(a.max())):
                raise GridError(f"{name} must be finite")
            object.__setattr__(self, name, _read_only(a))


def _read_only(a: np.ndarray) -> np.ndarray:
    """A read-only view of a; a itself stays writable."""
    view = a.view()
    view.setflags(write=False)
    return view


def lp_norm(f: GridFunction, p: float) -> float:
    """L^p norm by trapezoidal quadrature (= h * sum on a periodic grid); p = inf is max |f|."""
    if p == math.inf:
        return float(np.max(np.abs(f.values)))
    p = float(p)
    if p < 1.0:
        raise ValueError(f"p must be >= 1 or inf, got {p}")
    h = f.spec.h
    if p == 1.0:
        return float(h * np.sum(np.abs(f.values)))
    if p == 2.0:
        return float(math.sqrt(h * np.sum(f.values * f.values)))
    return float((h * np.sum(np.abs(f.values) ** p)) ** (1.0 / p))


def moment(f: GridFunction, k: int) -> float:
    """M_k(f) = int x^k f dx, trapezoidal; integer k <= 4 only (x^k amplifies truncation)."""
    if k not in range(5):
        raise MomentOrderError(f"moment order must be 0..4, got {k}")
    x = f.spec.nodes
    return float(f.spec.h * np.sum((x ** int(k)) * f.values))
