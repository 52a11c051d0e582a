"""Time integration for the damped wave equation with power forcing.

The first-order system for y = (u, v), v = du/dt,

    du/dt = v,   dv/dt = -v + u_xx + |u|^p,

is advanced by an integrating-factor RK4: the linear flow is applied
exactly through the damped symbol pair (see propagators), classical RK4
handles the transformed nonlinearity.  With E = M(dt), Eh = M(dt/2) the
step reads

    k1 = N(y),  k2 = N(Eh (y + dt/2 k1)),  k3 = N(Eh y + dt/2 k2),
    k4 = N(E y + dt Eh k3),
    y' = E y + dt/6 (E k1 + 2 Eh (k2 + k3) + k4),

where N(y) = (0, |u|^p).  The linear symbol is bounded on every Fourier
mode, so the scheme is not stiffness-limited, and exactness on the
linear part makes linear-regime checks sharp.  |u|^p is evaluated
pointwise on a 2x-refined grid and spectrally restricted; exact
dealiasing is impossible for non-polynomial powers, so the residual
aliasing is controlled a posteriori by duhamel_residual.

Stages with the same input share one batched FFT pair: k1 and k3 depend
on y alone (N has no u row), k2 and k4 on k1 and k3.

Blow-up runs march adaptively with the embedded RK4(3) pair of Balac &
Mahe (Comput. Phys. Commun. 184 (2013) 1211-1219): with k5 = N(y'), the
order-3 partner differs from y' by dt/10 (k4 - k5) in the v row, and k5
is the next step's k1 (first same as last).  An attempt makes two batched
nonlinear calls, four rows: (k2, k4), then (k5, the next attempt's k3
guessed at the same dt).  One more single-row call rebuilds k3 only when
the next dt differs: after a rejection, a ladder move, or on the
remainder up to the horizon.  The step size follows the elementary
controller of Hairer, Norsett & Wanner (Solving ODEs I, II.4), fac =
min(2, max(0.2, 0.9 (tol/err)^(1/4))), after an accepted step and after
a rejection for tolerance; dt does not grow on the first accept after a
rejection, and a doubling sup norm or a non-finite candidate halves it.
dt lives on the ladder dt_init 2^(k/4), clamped to [DT_MIN, dt_max]: the
controller moves the integer k by 4 log2 fac rounded to the nearest
integer, so a run meets only a few dozen distinct step sizes and their
linear pairs stay cached.  The stage operators, complex copies built from
them, are cached for the last eight step sizes: a march meets its step
sizes one after another.

The stop rule is one window: a run is declared blown up at the first
accepted step t whose extrapolated divergence time T lies within 0.9% of
T past t.  T is the first root past t of a least-squares cubic through
z = max|u|^(-(p-1)/2) over the last 20 accepted steps.  z is linear in
T - t to first order at the ODE blow-up rate u ~ (T - t)^(-2/(p-1))
(Merle & Zaag, Amer. J. Math. 125 (2003) 1147-1164) whatever max|u| is,
so no sup-norm level gates the check, and the cubic takes up the
curvature that biases a line's root late.  The cubic is fitted only once
the root of the secant through the last two accepted samples, taken
after every accepted step, lies within 2% of itself past t.  Replayed
without the trigger on the gate ladders, the torus runs and the long
runs at p = 1.5 and 1.75, the cubic's window first holds at the step
where the march stops, so the trigger skips no step that could stop.
The march then reports the bracket [t, T].  Overflow past u_cap, or to
inf with dt at its floor, ends it too, with T clamped to the same
window.

On a truncated line (the truncation guard on) the march walks one list
of grids, _grid_ladder: the centred sub-grids of the family's grid that
keep its h, smallest first, then the family's grid.  It starts on the
first whose initial edge is quiet and moves to the next whenever a
candidate's edge ratio passes BOUNDARY_TOL/30: the FFTs cover the
solution's support, not the whole domain, until the support reaches the
family's grid.  The sizes are 2^k and 3 2^k (16, 24, 32, 48, ...), so
each move is x3/2 or x4/3 and a grid holds at most 3/2 of the points its
support needs.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .grid import GridError, GridFunction, GridSpec, Trajectory
from .propagators import _symbol_pair, damped_symbol, linear_pair_matrix
from .special import DataFamily

__all__ = [
    "BLOWN_UP",
    "SURVIVED_HORIZON",
    "TRUNCATION_ABORT",
    "STATUSES",
    "DT_MIN",
    "BOUNDARY_TOL",
    "MAX_ATTEMPTS",
    "BlowupSignal",
    "SamplingError",
    "SolverControls",
    "MarchStats",
    "LifespanEstimate",
    "MarchTrace",
    "integrate",
    "solve_lifespan",
    "duhamel_residual",
]

BLOWN_UP = "blown_up"
SURVIVED_HORIZON = "survived_horizon"
TRUNCATION_ABORT = "truncation_abort"
STATUSES = (BLOWN_UP, SURVIVED_HORIZON, TRUNCATION_ABORT)
# why a march stopped; ROOT, U_CAP and DT_FLOOR end in BLOWN_UP
ROOT, U_CAP, DT_FLOOR, HORIZON, TRUNCATION = (
    "extrapolated_root", "u_cap", "overflow_at_dt_floor", "horizon",
    "truncation")


class BlowupSignal(RuntimeError):
    """Raised when a step produces a non-finite field.

    Not a failure: it marks proximity to the blow-up time.  The time of
    the last finite state is carried in .t.
    """

    def __init__(self, t: float):
        super().__init__(f"non-finite field after t = {t:.6g}")
        self.t = t


class SamplingError(ValueError):
    """Trajectory too sparse for the requested quadrature."""


# the floor of the step ladder; an attempt at it is accepted whatever its
# error (a forced accept)
DT_MIN = 1e-12
# the truncation guard aborts once an accepted step's edge amplitude of u
# exceeds BOUNDARY_TOL max|u|.  With the guard off at step_tol 1e-9 on half
# and quarter domains at the same h, edge ratios up to 1e-2 moved T_high by
# at most 3.0e-7, and the smallest edge ratio that moved it by more than
# 1e-6 was 3.8e-2: 1e-6 sits more than four decades below it (README table)
BOUNDARY_TOL = 1e-6
# step attempts, rejected ones included, before a march gives up
MAX_ATTEMPTS = 2_000_000


@dataclass(frozen=True)
class SolverControls:
    """Step-size settings and the truncation guard of the lifespan march.

    step_tol bounds the relative RMS, over (u, v) in Fourier space, of the
    embedded gap dt/10 (k4 - k5) against the new state; the elementary
    controller aims dt at 0.9 of it and moves to the nearest ladder level.
    Every attempted dt is a level dt_init 2^(k/4) of the step ladder,
    clamped to [DT_MIN, dt_max], or the remainder up to the horizon.  An
    attempt costs two batched nonlinear calls, four rows, plus one row
    when its dt differs from the previous attempt's.  No field sets the
    stop: that is the cubic root's window _ROOT_WINDOW, 0.9%, behind the
    secant's trigger window _TRIGGER_WINDOW, 2% (module docstring).

    check_boundary turns on the truncation guard: a run aborts once the
    edge amplitude of u on an accepted step exceeds BOUNDARY_TOL max|u|.
    It also lets the march run on the sub-grids of the family's grid in
    _grid_ladder (see solve_lifespan), each accepted step on one keeping
    the edge ratio at most BOUNDARY_TOL/30.
    """

    dt_init: float = 0.02
    dt_max: float = 0.25
    step_tol: float = 3e-7
    check_boundary: bool = True

    def __post_init__(self):
        if not (DT_MIN <= self.dt_init <= self.dt_max):
            raise ValueError("need DT_MIN <= dt_init <= dt_max")
        if not self.step_tol > 0.0:
            raise ValueError("step_tol must be positive")


@dataclass(frozen=True)
class MarchStats:
    """What one adaptive lifespan march did and why it stopped.

    Every field is deterministic for given inputs.  Rejections are counted
    by cause: err over step_tol, a sup norm more than doubling, or a
    non-finite candidate.  forced_accepts counts the steps accepted with
    dt at DT_MIN that any of those causes would otherwise have rejected.
    regrids counts the attempts not accepted because the candidate's edge
    ratio passed BOUNDARY_TOL/30 on a sub-grid; each moved the march to
    the next grid of _grid_ladder.  So attempts = accepted steps +
    rejections + regrids.  points is the node count of the grid the march
    ended on, 2^k or 3 2^k: a sub-grid's, or the family's N.
    nl_rows counts the nonlinear evaluations, the rows of the _nl_hat
    calls: 2 + 4 attempts + one per rebuilt w3 + 2 regrids.  The dt range
    and the two ratios cover accepted steps only; accepted_dt_min/max are
    None when none was accepted.  edge_ratio is the largest
    _edge_amplitude(u) / max|u|, the quantity the truncation guard
    compares with BOUNDARY_TOL.  tail_ratio is the largest (2/N) sum |u_k|
    over the top third k >= N/3 of the rfft modes of u, a bound on what
    those modes add to any grid value, over max|u|.
    termination is one of ROOT, U_CAP, DT_FLOOR, HORIZON, TRUNCATION.
    bracket says where a blow-up's T_high came from: "extrapolated" when
    it is the cubic's root, above T_low; "clamped" when the root is
    missing, falls at or before the last sample (T_high = T_low), lies
    past the stop window (1 + _ROOT_WINDOW) T_low, or when any step was a
    forced accept, whose error the bracket does not cover.  It is "none"
    when the run did not blow up.  root_gap is |T_2 - T_3| / T_3 for the
    roots T_3 of the cubic and T_2 of the least-squares parabola through
    the same 20 samples, fitted once at the stop: how far a second
    extrapolant sits from T_high.  It is None when either root is
    missing or the run did not blow up.
    """

    attempts: int
    rejected_tol: int
    rejected_growth: int
    rejected_nonfinite: int
    forced_accepts: int
    regrids: int
    nl_rows: int
    accepted_dt_min: float
    accepted_dt_max: float
    edge_ratio: float
    tail_ratio: float
    points: int
    termination: str
    bracket: str
    root_gap: float


@dataclass(frozen=True)
class LifespanEstimate:
    """Bracket for the blow-up time, or the reason none was found.

    stats is the march's MarchStats record (None when built by hand).
    """

    status: str
    T_low: float
    T_high: float
    stats: MarchStats = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.status not in STATUSES:
            raise ValueError(f"unknown status {self.status!r}")
        if not self.T_low <= self.T_high:
            raise ValueError("bracket must satisfy T_low <= T_high")
        if self.status == BLOWN_UP:
            if self.T_high - self.T_low > 0.01 * self.T_high:
                raise ValueError("blown_up bracket wider than 1% of T_high")


@dataclass(frozen=True)
class MarchTrace:
    """The times of a lifespan march's accepted steps, one entry each, in
    order, as a read-only array."""

    times: np.ndarray

    def __post_init__(self):
        t = np.array(self.times, dtype=np.float64)
        t.setflags(write=False)
        object.__setattr__(self, "times", t)


# ----------------------------------------------------------------------
# the stepper core
# ----------------------------------------------------------------------


@lru_cache(maxsize=256)
def _pair_ops(spec: GridSpec, t: float):
    return linear_pair_matrix(t, spec)


class _StageOps(NamedTuple):
    """The operators of one step size dt: E = M(dt), the rows of
    Eh = M(dt/2) that the stages use, and their products with the step's
    constants, all complex128 like the spectra they multiply."""

    a11: np.ndarray
    a12: np.ndarray
    a21: np.ndarray
    a22: np.ndarray
    b11: np.ndarray
    b12: np.ndarray
    b12x2: np.ndarray  # 2 b12
    b22x2: np.ndarray  # 2 b22
    b12dt: np.ndarray  # dt b12


# a march meets its step sizes one after another, so the last eight hit as
# often as all of them would, at a fraction of the memory
@lru_cache(maxsize=8)
def _stage_ops(spec: GridSpec, dt: float) -> _StageOps:
    # a product of a real operator with a spectrum casts it to complex128
    # anyway, so the complex copies keep every bit of the products
    b11, b12, _, b22 = _pair_ops(spec, 0.5 * dt)
    ops = (*_pair_ops(spec, dt), b11, b12, 2.0 * b12, 2.0 * b22, dt * b12)
    return _StageOps(*(op.astype(np.complex128) for op in ops))


class _Work(threading.local):
    """Work buffers, input shape -> arrays, one instance per owner.  Each
    thread has its own, so concurrent marches never write into one."""

    def __init__(self):
        self.by_shape = {}


_NL_WORK = _Work()      # _nl_hat's: (2x grid, its rfft, the scaled input)
_STAGE_WORK = _Work()   # the stage functions': see _stage_work


def _stage_work(shape):
    """Per thread and spectrum shape: a 2-row stage input, two spectra and
    one real row; the stage functions write their temporaries there."""
    work = _STAGE_WORK.by_shape.get(shape)
    if work is None:
        work = _STAGE_WORK.by_shape[shape] = (
            np.empty((2,) + shape, dtype=np.complex128),
            np.empty(shape, dtype=np.complex128),
            np.empty(shape, dtype=np.complex128),
            np.empty(shape))
    return work


def _nl_hat(yu: np.ndarray, p: float, field: bool = False):
    """rfft of |u|^p, u given by its rfft, antialiased via a 2x grid.

    yu may be a stack of spectra (one per row); the rows share one
    irfft/rfft pair and each comes out bit-identical to a single call.
    With field=True the return is (rfft of |u|^p, u on the grid), u of
    the first row only: the even samples of the 2x grid, irfft(yu, N) up
    to rounding.  The 2x grid, its rfft and the scaled input are written
    into work buffers kept per thread and input shape; no returned array
    aliases them.
    """
    m = yu.shape[-1] - 1
    work = _NL_WORK.by_shape.get(yu.shape)
    if work is None:
        lead = yu.shape[:-1]
        work = _NL_WORK.by_shape[yu.shape] = (
            np.empty(lead + (4 * m,)),
            np.empty(lead + (2 * m + 1,), dtype=np.complex128),
            np.empty(yu.shape, dtype=np.complex128))
    fine, wh, fh = work
    # the 2x grid's field is 2 irfft(yu with its Nyquist mode halved);
    # the factor 2 goes on the input, which scales every operation of
    # the transform exactly
    np.multiply(yu, 2.0, out=fh)
    fh[..., m] = yu[..., m]
    np.fft.irfft(fh, 4 * m, out=fine)  # zero-padded to the 2x grid
    u = (fine[0] if fine.ndim > 1 else fine)[::2].copy() if field else None
    np.abs(fine, out=fine)
    fine **= p
    np.fft.rfft(fine, out=wh)
    out = wh[..., : m + 1] * 0.5
    # fold the fine mode at the coarse Nyquist index
    out[..., m] = wh[..., m].real
    return (out, u) if field else out


# The stage products below keep the operand order of the formulas in the
# module docstring: numpy's complex multiply is not bitwise commutative
# where it fuses multiply-adds.


def _head(yu, yv, p, ops: _StageOps, field=False):
    """N(y) and N(Eh y) in one 2-row _nl_hat call.

    They are w1 and w3 of a step from y: N(y) has no u row, so the third
    stage input is Eh y whatever w2 is.  At the end of an attempt they
    are w5 = N(y') and the next attempt's w3, guessed at the same dt.
    """
    rows, t1, _, _ = _stage_work(yu.shape)
    rows[0] = yu
    np.multiply(ops.b11, yu, out=rows[1])
    np.multiply(ops.b12, yv, out=t1)
    rows[1] += t1
    return _nl_hat(rows, p, field)


def _lawson_rk4(yu, yv, w1, w3, p, ops: _StageOps, dt):
    """One Lawson RK4 step in Fourier space; returns (u', v', w4).

    w1 = N(y) and w3 = N(Eh y) come in (see _head); w2 and w4 share one
    batched _nl_hat call.  Overflow to inf/nan is the blow-up detector
    downstream, so callers run this under np.errstate(over="ignore",
    invalid="ignore").
    """
    a11, a12, a21, a22, b11, b12, b12x2, b22x2, b12dt = ops
    rows, t1, t2, _ = _stage_work(yu.shape)
    eu = a11 * yu
    np.multiply(a12, yv, out=t1)
    eu += t1
    ev = a21 * yu
    np.multiply(a22, yv, out=t1)
    ev += t1
    # w2's input b11 yu + b12 (yv + dt/2 w1), w4's eu + dt b12 w3
    np.multiply(0.5 * dt, w1, out=t1)
    np.add(yv, t1, out=t1)
    np.multiply(b12, t1, out=t1)
    np.multiply(b11, yu, out=rows[0])
    rows[0] += t1
    np.multiply(b12dt, w3, out=rows[1])
    np.add(eu, rows[1], out=rows[1])
    w2, w4 = _nl_hat(rows, p)
    w23 = np.add(w2, w3, out=t2)
    c = dt / 6.0
    # u' = eu + c (a12 w1 + 2 b12 w23)
    np.multiply(a12, w1, out=t1)
    t1 += np.multiply(b12x2, w23, out=rows[0])
    np.multiply(c, t1, out=t1)
    eu += t1
    # v' = ev + c (a22 w1 + 2 b22 w23 + w4)
    np.multiply(a22, w1, out=t1)
    t1 += np.multiply(b22x2, w23, out=rows[0])
    t1 += w4
    np.multiply(c, t1, out=t1)
    ev += t1
    return eu, ev, w4


def _attempt(yu, yv, w1, w3, p, spec, dt):
    """One RK4 step with its embedded order-3 error estimate.

    w1 = N(y) and w3 = N(Eh y) at this dt come in; w5 = N(y') and the
    guess w3' = N(Eh y') at the same dt go out, from one batched call.
    w5 is the next attempt's w1 (first same as last).  The embedded
    solution differs from y' by dt/10 (w4 - w5) in the v row only; the
    gap is measured as relative RMS over (u, v) against y'.  Returns
    (u', v', w5, w3', err, u) with u the field of u' on the grid.
    """
    ops = _stage_ops(spec, dt)
    gu, gv, w4 = _lawson_rk4(yu, yv, w1, w3, p, ops, dt)
    (w5, w3_next), u = _head(gu, gv, p, ops, True)
    rows, t1, t2, mag = _stage_work(gu.shape)
    scale = max(float(np.abs(gu, out=mag).max()),
                float(np.abs(gv, out=mag).max()), 1e-300)
    s = 1.0 / scale
    dv = np.subtract(w4, w5, out=t1)
    np.multiply((0.1 * dt) * s, dv, out=dv)
    su = np.multiply(s, gu, out=t2)
    sv = np.multiply(s, gv, out=rows[0])
    n = gu.shape[-1]
    num = math.sqrt(np.vdot(dv, dv).real / n)
    den = math.sqrt((np.vdot(su, su).real + np.vdot(sv, sv).real) / n) + 1e-300
    return gu, gv, w5, w3_next, num / den, u


def integrate(u0: GridFunction, v0: GridFunction, p: float, t_final: float,
              dt: float) -> Trajectory:
    """Fixed-step march to t_final, storing the initial state and every step.

    Each step is one Lawson RK4 step, two 2-row _nl_hat calls; where
    |u|^p underflows to 0 every stage adds exactly 0 and the step is the
    exact linear flow.  dt is nudged so that t_final is an integer number
    of steps.  Raises BlowupSignal, carrying the last finite time, on a
    non-finite state.
    """
    if u0.spec != v0.spec:
        raise GridError("u0 and v0 live on different grids")
    # checked before the rows are allocated: t_final / dt sizes them
    if not (0.0 < t_final < math.inf and 0.0 < dt < math.inf
            and t_final / dt < math.inf):
        raise ValueError("t_final and dt must be positive and finite, "
                         "and t_final / dt finite")
    n = max(1, int(round(t_final / dt)))
    dt = t_final / n
    spec = u0.spec
    u = np.empty((n + 1, spec.points))
    v = np.empty((n + 1, spec.points))
    u[0] = u0.values
    v[0] = v0.values
    yu = np.fft.rfft(u0.values)
    yv = np.fft.rfft(v0.values)
    ops = _stage_ops(spec, dt)
    p = float(p)
    for k in range(1, n + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            w1, w3 = _head(yu, yv, p, ops)
            yu, yv, _ = _lawson_rk4(yu, yv, w1, w3, p, ops, dt)
        np.fft.irfft(yu, spec.points, out=u[k])
        np.fft.irfft(yv, spec.points, out=v[k])
        if not (np.all(np.isfinite(u[k])) and np.all(np.isfinite(v[k]))):
            raise BlowupSignal((k - 1) * dt)
    return Trajectory(spec, dt * np.arange(n + 1), u, v)


# ----------------------------------------------------------------------
# lifespan march
# ----------------------------------------------------------------------

# the stop rule: a march ends once the cubic's root is within this fraction
# of itself past t; the cubic is fitted once the root of the secant through
# the last two samples is within _TRIGGER_WINDOW of itself past t
_ROOT_WINDOW = 0.009
_TRIGGER_WINDOW = 0.02
# the fits run through this many of the last accepted samples
_FIT_SAMPLES = 20


def _horner(c, x: float) -> float:
    """sum c[j] x^j."""
    acc = 0.0
    for cj in reversed(c):
        acc = acc * x + cj
    return acc


def _bracketed_root(c, d, a: float, b: float) -> float:
    """The root of the polynomial c in [a, b], where it falls monotonically
    from p(a) > 0 to p(b) <= 0; d is its derivative.  Newton's method from
    the secant point, bisecting whenever a step leaves the bracket."""
    fa, fb = _horner(c, a), _horner(c, b)
    x = a + (b - a) * (fa / (fa - fb))
    for _ in range(100):
        fx = _horner(c, x)
        if fx > 0.0:
            a = x
        else:
            b = x
        slope = _horner(d, x)
        xn = x - fx / slope if slope != 0.0 else 0.5 * (a + b)
        if not a <= xn <= b:
            xn = 0.5 * (a + b)
        if abs(xn - x) <= 1e-15 * xn:
            return xn
        x = xn
    return x


def _first_root(c):
    """The smallest x >= 0 with p(x) = sum c[j] x^j = 0, for a polynomial
    of degree at most 3; 0 when p(0) <= 0, None when p > 0 on [0, inf).

    The critical points cut [0, inf) into pieces on which p is monotone;
    the root lies in the first piece whose end has p <= 0, or in the last,
    unbounded one when p falls to -inf there."""
    if not c[0] > 0.0:
        return 0.0
    d = [j * c[j] for j in range(1, len(c))]
    # the real critical points: roots of p' = d[0] + d[1] x (+ d[2] x^2)
    if len(d) == 3 and d[2] != 0.0:
        disc = d[1] * d[1] - 4.0 * d[2] * d[0]
        crit = []
        if disc >= 0.0:
            q = -0.5 * (d[1] + math.copysign(math.sqrt(disc), d[1]))
            crit = [q / d[2]] + ([d[0] / q] if q != 0.0 else [])
    else:
        crit = [-d[0] / d[1]] if len(d) > 1 and d[1] != 0.0 else []
    a = 0.0
    for b in sorted(x for x in crit if x > 0.0):
        if not _horner(c, b) > 0.0:
            return _bracketed_root(c, d, a, b)
        a = b
    lead = next((cj for cj in reversed(c) if cj != 0.0), 0.0)
    if not lead < 0.0:
        return None
    b = max(2.0 * a, 1.0)
    while not _horner(c, b) <= 0.0:
        b *= 2.0
        if math.isinf(b):
            return None
    return _bracketed_root(c, d, a, b)


def _fit_root(t: np.ndarray, z: np.ndarray, degree: int = 3):
    """The first root past the last sample of the least-squares polynomial
    of the given degree, 2 or 3, through the last 20 samples of z.

    t and z hold the accepted samples in order, as float arrays.
    z = (T - t) (s + O(T - t)) near the blow-up (Merle & Zaag), so the
    curvature a line leaves out sets its bias; the cubic absorbs it.  The
    fit runs in x = (t - t_last)/span, x in [-1, 0], by its normal
    equations.  Returns the last sample's t when the fitted z there is not
    positive, and None when the fit has no root past it or fewer than
    degree + 1 samples.
    """
    k = min(_FIT_SAMPLES, len(t))
    if k <= degree:
        return None
    t_last = float(t[-1])
    span = t_last - float(t[-k])
    # rows 1, x, x^2, ... of the design matrix
    powers = np.empty((degree + 1, k))
    powers[0] = 1.0
    x = np.subtract(t[-k:], t_last, out=powers[1])
    x /= span
    for j in range(2, degree + 1):
        np.multiply(powers[j - 1], x, out=powers[j])
    try:
        c = np.linalg.solve(powers @ powers.T, powers @ z[-k:]).tolist()
    except np.linalg.LinAlgError:
        return None
    if not all(map(math.isfinite, c)):
        return None
    root = _first_root(c)
    return None if root is None else t_last + span * root


def _edge_amplitude(values: np.ndarray) -> float:
    return float(max(abs(values[0]), abs(values[1]), abs(values[-2]),
                     abs(values[-1])))


# a sub-grid's edge ratio stays this factor below BOUNDARY_TOL
_GROW_MARGIN = 30.0


def _grid_ladder(spec: GridSpec) -> list:
    """The grids a march with the guard on may run on, smallest first: the
    centred sub-grids of spec of 2^k and 3 2^k points, at least 16, that
    keep spec's h to the bit, then spec itself.  A sub-grid of n points
    has the nodes of spec from index (N - n)/2 on.  When n/N is a power of
    two h always survives, so each entry is at most twice the one before;
    at other ratios it may not: L = 64, N = 2048 keeps it at every size,
    L = 25.6, N = 1024 at no 3 2^k size."""
    n_top = spec.points
    sizes = sorted(m << k for m in (1, 3) for k in range(n_top.bit_length())
                   if 16 <= m << k < n_top)
    subs = (GridSpec(spec.half_width * (n / n_top), n) for n in sizes)
    return [sub for sub in subs if sub.h == spec.h] + [spec]


def _embed(y: np.ndarray, n: int, n_new: int) -> np.ndarray:
    """The rfft of a field on n nodes, given by its rfft y, moved to the
    centred grid of n_new > n nodes: the n values at node offset
    (n_new - n)/2 among zeros."""
    f = np.zeros(n_new)
    lo = (n_new - n) // 2
    f[lo:lo + n] = np.fft.irfft(y, n)
    return np.fft.rfft(f)


# the step ladder: 2^(j/4) for the four levels within an octave
_LADDER = tuple(2.0 ** (j / 4.0) for j in range(4))


def _ladder_dt(ctrl: SolverControls, k: int) -> float:
    """Level k of the step ladder, dt_init 2^(k/4), clamped to
    [DT_MIN, dt_max].  Levels k and k - 4 are exactly a factor 2 apart,
    so the dt/2 stage operators of one level are the dt operators of
    another."""
    dt = math.ldexp(ctrl.dt_init * _LADDER[k % 4], k // 4)
    return min(max(dt, DT_MIN), ctrl.dt_max)


def _ladder_move(err: float, tol: float) -> int:
    """Ladder levels for the elementary controller's factor
    fac = min(2, max(0.2, 0.9 (tol/err)^(1/4))): 4 log2 fac rounded to the
    nearest level.  Rounding up scales dt by at most 2^(1/8), so the
    predicted error stays at or below (0.9 2^(1/8))^4 tol, about 0.92 tol:
    the factor 0.9 remains the only safety margin."""
    fac = 2.0 if err == 0.0 else \
        min(2.0, max(0.2, 0.9 * (tol / err) ** 0.25))
    return round(4.0 * math.log2(fac))


def solve_lifespan(data: DataFamily, p: float, horizon: float = 200.0,
                   ctrl: SolverControls = None):
    """Adaptive march until blow-up, the horizon, or a truncation abort.

    Returns (LifespanEstimate, MarchTrace), the trace with one time per
    accepted step; zero data takes none.  The data family fixes the grid,
    and the solved fields start from data.initial_data(), data.epsilon *
    (f0, f1).  Set ctrl.check_boundary = False for torus-type data that is
    not compactly supported.

    A blow-up stops on the root window (module docstring), with T_low the
    last accepted t and T_high the cubic's root.

    With the guard on, the family's grid is a ceiling: the march runs on
    the list of grids _grid_ladder(spec).  It starts on the first entry
    whose edge amplitudes of u0 and u1 are at most BOUNDARY_TOL/30
    max(|u0|, |u1|), the family's grid when no sub-grid's are.  An attempt
    on a sub-grid whose candidate passes the tolerance with an edge ratio
    above BOUNDARY_TOL/30 is not accepted: the accepted state moves, among
    zeros (_embed), to the next entry and the same dt is retaken there.
    On the family's grid the guard aborts as usual.
    """
    if ctrl is None:
        ctrl = SolverControls()
    u0, u1 = data.initial_data()
    spec = data.f0.spec
    if not horizon > 0.0:
        raise ValueError("horizon must be positive")

    u_phys = u0.values
    v_phys = u1.values
    maxu = float(np.max(np.abs(u_phys)))
    if maxu == 0.0 and not np.any(v_phys):
        stats = MarchStats(0, 0, 0, 0, 0, 0, 0, None, None, 0.0, 0.0,
                           spec.points, HORIZON, "none", None)
        est = LifespanEstimate(SURVIVED_HORIZON, horizon, horizon, stats)
        return est, MarchTrace(np.empty(0))

    p = float(p)
    u_cap = 1e250 ** (1.0 / p)
    # the march runs on grids[i], the first entry with a quiet initial edge
    grow_tol = BOUNDARY_TOL / _GROW_MARGIN
    grids = _grid_ladder(spec) if ctrl.check_boundary else [spec]
    quiet = grow_tol * max(maxu, float(np.abs(v_phys).max()))
    for i, grid in enumerate(grids):
        lo = (spec.points - grid.points) // 2
        u_phys = u0.values[lo:lo + grid.points]
        v_phys = u1.values[lo:lo + grid.points]
        if grid is spec or \
                max(_edge_amplitude(u_phys), _edge_amplitude(v_phys)) <= quiet:
            break
    yu = np.fft.rfft(u_phys)
    yv = np.fft.rfft(v_phys)
    t = 0.0
    # dt is level k of the step ladder; past k_lo and k_hi the clamp holds
    k = 0
    k_lo = math.floor(4.0 * math.log2(DT_MIN / ctrl.dt_init))
    k_hi = math.ceil(4.0 * math.log2(ctrl.dt_max / ctrl.dt_init))
    dt = _ladder_dt(ctrl, k)
    attempts = rej_tol = rej_growth = rej_nonfinite = forced = rebuilds = 0
    regrids = 0
    dt_lo, dt_hi = math.inf, 0.0
    edge_max = tail_max = 0.0
    rejected = False
    # the accepted samples: t and z = max|u|^(-(p-1)/2) for the stop fit
    n_acc = 0
    t_buf, z_buf = np.empty(256), np.empty(256)
    z_exp = -(p - 1.0) / 2.0
    status = cause = root = None
    T_low = T_high = None

    # overflow to inf/nan is the blow-up detector, not an error
    with np.errstate(over="ignore", invalid="ignore"):
        # w1 = N(y) and w3 = N(Eh y) for the step w3_dt; after an accepted
        # attempt both come from its second _nl_hat call
        w3_dt = min(dt, horizon)
        w1, w3 = _head(yu, yv, p, _stage_ops(grid, w3_dt))
        while True:
            if attempts >= MAX_ATTEMPTS:
                raise RuntimeError(
                    f"step budget exceeded before a verdict: {attempts} "
                    f"attempts, t = {t:.9g}, dt = {dt:.3g}, "
                    f"max|u| = {maxu:.3g}")
            remaining = horizon - t
            if remaining <= DT_MIN:
                status, cause = SURVIVED_HORIZON, HORIZON
                T_low = T_high = horizon
                break
            dt_eff = min(dt, remaining)
            if dt_eff != w3_dt:
                # after a rejection, a ladder move or on the horizon
                # remainder the guessed w3 is for another step size
                ops = _stage_ops(grid, dt_eff)
                w3 = _nl_hat(ops.b11 * yu + ops.b12 * yv, p)
                w3_dt = dt_eff
                rebuilds += 1
            gu, gv, w5, w3_next, err, cand = _attempt(yu, yv, w1, w3, p,
                                                      grid, dt_eff)
            attempts += 1
            cand_max = float(np.abs(cand).max())
            nonfinite = not (math.isfinite(err) and math.isfinite(cand_max))
            growth = cand_max > 2.0 * max(maxu, 1e-300)
            if (nonfinite or growth or err > ctrl.step_tol) \
                    and dt > DT_MIN * 1.0000001:
                if nonfinite:
                    rej_nonfinite += 1
                elif growth:
                    rej_growth += 1
                else:
                    rej_tol += 1
                k = max(k - 4 if nonfinite or growth else
                        k + _ladder_move(err, ctrl.step_tol), k_lo)
                dt = _ladder_dt(ctrl, k)
                rejected = True
                continue
            if not math.isfinite(cand_max):
                # dt is already at the floor; the field left the finite range
                status, cause = BLOWN_UP, DT_FLOOR
                T_low = t
                break
            edge = _edge_amplitude(cand)
            scale = max(cand_max, 1e-300)
            if grid is not spec and edge > grow_tol * scale:
                # the support nears the sub-grid's edge: retake dt on the
                # next grid of the ladder
                n = grid.points
                i += 1
                grid = grids[i]
                yu, yv = _embed(yu, n, grid.points), _embed(yv, n, grid.points)
                w1, w3 = _head(yu, yv, p, _stage_ops(grid, dt_eff))
                w3_dt = dt_eff
                regrids += 1
                continue
            # accept (at DT_MIN even an out-of-tolerance step is taken)
            forced += nonfinite or growth or err > ctrl.step_tol
            t += dt_eff
            dt_lo = min(dt_lo, dt_eff)
            dt_hi = max(dt_hi, dt_eff)
            yu, yv, w1, w3 = gu, gv, w5, w3_next
            maxu = cand_max
            if n_acc == t_buf.size:
                # np.resize fills the new tail with copies; it is overwritten
                t_buf, z_buf = np.resize(t_buf, 2 * n_acc), \
                    np.resize(z_buf, 2 * n_acc)
            t_buf[n_acc] = t
            # z by numpy's array power, as a fit over an array of sup
            # norms takes it; Python's float ** can differ in the last bit
            z = z_buf[n_acc:n_acc + 1]
            z[0] = maxu
            z **= z_exp
            n_acc += 1
            edge_max = max(edge_max, edge / scale)
            # modes k >= N/3: the top third
            tail0 = math.ceil(grid.points / 3)
            tail = (2.0 / grid.points) * float(np.abs(gu[tail0:]).sum())
            tail_max = max(tail_max, tail / scale)
            if ctrl.check_boundary and edge > BOUNDARY_TOL * scale:
                status, cause = TRUNCATION_ABORT, TRUNCATION
                T_low = T_high = t
                break
            if maxu >= u_cap:
                status, cause = BLOWN_UP, U_CAP
                T_low = t
                break
            # the secant through the last two samples triggers the cubic,
            # whose root is the stop's
            z1, z0 = z_buf[n_acc - 1], z_buf[n_acc - 2]
            secant = t + (t - t_buf[n_acc - 2]) * z1 / (z0 - z1) \
                if n_acc > 1 and z1 < z0 else None
            if secant is not None and secant - t <= _TRIGGER_WINDOW * secant:
                root = _fit_root(t_buf[:n_acc], z_buf[:n_acc])
                if root is not None and root - t <= _ROOT_WINDOW * root:
                    status, cause = BLOWN_UP, ROOT
                    T_low = t
                    T_high = root
                    break
            move = _ladder_move(err, ctrl.step_tol)
            k = min(max(k + (min(move, 0) if rejected else move), k_lo), k_hi)
            dt = _ladder_dt(ctrl, k)
            rejected = False

    if status == BLOWN_UP and T_high is None:
        # declared through u_cap or overflow: the root, clamped to the
        # window; the root is never below the last sample, T_low
        root = _fit_root(t_buf[:n_acc], z_buf[:n_acc])
        T_high = T_low if root is None else \
            min(root, T_low * (1.0 + _ROOT_WINDOW))
    bracket = "none" if status != BLOWN_UP else \
        "extrapolated" if T_low < T_high == root and not forced else \
        "clamped"
    root_gap = None
    if status == BLOWN_UP and root is not None:
        # one parabola at the stop: how far the second extrapolant sits
        parabola = _fit_root(t_buf[:n_acc], z_buf[:n_acc], 2)
        if parabola is not None:
            root_gap = abs(parabola - root) / root
    stats = MarchStats(attempts, rej_tol, rej_growth, rej_nonfinite, forced,
                       regrids, 2 + 4 * attempts + rebuilds + 2 * regrids,
                       dt_lo if n_acc else None, dt_hi if n_acc else None,
                       edge_max, tail_max, grid.points, cause, bracket,
                       root_gap)
    est = LifespanEstimate(status, T_low, T_high, stats)
    return est, MarchTrace(t_buf[:n_acc])


# ----------------------------------------------------------------------
# Duhamel consistency oracle
# ----------------------------------------------------------------------


# tau quadrature nodes evaluated at once: the oracle's temporaries are
# O(_TAU_BLOCK N), beside the knot slopes, one trajectory-sized array
_TAU_BLOCK = 16


def _cubic_spline(x: np.ndarray, y: np.ndarray):
    """Not-a-knot cubic spline through the rows of the (n, m) array y at
    knots x (n >= 4).

    The knot slopes solve the tridiagonal system of scipy's CubicSpline,
    not-a-knot end rows included, so the two agree to roundoff.  Returns
    a function of a 1-D array of query times; outside [x[0], x[-1]] the
    end cubics extend.

    The system is solved by one Thomas sweep, O(n) rows, without
    pivoting.  Every entry is nonnegative and every pivot positive: the
    first is h[1], the second h[0] + h[1], an interior one exceeds
    2 h[i-1] + h[i], and the last h[-2]^2 / (2 h[-2] + h[-1]).  So both LU
    factors are nonnegative, |L||U| = |A|, and the sweep is componentwise
    backward stable (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., section 9.6).  The forward sweep forms each
    right-hand-side row from the two chord slopes it needs, so the knot
    slopes are the only array of y's size that the spline holds.
    """
    n = len(x)
    h = np.diff(x)
    d0, d1 = x[2] - x[0], x[-1] - x[-3]
    sub = np.concatenate([[0.0], h[1:], [d1]])
    piv = np.concatenate([[h[1]], 2.0 * (h[:-1] + h[1:]), [h[-2]]])
    sup = np.concatenate([[d0], h[:-1]])

    def chord(k):
        return (y[k + 1] - y[k]) / h[k]

    s = np.empty(y.shape)
    a, b = chord(0), chord(1)       # the chords left and right of row i
    s[0] = ((h[0] + 2.0 * d0) * h[1] * a + h[0] ** 2 * b) / d0
    # forward elimination, then back substitution, in place on piv and s
    for i in range(1, n):
        if i == n - 1:
            s[i] = (h[-1] ** 2 * a + (2.0 * d1 + h[-1]) * h[-2] * b) / d1
        else:
            if i > 1:
                a, b = b, chord(i)
            s[i] = 3.0 * (h[i] * a + h[i - 1] * b)
        m = sub[i] / piv[i - 1]
        piv[i] -= m * sup[i - 1]
        s[i] -= m * s[i - 1]
    s[-1] /= piv[-1]
    for i in range(n - 2, -1, -1):
        s[i] -= sup[i] * s[i + 1]
        s[i] /= piv[i]

    def evaluate(t):
        # per query time, the cubic Hermite interpolant of (y, s) in t - x_k
        # on its interval k; c3 and c2 are formed for the intervals hit
        k = np.clip(np.searchsorted(x, t, side="right") - 1, 0, n - 2)
        r = (t - x[k])[:, None]
        ks, row = np.unique(k, return_inverse=True)
        hk = h[ks][:, None]
        yk = y[ks]
        slope = (y[ks + 1] - yk) / hk
        sk = s[ks]
        c3 = (sk + s[ks + 1] - 2.0 * slope) / hk
        c2 = (slope - sk) / hk - c3
        c3 /= hk
        return ((c3[row] * r + c2[row]) * r + sk[row]) * r + yk[row]

    return evaluate


@lru_cache(maxsize=1)
def _gauss_legendre():
    """The 64-node Gauss-Legendre rule on [-1, 1], built at the first
    oracle call: numpy.polynomial does not load with the package."""
    rule = np.polynomial.legendre.leggauss(64)
    for a in rule:
        a.setflags(write=False)
    return rule


def duhamel_residual(traj: Trajectory, p: float) -> float:
    """Worst relative L2 gap between u(t) and its integral-equation form.

    The right-hand side S(t)(u0+u1) + dtS(t)u0 + int_0^t S(t-tau)|u|^p
    is rebuilt with 64-node Gauss-Legendre quadrature in tau, u(tau) by a
    not-a-knot cubic spline through the u samples, entirely through the
    linear propagators, so this is independent of the stepper.  The
    checkpoints are the samples nearest the quarter points of the
    trajectory; one whose u is zero is skipped.  On data so small that
    |u|^p underflows to 0 the source term is exactly 0, and the gap is
    that of the exact linear flow.

    The working set is the spline's knot slopes, one array the size of
    the u samples, plus O(_TAU_BLOCK N): the quadrature nodes go through
    the spline, |u|^p, the rfft and the weighted symbol _TAU_BLOCK at a
    time, and the source sums in node order.
    """
    times = traj.times
    if len(times) < 16:
        raise SamplingError("trajectory too sparse for the tau quadrature")
    spec = traj.spec
    u = traj.u
    idx = sorted({int(round(f * (len(times) - 1)))
                  for f in (0.25, 0.5, 0.75, 1.0)} - {0})
    spline = _cubic_spline(times, u)
    xg, wg = _gauss_legendre()
    n = spec.points
    lin0h = np.fft.rfft(u[0] + traj.v[0])
    u0h = np.fft.rfft(u[0])
    worst = 0.0
    for i in idx:
        tc = float(times[i])
        target = u[i]
        sym = damped_symbol(tc, spec)
        rhs = np.fft.irfft(lin0h * sym.sigma, n=n) \
            + np.fft.irfft(u0h * sym.sigma_t, n=n)
        tau = 0.5 * tc * (xg + 1.0)
        wq = 0.5 * tc * wg
        acc = np.zeros(n // 2 + 1, dtype=np.complex128)
        for lo in range(0, len(tau), _TAU_BLOCK):
            blk = slice(lo, lo + _TAU_BLOCK)
            nlh = np.fft.rfft(np.abs(spline(tau[blk])) ** p, axis=1)
            # row j: w_q sigma(tc - tau_q), q = lo + j
            ws = wq[blk, None] * _symbol_pair(tc - tau[blk], spec.freqs,
                                              rate=False)[0]
            for j in range(len(nlh)):
                acc += ws[j] * nlh[j]
        rhs = rhs + np.fft.irfft(acc, n)
        gap = np.linalg.norm(target - rhs)
        ref = np.linalg.norm(target)
        if ref == 0.0:
            continue
        worst = max(worst, float(gap / ref))
    return worst
