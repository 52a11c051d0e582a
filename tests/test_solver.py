import dataclasses
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline

import dwlab.solver as solver
from dwlab.grid import GridError, GridFunction, GridSpec, Trajectory, lp_norm
from dwlab.propagators import (apply_dtS, apply_S, damped_symbol,
                               linear_pair_matrix)
from dwlab.solver import (BLOWN_UP, BOUNDARY_TOL, SURVIVED_HORIZON,
                          TRUNCATION_ABORT, BlowupSignal, LifespanEstimate,
                          SamplingError, SolverControls, _cubic_spline,
                          duhamel_residual, integrate, solve_lifespan)
from dwlab.special import DataFamily, make_data_family

SPEC = GridSpec(32.0, 1024)
TORUS = GridSpec(math.pi, 64)


def gauss_state(amp=0.5, spec=SPEC):
    u = GridFunction(spec, amp * np.exp(-0.25 * spec.nodes ** 2))
    v = GridFunction(spec, np.zeros(spec.points))
    return u, v


# an amplitude whose |u|^3 underflows to exactly 0, on the grid and on the
# 2x grid alike: integrate and duhamel_residual then run the exact linear
# flow.  At p = 2 it takes amplitudes near 1e-300, where the L2 norms the
# Duhamel oracle divides by underflow too.
TINY, P_TINY = 1e-120, 3.0


def tiny_state(spec=SPEC):
    u, v = gauss_state(TINY, spec)
    assert np.abs(u.values).max() > 0.0
    assert not np.any(np.abs(u.values) ** P_TINY)
    return u, v


def torus_family(amp=1.0):
    one = GridFunction(TORUS, np.full(TORUS.points, amp))
    zero = GridFunction(TORUS, np.zeros(TORUS.points))
    return DataFamily(one, zero, "M0_nonzero", "torus_constant", 1.0)


# ----------------------------------------------------------------------
# stepping
# ----------------------------------------------------------------------


def test_linear_step_matches_exact_propagator():
    u, v = tiny_state()
    traj = integrate(u, v, p=P_TINY, t_final=0.35, dt=0.35)
    m11, m12, m21, m22 = linear_pair_matrix(0.35, SPEC)
    yu = np.fft.rfft(u.values)
    yv = np.fft.rfft(v.values)
    eu = np.fft.irfft(m11 * yu + m12 * yv, SPEC.points)
    ev = np.fft.irfft(m21 * yu + m22 * yv, SPEC.points)
    assert np.max(np.abs(traj.u[-1] - eu)) < 2e-13 * TINY
    assert np.max(np.abs(traj.v[-1] - ev)) < 2e-13 * TINY
    assert traj.times[-1] == pytest.approx(0.35)


def test_constant_mode_fourth_order():
    # torus constant data reduces to the scalar ODE; halving dt must cut the
    # endpoint error 16x
    fam = torus_family()
    t_end = 2.0

    def endpoint(n):
        traj = integrate(fam.f0, fam.f1, p=2.0, t_final=t_end, dt=t_end / n)
        return float(traj.u[-1, 0])

    def rhs(t, y):
        return [y[1], y[0] ** 2 - y[1]]
    ref = solve_ivp(rhs, (0.0, t_end), [1.0, 0.0], method="DOP853",
                    rtol=1e-13, atol=1e-14).y[0, -1]
    e1 = abs(endpoint(40) - ref)
    e2 = abs(endpoint(80) - ref)
    order = math.log2(e1 / e2)
    assert order > 3.7


def _ref_nl_hat(yu, p):
    """|u|^p on the 2x grid for one spectrum, without batching."""
    m = len(yu) - 1
    n = 2 * m
    fh = np.zeros(n + 1, dtype=np.complex128)
    fh[: m + 1] = yu
    fh[m] *= 0.5
    fine = np.fft.irfft(fh, 2 * n) * 2.0
    wh = np.fft.rfft(np.abs(fine) ** p)
    out = wh[: m + 1] * 0.5
    out[m] = wh[m].real
    return out


def _ref_lawson_step(yu, yv, p, dt, spec, nonlinear):
    """Reference Lawson RK4 step: one _nl_hat call per stage, in order."""
    a11, a12, a21, a22 = linear_pair_matrix(dt, spec)
    eu = a11 * yu + a12 * yv
    ev = a21 * yu + a22 * yv
    if not nonlinear:
        return eu, ev
    b11, b12, b21, b22 = linear_pair_matrix(0.5 * dt, spec)
    w1 = _ref_nl_hat(yu, p)
    w2 = _ref_nl_hat(b11 * yu + b12 * (yv + (0.5 * dt) * w1), p)
    w3 = _ref_nl_hat(b11 * yu + b12 * yv, p)
    w4 = _ref_nl_hat(eu + (dt * b12) * w3, p)
    c = dt / 6.0
    return (eu + c * (a12 * w1 + 2.0 * b12 * (w2 + w3)),
            ev + c * (a22 * w1 + 2.0 * b22 * (w2 + w3) + w4))


@pytest.mark.parametrize("spec", [TORUS, SPEC], ids=["N64", "N1024"])
@pytest.mark.parametrize("p,nonlinear", [(2.0, True), (1.5, True),
                                         (P_TINY, False)],
                         ids=["2.0-True", "1.5-True", "3.0-underflow"])
def test_step_and_integrate_match_unbatched_reference(spec, p, nonlinear):
    # the batched stages must not move a single bit of the fixed-step path;
    # where |u|^p underflows the path is the exact linear flow's, bit for bit
    u0, v0 = gauss_state(amp=0.4, spec=spec) if nonlinear else tiny_state(spec)
    dt = 0.05
    yu = np.fft.rfft(u0.values)
    yv = np.fft.rfft(v0.values)
    traj = integrate(u0, v0, p=p, t_final=0.5, dt=dt)
    assert traj.u.shape == traj.v.shape == (11, spec.points)
    for k in range(1, 11):
        yu, yv = _ref_lawson_step(yu, yv, p, dt, spec, nonlinear)
        assert np.array_equal(traj.u[k], np.fft.irfft(yu, spec.points))
        assert np.array_equal(traj.v[k], np.fft.irfft(yv, spec.points))


def test_step_rejects_bad_dt_and_signals_blowup():
    u, v = gauss_state()
    # a non-finite t_final, dt or t_final / dt cannot size the step rows
    for t_final, dt in ((1.0, 0.0), (math.inf, 0.1), (1.0, math.nan),
                        (1e300, 1e-300)):
        with pytest.raises(ValueError):
            integrate(u, v, p=2.0, t_final=t_final, dt=dt)
    hot = (GridFunction(TORUS, np.full(TORUS.points, 50.0)),
           GridFunction(TORUS, np.zeros(TORUS.points)))
    with pytest.raises(BlowupSignal) as info:
        integrate(*hot, p=2.0, t_final=20.0, dt=0.05)
    # .t is the last time whose state was finite: marching to it succeeds
    t_last = info.value.t
    assert t_last > 0.0
    traj = integrate(*hot, p=2.0, t_final=t_last, dt=0.05)
    assert traj.times[-1] == pytest.approx(t_last)
    assert np.all(np.isfinite(traj.u)) and np.all(np.isfinite(traj.v))


def test_integrate_trajectory_contract():
    u, v = gauss_state(amp=0.1)
    traj = integrate(u, v, p=2.0, t_final=1.0, dt=0.11)
    assert len(traj.times) == 10    # the initial state and all 9 steps
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(1.0)
    assert np.all(np.diff(traj.times) > 0.0)


def test_integrate_holds_its_states_once():
    # the states cost 2 n N 8 bytes, u and v, written in place: 1.015x that
    # here.  A copy of them reads about 2x, an n N bool temporary 1.08x, and
    # a GridFunction pair per state 1.04x.  The warm-up at the same dt
    # builds the step's operators, so the test order cannot move the peak
    u, v = gauss_state(amp=0.05)
    integrate(u, v, p=2.0, t_final=0.4, dt=0.04)
    tracemalloc.start()
    try:
        traj = integrate(u, v, p=2.0, t_final=16.0, dt=0.04)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traj.u.shape == (401, SPEC.points)
    assert peak < 1.03 * traj.u.nbytes * 2


def test_linear_l2_monotone_after_t1():
    # on the linear flow the L2 norm is non-increasing past t = 1
    u, v = tiny_state()
    traj = integrate(u, v, p=P_TINY, t_final=6.0, dt=0.05)
    norms = [lp_norm(GridFunction(SPEC, row), 2.0) for row in traj.u]
    times = traj.times
    for i in range(1, len(times)):
        if times[i - 1] >= 1.0:
            assert norms[i] <= norms[i - 1] + 1e-10 * TINY


# ----------------------------------------------------------------------
# lifespan machinery
# ----------------------------------------------------------------------


def test_torus_lifespan_brackets_ode_oracle(ode_blowup_time):
    fam = torus_family()
    ctrl = SolverControls(check_boundary=False)
    est, trace = solve_lifespan(fam, 2.0, horizon=20.0, ctrl=ctrl)
    T_ref = ode_blowup_time(1.0, 2.0)
    assert est.status == BLOWN_UP
    assert est.T_low < T_ref < est.T_high
    assert abs(est.T_high - T_ref) / T_ref < 0.01
    assert len(trace.times) >= 1


@pytest.mark.parametrize("p", [2.0, 2.5])
def test_ode_oracle_is_converged(ode_blowup_time, p):
    # the oracle's blow-up time moves with neither the level where the
    # tail takes over (the tail is 2.4e-3 of T at level 1e6, p = 2) nor
    # its tolerance: measured shifts 1.4e-11 (level 1e6) and 4.5e-12
    # (rtol 1e-10), so its own error is below 1e-9
    T = ode_blowup_time(1.0, p)
    for kw in (dict(level=1e6), dict(level=1e12), dict(rtol=1e-10)):
        assert abs(ode_blowup_time(1.0, p, **kw) - T) <= 1e-9 * T


def test_ode_oracle_scales_its_level_and_names_a_missed_event(
        ode_blowup_time):
    # from a = 1e10 the default level, 1e9 * a, lies above the start.  The
    # damping is then negligible, and y'' = y^2 blows up at
    # sqrt(3/2) a^{-1/2} B(1/6, 1/2) / 3
    beta = math.gamma(1.0 / 6.0) * math.gamma(0.5) / math.gamma(2.0 / 3.0)
    assert ode_blowup_time(1e10, 2.0) == pytest.approx(
        math.sqrt(1.5) * 1e-5 * beta / 3.0, rel=1e-5)
    # from a = 1e-3, y stays below the level to t = 100
    with pytest.raises(RuntimeError, match=r"a=0\.001, p=2\).*end of"):
        ode_blowup_time(1e-3, 2.0)


@pytest.mark.parametrize("p", [2.0, 1.5])
def test_embedded_estimate_is_fourth_order(p):
    # the gap dt/10 (w4 - w5) is the local error of the order-3 partner,
    # so halving dt cuts it about 16x
    u, v = gauss_state()
    yu = np.fft.rfft(u.values)
    yv = np.fft.rfft(v.values)

    def err(dt):
        w1, w3 = solver._head(yu, yv, p, solver._stage_ops(SPEC, dt))
        return solver._attempt(yu, yv, w1, w3, p, SPEC, dt)[4]
    assert 12.0 <= err(0.04) / err(0.02) <= 20.0


def test_march_costs_four_rows_per_attempt(monkeypatch):
    # one 2-row call for N(y), N(Eh y) to start; per attempt (w2, w4), then
    # (w5, w3') with w3' = N(Eh y') guessed at the same dt.  w5 becomes the
    # next w1 on acceptance (FSAL), w1 is reused after a rejection, and the
    # carried w3 is rebuilt by one 1-row call only when dt changes
    events = []
    calls = []
    real_nl_hat, real_attempt = solver._nl_hat, solver._attempt

    def nl_hat(yu, p, field=False):
        events.append(1 if yu.ndim == 1 else yu.shape[0])
        return real_nl_hat(yu, p, field)

    def attempt(yu, yv, w1, w3, p, spec, dt):
        events.append("attempt")
        out = real_attempt(yu, yv, w1, w3, p, spec, dt)
        calls.append((yu, w1, w3, dt, out))
        return out

    monkeypatch.setattr(solver, "_nl_hat", nl_hat)
    monkeypatch.setattr(solver, "_attempt", attempt)
    # from dt_init = dt_max the first attempts overshoot the tolerance
    ctrl = SolverControls(check_boundary=False, dt_init=0.25)
    est, trace = solve_lifespan(torus_family(), 2.0, horizon=20.0, ctrl=ctrl)
    assert est.status == BLOWN_UP
    # rows per _nl_hat call: the first pair, then per attempt its two calls
    # followed by the rebuild, if any, before the next attempt
    segments = [[]]
    for e in events:
        if e == "attempt":
            segments.append([])
        else:
            segments[-1].append(e)
    assert segments[0] == [2]
    assert all(seg[:2] == [2, 2] for seg in segments[1:])
    rebuilds = rejected = reused = 0
    for i, (yu1, w1, w3, dt1, _) in enumerate(calls[1:], 1):
        yu0, w1_0, w3_0, dt0, out0 = calls[i - 1]
        moved = dt1 != dt0
        assert segments[i][2:] == ([1] if moved else [])
        rebuilds += moved
        if yu1 is yu0:
            rejected += 1
            assert w1 is w1_0
            carried = w3_0
        else:
            assert yu1 is out0[0] and w1 is out0[2]
            carried = out0[3]
        if moved:
            assert w3 is not carried
        else:
            reused += 1
            assert w3 is carried
    assert rejected > 0 and reused > 0 and rebuilds > 0
    assert len(trace.times) == len(calls) - rejected
    rows = [e for e in events if e != "attempt"]
    assert len(rows) == 1 + 2 * len(calls) + rebuilds
    assert sum(rows) == 2 + 4 * len(calls) + rebuilds
    # the march's own record counts the same attempts, rejections and rows
    stats = est.stats
    assert stats.attempts == len(calls)
    assert (stats.rejected_tol + stats.rejected_growth
            + stats.rejected_nonfinite) == rejected
    assert stats.nl_rows == sum(rows)


@pytest.mark.parametrize("case", ["torus_rejections", "horizon_remainder"])
def test_march_attempts_match_unbatched_reference(monkeypatch, case):
    # every attempt of the march, carried w1/w3 and rebuilds included, is
    # bit for bit the reference step that evaluates each stage afresh, on
    # the grid the attempt ran on
    calls = []
    real_attempt = solver._attempt

    def attempt(yu, yv, w1, w3, p, spec, dt):
        out = real_attempt(yu, yv, w1, w3, p, spec, dt)
        calls.append((yu, yv, spec, dt, out[0], out[1]))
        return out

    monkeypatch.setattr(solver, "_attempt", attempt)
    if case == "torus_rejections":
        p, horizon = 2.0, 20.0
        fam = torus_family()
        ctrl = SolverControls(check_boundary=False, dt_init=0.25)
    else:
        p, horizon = 2.0, 1.1
        fam = DataFamily(*gauss_state(), "M0_nonzero", "gaussian", 1.0)
        ctrl = SolverControls()
    est, trace = solve_lifespan(fam, p, horizon=horizon, ctrl=ctrl)
    for yu, yv, spec, dt, gu, gv in calls:
        zu, zv = _ref_lawson_step(yu, yv, p, dt, spec, True)
        assert np.array_equal(gu, zu) and np.array_equal(gv, zv)
    dts = [c[3] for c in calls]
    if case == "torus_rejections":
        assert est.status == BLOWN_UP
        assert any(a[0] is b[0] for a, b in zip(calls, calls[1:]))
        assert len(set(dts)) > 8
    else:
        assert est.status == SURVIVED_HORIZON
        # the Gaussian's support fits a sub-grid of SPEC, 3/8 of its nodes
        assert {c[2].points for c in calls} == {3 * SPEC.points // 8}
        # the last step is the remainder up to the horizon, off the ladder
        assert dts[-1] == pytest.approx(horizon - trace.times[-2], abs=1e-12)
        level = 4.0 * math.log2(dts[-1] / ctrl.dt_init)
        assert abs(level - round(level)) > 1e-6
        assert dts[-1] < dts[-2]


def _unbuffered_nl_hat(yu, p, field=False):
    """_nl_hat with fresh arrays for the 2x grid and its rfft."""
    m = yu.shape[-1] - 1
    fh = yu.copy()
    fh[..., m] *= 0.5
    fine = np.fft.irfft(fh, 4 * m)
    fine *= 2.0
    u = (fine[0] if fine.ndim > 1 else fine)[::2].copy()
    wh = np.fft.rfft(np.abs(fine) ** p)
    out = wh[..., : m + 1] * 0.5
    out[..., m] = wh[..., m].real
    return (out, u) if field else out


def _random_spectra(n, rows, seed):
    rng = np.random.default_rng(seed)
    shape = (n,) if rows is None else (rows, n)
    return np.fft.rfft(rng.standard_normal(shape) + 0.5)


@pytest.mark.parametrize("n", [64, 1024])
@pytest.mark.parametrize("rows", [None, 2], ids=["row", "stacked"])
def test_nl_hat_field_is_the_grid_field(n, rows):
    # the even samples of the 2x grid are irfft(yu, N) up to rounding, for
    # the first row of a stack
    yu = _random_spectra(n, rows, 3)
    _, u = solver._nl_hat(yu, 1.5, True)
    want = np.fft.irfft(yu if rows is None else yu[0], n)
    assert u.shape == want.shape
    assert np.max(np.abs(u - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("n", [64, 768, 1024])
@pytest.mark.parametrize("rows", [None, 2], ids=["row", "stacked"])
def test_nl_hat_buffers_change_no_bit(n, rows):
    first = _random_spectra(n, rows, 5)
    second = _random_spectra(n, rows, 6)
    for p in (1.25, 2.0):
        assert np.array_equal(solver._nl_hat(first, p),
                              _unbuffered_nl_hat(first, p))
        out, u = solver._nl_hat(first, p, True)
        want_out, want_u = _unbuffered_nl_hat(first, p, True)
        assert np.array_equal(out, want_out)
        assert np.array_equal(u, want_u)
        # a later call on the same shape reuses the buffers, not the outputs
        solver._nl_hat(second, p, True)
        assert np.array_equal(out, want_out)
        assert np.array_equal(u, want_u)
        for buf in solver._NL_WORK.by_shape[first.shape]:
            assert not np.shares_memory(out, buf)
            assert not np.shares_memory(u, buf)


def test_nl_hat_buffers_are_per_thread():
    # threads calling _nl_hat on the same shape must not share its buffers
    spectra = [_random_spectra(1024, 2, seed) for seed in range(4)]
    want = [_unbuffered_nl_hat(yu, 1.5, True) for yu in spectra]
    bad = []

    def run(i):
        for _ in range(200):
            out, u = solver._nl_hat(spectra[i], 1.5, True)
            if not (np.array_equal(out, want[i][0])
                    and np.array_equal(u, want[i][1])):
                bad.append(i)
                return

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert bad == []


def _fresh_head(yu, yv, p, dt, spec, field=False):
    """_head with real operators and a fresh array for every product."""
    b11, b12, _, _ = linear_pair_matrix(0.5 * dt, spec)
    rows = np.empty((2,) + yu.shape, dtype=np.complex128)
    rows[0] = yu
    np.add(b11 * yu, b12 * yv, out=rows[1])
    return _unbuffered_nl_hat(rows, p, field)


def _fresh_lawson_rk4(yu, yv, w1, w3, p, dt, spec):
    """_lawson_rk4 with real operators and a fresh array for every
    product."""
    a11, a12, a21, a22 = linear_pair_matrix(dt, spec)
    b11, b12, _, b22 = linear_pair_matrix(0.5 * dt, spec)
    b12x2, b22x2, b12dt = 2.0 * b12, 2.0 * b22, dt * b12
    eu = a11 * yu + a12 * yv
    ev = a21 * yu + a22 * yv
    rows = np.empty((2,) + yu.shape, dtype=np.complex128)
    np.add(b11 * yu, b12 * (yv + (0.5 * dt) * w1), out=rows[0])
    np.add(eu, b12dt * w3, out=rows[1])
    w2, w4 = _unbuffered_nl_hat(rows, p)
    w23 = w2 + w3
    c = dt / 6.0
    return (eu + c * (a12 * w1 + b12x2 * w23),
            ev + c * (a22 * w1 + b22x2 * w23 + w4), w4)


def _fresh_attempt(yu, yv, w1, w3, p, dt, spec):
    """_attempt with real operators and a fresh array for every product."""
    gu, gv, w4 = _fresh_lawson_rk4(yu, yv, w1, w3, p, dt, spec)
    (w5, w3_next), u = _fresh_head(gu, gv, p, dt, spec, True)
    scale = max(float(np.abs(gu).max()), float(np.abs(gv).max()), 1e-300)
    s = 1.0 / scale
    dv = ((0.1 * dt) * s) * (w4 - w5)
    su = s * gu
    sv = s * gv
    n = gu.shape[-1]
    num = math.sqrt(np.vdot(dv, dv).real / n)
    den = math.sqrt((np.vdot(su, su).real + np.vdot(sv, sv).real) / n) + 1e-300
    return gu, gv, w5, w3_next, num / den, u


@pytest.mark.parametrize("n", [64, 768])
def test_stage_buffers_change_no_bit(n):
    # the stage functions, with complex operators and work buffers, are
    # bit for bit the formulas with real operators and fresh arrays; a
    # later call on the same shape leaves the earlier outputs alone.  A
    # large step on large data keeps the nonlinear increments comparable
    # to the linear part, so a changed rounding in them shows in y'
    spec = GridSpec(n / 32.0, n)
    dt, p = 0.3, 1.25
    ops = solver._stage_ops(spec, dt)
    states = [(2.0 * _random_spectra(n, None, s),
               _random_spectra(n, None, s + 1)) for s in (7, 9)]
    outs, wants = [], []
    for yu, yv in states:
        w1, w3 = _fresh_head(yu, yv, p, dt, spec)
        got = solver._head(yu, yv, p, ops)
        assert np.array_equal(got, np.stack([w1, w3]))
        want = _fresh_lawson_rk4(yu, yv, w1, w3, p, dt, spec)
        got = solver._lawson_rk4(yu, yv, w1, w3, p, ops, dt)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
        want = _fresh_attempt(yu, yv, w1, w3, p, dt, spec)
        got = solver._attempt(yu, yv, w1, w3, p, spec, dt)
        assert got[4] == want[4]
        assert all(np.array_equal(got[i], want[i]) for i in (0, 1, 2, 3, 5))
        outs.append(got)
        wants.append(want)
    first, want = outs[0], wants[0]
    assert all(np.array_equal(first[i], want[i]) for i in (0, 1, 2, 3, 5))
    work = solver._STAGE_WORK.by_shape[(n // 2 + 1,)] \
        + solver._NL_WORK.by_shape[(2, n // 2 + 1)]
    for out in (first[i] for i in (0, 1, 2, 3, 5)):
        assert not any(np.shares_memory(out, buf) for buf in work)


@pytest.mark.parametrize("dt_init,step_tol", [(0.02, 1e-8), (0.25, 1e-8),
                                               (0.02, 1e-2)])
def test_controller_stays_on_the_dt_ladder(monkeypatch, dt_init, step_tol):
    # dt_init = dt_max starts with tolerance rejections; the loose
    # tolerance halves on sup-norm doubling, where the next err is small
    calls = []
    real_attempt = solver._attempt

    def attempt(yu, yv, w1, w3, p, spec, dt):
        out = real_attempt(yu, yv, w1, w3, p, spec, dt)
        calls.append((yu, dt, out[0]))
        return out

    monkeypatch.setattr(solver, "_attempt", attempt)
    ctrl = SolverControls(check_boundary=False, dt_init=dt_init,
                          step_tol=step_tol)
    horizon = 20.0
    misses = solver._pair_ops.cache_info().misses
    est, _ = solve_lifespan(torus_family(), 2.0, horizon=horizon, ctrl=ctrl)
    assert est.status == BLOWN_UP
    assert solver._pair_ops.cache_info().misses - misses <= 64
    rejected = [cur[0] is nxt[0] for cur, nxt in zip(calls, calls[1:])]
    t = 0.0
    for i, (_, dt, _) in enumerate(calls):
        level = 4.0 * math.log2(dt / dt_init)
        assert (abs(level - round(level)) < 1e-9
                or dt in (solver.DT_MIN, ctrl.dt_max)
                or dt == pytest.approx(horizon - t, abs=1e-12))
        if i < len(rejected) and not rejected[i]:
            t += dt
        if i >= 1 and rejected[i - 1]:
            # a rejection shrinks dt, and its next accept does not grow it
            assert dt < calls[i - 1][1]
            if i + 1 < len(calls) and not rejected[i]:
                assert calls[i + 1][1] <= dt
    if (dt_init, step_tol) != (0.02, 1e-8):
        assert any(rejected)


def _np_fit_root(ts, zs, degree):
    """The first root past ts[-1] of np.polyfit's fit, by np.roots."""
    ts, zs = np.asarray(ts)[-20:], np.asarray(zs)[-20:]
    shift, span = ts[-1], ts[-1] - ts[0]
    c = np.polyfit((ts - shift) / span, zs, degree)
    if np.polyval(c, 0.0) <= 0.0:
        return float(ts[-1])
    real = [r.real for r in np.roots(c)
            if abs(r.imag) <= 1e-9 * abs(r) and r.real > 0.0]
    return shift + span * min(real) if real else None


def test_fit_root_matches_polyfit():
    # the normal equations and the bracketed Newton root against np.polyfit
    # and np.roots, on noisy samples toward blow-up with curvature of
    # either sign, and on samples that turn away from zero
    rng = np.random.default_rng(11)
    found = 0
    for trial in range(300):
        degree = 2 + trial % 2
        T = rng.uniform(2.0, 400.0)
        k = int(rng.integers(degree + 1, 30))
        tau = np.sort(rng.uniform(0.005, 0.03, k))[::-1] * T
        a, b = rng.uniform(-3.0, 3.0, 2) / T
        z = tau * (1.0 + a * tau + b * tau * tau) \
            * (1.0 + 1e-6 * rng.standard_normal(k))
        if trial % 7 == 0:
            z = z[::-1]   # z grows: no root past the samples
        got = solver._fit_root(T - tau, z, degree)
        want = _np_fit_root(T - tau, z, degree)
        assert (got is None) == (want is None)
        if want is not None:
            found += 1
            assert got == pytest.approx(want, rel=1e-9)
    assert found > 200
    # too few samples for the degree
    assert solver._fit_root(np.array([1.0, 2.0, 3.0]),
                            np.array([3.0, 2.0, 1.0])) is None
    # a fitted z not positive at the last sample: that sample's t
    t = np.arange(1.0, 6.0)
    z = np.array([4.0, 3.0, 2.0, 1.0, -0.5])
    assert solver._fit_root(t, z) == 5.0
    # no span in t, or a non-finite sample: no fit
    with np.errstate(invalid="ignore"):
        assert solver._fit_root(np.full(5, 2.0), z) is None
    z[3] = np.inf
    assert solver._fit_root(t, z) is None
    # two distinct t among four samples: the cubic's Gram matrix is
    # exactly singular, and the solve's LinAlgError gives no fit
    assert solver._fit_root(np.array([1.0, 1.0, 2.0, 2.0]),
                            np.array([4.0, 3.0, 2.0, 1.0])) is None


@pytest.mark.parametrize("p", [2.0, 2.5])
def test_cubic_root_recovers_the_blowup_time(p):
    # on z exactly cubic in T - t the root is T; on the scalar ODE's own
    # profile y'' + y' = y^p, sampled as a march's last 20 steps before a
    # 0.9% stop, the cubic lands within 1e-8 of T, where the least-squares
    # line is off by about 3e-5
    T = 3.5
    tau = 0.009 * T * np.geomspace(1.15, 1.0, 20)
    z = tau * (0.3 + 2.0 * tau + 5.0 * tau * tau)
    assert solver._fit_root(T - tau, z) == pytest.approx(T, rel=1e-11)

    def rhs(t, y):
        return [y[1], abs(y[0]) ** p - y[1]]

    def blow(t, y):
        return y[0] - 1e16
    blow.terminal = True
    blow.direction = 1.0
    sol = solve_ivp(rhs, (0.0, 50.0), [1.0, 0.0], method="DOP853",
                    rtol=1e-13, atol=1e-13, events=blow, dense_output=True)
    # past the event y ~ C (T - t)^(-2/(p-1)) with C^(p-1) = 2(p+1)/(p-1)^2
    C = (2.0 * (p + 1.0) / (p - 1.0) ** 2) ** (1.0 / (p - 1.0))
    T = float(sol.t_events[0][0]) + (C / 1e16) ** ((p - 1.0) / 2.0)
    tau = 0.009 * T * np.geomspace(1.15, 1.0, 20)
    z = sol.sol(T - tau)[0] ** (-(p - 1.0) / 2.0)
    cubic = solver._fit_root(T - tau, z)
    a, b = np.polyfit(T - tau, z, 1)
    line = -b / a
    assert abs(cubic - T) <= 1e-8 * T
    assert abs(line - T) >= 1e-5 * T


def test_step_budget_error_reports_the_state(monkeypatch):
    # at the default step_tol: one step of dt_init 0.02, one of 0.04, then
    # one of 0.04 2^(3/4), the dt of the next attempt
    monkeypatch.setattr(solver, "MAX_ATTEMPTS", 3)
    ctrl = SolverControls(check_boundary=False)
    msg = r"3 attempts, t = 0\.127271713, dt = 0\.0673, max\|u\| = "
    with pytest.raises(RuntimeError, match=msg):
        solve_lifespan(torus_family(), 2.0, horizon=20.0, ctrl=ctrl)


def test_comparison_principle_pair():
    # pointwise-larger data cannot live longer
    zero = GridFunction(TORUS, np.zeros(TORUS.points))
    ctrl = SolverControls(check_boundary=False)
    lows = []
    for amp in (1.0, 1.5):
        dat = DataFamily(GridFunction(TORUS, np.full(TORUS.points, amp)),
                         zero, "M0_nonzero", "torus_constant", 1.0)
        est, _ = solve_lifespan(dat, 2.0, horizon=20.0, ctrl=ctrl)
        lows.append(est.T_high)
    assert lows[1] < lows[0]


def test_grid_refinement_stability_invariant():
    # doubling N and halving dt moves T_high by <= 2 percent
    spec_a = GridSpec(32.0, 1024)
    spec_b = GridSpec(32.0, 2048)
    outs = []
    for spec, dt0 in ((spec_a, 0.02), (spec_b, 0.01)):
        fam = make_data_family("M0_zero_M1_nonzero", 2.0, spec)
        ctrl = SolverControls(dt_init=dt0, dt_max=dt0 * 12.5)
        est, _ = solve_lifespan(fam, 2.0, horizon=50.0, ctrl=ctrl)
        assert est.status == BLOWN_UP
        outs.append(est.T_high)
    assert abs(outs[0] - outs[1]) / outs[1] <= 0.02


def test_survival_and_zero_data():
    fam = make_data_family("M0_nonzero", 1e-4, SPEC)
    est, trace = solve_lifespan(fam, 3.0, horizon=6.0)
    assert est.status == SURVIVED_HORIZON
    assert est.T_low == est.T_high == 6.0
    assert trace.times[-1] == pytest.approx(6.0)
    assert not trace.times.flags.writeable
    # zero data survives without a march: no step taken, none reported
    z = make_data_family("M0_nonzero", 0.0, SPEC)
    est0, trace0 = solve_lifespan(z, 2.0, horizon=5.0)
    assert est0.status == SURVIVED_HORIZON
    assert est0.stats.attempts == 0
    assert len(trace0.times) == 0
    with pytest.raises(ValueError, match="horizon must be positive"):
        solve_lifespan(fam, 3.0, horizon=0.0)


def test_truncation_abort_on_undersized_box():
    # a box too small for the spreading bulk trips the boundary guard
    small = GridSpec(8.0, 256)
    fam = make_data_family("M0_nonzero", 0.5, small)
    est, _ = solve_lifespan(fam, 2.2, horizon=100.0)
    assert est.status == TRUNCATION_ABORT


@pytest.mark.parametrize("kw,cause", [
    (dict(dt_init=0.25), "rejected_tol"),
    (dict(step_tol=1e-2), "rejected_growth")])
def test_march_stats_record_the_run(kw, cause):
    # from dt_init = dt_max the first attempts miss the tolerance; the
    # loose tolerance is rejected for sup-norm doubling instead
    ctrl = SolverControls(check_boundary=False, **kw)
    est, trace = solve_lifespan(torus_family(), 2.0, horizon=20.0, ctrl=ctrl)
    st = est.stats
    assert est.status == BLOWN_UP
    assert (st.termination, st.bracket) == (solver.ROOT, "extrapolated")
    assert getattr(st, cause) > 0
    # a torus is never regridded
    assert (st.regrids, st.points) == (0, TORUS.points)
    assert st.attempts == len(trace.times) + st.rejected_tol \
        + st.rejected_growth + st.rejected_nonfinite
    dts = np.diff(np.concatenate([[0.0], trace.times]))
    assert st.accepted_dt_min == pytest.approx(dts.min(), rel=1e-9)
    assert st.accepted_dt_max == pytest.approx(dts.max(), rel=1e-9)
    # constant data: the edge is the maximum and no mode but 0 is present
    assert st.edge_ratio == 1.0
    assert st.tail_ratio < 1e-12
    # a second run gives the same record
    assert solve_lifespan(torus_family(), 2.0, horizon=20.0,
                          ctrl=ctrl)[0].stats == st


@pytest.mark.parametrize("amp,cause,accepted", [
    (1e80, solver.DT_FLOOR, 0), (1e30, solver.U_CAP, 1)])
def test_non_finite_candidates_halve_dt_to_the_floor(amp, cause, accepted):
    # at p = 3 the first candidates are not finite: each rejection halves
    # dt, 35 of them from dt_init 0.02 to the clamp at DT_MIN.  At the
    # floor the 1e80 candidate's field overflows; the 1e30 one's is finite,
    # though its error estimate is not, so it is a forced accept past u_cap
    ctrl = SolverControls(check_boundary=False)
    est, trace = solve_lifespan(torus_family(amp), 3.0, horizon=20.0,
                                ctrl=ctrl)
    st = est.stats
    assert est.status == BLOWN_UP
    assert (st.termination, st.bracket) == (cause, "clamped")
    assert (st.rejected_nonfinite, st.rejected_tol, st.rejected_growth) == (
        35, 0, 0)
    assert st.attempts == 36
    assert st.forced_accepts == len(trace.times) == accepted
    assert est.T_low == est.T_high == accepted * solver.DT_MIN
    assert st.root_gap is None


def test_march_stats_name_every_termination(monkeypatch):
    fam = torus_family()
    # with no extrapolated root the march runs into u_cap, or into
    # overflow once dt sits at its floor; either clamps T_high to T_low
    with monkeypatch.context() as m:
        m.setattr(solver, "_fit_root", lambda t, z, degree=3: None)
        for dt_min, cause, T_low in ((1e-3, solver.DT_FLOOR, 3.5159660),
                                     (1e-4, solver.U_CAP, 3.5131658)):
            m.setattr(solver, "DT_MIN", dt_min)
            ctrl = SolverControls(check_boundary=False)
            est, _ = solve_lifespan(fam, 2.0, horizon=20.0, ctrl=ctrl)
            assert est.status == BLOWN_UP
            assert (est.stats.termination, est.stats.bracket) == (cause,
                                                                 "clamped")
            assert est.stats.accepted_dt_min == dt_min
            assert est.stats.root_gap is None
            assert est.T_low == est.T_high == pytest.approx(T_low, rel=1e-7)
    est, _ = solve_lifespan(fam, 2.0, horizon=2.0,
                            ctrl=SolverControls(check_boundary=False))
    assert est.status == SURVIVED_HORIZON
    assert (est.stats.termination, est.stats.bracket) == (solver.HORIZON,
                                                         "none")
    assert est.stats.root_gap is None
    small = GridSpec(8.0, 256)
    est, _ = solve_lifespan(make_data_family("M0_nonzero", 0.5, small),
                            2.2, horizon=100.0)
    assert est.status == TRUNCATION_ABORT
    assert est.stats.termination == solver.TRUNCATION
    assert est.stats.edge_ratio > BOUNDARY_TOL
    assert est.stats.root_gap is None
    est, _ = solve_lifespan(make_data_family("M0_nonzero", 0.0, SPEC), 2.0,
                            horizon=5.0)
    assert est.stats.attempts == est.stats.nl_rows == 0
    assert est.stats.root_gap is None
    assert est.stats.accepted_dt_min is None
    assert (est.stats.termination, est.stats.bracket) == (solver.HORIZON,
                                                         "none")


def test_guard_margin_at_the_default_tolerance():
    # criterion 07's M0_M1_zero eps 0.2 run, the gate-ladder run with the
    # largest edge ratio: at the default controls it must blow up with the
    # edge ratio 30x below BOUNDARY_TOL
    fam = make_data_family("M0_M1_zero", 0.2, GridSpec(64.0, 2048))
    est, _ = solve_lifespan(fam, 1.25, horizon=200.0)
    assert est.status == BLOWN_UP
    assert est.stats.edge_ratio <= BOUNDARY_TOL / 30.0
    assert est.stats.forced_accepts == 0


def test_guard_lets_a_loose_tolerance_blow_up():
    # the same run at step_tol 1e-6: the step error alone lifts the edge
    # ratio past 1e-8, where the old guard tolerance 1e-8 aborted it at
    # t = 1.13; at BOUNDARY_TOL it blows up
    ctrl = SolverControls(step_tol=1e-6)
    fam = make_data_family("M0_M1_zero", 0.2, GridSpec(64.0, 2048))
    est, _ = solve_lifespan(fam, 1.25, horizon=200.0, ctrl=ctrl)
    assert est.status == BLOWN_UP
    assert est.stats.termination == solver.ROOT
    assert 1e-8 < est.stats.edge_ratio <= BOUNDARY_TOL / 30.0


def test_guard_aborts_a_developing_truncation():
    # the bulk spreads to the edge of L = 16 long after t = 0: the abort
    # comes from the solution, not from the initial data
    fam = make_data_family("M0_zero_M1_nonzero", 0.1, GridSpec(16.0, 512))
    est, _ = solve_lifespan(fam, 1.25, horizon=200.0)
    assert est.status == TRUNCATION_ABORT
    assert est.stats.termination == solver.TRUNCATION
    assert est.T_low == est.T_high > 5.0
    assert est.stats.edge_ratio > BOUNDARY_TOL


def test_forced_accepts_at_dt_min_clamp_the_bracket(monkeypatch,
                                                    ode_blowup_time):
    # a DT_MIN of 1e-2 or 3e-3 accepts steps out of tolerance near blow-up;
    # the bracket does not cover their error, so it is not called
    # extrapolated even where it holds the ODE's blow-up time, as at 1e-2
    T_ref = ode_blowup_time(1.0, 2.0)
    with monkeypatch.context() as m:
        for dt_min in (1e-2, 3e-3):
            m.setattr(solver, "DT_MIN", dt_min)
            ctrl = SolverControls(check_boundary=False)
            est, _ = solve_lifespan(torus_family(), 2.0, horizon=20.0,
                                    ctrl=ctrl)
            assert est.status == BLOWN_UP
            assert est.stats.forced_accepts > 0
            assert est.stats.bracket == "clamped"
            if dt_min == 1e-2:
                assert est.T_low < T_ref < est.T_high
    assert est.T_low < est.T_high
    # DT_MIN itself forces nothing
    est, _ = solve_lifespan(torus_family(), 2.0, horizon=20.0,
                            ctrl=SolverControls(check_boundary=False))
    assert est.stats.forced_accepts == 0
    assert est.stats.bracket == "extrapolated"
    assert est.T_low < T_ref < est.T_high


@pytest.mark.parametrize("p", [2.0, 2.5])
def test_stop_rule_is_checked_on_every_accepted_step(monkeypatch, p):
    # criterion 10's torus runs: whatever max|u| is, the cubic is fitted on
    # exactly the accepted steps where the secant through the last two
    # samples has its root within 2% of itself past t
    cubics, samples, attempts = [], [], []
    cubic_fit = solver._fit_root
    real_attempt = solver._attempt

    def cubic_spy(t, z, degree=3):
        if degree == 3:
            cubics.append(len(t))
            samples[:] = t.copy(), z.copy()
        return cubic_fit(t, z, degree)

    def attempt(yu, yv, w1, w3, q, spec, dt):
        out = real_attempt(yu, yv, w1, w3, q, spec, dt)
        attempts.append((yu, out[0], float(np.abs(out[5]).max())))
        return out
    monkeypatch.setattr(solver, "_fit_root", cubic_spy)
    monkeypatch.setattr(solver, "_attempt", attempt)
    est, trace = solve_lifespan(torus_family(), p, horizon=20.0,
                                ctrl=SolverControls(check_boundary=False))
    assert (est.stats.termination, est.stats.bracket) == (solver.ROOT,
                                                         "extrapolated")
    # the stopping fit's samples are every accepted t and, bit for bit, z
    # as numpy's array power takes it from the accepted sup norms
    sup = [m for (_, gu, m), nxt in zip(attempts, attempts[1:] + [None])
           if nxt is None or nxt[0] is gu]
    t, z = samples
    assert np.array_equal(t, trace.times)
    assert np.array_equal(z, np.array(sup) ** (-(p - 1.0) / 2.0))
    n = len(t)
    triggered = []
    for k in range(2, n + 1):
        if z[k - 1] < z[k - 2]:
            root = t[k - 1] + (t[k - 1] - t[k - 2]) * z[k - 1] \
                / (z[k - 2] - z[k - 1])
            if root - t[k - 1] <= solver._TRIGGER_WINDOW * root:
                triggered.append(k)
    assert cubics == triggered and triggered[-1] == n
    assert len(cubics) < n // 2


@pytest.mark.parametrize("p,cls,eps", [
    (2.0, None, None), (2.5, None, None),
    (1.25, "M0_zero_M1_nonzero", 0.4), (1.5, "M0_zero_M1_nonzero", 0.5),
    (3.0, "M0_nonzero", 0.9)],
    ids=["torus p=2", "torus p=2.5", "sweep eps 0.4", "p=1.5 eps 0.5",
         "p=3 eps 0.9"])
def test_stop_replays_the_cubic_root_rule(monkeypatch, p, cls, eps):
    # replayed on the run's own samples without the secant's trigger, the
    # rule stops at the same step: the first accepted step whose cubic root
    # lies within _ROOT_WINDOW of itself past t, and T_high is that root.
    # The runs sit on both sides of p = 3/2.
    samples = []
    cubic_fit = solver._fit_root

    def cubic_spy(t, z, degree=3):
        samples[:] = t.copy(), z.copy()
        return cubic_fit(t, z, degree)
    monkeypatch.setattr(solver, "_fit_root", cubic_spy)
    if cls is None:
        fam, horizon = torus_family(), 20.0
        ctrl = SolverControls(check_boundary=False)
    else:
        fam = make_data_family(cls, eps, GridSpec(64.0, 2048))
        horizon, ctrl = 200.0, SolverControls()
    est, trace = solve_lifespan(fam, p, horizon=horizon, ctrl=ctrl)
    t, z = samples
    assert np.array_equal(t, trace.times)
    stops = []
    for k in range(1, len(t) + 1):
        root = cubic_fit(t[:k], z[:k])
        if root is not None and root - t[k - 1] <= solver._ROOT_WINDOW * root:
            stops.append((k, root))
    assert stops[0] == (len(t), est.T_high)
    assert est.T_low == t[-1]
    assert 0.0 < est.stats.root_gap < 1e-4


def test_p3_blow_up_ends_on_the_root_not_on_truncation():
    # at p = 3 the concentrating peak rings at the grid's edge close to
    # blow-up; the root window ends the march while the edge is quiet,
    # and the root agrees with the run on the doubled N to 1e-7
    highs = []
    for n in (2048, 4096):
        fam = make_data_family("M0_nonzero", 0.9, GridSpec(64.0, n))
        est, _ = solve_lifespan(fam, 3.0, horizon=30.0)
        assert est.status == BLOWN_UP
        assert (est.stats.termination, est.stats.bracket) == (solver.ROOT,
                                                             "extrapolated")
        assert est.stats.edge_ratio <= BOUNDARY_TOL / 30.0
        highs.append(est.T_high)
    assert highs[0] == pytest.approx(3.3092036, rel=1e-6)
    assert highs[1] == pytest.approx(highs[0], rel=1e-7)


def _quiet_start(fam):
    """The first entry of the family's grid ladder whose initial edge
    amplitudes are at most BOUNDARY_TOL/30 max(|u0|, |u1|), and the number
    of entries before it."""
    spec = fam.f0.spec
    u0, u1 = (g.values for g in fam.initial_data())
    quiet = BOUNDARY_TOL / 30.0 * max(np.abs(u0).max(), np.abs(u1).max())
    for i, grid in enumerate(solver._grid_ladder(spec)):
        lo = (spec.points - grid.points) // 2
        cu, cv = u0[lo:lo + grid.points], u1[lo:lo + grid.points]
        edge = max(solver._edge_amplitude(cu), solver._edge_amplitude(cv))
        if grid is spec or edge <= quiet:
            return grid, i


def test_march_grows_its_grid_with_the_support(monkeypatch):
    # the default sweep's eps 0.4 run starts on N = 384 of the family's
    # N = 2048 and grows through 512 to 768; the same loop on the whole
    # grid (the guard off, no growth) gives the same lifespan
    calls = []
    rows = []
    real_attempt, real_nl_hat = solver._attempt, solver._nl_hat

    def attempt(yu, yv, w1, w3, p, spec, dt):
        calls.append((spec, dt))
        return real_attempt(yu, yv, w1, w3, p, spec, dt)

    def nl_hat(yu, p, field=False):
        rows.append(1 if yu.ndim == 1 else yu.shape[0])
        return real_nl_hat(yu, p, field)

    monkeypatch.setattr(solver, "_attempt", attempt)
    monkeypatch.setattr(solver, "_nl_hat", nl_hat)
    spec = GridSpec(64.0, 2048)
    fam = make_data_family("M0_zero_M1_nonzero", 0.4, spec)
    est, trace = solve_lifespan(fam, 1.25, horizon=200.0)
    st = est.stats
    assert est.status == BLOWN_UP
    assert st.points == 768 and st.regrids >= 1
    assert st.edge_ratio <= BOUNDARY_TOL / 30.0
    assert st.attempts == len(trace.times) + st.rejected_tol \
        + st.rejected_growth + st.rejected_nonfinite + st.regrids
    # the march starts on the first quiet entry of the ladder; a regrid
    # moves it to the next entry and retakes the same dt
    ladder = solver._grid_ladder(spec)
    start, _ = _quiet_start(fam)
    assert calls[0][0] == start and start.points == 384
    moves = 0
    for (a, dt_a), (b, dt_b) in zip(calls, calls[1:]):
        if b != a:
            moves += 1
            assert ladder.index(b) == ladder.index(a) + 1
            assert dt_b == dt_a
    assert moves == st.regrids
    assert calls[-1][0] == ladder[ladder.index(start) + st.regrids]
    # a regrid rebuilds w1 and w3 in one 2-row call
    assert st.nl_rows == sum(rows)
    whole, _ = solve_lifespan(fam, 1.25, horizon=200.0,
                              ctrl=SolverControls(check_boundary=False))
    assert (whole.stats.regrids, whole.stats.points) == (0, 2048)
    assert est.T_high == pytest.approx(whole.T_high, rel=1e-6)


@pytest.mark.parametrize("cls,eps,spec,points", [
    ("M0_zero_M1_nonzero", 0.4, GridSpec(64.0, 2048), 384),
    ("M0_M1_zero", 0.2, GridSpec(48.0, 1536), 384),
    ("M0_nonzero", 0.5, GridSpec(20.0, 1536), 768),
    ("M0_nonzero", 0.5, GridSpec(8.0, 256), 256)])
def test_march_starts_on_the_first_quiet_entry(monkeypatch, cls, eps, spec,
                                                points):
    # the first attempt runs on the first ladder entry with a quiet initial
    # edge, from the family's centred values there, bit for bit; every
    # entry before it has a loud edge, and an undersized box starts on the
    # family's grid itself
    first = []

    def attempt(yu, yv, w1, w3, p, grid, dt):
        if not first:
            first.extend((grid, yu, yv))
        raise RuntimeError("stop after the first attempt")

    monkeypatch.setattr(solver, "_attempt", attempt)
    fam = make_data_family(cls, eps, spec)
    with pytest.raises(RuntimeError, match="first attempt"):
        solve_lifespan(fam, 1.25, horizon=200.0)
    grid, yu, yv = first
    start, i = _quiet_start(fam)
    assert grid == start and grid.points == points
    assert solver._grid_ladder(spec)[i] == start
    lo = (spec.points - grid.points) // 2
    u0, u1 = (g.values[lo:lo + grid.points] for g in fam.initial_data())
    assert np.array_equal(yu, np.fft.rfft(u0))
    assert np.array_equal(yv, np.fft.rfft(u1))
    # the guard off runs on the family's grid from the start
    first.clear()
    with pytest.raises(RuntimeError, match="first attempt"):
        solve_lifespan(fam, 1.25, horizon=200.0,
                       ctrl=SolverControls(check_boundary=False))
    assert first[0] is spec


def test_embed_centres_the_sub_grid_values():
    # a field on n nodes lands on the centred n nodes of the doubled grid,
    # among zeros, at the same positions x
    rng = np.random.default_rng(11)
    fine = GridSpec(16.0, 256)
    sub = {g.points: g for g in solver._grid_ladder(fine)}[128]
    vals = rng.standard_normal(128)
    got = np.fft.irfft(solver._embed(np.fft.rfft(vals), 128, 256), 256)
    assert_allclose(got[64:192], vals, rtol=0.0, atol=1e-14)
    assert np.max(np.abs(got[:64])) < 1e-14
    assert np.max(np.abs(got[192:])) < 1e-14
    assert_allclose(fine.nodes[64:192], sub.nodes, rtol=0.0, atol=1e-12)


def test_sub_grid_ladder_keeps_h_and_the_family_nodes():
    # 16 up to the family's N through every 2^k and 3 2^k size, each move
    # x3/2 or x4/3; every sub-grid of these families keeps h to the bit,
    # its nodes are the family's centred slice, and the family's grid
    # itself closes the list
    for spec in (GridSpec(64.0, 2048), GridSpec(48.0, 1536),
                 GridSpec(128.0, 4096), GridSpec(16.0, 256)):
        ladder = solver._grid_ladder(spec)
        sizes = [g.points for g in ladder]
        assert sizes == sorted(m << k for m in (1, 3) for k in range(13)
                               if 16 <= m << k <= spec.points)
        assert all(b in (3 * a // 2, 4 * a // 3)
                   for a, b in zip(sizes, sizes[1:]))
        assert ladder[-1] is spec
        for sub in ladder:
            lo = (spec.points - sub.points) // 2
            assert sub.h == spec.h
            assert np.array_equal(sub.nodes, spec.nodes[lo:lo + sub.points])
    # a family of the smallest size has no sub-grid
    assert solver._grid_ladder(GridSpec(1.0, 16)) == [GridSpec(1.0, 16)]


@pytest.mark.parametrize("n,n_new", [(128, 192), (96, 128), (512, 768),
                                     (768, 1024)])
def test_embed_into_the_next_ladder_size(n, n_new):
    # x3/2 and x4/3: the n values land centred among zeros, at the nodes
    # of the same x on the next entry of the ladder
    rng = np.random.default_rng(n)
    ladder = solver._grid_ladder(GridSpec(64.0, 2048))
    sizes = [g.points for g in ladder]
    small, large = ladder[sizes.index(n)], ladder[sizes.index(n) + 1]
    assert large.points == n_new
    vals = rng.standard_normal(n)
    got = np.fft.irfft(solver._embed(np.fft.rfft(vals), n, n_new), n_new)
    lo = (n_new - n) // 2
    assert_allclose(got[lo:lo + n], vals, rtol=0.0, atol=1e-13)
    assert np.max(np.abs(np.delete(got, np.s_[lo:lo + n]))) < 1e-13
    assert np.array_equal(large.nodes[lo:lo + n], small.nodes)


def test_ladder_skips_sizes_that_would_change_h(monkeypatch):
    # a 3 2^k sub-grid of L = 25.6, N = 1024 cannot keep h = 0.05 to the
    # bit, so the ladder leaves it out and doubles; a 3 2^k family (L = 10,
    # N = 1536) leaves out its 2^k sizes the same way
    spec = GridSpec(25.6, 1024)
    ladder = solver._grid_ladder(spec)
    assert [g.points for g in ladder] == [16, 32, 64, 128, 256, 512, 1024]
    assert GridSpec(25.6 * (384 / 1024), 384).h != spec.h
    tri = GridSpec(10.0, 1536)
    assert [g.points for g in solver._grid_ladder(tri)] == [
        24, 48, 96, 192, 384, 768, 1536]
    assert GridSpec(10.0 * (512 / 1536), 512).h != tri.h
    assert all(g.h == tri.h for g in solver._grid_ladder(tri))
    # the march on such a family grows by doubling, one entry at a time,
    # and keeps h throughout
    grids = []
    real_attempt = solver._attempt

    def attempt(yu, yv, w1, w3, p, grid, dt):
        grids.append(grid)
        return real_attempt(yu, yv, w1, w3, p, grid, dt)

    monkeypatch.setattr(solver, "_attempt", attempt)
    fam = make_data_family("M0_zero_M1_nonzero", 0.4, spec)
    est, _ = solve_lifespan(fam, 1.25, horizon=12.0)
    assert est.status == SURVIVED_HORIZON and est.stats.regrids >= 1
    visited = [ladder.index(g) for g in dict.fromkeys(grids)]
    assert visited == list(range(visited[0], visited[0] + len(visited)))
    assert all(g.h == spec.h for g in grids)


def test_lifespan_estimate_invariants():
    with pytest.raises(ValueError):
        LifespanEstimate(BLOWN_UP, 10.0, 9.0)
    with pytest.raises(ValueError):
        # blown_up bracket wider than 1 percent of T_high
        LifespanEstimate(BLOWN_UP, 5.0, 9.0)
    ok = LifespanEstimate(BLOWN_UP, 9.92, 10.0)
    assert ok.T_high == 10.0
    with pytest.raises(ValueError, match="unknown status"):
        LifespanEstimate("bogus", 1.0, 2.0)


# ----------------------------------------------------------------------
# duhamel residual
# ----------------------------------------------------------------------


def test_duhamel_residual_linear_run_tiny(tiny_traj):
    # the stepper is exact on the linear flow, so the integral form, whose
    # source underflows to 0, closes to roundoff
    res = duhamel_residual(tiny_traj, p=P_TINY)
    assert 0.0 < res < 1e-11


def test_duhamel_residual_nonlinear_small():
    u, v = gauss_state(amp=0.05)
    traj = integrate(u, v, p=2.0, t_final=4.0, dt=0.04)
    res = duhamel_residual(traj, p=2.0)
    assert res < 1e-8


def _ref_duhamel_residual(traj, p, include_nonlinear=True):
    """The oracle as one apply_S, one apply_dtS and one damped_symbol per
    quadrature node at every checkpoint."""
    times, spec = traj.times, traj.spec
    U = traj.u
    u0 = GridFunction(spec, U[0])
    idx = sorted({int(round(f * (len(times) - 1)))
                  for f in (0.25, 0.5, 0.75, 1.0)} - {0})
    spline = _cubic_spline(times, U) if include_nonlinear else None
    xg, wg = np.polynomial.legendre.leggauss(64)
    lin0 = GridFunction(spec, U[0] + traj.v[0])
    worst = 0.0
    for i in idx:
        tc = float(times[i])
        target = U[i]
        rhs = apply_S(tc, lin0).values + apply_dtS(tc, u0).values
        if include_nonlinear:
            tau = 0.5 * tc * (xg + 1.0)
            wq = 0.5 * tc * wg
            nl = np.abs(spline(tau)) ** p
            nlh = np.fft.rfft(nl, axis=1)
            acc = np.zeros(spec.points // 2 + 1, dtype=np.complex128)
            for q in range(len(tau)):
                sig = damped_symbol(tc - tau[q], spec).sigma
                acc += wq[q] * sig * nlh[q]
            rhs = rhs + np.fft.irfft(acc, spec.points)
        gap = np.linalg.norm(target - rhs)
        ref = np.linalg.norm(target)
        if ref == 0.0:
            continue
        worst = max(worst, float(gap / ref))
    return worst


@pytest.fixture(scope="module")
def small_traj():
    u, v = gauss_state(amp=0.05)
    return integrate(u, v, p=2.0, t_final=4.0, dt=0.04)


@pytest.fixture(scope="module")
def tiny_traj():
    u, v = tiny_state()
    return integrate(u, v, p=P_TINY, t_final=4.0, dt=0.05)


# the ids keep the names these cases had under a checkpoints parameter; the
# linear reference, with the source dropped, checks the underflowing run
@pytest.mark.parametrize("include_nonlinear", [True, False],
                         ids=["None-True", "None-False"])
def test_duhamel_residual_matches_per_node_reference(small_traj, tiny_traj,
                                                     include_nonlinear):
    traj, p = (small_traj, 2.0) if include_nonlinear else (tiny_traj, P_TINY)
    got = duhamel_residual(traj, p=p)
    ref = _ref_duhamel_residual(traj, p=p,
                                include_nonlinear=include_nonlinear)
    assert got == ref > 0.0


# criterion 09's residuals to the bit: _ref_duhamel_residual builds its
# spline through _cubic_spline, so only fixed values see the spline change
@pytest.mark.parametrize("p, dt, want", [
    (2.0, 0.16, "9.630239097813967e-07"),
    (2.0, 0.04, "3.958631514434636e-09"),
    (1.5, 0.04, "2.2259434727700253e-08")])
def test_duhamel_residual_pinned_criterion_09_bits(p, dt, want):
    u, v = gauss_state(amp=0.3)
    traj = integrate(u, v, p=p, t_final=4.0, dt=dt)
    assert repr(duhamel_residual(traj, p)) == want


def test_duhamel_residual_working_set():
    # the oracle holds one array of the trajectory's size, the spline's
    # knot slopes, plus O(_TAU_BLOCK N) temporaries: 1.4 n N 8 bytes here,
    # where stacking the samples and their spline coefficients took 6.0
    spec = GridSpec(32.0, 1024)
    times = np.linspace(0.0, 8.0, 400)
    bump = np.exp(-0.25 * spec.nodes ** 2)
    u = 0.1 * np.cos(times)[:, None] * bump
    v = np.zeros_like(u)
    # warm: the quadrature rule and the propagators' caches are per process
    duhamel_residual(Trajectory(spec, times[:16], u[:16], v[:16]), 2.0)
    traj = Trajectory(spec, times, u, v)
    tracemalloc.start()
    try:
        res = duhamel_residual(traj, 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert math.isfinite(res)
    assert peak < 2.0 * len(times) * spec.points * 8


def test_duhamel_residual_one_symbol_per_checkpoint(monkeypatch, small_traj):
    calls = []
    symbol = solver.damped_symbol

    def counted(t, spec):
        calls.append(t)
        return symbol(t, spec)

    monkeypatch.setattr(solver, "damped_symbol", counted)
    duhamel_residual(small_traj, p=2.0)
    assert len(calls) == 4          # the quarter points


@pytest.mark.parametrize("knots", ["uniform", "nonuniform"])
def test_cubic_spline_matches_scipy(knots):
    # the oracle's time spline is scipy's not-a-knot CubicSpline to roundoff
    rng = np.random.default_rng(3)
    if knots == "uniform":
        x = np.linspace(0.0, 4.0, 26)
    else:
        x = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 0.4, 19))])
    U = np.sin(np.outer(x, np.linspace(0.5, 3.0, 7))) \
        + 0.1 * rng.standard_normal((len(x), 7))
    mid = x[:-1] + rng.uniform(0.0, 1.0, len(x) - 1) * np.diff(x)
    ends = np.concatenate([x[0] + np.array([1e-3, 0.5]) * (x[1] - x[0]),
                           x[-2] + np.array([0.5, 1.0 - 1e-3])
                           * (x[-1] - x[-2])])
    tq = np.concatenate([x, mid, ends])
    ours = _cubic_spline(x, U)(tq)
    ref = CubicSpline(x, U, axis=0)(tq)
    assert np.max(np.abs(ours - ref)) <= 1e-12 * np.max(np.abs(U))
    assert_allclose(ours[:len(x)], U, rtol=0.0, atol=1e-14)


def test_duhamel_residual_skips_a_zero_checkpoint():
    # state 4 of 17 is the quarter-point checkpoint; zeroed, it has no norm
    # to divide by, and the residual comes from the other three
    u, v = gauss_state(amp=0.3)
    traj = integrate(u, v, p=2.0, t_final=4.0, dt=0.25)
    zeroed = traj.u.copy()
    zeroed[4] = u.values * 0.0
    res = duhamel_residual(Trajectory(SPEC, traj.times, zeroed, traj.v),
                           p=2.0)
    assert math.isfinite(res) and res == pytest.approx(0.0409, rel=1e-3)


def test_duhamel_sampling_errors():
    u, v = gauss_state(amp=0.05)
    traj = integrate(u, v, p=2.0, t_final=1.0, dt=0.25)
    with pytest.raises(SamplingError):
        duhamel_residual(traj, p=2.0)           # too few samples


# ----------------------------------------------------------------------
# controls and state validation
# ----------------------------------------------------------------------


def test_controls_validation():
    with pytest.raises(ValueError):
        SolverControls(dt_init=-0.1)
    with pytest.raises(ValueError):
        SolverControls(dt_init=0.5 * solver.DT_MIN)
    with pytest.raises(ValueError):
        SolverControls(dt_init=0.1, dt_max=0.01)
    with pytest.raises(ValueError):
        SolverControls(step_tol=0.0)
    # the four settings a caller varies, and no other
    assert [f.name for f in dataclasses.fields(SolverControls)] == [
        "dt_init", "dt_max", "step_tol", "check_boundary"]
    ctrl = SolverControls(dt_init=solver.DT_MIN, dt_max=solver.DT_MIN)
    assert ctrl.dt_init == ctrl.dt_max == 1e-12


def test_integrate_rejects_mismatched_grids():
    u = GridFunction(SPEC, np.ones(SPEC.points))
    v = GridFunction(GridSpec(32.0, 512), np.zeros(512))
    with pytest.raises(GridError):
        integrate(u, v, p=2.0, t_final=1.0, dt=0.01)
