import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.polynomial import Polynomial

import dwlab._kernels
from dwlab._kernels import _W_FULL, _hermite_weights, odi_march
from dwlab.cli import load_config
from dwlab.odi import (T0, OdiConfig, OdiTrace, odi_scaling_fit,
                       odi_target_slope, simulate_odi)


def blow_time(cfg):
    tr = simulate_odi(cfg)
    assert tr.blown_up, f"no blow-up by horizon {cfg.horizon}"
    return tr.blowup_time


# ----------------------------------------------------------------------
# config and trace contracts
# ----------------------------------------------------------------------


def test_config_validation():
    good = dict(p=2.0, beta=0.0)
    OdiConfig(**good)
    for bad in (dict(p=1.0, beta=0.0), dict(p=2.0, beta=1.0),
                dict(p=2.0, beta=-0.1),
                dict(p=2.0, beta=0.0, eps=-1e-3),
                dict(p=2.0, beta=0.0, eps=math.inf),
                dict(p=2.0, beta=0.0, eps=math.nan),
                dict(p=2.0, beta=0.0, horizon=4.0),
                dict(p=2.0, beta=0.0, horizon=math.inf),
                dict(p=2.0, beta=0.0, horizon=math.nan)):
        with pytest.raises(ValueError):
            OdiConfig(**bad)


def test_zero_seed_is_fixed_point():
    tr = simulate_odi(OdiConfig(p=2.0, beta=0.0, eps=0.0))
    assert not tr.blown_up
    assert np.all(tr.v == 0.0)


def test_trace_rejects_doctored_arrays():
    v = np.full(64, 2.0)

    def drop_after(j):   # v falls from node j to node j + 1
        out = v.copy()
        out[j + 1:] = 1.0
        return out

    for t0 in (4.0, 7.3):
        t = t0 + np.arange(64) / 8.0
        tr = OdiTrace(t, v)
        # the trace freezes its own copies, not the caller's arrays
        assert not tr.v.flags.writeable and v.flags.writeable
        # the monotonicity check starts at the first node with t >= t0 + 1
        k = int(np.searchsorted(t, t0 + 1.0))
        OdiTrace(t, drop_after(k - 1))
        with pytest.raises(ValueError):
            OdiTrace(t, drop_after(k))
    with pytest.raises(ValueError):
        OdiTrace(t, -v)
    with pytest.raises(ValueError):
        OdiTrace(t[:0], v[:0])
    with pytest.raises(ValueError):
        OdiTrace(t[::-1], v)
    with pytest.raises(ValueError):
        OdiTrace(t[:-1], v)


# ----------------------------------------------------------------------
# march behavior
# ----------------------------------------------------------------------


def test_blowup_time_monotone_in_eps():
    times = [blow_time(OdiConfig(p=2.0, beta=0.0, eps=e))
             for e in (1e-3, 3e-3, 1e-2)]
    assert times[0] > times[1] > times[2]


def test_blowup_is_the_last_node_at_the_level():
    cfg = OdiConfig(p=2.0, beta=0.0, eps=5e-2, horizon=200.0)
    tr = simulate_odi(cfg)
    assert tr.blown_up
    assert tr.blowup_time == tr.t[-1]
    assert tr.v[-1] == 1e8 * cfg.eps
    assert tr.t[-2] < tr.t[-1] and tr.v[-2] < tr.v[-1]
    assert tr.steps == len(tr.t) - 1
    # a level between two nodes is crossed where z = v^{-(p-1)/2} is, on
    # the line through the two nodes; the steps before it are the same
    k = len(tr.t) - 10
    level = math.sqrt(tr.v[k - 1] * tr.v[k])
    nodes, n, blow = odi_march(cfg.eps, cfg.p, cfg.beta, T0,
                               cfg.horizon, level)
    assert n == k + 1 and np.array_equal(nodes[:k, 0], tr.t[:k])
    z0, z1, zl = tr.v[k - 1] ** -0.5, tr.v[k] ** -0.5, level ** -0.5
    want = tr.t[k - 1] + (tr.t[k] - tr.t[k - 1]) * (z0 - zl) / (z0 - z1)
    assert nodes[-1, 0] == pytest.approx(want, rel=1e-14)


def test_scaling_fit_recovers_target_slope():
    cfg = OdiConfig(p=2.0, beta=0.0)
    eps = np.geomspace(1e-3, 1e-2, 5)
    traces, fit = odi_scaling_fit(cfg, eps)
    assert [tr.blowup_time for tr in traces] == [
        simulate_odi(replace(cfg, eps=float(e))).blowup_time for e in eps]
    target = odi_target_slope(2.0, 0.0)
    assert target == -1.0
    assert abs(fit.slope - target) <= 0.1 * abs(target)
    assert fit.r_squared >= 0.98


def test_scaling_fit_input_checks():
    cfg = OdiConfig(p=2.0, beta=0.0)
    with pytest.raises(ValueError):
        odi_scaling_fit(cfg, [1e-3, 1e-2])
    with pytest.raises(ValueError):
        odi_scaling_fit(cfg, [1e-3, -1e-3, 1e-2])
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="positive and finite"):
            odi_scaling_fit(cfg, [1e-2, bad, 1e-3])
    # a censored eps stops the march there: no fit, and only the traces
    # of the eps before it
    censored = OdiConfig(p=2.0, beta=0.0, eps=1e-6, horizon=10.0)
    traces, fit = odi_scaling_fit(censored, [1e-6, 2e-6, 4e-6])
    assert fit is None
    assert traces == []
    partial = OdiConfig(p=2.0, beta=0.0, horizon=1000.0)
    traces, fit = odi_scaling_fit(partial, [1e-2, 3e-3, 1e-3])
    assert fit is None
    assert [tr.blowup_time for tr in traces] == [
        blow_time(replace(partial, eps=e)) for e in (1e-2, 3e-3)]


def test_target_slope_table():
    assert odi_target_slope(2.0, 0.5) == pytest.approx(-2.0)
    assert odi_target_slope(1.5, 0.25) == pytest.approx(-2.0 / 3.0)
    with pytest.raises(ValueError):
        odi_target_slope(2.0, 1.0)


def test_default_ladder_step_count():
    # a deterministic cost guard: `lab odi`'s default ladder takes 1,336
    # steps (8 marches of 163-170); a step-control regression that makes
    # the march much slower fails here without timing anything
    cfg = load_config("odi")
    base = OdiConfig(p=cfg.p, beta=cfg.beta, horizon=cfg.horizon)
    traces, fit = odi_scaling_fit(base, cfg.eps_list)
    assert fit is not None and len(traces) == 8
    assert sum(tr.steps for tr in traces) <= 2 * 1_336


def test_refinement_shifts_blowup_under_5pct(monkeypatch):
    # an 8-fold refinement of both step constants moves the blow-up time
    # by 9.5e-6 (relative)
    coarse = blow_time(OdiConfig(p=2.0, beta=0.0, eps=3e-3))
    monkeypatch.setattr(dwlab._kernels, "STEP_THETA",
                        dwlab._kernels.STEP_THETA / 8)
    monkeypatch.setattr(dwlab._kernels, "STEP_CAP",
                        dwlab._kernels.STEP_CAP / 8)
    fine = blow_time(OdiConfig(p=2.0, beta=0.0, eps=3e-3))
    assert abs(coarse - fine) / fine < 0.05


def test_unsolved_steps_are_halved(monkeypatch):
    # a step whose Newton iterates have not converged is halved and tried
    # again, never accepted.  With 3 iterates allowed instead of 30, the
    # p = 3 march halves 3,344 steps and takes 963 nodes instead of 154;
    # its blow-up time moves by -6.7e-5, onto its refined value.
    args = (1e-3, 3.0, 0.0, 4.0, 1e7, 1e5)
    nodes, n, blow = odi_march(*args)
    monkeypatch.setattr(dwlab._kernels, "_NEWTON_ITERS", 3)
    few, n_few, blow_few = odi_march(*args)
    assert blow_few == n_few - 1
    assert n_few > 3 * n
    assert abs(few[-1, 0] - nodes[-1, 0]) <= 1e-4 * nodes[-1, 0]


@pytest.mark.parametrize("args", [(1e-2, 2.0, 0.0),
                                  (1e-3, 3.0, 0.0)],
                         ids=["p2_b0_eps1e-2", "p3_b0_eps1e-3"])
def test_step_refinement_converges_at_fourth_order(monkeypatch, args):
    # halving the step constants shifts the blow-up time by about a
    # sixteenth of the previous shift.  Measured ratios over three
    # halvings: 17.8, 16.5 (p = 2) and 22.5, 18.4 (p = 3).
    theta, cap = dwlab._kernels.STEP_THETA, dwlab._kernels.STEP_CAP
    times = []
    for k in range(4):
        monkeypatch.setattr(dwlab._kernels, "STEP_THETA", theta / 2 ** k)
        monkeypatch.setattr(dwlab._kernels, "STEP_CAP", cap / 2 ** k)
        nodes, n, blow = odi_march(*args, 4.0, 1e7, 1e8 * args[0])
        assert blow == n - 1
        times.append(nodes[-1, 0])
    assert abs(times[0] - times[2]) / times[2] < 2e-4
    assert 12.0 < (times[1] - times[2]) / (times[2] - times[3]) < 20.0


def test_hermite_weights_integrate_a_cubic_exactly():
    # the march's integrals of F on a step, for a random cubic F:
    # the whole step (_W_FULL), t - 1 inside a past step (0 < r < 1), and
    # t - 1 inside the step being taken, whose length h exceeds 1
    rng = np.random.default_rng(24)
    for _ in range(20):
        F = Polynomial(rng.normal(size=4))
        h = rng.uniform(1.05, 6.0)
        dF = F.deriv()
        ends = np.array([F(0.0), h * dF(0.0), F(h), h * dF(h)])

        def partials(w):
            return h * np.dot(w[:4], ends), h * h * np.dot(w[4:], ends)

        def exact(a, b, weight):   # int_a^b weight(u) F(u) du
            q = (weight * F).integ()
            return q(b) - q(a)

        one = Polynomial([1.0])
        # a whole step: int F and int (h - u) F
        got = partials(np.array(_W_FULL))
        want = exact(0.0, h, one), exact(0.0, h, Polynomial([h, -1.0]))
        assert np.allclose(got, want, rtol=1e-13, atol=1e-13)
        # t - 1 at d = r h inside a past step: int_0^d F, int_0^d (d - u) F
        d = rng.uniform(0.0, h)
        got = partials(np.array(_hermite_weights(d / h)))
        want = exact(0.0, d, one), exact(0.0, d, Polynomial([d, -1.0]))
        assert np.allclose(got, want, rtol=1e-13, atol=1e-13)
        # t - 1 at d = h - 1 inside this step: the window int_d^h F, and
        # the step's share of I, int_0^h min(h - u, 1) F
        d = h - 1.0
        got = partials(np.subtract(_W_FULL, _hermite_weights(d / h)))
        want = (exact(d, h, one),
                exact(0.0, d, one) + exact(d, h, Polynomial([h, -1.0])))
        assert np.allclose(got, want, rtol=1e-13, atol=1e-13)


def test_float_march_maps_overflow_to_inf():
    # v^p t^{-beta} at the seed overflows a double for 1e200: numpy scalars
    # return inf, Python floats raise; both marches must stop at the seed.
    # For 1e100 the growth time is below the resolution of t.
    for eps in (1e100, 1e200):
        args = (eps, 2.0, 0.0, 4.0, 1e4, 1e8 * eps)
        with np.errstate(over="ignore"):
            ref_nodes, ref_n, ref_blow = odi_march(*np.array(args))
        nodes, n, blow = odi_march(*args)
        assert (n, blow) == (ref_n, ref_blow) == (1, 0)
        assert np.array_equal(nodes, ref_nodes)
        tr = simulate_odi(OdiConfig(p=2.0, beta=0.0, eps=eps))
        assert tr.blown_up
        assert tr.blowup_time == 4.0


# ----------------------------------------------------------------------
# the blow-up rate: F(t - 1) stays bounded, so near T the
# march follows v'' = v^p T^{-beta}, whose solution is C (T - t)^{-alpha},
# alpha = 2 / (p - 1), C^{p-1} = alpha (alpha + 1) T^beta
# ----------------------------------------------------------------------


@pytest.mark.parametrize("p, beta, tol", [(2.0, 0.0, 1e-6),
                                          (1.5, 0.25, 2.5e-3)])
def test_blowup_follows_the_ode_rate(p, beta, tol):
    # the march runs to v = 1e40, where T is within 1e-9 of the
    # singularity; the exponent is fitted over the nodes with v in
    # [1e6, 1e12].  Measured deviations: 1.7e-9 (p = 2), 7.0e-5 (p = 1.5).
    # C is not checked; the fitted C is 5.7e-5 (p = 2) above and 1.2e-3
    # (p = 1.5) below the ODE's.
    alpha = 2.0 / (p - 1.0)
    nodes, n, blow = odi_march(1e-2, p, beta, 4.0, 1e4, 1e40)
    assert blow == n - 1
    t, v = nodes.T
    sel = (v >= 1e6) & (v <= 1e12)
    assert np.count_nonzero(sel) >= 20
    slope = np.polyfit(np.log(t[-1] - t[sel]), np.log(v[sel]), 1)[0]
    assert abs(-slope - alpha) <= tol * alpha


# ----------------------------------------------------------------------
# the adaptive march against the uniform array loop it replaced
# ----------------------------------------------------------------------


def _odi_march_loop(seed, p, beta, t0, dt, m, n_max, blow_level):
    """Trapezoidal march on the uniform grid t0 + k dt, dt = 1/m."""
    v = np.empty(n_max)
    f = np.empty(n_max)
    v[0] = seed
    f[0] = seed ** p * t0 ** (-beta)
    A = 0.0
    B = 0.0
    C = 0.0
    blow = -1
    n = 1
    for k in range(1, n_max):
        t = t0 + k * dt
        if k <= m:
            wgt = 0.5 if k == 1 else 1.0
            A += dt * wgt * f[k - 1]
            B += dt * wgt * (t0 + (k - 1) * dt) * f[k - 1]
        else:
            A += dt * (f[k - 1] - 0.5 * f[k - 1 - m] - 0.5 * f[k - m])
            B += dt * ((t0 + (k - 1) * dt) * f[k - 1]
                       - 0.5 * (t0 + (k - 1 - m) * dt) * f[k - 1 - m]
                       - 0.5 * (t0 + (k - m) * dt) * f[k - m])
            C += dt * 0.5 * (f[k - 1 - m] + f[k - m])
        vk = seed + ((t * A - B) + C)
        v[k] = vk
        f[k] = vk ** p * t ** (-beta)
        n = k + 1
        if vk >= blow_level:
            blow = k
            break
    return v[:n], n, blow


def loop_result(seed, p, beta, t0, horizon, m):
    """The loop's blow-up time, its level crossing interpolated as
    odi_march does, or v at the horizon (on the grid for m = 128, 256)."""
    level = 1e8 * seed
    n_max = int(round((horizon - t0) * m)) + 1
    v, n, blow = _odi_march_loop(seed, p, beta, t0, 1.0 / m, m, n_max,
                                 level)
    if blow < 0:
        return v[-1]
    q = 0.5 * (1.0 - p)
    zn, zx, zl = v[-2] ** q, v[-1] ** q, level ** q
    return t0 + (n - 2 + (zn - zl) / (zn - zx)) / m


# name: (seed, p, beta, t0, horizon), what ends the march
MARCHES = {
    "p2_b0_eps1e-2": ((1e-2, 2.0, 0.0, 4.0, 400.0), "blow-up"),
    "p2_b0_eps5e-2": ((5e-2, 2.0, 0.0, 4.0, 400.0), "blow-up"),
    "p2_b0_eps5e-2_t0_7.5": ((5e-2, 2.0, 0.0, 7.5, 400.0), "blow-up"),
    "p2_b0.5_eps1e-1": ((1e-1, 2.0, 0.5, 4.0, 400.0), "blow-up"),
    "p1.5_b0.25_eps1e-2": ((1e-2, 1.5, 0.25, 4.0, 400.0), "blow-up"),
    "p3_b0_eps1e-1": ((1e-1, 3.0, 0.0, 4.0, 400.0), "blow-up"),
    "p3_b0.9_eps2e-1": ((2e-1, 3.0, 0.9, 4.0, 400.0), "horizon"),
    "p1.25_b0.75_eps1e-5": ((1e-5, 1.25, 0.75, 4.0, 400.0), "horizon"),
    "p1.25_b0.75_eps1e-5_h60": ((1e-5, 1.25, 0.75, 4.0, 60.0), "horizon"),
    "to_horizon": ((1e-3, 2.0, 0.0, 4.0, 40.0), "horizon"),
    "steps_past_the_delay": ((1e-3, 2.0, 0.0, 4.0, 100.0), "horizon"),
    "ends_inside_window": ((1e-3, 2.0, 0.0, 4.0, 4.25), "horizon"),
}

# Relative tolerances against the loop extrapolated from dt = 1/128 and
# 1/256.  Worst measured: -8.5e-5 on blow-up times (p3_b0_eps1e-1, where
# the loop is not yet second order near blow-up at these dt: the march is
# within 2.7e-5 of its own converged value), 1.9e-6 on v at the horizon
# (p3_b0.9_eps2e-1).
BLOWUP_RTOL = 3e-4
HORIZON_RTOL = 3e-5


@pytest.mark.parametrize("name", list(MARCHES))
def test_march_matches_extrapolated_loop(name):
    (seed, p, beta, t0, horizon), cause = MARCHES[name]
    nodes, n, blow = odi_march(seed, p, beta, t0, horizon, 1e8 * seed)
    assert len(nodes) == n
    coarse, fine = (loop_result(seed, p, beta, t0, horizon, m)
                    for m in (128, 256))
    want = (4.0 * fine - coarse) / 3.0
    if cause == "blow-up":
        assert blow == n - 1
        assert abs(nodes[-1, 0] - want) <= BLOWUP_RTOL * want
    else:
        assert blow == -1
        assert nodes[-1, 0] == horizon
        assert abs(nodes[-1, 1] - want) <= HORIZON_RTOL * want


# ----------------------------------------------------------------------
# the Python-float march against the same march on numpy scalars, as a
# loop over numpy arrays runs it: the casts to float in simulate_odi
# change no bit except where v^p overflows (see the overflow test above)
# ----------------------------------------------------------------------

# name: (seed, p, beta, horizon, blow level), what ends the march.
# The names are those of the cases of the uniform loop this march
# replaced (m was its steps per unit delay); the march keeps their
# seeds, exponents and horizons.
FLOAT_MARCHES = {
    "p2_b0_m32": ((1e-3, 2.0, 0.0, 2000.0, 1e5), "level"),
    "p2_b0_m64": ((1e-2, 2.0, 0.0, 400.0, 1e6), "level"),
    "p2_b0_m3": ((5e-2, 2.0, 0.0, 60.0, 5e6), "level"),
    "p2_b0.5_m8": ((3e-2, 2.0, 0.5, 400.0, 3e6), "level"),
    "p1.5_b0.25_m16": ((1e-2, 1.5, 0.25, 400.0, 1e6), "level"),
    "p1.25_b0.75": ((1e-5, 1.25, 0.75, 60.0, 1e3), "horizon"),
    "to_horizon": ((1e-3, 2.0, 0.0, 40.0, 1e5), "horizon"),
    "ends_inside_window": ((1e-3, 2.0, 0.0, 4.2, 1e5), "horizon"),
    "m1": ((5e-2, 2.0, 0.0, 200.0, 5e6), "level"),
    # no level: the march ends where a step no longer moves t
    "growth_only": ((1e-1, 2.0, 0.0, 200.0, math.inf), "stall"),
}


@pytest.mark.parametrize("name", list(FLOAT_MARCHES))
def test_float_march_is_bit_identical_to_array_loop(name):
    (seed, p, beta, horizon, level), cause = FLOAT_MARCHES[name]
    args = (seed, p, beta, 4.0, horizon, level)
    ref_nodes, ref_n, ref_blow = odi_march(*np.array(args))
    nodes, n, blow = odi_march(*args)
    assert (n, blow) == (ref_n, ref_blow)
    assert len(nodes) == n
    assert np.array_equal(nodes, ref_nodes)
    if blow < 0:
        assert (cause, nodes[-1, 0]) == ("horizon", horizon)
    else:
        assert blow == n - 1
        assert cause == ("level" if nodes[-1, 1] >= level else "stall")
