import math
from dataclasses import replace

import numpy as np
import pytest

from dwlab._kernels import odi_march
from dwlab.odi import (OdiConfig, OdiTrace, _window_start, odi_scaling_fit,
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
                dict(p=2.0, beta=0.0, t0=3.9),
                dict(p=2.0, beta=0.0, eps=-1e-3),
                dict(p=2.0, beta=0.0, dt=0.0),
                dict(p=2.0, beta=0.0, horizon=4.0),
                dict(p=2.0, beta=0.0, horizon=math.inf),
                dict(p=2.0, beta=0.0, horizon=math.nan)):
        with pytest.raises(ValueError):
            OdiConfig(**bad)


def test_zero_seed_is_fixed_point():
    tr = simulate_odi(OdiConfig(p=2.0, beta=0.0, eps=0.0))
    assert not tr.blown_up
    assert np.all(tr.v == 0.0)


def test_dt_snaps_to_unit_fraction():
    # dt = 0.3 rounds to 1/3 so the memory window is a whole step count
    tr = simulate_odi(OdiConfig(p=2.0, beta=0.0, eps=0.05, dt=0.3,
                                horizon=60.0))
    assert tr.dt == 1.0 / 3.0


def test_trace_rejects_doctored_arrays():
    v = np.full(64, 2.0)
    OdiTrace(4.0, 1 / 8, v)
    bad = v.copy()
    bad[40] = 1.0  # dip after the window fills
    with pytest.raises(ValueError):
        OdiTrace(4.0, 1 / 8, bad)
    with pytest.raises(ValueError):
        OdiTrace(4.0, 1 / 8, -v)
    with pytest.raises(ValueError):
        OdiTrace(4.0, 1 / 8, v[:0])


@pytest.mark.parametrize("t0", [4.0, 7.3])
@pytest.mark.parametrize("dt", [1 / 32, 1 / 49, 0.3, 1 / 8])
def test_grid_is_t0_plus_k_dt_without_a_times_array(dt, t0):
    # the blow-up time and the start of the monotonicity check round as
    # they do on the array np.arange(n) * dt + t0
    tr = simulate_odi(OdiConfig(p=2.0, beta=0.0, t0=t0, eps=5e-2, dt=dt,
                                horizon=t0 + 200.0))
    assert tr.blown_up
    n = len(tr.v)
    times = np.arange(n) * tr.dt + t0
    assert tr.blowup_time == times[n - 1]
    k = int(np.searchsorted(times, times[0] + 1.0))
    assert k == _window_start(t0, tr.dt)

    def drop_after(j):   # v falls from node j to node j + 1
        v = np.full(k + 8, 2.0)
        v[j + 1:] = 1.0
        return v

    OdiTrace(t0, tr.dt, drop_after(k - 1))
    with pytest.raises(ValueError):
        OdiTrace(t0, tr.dt, drop_after(k))


# ----------------------------------------------------------------------
# march behavior
# ----------------------------------------------------------------------


def test_blowup_time_monotone_in_eps():
    base = OdiConfig(p=2.0, beta=0.0, dt=1.0 / 32.0)
    times = [blow_time(OdiConfig(p=2.0, beta=0.0, dt=base.dt, eps=e))
             for e in (1e-3, 3e-3, 1e-2)]
    assert times[0] > times[1] > times[2]


def test_refinement_shifts_blowup_under_5pct():
    coarse = simulate_odi(OdiConfig(p=2.0, beta=0.0, eps=3e-3, dt=1.0 / 8.0))
    horizon = coarse.blowup_time * 1.25
    t_c = blow_time(OdiConfig(p=2.0, beta=0.0, eps=3e-3, dt=1.0 / 8.0,
                              horizon=horizon))
    t_f = blow_time(OdiConfig(p=2.0, beta=0.0, eps=3e-3, dt=1.0 / 64.0,
                              horizon=horizon))
    assert abs(t_c - t_f) / t_f < 0.05


def test_scaling_fit_recovers_target_slope():
    cfg = OdiConfig(p=2.0, beta=0.0, dt=1.0 / 32.0)
    eps = np.geomspace(1e-3, 1e-2, 5)
    times, fit = odi_scaling_fit(cfg, eps)
    assert times == [simulate_odi(replace(cfg, eps=float(e))).blowup_time
                     for e in eps]
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
    # a censored eps stops the march there: no fit, and only the times
    # of the eps before it
    censored = OdiConfig(p=2.0, beta=0.0, eps=1e-6, horizon=10.0)
    times, fit = odi_scaling_fit(censored, [1e-6, 2e-6, 4e-6])
    assert fit is None
    assert times == []
    partial = OdiConfig(p=2.0, beta=0.0, horizon=1000.0)
    times, fit = odi_scaling_fit(partial, [1e-2, 3e-3, 1e-3])
    assert fit is None
    assert times == [110.34375, 344.875]


def test_target_slope_table():
    assert odi_target_slope(2.0, 0.5) == pytest.approx(-2.0)
    assert odi_target_slope(1.5, 0.25) == pytest.approx(-2.0 / 3.0)
    with pytest.raises(ValueError):
        odi_target_slope(2.0, 1.0)


# ----------------------------------------------------------------------
# the Python-float march against the array loop it replaces
# ----------------------------------------------------------------------


def _odi_march_loop(seed, p, beta, gamma, c1, c2, t0, dt, m, n_max,
                    blow_level, growth_limit):
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
        grow = t ** gamma if gamma != 0.0 else 1.0
        vk = seed + grow * (c1 * (t * A - B) + c2 * C)
        v[k] = vk
        f[k] = vk ** p * t ** (-beta)
        n = k + 1
        if vk >= blow_level or vk > growth_limit * v[k - 1]:
            blow = k
            break
    return v, n, blow


def reference_march(args):
    """The array loop on odi_march's arguments, couplings c1 = c2 = 1."""
    return _odi_march_loop(*args[:4], 1.0, 1.0, *args[4:])


def march_args(seed, p, beta, dt, horizon, gamma=0.0, blow_level=None):
    """odi_march arguments as simulate_odi builds them."""
    m = max(1, int(round(1.0 / dt)))
    n_max = int(math.ceil((horizon - 4.0) * m)) + 1
    level = 1e8 * seed if blow_level is None else blow_level
    return (seed, p, beta, gamma, 4.0, 1.0 / m, m, n_max, level, 10.0)


def stop_cause(args, v, blow):
    if blow < 0:
        return "horizon"
    return "level" if v[blow] >= args[8] else "growth"


# name: (odi_march arguments, what ends the march)
MARCHES = {
    "p2_b0_m32": (march_args(1e-3, 2.0, 0.0, 1 / 32, 2000.0), "level"),
    "p2_b0_m64": (march_args(1e-2, 2.0, 0.0, 1 / 64, 400.0), "growth"),
    "p2_b0_m3": (march_args(5e-2, 2.0, 0.0, 0.3, 60.0), "growth"),
    "p2_b0.5_m8": (march_args(3e-2, 2.0, 0.5, 1 / 8, 400.0), "growth"),
    "p1.5_b0.25_m16": (march_args(1e-2, 1.5, 0.25, 1 / 16, 400.0),
                       "level"),
    "corridor_p1.25": (march_args(1e-5, 1.25, 0.75, 1 / 16, 60.0,
                                  gamma=0.5), "horizon"),
    "to_horizon": (march_args(1e-3, 2.0, 0.0, 1 / 32, 40.0), "horizon"),
    "ends_inside_window": (march_args(1e-3, 2.0, 0.0, 1 / 32, 4.2),
                           "horizon"),
    "m1": (march_args(5e-2, 2.0, 0.0, 1.0, 200.0), "growth"),
    "growth_only": (march_args(1e-1, 2.0, 0.0, 0.5, 200.0,
                               blow_level=math.inf), "growth"),
}


@pytest.mark.parametrize("name", list(MARCHES))
def test_float_march_is_bit_identical_to_array_loop(name):
    args, cause = MARCHES[name]
    ref_v, ref_n, ref_blow = reference_march(args)
    v, n, blow = odi_march(*args)
    assert (n, blow) == (ref_n, ref_blow)
    assert len(v) == n
    assert np.array_equal(v, ref_v[:n])
    assert stop_cause(args, v, blow) == cause


def test_float_march_maps_overflow_to_inf():
    # v^p overflows at the first step: numpy scalars return inf, Python
    # floats raise; both loops must stop at the same node
    args = march_args(1e100, 2.0, 0.0, 1 / 32, 1e4)
    with np.errstate(over="ignore"):
        ref_v, ref_n, ref_blow = reference_march(args)
    v, n, blow = odi_march(*args)
    assert (n, blow) == (ref_n, ref_blow) == (2, 1)
    assert np.array_equal(v, ref_v[:n])
    tr = simulate_odi(OdiConfig(p=2.0, beta=0.0, eps=1e100))
    assert tr.blowup_time == 4.03125
