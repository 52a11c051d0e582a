"""Acceptance gates for the laboratory, one criterion per test.

Each test prints a single `criterion NN <label>: PASS/FAIL (numbers)` line
before asserting, so a full run leaves a scoreboard in the captured output.
Tolerances are the package's advertised gates and are asserted exactly as
advertised.

Criterion 06 checks the small-data law T ~ eps^{-1/3} at p = 1.25 on
eps in [1e-5, 1e-4]. The law is a limit as eps -> 0: the threshold equation
behind it (`tilde_T2p`) carries a relative correction of about
(1+T)^{-(3/2-p)} = (1+T)^{-1/4}, so on eps in [0.1, 0.4] (T of 19 to 25)
the fitted slope is still near -0.20, outside the band, while the local
slope keeps steepening toward -1/3 as eps falls. The decade [1e-5, 1e-4]
is the smallest-eps one whose runs all blow up inside horizon 300 and pass
the solver's truncation guard on L = 128.
"""
import math

import numpy as np
import pytest

from dwlab.fitting import fit_critical_lifespan, fit_loglog
from dwlab.grid import GridFunction, GridSpec, moment
from dwlab.odi import OdiConfig, odi_scaling_fit, odi_target_slope
from dwlab.propagators import (apply_S, apply_S_kernel, decay_scan,
                               kernel_quadrature, residual_scan)
from dwlab.solver import (BLOWN_UP, SolverControls, duhamel_residual,
                          integrate, solve_lifespan)
from dwlab.special import (DataFamily, gaussian_derivative, lambert_w0,
                           make_data_family, tilde_T2p,
                           tilde_T2p_closed_form)


def report(num, label, ok, detail):
    print(f"criterion {num:02d} {label}: "
          f"{'PASS' if ok else 'FAIL'} ({detail})")


def solve_T(kind, eps, p, spec, horizon=200.0, ctrl=None):
    fam = make_data_family(kind, float(eps), spec)
    est, _ = solve_lifespan(fam, p, horizon=horizon, ctrl=ctrl)
    assert est.status == BLOWN_UP, \
        f"{kind} eps={eps:g} p={p}: {est.status}, no blow-up bracket"
    return est.T_high


@pytest.fixture(scope="module")
def p125_ladder():
    eps = np.geomspace(0.4, 0.1, 5)
    spec = GridSpec(64.0, 2048)
    T = {kind: np.array([solve_T(kind, e, 1.25, spec) for e in eps])
         for kind in ("M0_zero_M1_nonzero", "M0_M1_zero")}
    return eps, T


@pytest.fixture(scope="module")
def p125_small_eps_ladder():
    eps = np.geomspace(1e-4, 1e-5, 5)
    spec = GridSpec(128.0, 4096)
    T = np.array([solve_T("M0_zero_M1_nonzero", e, 1.25, spec,
                          horizon=300.0) for e in eps])
    return eps, T


# ----------------------------------------------------------------------


def test_criterion_01_propagator_anchors():
    spec = GridSpec(64.0, 4096)
    g = gaussian_derivative(0, spec)
    mass0 = moment(g, 0)
    anchor = 0.0
    for t in (1.0, 5.0, 20.0):
        want = 1.0 - math.exp(-t)
        got = moment(apply_S(t, g), 0)
        anchor = max(anchor, abs(got - want * mass0) / abs(mass0))
        _, w = kernel_quadrature(t, spec.h)
        anchor = max(anchor, abs(float(np.sum(w)) - want))
    duality = 0.0
    for j in range(3):
        f = gaussian_derivative(j, spec)
        scale = float(np.max(np.abs(f.values)))
        for t in (1.0, 5.0, 20.0):
            gap = np.max(np.abs(apply_S_kernel(t, f).values
                                - apply_S(t, f).values))
            duality = max(duality, float(gap) / scale)
    ok = anchor <= 1e-8 and duality <= 1e-6
    report(1, "propagator anchors and kernel duality", ok,
           f"anchor err {anchor:.2e} <= 1e-8, duality err {duality:.2e} "
           f"<= 1e-6")
    assert ok


def test_criterion_02_linear_decay_slopes():
    spec = GridSpec(2000.0, 32768)
    times = np.geomspace(1e2, 1e4, 12)
    targets = (-0.25, -0.75, -1.25)
    devs = []
    for j in range(3):
        rep = decay_scan(gaussian_derivative(j, spec), 2.0, times)
        devs.append(abs(rep.fit.slope - targets[j]))
    ok = max(devs) <= 0.05
    report(2, "L2 decay slopes -1/4,-3/4,-5/4", ok,
           f"max |slope-target| {max(devs):.4f} <= 0.05")
    assert ok


def test_criterion_03_heat_residual_slope():
    spec = GridSpec(2000.0, 32768)
    times = np.geomspace(1e2, 1e4, 12)
    rep = residual_scan(gaussian_derivative(0, spec), 2.0, times)
    dev = abs(rep.fit.slope - (-1.25))
    ok = dev <= 0.1
    report(3, "heat-approximation residual slope -5/4", ok,
           f"slope {rep.fit.slope:+.4f}, |dev| {dev:.4f} <= 0.1")
    assert ok


def test_criterion_04_odi_scaling_three_regimes():
    cases = (
        (2.0, 0.0, np.geomspace(10 ** -3.5, 1e-2, 6), 1e5),
        (2.0, 0.5, np.geomspace(10 ** -3.25, 10 ** -1.75, 6), 2e6),
        (1.5, 0.25, np.geomspace(1e-5, 10 ** -3.5, 6), 1e5),
    )
    parts, ok = [], True
    for p, beta, eps, horizon in cases:
        cfg = OdiConfig(p=p, beta=beta, horizon=horizon)
        traces, fit = odi_scaling_fit(cfg, eps)
        assert fit is not None and len(traces) == len(eps)
        target = odi_target_slope(p, beta)
        rel = abs(fit.slope - target) / abs(target)
        hit = rel <= 0.10 and fit.r_squared >= 0.98
        ok &= hit
        parts.append(f"({p:g},{beta:g}): slope {fit.slope:+.3f} vs "
                     f"{target:+.3f}, rel {rel:.3f}, r2 {fit.r_squared:.4f}")
    report(4, "ODI blow-up scaling -(p-1)/(1-beta)", ok, "; ".join(parts))
    assert ok


def test_criterion_05_threshold_root_finder():
    eps = np.geomspace(1e-5, 1e-3, 7)
    roots = np.array([tilde_T2p(2.0, float(e)) for e in eps])
    slope = np.polyfit(np.log(eps), np.log(roots), 1)[0]
    worst = 0.0
    for e in np.geomspace(1e-4, 1e-2, 9):
        root = tilde_T2p(1.5, float(e))
        closed = tilde_T2p_closed_form(1.5, float(e))
        worst = max(worst, abs(closed / root - 1.0))
    ok = abs(slope + 2.0) <= 0.02 and worst <= 0.05
    report(5, "threshold-time root finder", ok,
           f"p=2 slope {slope:+.4f} vs -2, borderline closed-form "
           f"pointwise dev {worst:.4f} <= 0.05")
    assert ok


def test_criterion_06_lifespan_scaling_below_borderline(
        p125_small_eps_ladder):
    eps, ladder = p125_small_eps_ladder
    fit = fit_loglog(eps, ladder)
    ctrl = SolverControls(dt_init=0.01, dt_max=0.125)
    T_fine = solve_T("M0_zero_M1_nonzero", eps[0], 1.25,
                     GridSpec(128.0, 8192), horizon=300.0, ctrl=ctrl)
    shift = abs(T_fine - ladder[0]) / T_fine
    stable = shift <= 0.02
    target = -1.0 / 3.0
    rel = abs(fit.slope - target) / abs(target)
    ok = stable and rel <= 0.20
    report(6, "lifespan scaling at p=1.25", ok,
           f"slope {fit.slope:+.4f} vs {target:+.4f}, rel dev {rel:.3f} "
           f"(gate 0.20), refinement shift {shift:.2e} (gate 0.02)")
    assert stable, "ladder head is not grid-refinement stable"
    assert rel <= 0.20, (
        f"fitted slope {fit.slope:+.4f} over eps in [1e-5, 1e-4] sits "
        f"outside the +-20% band around -1/3 (refinement shift "
        f"{shift:.1e}); this decade is past the preasymptotic range of "
        f"eps in [0.1, 0.4], so with converged runs a miss means the "
        f"lifespans no longer follow the small-data law")


def test_criterion_07_moment_cancellation_lengthens_life(p125_ladder):
    eps, T = p125_ladder
    lo, hi = T["M0_zero_M1_nonzero"], T["M0_M1_zero"]
    ok = bool(np.all(hi > lo))
    pairs = ", ".join(f"{e:.3g}: {a:.2f}>{b:.2f}"
                      for e, a, b in zip(eps, hi, lo))
    report(7, "extra vanishing moment lengthens lifespan", ok, pairs)
    assert ok


def test_criterion_08_borderline_lambert_form():
    eps = np.geomspace(0.5, 0.05, 5)
    spec = GridSpec(64.0, 2048)
    T = np.array([solve_T("M0_zero_M1_nonzero", e, 1.5, spec) for e in eps])
    keep = [0, 1, 3, 4]
    A, B, r2 = fit_critical_lifespan(eps[keep], T[keep])
    mid = float(eps[2])
    pred = A * mid ** (-2.0 / 3.0) * math.exp(
        2.0 * lambert_w0(B / math.sqrt(mid)) / 3.0)
    ratio = pred / T[2]
    ok = r2 >= 0.95 and 0.5 <= ratio <= 2.0
    report(8, "borderline two-parameter fit", ok,
           f"r2 {r2:.4f} >= 0.95, held-out ratio {ratio:.3f} in [0.5, 2]")
    assert ok


def test_criterion_09_duhamel_consistency_and_order():
    spec = GridSpec(32.0, 1024)
    u = GridFunction(spec, 0.3 * np.exp(-0.25 * spec.nodes ** 2))
    v = GridFunction(spec, np.zeros(spec.points))
    res = {}
    for p, dt in ((2.0, 0.16), (2.0, 0.04), (1.5, 0.04)):
        traj = integrate(u, v, p=p, t_final=4.0, dt=dt)
        res[(p, dt)] = duhamel_residual(traj, p)
    order = math.log(res[(2.0, 0.16)] / res[(2.0, 0.04)]) / math.log(4.0)
    ok = max(res.values()) <= 1e-4 and order >= 3.5
    report(9, "integral-form consistency", ok,
           f"max residual {max(res.values()):.2e} <= 1e-4, order "
           f"{order:.2f} >= 3.5")
    assert ok


def test_criterion_10_constant_mode_matches_ode(ode_blowup_time):
    spec = GridSpec(math.pi, 64)
    one = GridFunction(spec, np.ones(spec.points))
    zero = GridFunction(spec, np.zeros(spec.points))
    ctrl = SolverControls(check_boundary=False)
    parts, ok = [], True
    for p in (2.0, 2.5):
        fam = DataFamily(one, zero, "M0_nonzero", "torus_constant", 1.0)
        est, _ = solve_lifespan(fam, p, horizon=20.0, ctrl=ctrl)
        assert est.status == BLOWN_UP
        T_ref = ode_blowup_time(1.0, p)
        rel = abs(est.T_high - T_ref) / T_ref
        ok &= rel <= 0.01
        parts.append(f"p={p:g}: {est.T_high:.7f} vs {T_ref:.7f} "
                     f"(rel {rel:.2e})")
    report(10, "torus constant data vs scalar ODE", ok, "; ".join(parts))
    assert ok
