"""Oracles shared by more than one test module, as fixtures."""
import math

import pytest
from scipy.integrate import solve_ivp


def _ode_blowup_time(a, p, rtol=1e-12, level=None):
    """Blow-up time of y'' + y' = y^p, y(0) = a > 0, y'(0) = 0.

    DOP853 runs to y = level, by default 1e9 * max(1, a), so that the
    level lies above the start; the time left past it comes from the
    trajectory's tail.  With z = y^{-q}, q = (p - 1)/2, and
    y' = y^{(p+1)/2} w(z), the time runs as dt/dz = -1/(q w), and w is
    smooth at the blow-up: w = w* - 2 z / (p + 3) + O(z^2) with
    w*^2 = 2 / (p + 1).  So the time left is
    z / (q w*) + (p + 1) z^2 / (2 q (p + 3)) + O(z^3), and at the level
    1e9 (z = 3.2e-5 at p = 2) the O(z^3) rest is below 1e-13.  When no
    event fires, because y stays below the level to t = 100 or the solver
    stops short of it, a RuntimeError names a, p and the solver's message.
    """
    if level is None:
        level = 1e9 * max(1.0, a)

    def rhs(t, y):
        return [y[1], y[0] ** p - y[1]]

    def blow(t, y):
        return y[0] - level
    blow.terminal = True
    blow.direction = 1.0
    sol = solve_ivp(rhs, (0.0, 100.0), [a, 0.0], method="DOP853",
                    rtol=rtol, atol=1e-12, events=blow)
    if len(sol.t_events[0]) == 0:
        raise RuntimeError(f"y never reached {level:g} (a={a:g}, p={p:g}): "
                           f"{sol.message}")
    q = 0.5 * (p - 1.0)
    z = level ** -q
    tail = (z / (q * math.sqrt(2.0 / (p + 1.0)))
            + (p + 1.0) * z * z / (2.0 * q * (p + 3.0)))
    return float(sol.t_events[0][0]) + tail


@pytest.fixture(scope="session")
def ode_blowup_time():
    """Criterion 10's independent oracle: the scalar ODE's blow-up time."""
    return _ode_blowup_time
