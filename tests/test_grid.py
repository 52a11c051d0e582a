import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

from dwlab.grid import (GridError, GridFunction, GridSpec, MomentOrderError,
                        Trajectory, lp_norm, moment)

SPEC = GridSpec(32.0, 512)


def gauss(spec):
    return GridFunction(spec, np.exp(-0.25 * spec.nodes ** 2))


def test_spec_validation():
    for n in (40, 1000):            # neither 2^k nor 3 2^k
        with pytest.raises(GridError):
            GridSpec(32.0, n)
    with pytest.raises(GridError):
        GridSpec(32.0, 8)           # too small
    with pytest.raises(GridError):
        GridSpec(32.0, 12)          # 3 2^2, too small
    assert [GridSpec(32.0, n).h for n in (16, 24, 48, 1536)] == \
        [4.0, 64.0 / 24, 64.0 / 48, 1.0 / 24]
    with pytest.raises(GridError):
        GridSpec(-1.0, 64)
    s = GridSpec(16.0, 64)
    assert s.h == 0.5
    assert s.nodes[0] == -16.0
    assert s.nodes[-1] == 16.0 - s.h
    # rfft frequencies of the periodic cell
    assert_allclose(s.freqs[1], math.pi / 16.0, rtol=1e-15)


def test_lp_norm_against_quadrature():
    f = gauss(SPEC)
    for p in (1.0, 2.0, 3.5):
        exact = quad(lambda x: abs(math.exp(-0.25 * x * x)) ** p,
                     -np.inf, np.inf)[0] ** (1.0 / p)
        assert_allclose(lp_norm(f, p), exact, rtol=1e-12)
    assert lp_norm(f, math.inf) == 1.0
    with pytest.raises(ValueError):
        lp_norm(f, 0.5)


def test_lp_norm_refinement_stable():
    # doubling N changes the norm of a smooth gaussian below 1e-10
    a = lp_norm(gauss(GridSpec(32.0, 512)), 2.0)
    b = lp_norm(gauss(GridSpec(32.0, 1024)), 2.0)
    assert abs(a - b) < 1e-10


def test_moments_closed_forms():
    f = gauss(SPEC)
    rt_pi = math.sqrt(math.pi)
    assert_allclose(moment(f, 0), 2.0 * rt_pi, rtol=1e-14)
    assert_allclose(moment(f, 2), 4.0 * rt_pi, rtol=1e-13)
    m = [moment(f, k) for k in range(5)]
    assert m[1] == pytest.approx(0.0, abs=1e-14)
    assert m[3] == pytest.approx(0.0, abs=1e-13)
    assert_allclose(m[4], 24.0 * rt_pi, rtol=1e-12)
    with pytest.raises(MomentOrderError):
        moment(f, 5)


def test_trajectory_validation():
    f = gauss(SPEC)
    z = GridFunction(SPEC, np.zeros(SPEC.points))
    traj = Trajectory(np.array([0.0, 1.0]), ((f, z), (f, z)))
    assert traj.spec == SPEC
    with pytest.raises(GridError):
        Trajectory(np.array([0.5, 1.0]), ((f, z), (f, z)))   # must start at 0
    with pytest.raises(GridError):
        Trajectory(np.array([0.0, 0.0]), ((f, z), (f, z)))   # not increasing
    other = gauss(GridSpec(32.0, 256))
    with pytest.raises(GridError):
        Trajectory(np.array([0.0, 1.0]), ((f, z), (other, other)))


def test_gridfunction_immutable_and_arith():
    f = gauss(SPEC)
    with pytest.raises(ValueError):
        f.values[0] = 1.0
    g = f * 2.0 - f
    assert_allclose(g.values, f.values, rtol=0, atol=0)
