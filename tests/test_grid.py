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
    for k in (5, -1, 2.5, -0.5):    # too high, or not an integer order
        with pytest.raises(MomentOrderError):
            moment(f, k)
    assert moment(f, 2.0) == m[2]


def test_trajectory_validation():
    times = np.array([0.0, 0.5, 1.0])
    u = np.outer([1.0, 0.9, 0.8], gauss(SPEC).values)
    v = np.zeros_like(u)
    traj = Trajectory(SPEC, times, u, v)
    assert traj.spec == SPEC
    # read-only views of the caller's arrays: no copy, and theirs stay writable
    for got, given in ((traj.times, times), (traj.u, u), (traj.v, v)):
        assert np.shares_memory(got, given)
        assert not got.flags.writeable and given.flags.writeable
        with pytest.raises(ValueError):
            got[0] = 1.0
    u[1, 0] = 2.0
    assert traj.u[1, 0] == 2.0
    bad_times = ([0.5, 1.0, 1.5],      # must start at 0
                 [0.0, 1.0, 1.0],      # not increasing
                 [0.0, np.nan, 1.0],
                 [0.0, 1.0, np.inf])
    for t in bad_times:
        with pytest.raises(GridError):
            Trajectory(SPEC, np.array(t), u, v)
    for t in (np.array([]), np.zeros((1, 1))):
        with pytest.raises(GridError):
            Trajectory(SPEC, t, u[:0], v[:0])
    with pytest.raises(GridError):
        Trajectory(SPEC, times[:2], u, v)               # wrong n
    with pytest.raises(GridError):
        Trajectory(GridSpec(32.0, 256), times, u, v)    # wrong N
    for bad in (np.nan, -np.inf):
        w = u.copy()
        w[2, 7] = bad
        with pytest.raises(GridError):
            Trajectory(SPEC, times, w, v)
        with pytest.raises(GridError):
            Trajectory(SPEC, times, u, w)


def test_gridfunction_validation():
    with pytest.raises(GridError, match="does not match"):
        GridFunction(SPEC, np.zeros(SPEC.points - 1))
    with pytest.raises(GridError, match="does not match"):
        GridFunction(SPEC, np.zeros((2, SPEC.points)))
    for bad in (np.nan, np.inf):
        v = np.zeros(SPEC.points)
        v[3] = bad
        with pytest.raises(GridError, match="finite"):
            GridFunction(SPEC, v)


def test_gridfunction_immutable():
    f = gauss(SPEC)
    with pytest.raises(ValueError):
        f.values[0] = 1.0
