"""Hot numerical kernels, one implementation each.

* Bessel I0: ``bessel_i0_kernel``, a vectorized fixed-length series /
  asymptotic sum.
* light-cone convolution: ``kernel_convolve`` deposits the quadrature's
  Simpson x cubic-Lagrange weights into one fine-grid stencil and applies
  it with one circular FFT convolution.
* ODI march: ``odi_march``, a loop on Python floats with rolling
  window sums, so each step costs O(1).

``perfbench/run.py --trace 1`` reports each kernel's time as a traced
span of the benchmark workloads that call it.
"""
from __future__ import annotations

import math
from array import array
from collections import deque

import numpy as np

# No kernel is compiled.  perfbench/child.py records this flag in every
# run's env, and tests/test_benchmark_contract.py asserts that it exists.
HAVE_NUMBA = False


# ----------------------------------------------------------------------
# modified Bessel I0: power series for y <= 20, asymptotic beyond
# ----------------------------------------------------------------------

I0_SERIES_CUT = 20.0


def bessel_i0_kernel(y: np.ndarray) -> np.ndarray:
    """I0 by fixed-length series (y <= 20) and asymptotic sums (y > 20).

    Works elementwise on arrays of any shape, 0-d included; I0(0) is
    exactly 1.0.
    """
    y = np.asarray(y, dtype=np.float64)
    out = np.empty_like(y)
    lo = y <= I0_SERIES_CUT
    if np.any(lo):
        q = 0.25 * y[lo] * y[lo]
        s = np.ones_like(q)
        term = np.ones_like(q)
        for k in range(1, 60):
            term = term * q / (k * k)
            s += term
        out[lo] = s
    hi = ~lo
    if np.any(hi):
        # I0(y) ~ e^y / sqrt(2 pi y) * sum c_k y^-k, c_k = c_{k-1} (2k-1)^2 / (8k)
        z = y[hi]
        s = np.ones_like(z)
        term = np.ones_like(z)
        for k in range(1, 19):
            term = term * (2.0 * k - 1.0) ** 2 / (8.0 * k * z)
            s += term
        out[hi] = np.exp(z) / np.sqrt(2.0 * np.pi * z) * s
    return out


# ----------------------------------------------------------------------
# Bessel-kernel convolution quadrature for S(t)
#
# out[i] = sum_q wk[q] * cubic-interpolation of fu at fine index i*R - s_q,
# where fu is f spectrally upsampled by R and wk folds Simpson weight,
# kernel value and the e^{-t/2}/2 prefactor.  shift_q = m_q - rho_q with
# m_q integer, rho_q in [0,1); lag[q, 0:4] are the cubic Lagrange weights
# on the taps fu[i*R - m_q + j - 1], j = 0..3.
# ----------------------------------------------------------------------


def kernel_convolve(fu, wk, mq, lag, R, n_out):
    """Every R-th sample of the circular convolution of fu with the stencil.

    fu is the fine grid of R * n_out points.  Tap j of node q reads fu at
    offset -(m_q - (j - 1)), so its weight wk[q] * lag[q, j] is deposited
    at stencil index (m_q - (j - 1)) mod nf; one rfft/irfft pair then
    applies all nodes at every fine point.
    """
    nf = fu.shape[0]
    idx = (mq[:, None] - np.arange(-1, 3)) % nf
    stencil = np.bincount(idx.ravel(), weights=(wk[:, None] * lag).ravel(),
                          minlength=nf)
    full = np.fft.irfft(np.fft.rfft(stencil) * np.fft.rfft(fu), n=nf)
    return full[: R * n_out : R]


# ----------------------------------------------------------------------
# memory-kernel ODI march
#
# v(t) = seed + t^gamma * [ int_{t-1}^t (t-tau) F + int_{t0}^{t-1} F ],
# F(tau) = v(tau)^p tau^{-beta}, trapezoidal quadrature on a uniform grid
# with dt = 1/m.  Rolling sums keep each step O(1):
#   A = trapz of F over the active window, current node excluded
#   B = same with integrand tau*F
#   C = trapz of F over [t0, t-1]
# The (t - tau) weight never sees the current node (zero factor), so the
# update is explicit.
# ----------------------------------------------------------------------


def odi_march(seed, p, beta, gamma, t0, dt, m, n_max, blow_level,
              growth_limit):
    """March the inequality; returns (v, n, blow index or -1), len(v) == n.

    Takes Python floats (m and n_max ints).  The update only reads the two
    nodes that leave the window, so F and the trapezoid's (tau/2)*F
    products live in queues of at most m values, and v grows in an
    array('d') of n values.  float ** float raises OverflowError where a
    numpy scalar returns inf; that case maps to inf so the blow-up check
    fires.
    """
    nb = -beta
    hdt = dt * 0.5
    fprev = seed ** p * t0 ** nb
    # F and (tau/2)*F at node k-1-m, the older node leaving the window
    fa, ga = fprev, 0.5 * t0 * fprev
    tprev, vprev = t0, seed
    A = B = C = 0.0
    v = array("d", (seed,))
    vpush = v.append
    fq, gq = deque(), deque()
    fpop, gpop, fpush, gpush = fq.popleft, gq.popleft, fq.append, gq.append
    for k in range(1, n_max):
        t = t0 + k * dt
        if k > m:
            fb = fpop()
            gb = gpop()
            A += dt * (fprev - 0.5 * fa - 0.5 * fb)
            B += dt * (tprev * fprev - ga - gb)
            C += hdt * (fa + fb)
            fa, ga = fb, gb
        else:
            # the window's first node has trapezoid weight 1/2
            wdt = hdt if k == 1 else dt
            A += wdt * fprev
            B += wdt * tprev * fprev
        grow = t ** gamma if gamma != 0.0 else 1.0
        vk = seed + grow * ((t * A - B) + C)
        try:
            fk = vk ** p * t ** nb
        except OverflowError:
            fk = math.inf * t ** nb
        vpush(vk)
        if vk >= blow_level or vk > growth_limit * vprev:
            return np.frombuffer(v), k + 1, k
        fpush(fk)
        gpush(0.5 * t * fk)
        fprev, tprev, vprev = fk, t, vk
    return np.frombuffer(v), len(v), -1
