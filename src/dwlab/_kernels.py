"""Hot numerical kernels, one implementation each.

* Bessel I0: ``bessel_i0_kernel``, a vectorized fixed-length series /
  asymptotic sum.
* light-cone convolution: ``kernel_convolve`` deposits the quadrature's
  Simpson x cubic-Lagrange weights into one fine-grid stencil and applies
  it with one circular FFT convolution.
* ODI march: ``odi_march``, an adaptive-mesh march on Python floats:
  piecewise-linear F, the kernel integrated exactly, O(1) per step, and
  steps that grow far past the unit delay while v changes slowly.

``perfbench/run.py --trace 1`` reports each kernel's time as a traced
span of the benchmark workloads that call it.
"""
from __future__ import annotations

import math

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
# memory-kernel ODI march on an adaptive mesh
#
# v(t) = seed + I(t),  I(t) = int_{t0}^t min(t - tau, 1) F(tau) dtau,
# F(tau) = v(tau)^p tau^{-beta}.  F is piecewise linear on the mesh and the
# kernel is integrated exactly against it.  With the cumulative integrals
#   P_k = int_{t0}^{t_k} F,   G_k = int_{t0}^{t_k} (t_k - tau) F
# at the nodes, I(t) = G(t) - G(t - 1).  G(t - 1) is read off the node
# below t - 1, which a pointer that only moves forward finds, so a step
# costs O(1) however long the march.  A step longer than the unit delay
# puts t - 1 inside the step itself; the kernel is then integrated over
# the step's own linear F.  Either way the new node enters I with a
# weight b, and v there solves x = A + B x^p.  Newton from x = A climbs
# monotonically to the root, since the residual is concave in x.
# ----------------------------------------------------------------------

# The accuracy of the march.  At a node where v has growth time tau, the
# next step is h = min(STEP_THETA * sqrt(t * tau), STEP_CAP * tau).  The
# first rule spends about pi / STEP_THETA steps on a slow phase of any
# length (the integral of dt / sqrt(t (T - t)) over (0, T) is pi); the
# second takes a fixed number of steps per decade of v as it blows up.
# tau is v / v', and at most sqrt(v / v'') while the unit window fills
# (t < t0 + 1), where v'' = F drives v from v' = 0.  Blow-up times
# come out about 1e-4 early (relative) and converge as STEP_THETA^2.
STEP_THETA = 0.005
STEP_CAP = 0.3
_NEWTON_ITERS = 30


def odi_march(seed, p, beta, t0, horizon, blow_level):
    """March the inequality; returns (nodes, n, blow index or -1).

    nodes is an (n, 2) array of (t, v), starting at (t0, seed).  The march
    ends at the horizon with blow = -1, or at blow-up with blow = n - 1.
    Blow-up is the crossing of blow_level, interpolated linearly in
    z = v^{-(p-1)/2}, which is linear in t at the rate v ~ (T - t)^{-2/(p-1)};
    the last node is (crossing time, blow_level).  It is also declared at
    the last node when v^p overflows or the next step no longer moves t.
    Takes Python floats: float ** float raises OverflowError where a numpy
    scalar would return inf.  A step whose implicit equation has no root
    is halved and tried again.
    """
    nb = -beta
    ts, vs = [t0], [seed]
    try:
        f = seed ** p * t0 ** nb
        F, P, G = [f], [0.0], [0.0]  # at the nodes
        t, v, pn, gn, j = t0, seed, 0.0, 0.0, 0
        window = 0.0  # int_{t-1}^t F
        while True:
            dv = window if t >= t0 + 1.0 else max(window, math.sqrt(v * f))
            # dv is 0 only when F underflows, and then v stays put
            tau = v / dv if dv > 0.0 else math.inf
            h = min(STEP_THETA * math.sqrt(t * tau), STEP_CAP * tau,
                    horizon - t)
            j0 = j
            while True:
                tn = horizon if h == horizon - t else t + h
                if tn == t:
                    return np.array([ts, vs]).T, len(ts), len(ts) - 1
                s = tn - 1.0
                if s >= t:
                    # the unit window lies inside this step
                    d = h - 1.0
                    b = (h * h * h - d * d * d) / (6.0 * h)
                    a = pn + (h - 0.5 - b) * f
                    p_s = None
                else:
                    if s <= t0:
                        g_s = p_s = 0.0
                    else:
                        j = j0
                        while ts[j + 1] <= s:
                            j += 1
                        tj, fj = ts[j], F[j]
                        d = s - tj
                        f_s = fj + d * (F[j + 1] - fj) / (ts[j + 1] - tj)
                        g_s = G[j] + d * (P[j] + d * (2.0 * fj + f_s) / 6.0)
                        p_s = P[j] + 0.5 * d * (fj + f_s)
                    b = h * h / 6.0
                    a = gn + h * pn - g_s + 2.0 * b * f
                c = tn ** nb if beta else 1.0
                A = seed + a
                B = b * c
                # Newton on x = A + B x^p from x = A
                x = A
                for _ in range(_NEWTON_ITERS):
                    xp = x ** p
                    den = 1.0 - p * B * xp / x
                    if den <= 0.0:
                        break
                    dx = (A + B * xp - x) / den
                    x += dx
                    if dx <= 1e-15 * x:
                        break
                else:
                    den = 0.0
                if den > 0.0:
                    break
                h *= 0.5
            fn = c * x ** p
            if x >= blow_level:
                q = 0.5 * (1.0 - p)
                zn, zx, zl = v ** q, x ** q, blow_level ** q
                ts.append(t + h * (zn - zl) / (zn - zx))
                vs.append(blow_level)
                return np.array([ts, vs]).T, len(ts), len(ts) - 1
            gn += h * (pn + h * (2.0 * f + fn) / 6.0)
            pn += 0.5 * h * (f + fn)
            if p_s is None:
                # the window on this step's linear F, which is f_s at tn - 1
                window = 0.5 * (f + (h - 1.0) * (fn - f) / h + fn)
            else:
                window = pn - p_s
            t, v, f = tn, x, fn
            ts.append(t)
            vs.append(v)
            F.append(f)
            P.append(pn)
            G.append(gn)
            if t == horizon:
                return np.array([ts, vs]).T, len(ts), -1
    except OverflowError:
        return np.array([ts, vs]).T, len(ts), len(ts) - 1
