"""Hot numerical kernels, one implementation each.

* Bessel I0: ``bessel_i0_kernel``, numpy's ``np.i0``.
* light-cone convolution: ``kernel_convolve`` deposits the quadrature's
  Simpson x cubic-Lagrange weights into one fine-grid stencil and
  multiplies f's spectrum by the stencil's first N/2 + 1 modes.
* ODI march: ``odi_march``, an adaptive-mesh march on Python floats:
  F a cubic Hermite on each step, the kernel integrated exactly, O(1) per
  step, fourth order in the step constants, and steps that grow far past
  the unit delay while v changes slowly.

``perfbench/run.py --trace 1`` reports each kernel's time as a traced
span of the benchmark workloads that call it.
"""
from __future__ import annotations

import math

import numpy as np

# No kernel is compiled.  perfbench/child.py records this flag in every
# run's env, and tests/test_benchmark_contract.py asserts that it exists.
HAVE_NUMBA = False


# modified Bessel I0: numpy's Chebyshev expansions on [0, 8] and (8, inf).
# propagators.kernel_quadrature calls it through this name, which
# perfbench traces as kernels.bessel_i0_kernel.
bessel_i0_kernel = np.i0


# ----------------------------------------------------------------------
# Bessel-kernel convolution quadrature for S(t)
#
# out[i] = sum_q wk[q] * cubic-interpolation of fu at fine index i*R - s_q,
# where fu is f spectrally upsampled by R and wk folds Simpson weight,
# kernel value and the e^{-t/2}/2 prefactor.  shift_q = m_q - rho_q with
# m_q integer, rho_q in [0,1); lag[q, 0:4] are the cubic Lagrange weights
# on the taps fu[i*R - m_q + j - 1], j = 0..3.
# ----------------------------------------------------------------------


def kernel_convolve(f, wk, mq, lag, R, n_out):
    """Every R-th sample of the circular convolution of the stencil with
    fu, the band-limited R-fold upsampling of f, from f's n_out samples.

    Tap j of node q reads fu at offset -(m_q - (j - 1)), so its weight
    wk[q] * lag[q, j] is deposited at stencil index (m_q - (j - 1)) mod nf,
    nf = R n_out.  fu has no mode past f's Nyquist index, where it splits
    f's mode evenly between +-n_out/2, so the R-th samples are f's spectrum
    times the stencil's first n_out/2 + 1 modes, the real part of the one
    at the Nyquist index: one length-nf rfft and one length-n_out pair.
    """
    nf = R * n_out
    idx = (mq[:, None] - np.arange(-1, 3)) % nf
    stencil = np.bincount(idx.ravel(), weights=(wk[:, None] * lag).ravel(),
                          minlength=nf)
    # irfft reads only the real part of the mode at an even n_out's Nyquist
    # index
    mult = np.fft.rfft(stencil)[: n_out // 2 + 1]
    return np.fft.irfft(np.fft.rfft(f) * mult, n=n_out)


# ----------------------------------------------------------------------
# memory-kernel ODI march on an adaptive mesh
#
# v(t) = seed + I(t),  I(t) = int_{t0}^t min(t - tau, 1) F(tau) dtau,
# F(tau) = v(tau)^p tau^{-beta}.  F is a cubic Hermite on each mesh step,
# through F and F' at its two nodes, and the kernel is integrated exactly
# against it.  F' costs nothing extra: v' = P(t) - P(t - 1) is the unit
# window the march keeps, and F' = p F v' / v - beta F / t.  With the
# cumulative integrals
#   P_k = int_{t0}^{t_k} F,   G_k = int_{t0}^{t_k} (t_k - tau) F
# at the nodes, I(t) = G(t) - G(t - 1).  G(t - 1) and P(t - 1) are
# partial integrals of the cubic on the step that holds t - 1, which a
# pointer that only moves forward finds, so a step costs O(1) however long
# the march.  A step longer than the unit delay holds t - 1 itself.  Either
# way I and v' at the new node are affine in its (F, F'), so F' there
# solves one linear equation for each trial v, and v solves the scalar
# implicit equation x = seed + I(x) by Newton, from the v that
# F = F' = 0 at the new node would give.
# ----------------------------------------------------------------------

# The accuracy of the march.  At a node where v has growth time tau, the
# next step is h = min(STEP_THETA * sqrt(t * tau), STEP_CAP * tau).  The
# first rule spends about pi / STEP_THETA steps on a slow phase of any
# length (the integral of dt / sqrt(t (T - t)) over (0, T) is pi); the
# second takes a fixed number of steps per decade of v as it blows up.
# tau is v / v', and at most sqrt(v / v'') while the unit window fills
# (t < t0 + 1), where v'' = F drives v from v' = 0.  Blow-up times and
# v at the horizon converge as the fourth power of both constants.  Most
# of the error left accrues while v grows its first 100-fold, in steps
# that STEP_CAP sets.
STEP_THETA = 0.035
STEP_CAP = 0.16
_NEWTON_ITERS = 30


def _hermite_weights(r):
    """Partial integrals of the cubic Hermite on a step, as weights.

    For F on [0, h] with values f0, f1 and slopes d0, d1 at its ends,
    returns the weights of (f0, h d0, f1, h d1) in
    int_0^{rh} F / h (the first four) and int_0^{rh} (rh - u) F du / h^2
    (the last four).
    """
    r2 = r * r
    r3 = r2 * r
    r4 = r3 * r
    r5 = r4 * r
    return (r - r3 + 0.5 * r4, 0.5 * r2 - 2.0 * r3 / 3.0 + 0.25 * r4,
            r3 - 0.5 * r4, 0.25 * r4 - r3 / 3.0,
            0.5 * r2 - 0.25 * r4 + 0.1 * r5, (r3 - r4) / 6.0 + 0.05 * r5,
            0.25 * r4 - 0.1 * r5, 0.05 * r5 - r4 / 12.0)


# the integrals over a whole step: h (f0 + f1) / 2 + h^2 (d0 - d1) / 12
# and h^2 (7 f0 + 3 f1) / 20 + h^3 (d0 / 20 - d1 / 30)
_W_FULL = _hermite_weights(1.0)


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
    pm1 = p - 1.0
    ts, vs = [t0], [seed]
    try:
        f = seed ** p * t0 ** nb
        # F' at t0, where v' = 0
        df = nb * f / t0 if beta else 0.0
        F, D, P, G = [f], [df], [0.0], [0.0]  # at the nodes
        t, v, pn, gn, j = t0, seed, 0.0, 0.0, 0
        window = 0.0  # v' = int_{t-1}^t F
        w0f, w0d, w1f, w1d, k0f, k0d, k1f, k1d = _W_FULL
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
                hd = h * df
                hh = h * h
                s = tn - 1.0
                # I(tn) = a0 + af F(tn) + ad F'(tn), v'(tn) likewise
                if s >= t:
                    # the unit window lies inside this step
                    q0f, q0d, q1f, q1d, l0f, l0d, l1f, l1d = \
                        _hermite_weights((s - t) / h)
                    a0 = pn + hh * ((k0f - l0f) * f + (k0d - l0d) * hd)
                    af = hh * (k1f - l1f)
                    ad = hh * h * (k1d - l1d)
                    w0 = h * ((w0f - q0f) * f + (w0d - q0d) * hd)
                    wf = h * (w1f - q1f)
                    wd = hh * (w1d - q1d)
                else:
                    if s <= t0:
                        g_s = p_s = 0.0
                    else:
                        j = j0
                        while ts[j + 1] <= s:
                            j += 1
                        tj = ts[j]
                        hj = ts[j + 1] - tj
                        q0f, q0d, q1f, q1d, l0f, l0d, l1f, l1d = \
                            _hermite_weights((s - tj) / hj)
                        fj, dj = F[j], hj * D[j]
                        fk, dk = F[j + 1], hj * D[j + 1]
                        p_s = P[j] + hj * (q0f * fj + q0d * dj
                                           + q1f * fk + q1d * dk)
                        g_s = G[j] + (s - tj) * P[j] + hj * hj * (
                            l0f * fj + l0d * dj + l1f * fk + l1d * dk)
                    a0 = gn + h * pn - g_s + hh * (k0f * f + k0d * hd)
                    af = hh * k1f
                    ad = hh * h * k1d
                    w0 = pn - p_s + h * (w0f * f + w0d * hd)
                    wf = h * w1f
                    wd = hh * w1d
                c = tn ** nb if beta else 1.0
                bt = beta / tn
                A = seed + a0
                wfb = wf - wd * bt
                # Newton on x = A + af F + ad F' from x = A, where F = c x^p,
                # v' = w0 + wf F + wd F' and F' = k v' - bt F with k = dF/dx
                x = A
                for _ in range(_NEWTON_ITERS):
                    fx = c * x ** p
                    k = p * fx / x
                    den = 1.0 - k * wd
                    w = (w0 + wfb * fx) / den
                    dfx = k * w - bt * fx
                    # d(af F + ad F')/dx
                    slope = k * (af + ad * (pm1 * w / x + wf * k - bt) / den)
                    if den <= 0.0 or slope >= 1.0:
                        den = 0.0
                        break
                    step = (A + af * fx + ad * dfx - x) / (1.0 - slope)
                    x += step
                    if abs(step) <= 1e-15 * x:
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
            k = p * fn / x
            window = (w0 + wfb * fn) / (1.0 - k * wd)
            dn = k * window - bt * fn
            hdn = h * dn
            gn += h * pn + hh * (k0f * f + k0d * hd + k1f * fn + k1d * hdn)
            pn += h * (w0f * f + w0d * hd + w1f * fn + w1d * hdn)
            t, v, f, df = tn, x, fn, dn
            ts.append(t)
            vs.append(v)
            F.append(f)
            D.append(df)
            P.append(pn)
            G.append(gn)
            if t == horizon:
                return np.array([ts, vs]).T, len(ts), -1
    except OverflowError:
        return np.array([ts, vs]).T, len(ts), len(ts) - 1
