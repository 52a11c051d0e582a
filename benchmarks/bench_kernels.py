#!/usr/bin/env python3
"""Time each hot kernel, and the ODI march's numba build where it imports.

    python3 benchmarks/bench_kernels.py [--repeats N]

Bessel I0 and the light-cone convolution have one implementation each
(vectorized numpy; the convolution is one FFT stencil convolution).  The
ODI march has two: the time column is the Python-float loop the library
runs without numba, and the numba column is filled only where numba
imports.  Reported numbers are best-of-N wall times after a warm-up call
that absorbs JIT compilation.
"""
import argparse
import time

import numpy as np

from dwlab._kernels import (HAVE_NUMBA, bessel_i0_kernel, kernel_convolve,
                            odi_march_numba, odi_march_python)
from dwlab.grid import GridSpec
from dwlab.propagators import (_cubic_lagrange_weights, _upsample,
                               kernel_quadrature)
from dwlab.special import gaussian_derivative


def best_of(fn, repeats):
    t = []
    for _ in range(repeats):
        tic = time.perf_counter()
        fn()
        t.append(time.perf_counter() - tic)
    return min(t)


def bench_bessel(repeats):
    y = np.linspace(0.0, 600.0, 400_000)
    return "bessel i0", best_of(lambda: bessel_i0_kernel(y), repeats), None, 0.0


def bench_convolve(repeats):
    # the exact workload of apply_S_kernel at t = 20 on a 4096-point grid
    spec = GridSpec(64.0, 4096)
    f = gaussian_derivative(1, spec)
    y, wk = kernel_quadrature(20.0, spec.h)
    R = 8
    fu = _upsample(f.values, R)
    s = y / (spec.h / R)
    mq = np.ceil(s).astype(np.int64)
    args = (fu, wk, mq, _cubic_lagrange_weights(mq - s), R, spec.points)
    return ("kernel convolution", best_of(lambda: kernel_convolve(*args),
                                          repeats), None, 0.0)


def bench_odi(repeats):
    # ~300k-step march of the memory-kernel inequality
    args = (1e-4, 2.0, 0.0, 0.0, 1.0, 1.0, 4.0, 1.0 / 32.0, 32, 400_000,
            1e4, 10.0)
    ref_v, ref_n, ref_blow = odi_march_python(*args)
    t_np = best_of(lambda: odi_march_python(*args), repeats)
    if odi_march_numba is None:
        return "odi march", t_np, None, 0.0
    v, n, blow = odi_march_numba(*args)  # warm-up / compile
    t_nb = best_of(lambda: odi_march_numba(*args), repeats)
    assert n == ref_n and blow == ref_blow
    dev = float(np.max(np.abs(v[:n] - ref_v[:n]) / np.maximum(ref_v[:n],
                                                              1e-300)))
    return "odi march", t_np, t_nb, dev


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args()
    if not HAVE_NUMBA:
        print("numba unavailable; the ODI march runs its fallback")
    print(f"{'kernel':<20} {'time':>10} {'numba':>10} {'speedup':>8} "
          f"{'max rel dev':>12}")
    for bench in (bench_bessel, bench_convolve, bench_odi):
        name, t_np, t_nb, dev = bench(args.repeats)
        if t_nb is None:
            print(f"{name:<20} {t_np * 1e3:>8.2f}ms {'-':>10} {'-':>8} "
                  f"{'-':>12}")
        else:
            print(f"{name:<20} {t_np * 1e3:>8.2f}ms {t_nb * 1e3:>8.2f}ms "
                  f"{t_np / t_nb:>7.1f}x {dev:>12.2e}")


if __name__ == "__main__":
    main()
