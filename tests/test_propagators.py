import math

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

import dwlab.propagators as propagators
from dwlab._kernels import kernel_convolve
from dwlab.grid import GridFunction, GridSpec, lp_norm, moment
from dwlab.propagators import (HEAT_EXPANSION_SLOPES, KernelRangeError,
                               TruncationError, _cubic_lagrange_weights,
                               _heat_symbol, apply_S, apply_S_kernel,
                               apply_dtS, damped_symbol, decay_scan,
                               kernel_quadrature, linear_pair_matrix,
                               residual_scan)
from dwlab.special import gaussian_derivative

SPEC = GridSpec(64.0, 4096)


def heat(t, f):
    """e^{t Lap} f by the residual scan's multiplier e^{-t xi^2}."""
    fh = np.fft.rfft(f.values) * _heat_symbol(t, f.spec.freqs)
    return GridFunction(f.spec, np.fft.irfft(fh, n=f.spec.points))


def _mp_sigma(t, xi):
    """High-precision sigma, dsigma from the scalar mode ODE solution."""
    with mpmath.workdps(40):
        t = mpmath.mpf(t)
        w = mpmath.mpf("0.25") - mpmath.mpf(xi) ** 2
        mu = mpmath.sqrt(abs(w))
        damp = mpmath.e ** (-t / 2)
        if w > 0:
            sig = damp * mpmath.sinh(t * mu) / mu
            dsig = damp * mpmath.cosh(t * mu) - sig / 2
        elif w == 0:
            sig = damp * t
            dsig = damp - sig / 2
        else:
            sig = damp * mpmath.sin(t * mu) / mu
            dsig = damp * mpmath.cos(t * mu) - sig / 2
        return float(sig), float(dsig)


@pytest.mark.parametrize("t", [0.3, 2.0, 11.0])
@pytest.mark.parametrize("xi", [0.0, 0.2, 0.499999, 0.5, 0.500001, 0.9, 4.0])
def test_symbol_against_mpmath(t, xi):
    spec = GridSpec(math.pi / xi if xi else math.pi, 16) if xi else None
    from dwlab.propagators import _symbol_pair
    sig, dsig = _symbol_pair(t, np.array([xi]))
    ref_s, ref_d = _mp_sigma(t, xi)
    assert_allclose(sig[0], ref_s, rtol=5e-14, atol=1e-300)
    assert_allclose(dsig[0], ref_d, rtol=5e-14, atol=5e-14)


def test_symbol_pair_rows_match_scalar_calls():
    # one batched call, each row bit-identical to the scalar call: t = 0, a
    # t with every mode on the seam, one where z crosses _SEAM_Z, and times
    # with both the hyperbolic and the trigonometric branch
    from dwlab.propagators import _SEAM_Z, _symbol_pair
    spec = GridSpec(64.0, 1024)
    xi = spec.freqs
    root_w = np.sqrt(np.abs(0.25 - xi * xi))
    all_seam, crossing = 1e-3, 0.01
    assert np.all(all_seam * root_w < _SEAM_Z)
    assert np.any(crossing * root_w < _SEAM_Z)
    assert np.any(crossing * root_w > _SEAM_Z)
    for t in (3.0, 200.0):
        off_seam = t * root_w >= _SEAM_Z
        assert np.any(off_seam & (xi < 0.5)) and np.any(off_seam & (xi > 0.5))
    times = np.array([0.0, all_seam, crossing, 3.0, 200.0])
    sigma, sigma_t = _symbol_pair(times, xi)
    assert sigma.shape == sigma_t.shape == (len(times), len(xi))
    for k, t in enumerate(times):
        s, st = _symbol_pair(float(t), xi)
        assert np.array_equal(sigma[k], s) and np.array_equal(sigma_t[k], st)
    with pytest.raises(ValueError):
        _symbol_pair(np.array([1.0, -1e-9]), xi)


def test_symbol_mass_mode_anchor():
    for t in (1.0, 5.0, 20.0):
        sym = damped_symbol(t, SPEC)
        assert sym.sigma[0] == pytest.approx(1.0 - math.exp(-t), rel=1e-14)
        assert sym.sigma_t[0] == pytest.approx(math.exp(-t), rel=1e-12)


def test_pair_matrix_semigroup_composition():
    a = linear_pair_matrix(0.7, SPEC)
    b = linear_pair_matrix(1.6, SPEC)
    c = linear_pair_matrix(2.3, SPEC)
    comp = (b[0] * a[0] + b[1] * a[2], b[0] * a[1] + b[1] * a[3],
            b[2] * a[0] + b[3] * a[2], b[2] * a[1] + b[3] * a[3])
    for got, want in zip(comp, c):
        scale = max(1.0, float(np.max(np.abs(want))))
        assert np.max(np.abs(got - want)) < 1e-12 * scale


def test_mass_functional_anchor():
    f = gaussian_derivative(0, SPEC)
    m0 = moment(f, 0)
    for t in (1.0, 5.0, 20.0):
        assert_allclose(moment(apply_S(t, f), 0), (1.0 - math.exp(-t)) * m0,
                        rtol=1e-12)
        assert_allclose(moment(apply_dtS(t, f), 0), math.exp(-t) * m0,
                        rtol=1e-10, atol=1e-14 * m0)


def test_kernel_mass_identity():
    # integral of the light-cone kernel equals the zero-mode symbol
    for t in (1.0, 5.0, 20.0):
        _, w = kernel_quadrature(t, SPEC.h)
        assert_allclose(np.sum(w), 1.0 - math.exp(-t), rtol=1e-10)


@pytest.mark.parametrize("j", [0, 1, 2])
def test_kernel_multiplier_duality(j):
    f = gaussian_derivative(j, SPEC)
    scale = np.max(np.abs(f.values))
    for t in (1.0, 5.0):
        direct = apply_S_kernel(t, f)
        mult = apply_S(t, f)
        err = np.max(np.abs(direct.values - mult.values))
        assert err <= 1e-6 * scale


def _gather_convolve(fu, wk, mq, lag, R, n_out):
    """Direct-sum reference: gather the four cubic taps of every node."""
    nf = fu.shape[0]
    out = np.zeros(n_out)
    for i in range(n_out):
        base = i * R
        acc = 0.0
        for q in range(wk.shape[0]):
            b = base - mq[q]
            acc += wk[q] * (
                lag[q, 0] * fu[(b - 1) % nf]
                + lag[q, 1] * fu[b % nf]
                + lag[q, 2] * fu[(b + 1) % nf]
                + lag[q, 3] * fu[(b + 2) % nf]
            )
        out[i] = acc
    return out


@pytest.mark.parametrize("R,n_out", [(1, 301), (2, 128), (8, 64)])
def test_kernel_convolve_matches_direct_sum(R, n_out):
    rng = np.random.default_rng(R)
    nf = R * n_out
    # shifts at and past both ends of the fine grid, negative ones included,
    # so taps wrap in both directions
    edge = [0, 1, -1, 2, -2, nf - 2, nf - 1, nf, nf + 1, -nf, -nf - 2]
    mq = np.concatenate([edge, rng.integers(-nf - 3, nf + 4, 40)])
    mq = mq.astype(np.int64)
    wk = rng.standard_normal(len(mq))
    lag = rng.standard_normal((len(mq), 4))
    fu = rng.standard_normal(nf)
    ref = _gather_convolve(fu, wk, mq, lag, R, n_out)
    out = kernel_convolve(fu, wk, mq, lag, R, n_out)
    assert out.shape == (n_out,)
    assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_kernel_convolve_conserves_mass():
    # cubic Lagrange weights sum to one, so a constant passes through scaled
    # by the total quadrature weight
    rng = np.random.default_rng(7)
    R, n_out = 8, 64
    mq = rng.integers(-2 * R * n_out, 2 * R * n_out, 50).astype(np.int64)
    wk = rng.uniform(0.0, 1.0, len(mq))
    lag = _cubic_lagrange_weights(rng.uniform(0.0, 1.0, len(mq)))
    out = kernel_convolve(np.full(R * n_out, 2.5), wk, mq, lag, R, n_out)
    assert_allclose(out, np.sum(wk) * 2.5, rtol=1e-13)


def test_kernel_range_errors():
    f = gaussian_derivative(0, SPEC)
    with pytest.raises(KernelRangeError):
        apply_S_kernel(100.0, f)
    with pytest.raises(KernelRangeError):
        apply_S_kernel(0.0, f)


def test_truncation_guard():
    # data that does not vanish at the boundary is rejected
    bad = GridFunction(SPEC, np.ones(SPEC.points))
    with pytest.raises(TruncationError):
        apply_S(1.0, bad)
    # but the check can be disabled for torus-type data
    out = apply_S(1.0, bad, check_boundary=False)
    assert_allclose(out.values, (1.0 - math.exp(-1.0)) * np.ones(SPEC.points),
                    rtol=1e-12)


def test_heat_semigroup_self_similarity():
    # e^{t Lap} exp(-x^2/4) = (1+t)^{-1/2} exp(-x^2/(4(1+t)))
    f = gaussian_derivative(0, SPEC)
    t = 7.0
    out = heat(t, f)
    x = SPEC.nodes
    exact = (1.0 + t) ** -0.5 * np.exp(-0.25 * x * x / (1.0 + t))
    assert_allclose(out.values, exact, atol=1e-13)


def test_decay_scan_smoke_slopes():
    # moderate window keeps this quick; tight slopes are acceptance work
    spec = GridSpec(256.0, 8192)
    times = np.geomspace(10.0, 100.0, 8)
    rep = decay_scan(gaussian_derivative(0, spec), 2.0, times,
                     window=(10.0, 100.0))
    assert abs(rep.fit.slope - HEAT_EXPANSION_SLOPES(2.0)[0]) < 0.05
    res = residual_scan(gaussian_derivative(0, spec), 2.0, times,
                        window=(10.0, 100.0))
    assert res.fit.slope < rep.fit.slope  # residual decays faster


def test_decay_report_csv(tmp_path):
    spec = GridSpec(64.0, 2048)
    times = np.geomspace(5.0, 50.0, 5)
    rep = decay_scan(gaussian_derivative(1, spec), 2.0, times,
                     window=(5.0, 50.0))
    path = tmp_path / "decay.csv"
    rep.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,norm"
    assert len(lines) == 6


@pytest.mark.parametrize("n", [16, 1024])
def test_parseval_norm_reads_the_spectrum_as_irfft_does(n):
    # irfft drops the imaginary parts of the DC and Nyquist bins and counts
    # every other bin twice; random spectra exercise all three
    spec = GridSpec(3.0, n)
    rng = np.random.default_rng(n)
    g = rng.standard_normal(n // 2 + 1) + 1j * rng.standard_normal(n // 2 + 1)
    field = GridFunction(spec, np.fft.irfft(g, n=n))
    assert_allclose(propagators._scan_norm(g, spec, 2.0), lp_norm(field, 2.0),
                    rtol=1e-14, atol=0.0)
    assert propagators._scan_norm(g, spec, 3.0) == lp_norm(field, 3.0)


@pytest.mark.parametrize("j", [0, 1, 2])
def test_scans_match_per_time_reference(j):
    # against one apply_S / heat per time.  At p = 2 the scans take
    # Parseval sums of the spectrum and the reference squares the irfft:
    # the decay norms agree to a few ulp (measured 3.3e-16), the residual,
    # a difference of two nearly equal fields in the reference, to 1e-11
    # (measured 5.1e-13).  At p != 2 the decay scan runs the reference's
    # own irfft and stays bit-identical, and the residual takes one irfft
    # of the multiplier difference instead of two (measured 5.3e-13).
    # The second and third cases change the times and then the grid, so a
    # shared symbol keyed without either would fail here by O(1); the
    # last is lab decay's default grid and times.
    cases = [(GridSpec(64.0, 1024), np.geomspace(1.0, 40.0, 6)),
             (GridSpec(64.0, 1024), np.geomspace(2.0, 30.0, 6)),
             (GridSpec(48.0, 1024), np.geomspace(2.0, 30.0, 6)),
             (GridSpec(2000.0, 32768), np.geomspace(100.0, 1e4, 12))]
    for spec, times in cases:
        f = gaussian_derivative(j, spec)
        fields = [apply_S(t, f) for t in times]
        gaps = [u - heat(t, f) for t, u in zip(times, fields)]
        for p in (2.0, 1.5, 3.0):
            rep = decay_scan(f, p, times)
            res = residual_scan(f, p, times)
            ref = [lp_norm(u, p) for u in fields]
            if p == 2.0:
                assert_allclose(rep.norms, ref, rtol=1e-14, atol=0.0)
            else:
                assert np.array_equal(rep.norms, ref)
            assert_allclose(res.norms, [lp_norm(g, p) for g in gaps],
                            rtol=1e-11, atol=0.0)


def test_scans_build_each_symbol_once(monkeypatch):
    spec = GridSpec(64.0, 1024)
    times = np.geomspace(1.5, 35.0, 7)
    f = gaussian_derivative(1, spec)
    propagators._scan_sigmas.cache_clear()
    calls = {"symbol": 0, "rfft": 0}
    symbol, rfft = propagators.damped_symbol, np.fft.rfft

    def counted_symbol(*args, **kw):
        calls["symbol"] += 1
        return symbol(*args, **kw)

    def counted_rfft(*args, **kw):
        calls["rfft"] += 1
        return rfft(*args, **kw)

    monkeypatch.setattr(propagators, "damped_symbol", counted_symbol)
    monkeypatch.setattr(np.fft, "rfft", counted_rfft)
    decay_scan(f, 2.0, times)
    assert calls == {"symbol": len(times), "rfft": 1}
    residual_scan(f, 2.0, times)
    assert calls == {"symbol": len(times), "rfft": 2}
    with pytest.raises(TruncationError):
        decay_scan(GridFunction(spec, np.ones(spec.points)), 2.0, times)


def test_scans_take_no_inverse_fft_at_p2(monkeypatch):
    # Parseval replaces the irfft at p = 2; at other p each scan time takes
    # exactly one, the residual included
    spec = GridSpec(64.0, 1024)
    times = np.geomspace(1.5, 35.0, 7)
    f = gaussian_derivative(1, spec)
    calls = {"irfft": 0}
    irfft = np.fft.irfft

    def counted_irfft(*args, **kw):
        calls["irfft"] += 1
        return irfft(*args, **kw)

    monkeypatch.setattr(np.fft, "irfft", counted_irfft)
    decay_scan(f, 2.0, times)
    residual_scan(f, 2.0, times)
    assert calls["irfft"] == 0
    decay_scan(f, 1.5, times)
    assert calls["irfft"] == len(times)
    residual_scan(f, 1.5, times)
    assert calls["irfft"] == 2 * len(times)
