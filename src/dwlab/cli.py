"""Command line front end: `lab <command> [--config FILE] [overrides]`.

Commands

* decay               linear L^p decay and residual slopes for the three
                      Gaussian-derivative families
* lifespan            solve_lifespan per eps, one JSON record (bracket and
                      the march's counts) and one functional-trace CSV per
                      run
* sweep               lifespan runs plus a log-log exponent fit (or the
                      two-parameter Lambert form at the p = 3/2 borderline)
                      and a pass/fail/unconverged verdict
* odi                 memory-kernel inequality blow-up times vs eps with an
                      exponent fit against -(p-1)/(1-beta)
* predict             closed-form lifespan table across moment classes
* verify-propagators  propagator invariant suite (mass anchors, kernel vs
                      multiplier duality, semigroup composition)

Configuration is a single INI file with one section per command (a
[DEFAULT] section applies everywhere); --p, --eps-list, --out and
--workers override the file.  Every report embeds the fully resolved
configuration.  Output files are deterministic: runs are keyed by input
index, results are gathered in input order regardless of worker count,
and no timestamps are written.

Exit codes: 0 all verdicts pass, 1 any verdict fails, 2 unconverged or
configuration error.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import asdict, dataclass

import numpy as np

from .fitting import fit_critical_lifespan, fit_loglog
from .grid import GridSpec, moment
from .odi import OdiConfig, odi_scaling_fit, odi_target_slope
from .propagators import (HEAT_EXPANSION_SLOPES, KernelRangeError, apply_S,
                          apply_S_kernel, apply_dtS, decay_scan,
                          linear_pair_matrix, residual_scan)
from .solver import (BLOWN_UP, TRUNCATION_ABORT, SolverControls,
                     solve_lifespan)
from .special import (HorizonError, M0_ZERO_M1_NONZERO, MOMENT_CLASSES,
                      gaussian_derivative, make_data_family,
                      predict_lifespan, predicted_exponent, tilde_T2p)

__all__ = ["ConfigError", "ExperimentConfig", "load_config", "main",
           "run_decay", "run_lifespan", "run_sweep", "run_odi",
           "run_predict", "run_verify_propagators"]

COMMANDS = ("decay", "lifespan", "sweep", "odi", "predict",
            "verify-propagators")

PASS, FAIL, UNCONVERGED = "pass", "fail", "unconverged"
_EXIT = {PASS: 0, FAIL: 1, UNCONVERGED: 2}


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved settings for one command invocation."""

    command: str
    p: float = 1.25
    moment_class: str = M0_ZERO_M1_NONZERO
    eps_list: tuple = (0.4, 0.283, 0.2, 0.141, 0.1)
    points: int = 2048
    half_width: float = 64.0
    horizon: float = 200.0
    workers: int = 1
    out_dir: str = "lab_out"
    slope_rtol: float = 0.2
    decay_tol: float = 0.05
    odi_rtol: float = 0.1
    r2_min: float = 0.98
    lambert_r2_min: float = 0.95
    constant: float = 1.0
    beta: float = 0.0
    gamma: float = 0.0
    t0: float = 4.0
    dt_min: float = 1e-12

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}")
        if not (1.0 < self.p <= 3.0):
            raise ConfigError(f"p must lie in (1, 3], got {self.p}")
        eps = tuple(float(e) for e in self.eps_list)
        if len(eps) == 0:
            raise ConfigError("eps_list must be non-empty")
        if any(e <= 0.0 for e in eps):
            raise ConfigError("eps_list entries must be positive")
        if any(later >= earlier for later, earlier in zip(eps[1:], eps)):
            raise ConfigError("eps_list must be sorted in descending order")
        object.__setattr__(self, "eps_list", eps)
        if self.moment_class not in MOMENT_CLASSES:
            raise ConfigError(f"unknown moment class {self.moment_class!r}")
        if self.workers < 1:
            raise ConfigError("workers must be a positive integer")
        if not self.horizon > 0.0:
            raise ConfigError("horizon must be positive")


_DEFAULTS_BY_COMMAND = {
    "decay": dict(p=2.0, points=32768, half_width=2000.0, horizon=1e4,
                  eps_list=(1.0,)),
    "lifespan": dict(),
    "sweep": dict(),
    "odi": dict(p=2.0, beta=0.0, gamma=0.0, horizon=3e5,
                eps_list=tuple(np.geomspace(1e-2, 10 ** -3.5, 8))),
    "predict": dict(p=1.5, eps_list=(0.5, 0.1, 0.01)),
    "verify-propagators": dict(points=4096, half_width=64.0,
                               eps_list=(1.0,)),
}

_FIELD_PARSERS = {
    "p": float, "horizon": float, "half_width": float, "slope_rtol": float,
    "decay_tol": float, "odi_rtol": float, "r2_min": float,
    "lambert_r2_min": float, "constant": float, "beta": float,
    "gamma": float, "t0": float, "dt_min": float,
    "points": int, "workers": int,
    "moment_class": str, "out_dir": str,
}


def _parse_eps_list(text: str) -> tuple:
    items = [tok for tok in text.replace(",", " ").split() if tok]
    try:
        return tuple(float(tok) for tok in items)
    except ValueError as exc:
        raise ConfigError(f"bad eps_list entry in {text!r}") from exc


def load_config(command: str, path=None, overrides=None) -> ExperimentConfig:
    """Merge built-in defaults, the INI section for `command`, and overrides."""
    settings = dict(_DEFAULTS_BY_COMMAND.get(command, {}))
    if path is not None:
        import configparser  # only a config file needs it
        parser = configparser.ConfigParser()
        read = parser.read(path)
        if not read:
            raise ConfigError(f"cannot read config file {path!r}")
        section = parser[command] if parser.has_section(command) \
            else parser["DEFAULT"]
        for key, raw in section.items():
            if key == "eps_list":
                settings["eps_list"] = _parse_eps_list(raw)
            elif key == "class":
                settings["moment_class"] = raw.strip()
            elif key == "out":
                settings["out_dir"] = raw.strip()
            elif key in _FIELD_PARSERS:
                try:
                    settings[key] = _FIELD_PARSERS[key](raw)
                except ValueError as exc:
                    raise ConfigError(f"bad value for {key}: {raw!r}") from exc
            else:
                raise ConfigError(f"unknown config key {key!r}")
    for key, value in (overrides or {}).items():
        if value is not None:
            settings[key] = value
    return ExperimentConfig(command=command, **settings)


def _write_json(path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _config_record(cfg: ExperimentConfig) -> dict:
    rec = asdict(cfg)
    rec["eps_list"] = list(cfg.eps_list)
    # execution details that cannot affect the numbers stay out of reports
    del rec["workers"], rec["out_dir"]
    return rec


def _ensure_out(cfg: ExperimentConfig) -> str:
    os.makedirs(cfg.out_dir, exist_ok=True)
    return cfg.out_dir


# ----------------------------------------------------------------------
# lifespan / sweep
# ----------------------------------------------------------------------


def _lifespan_worker(cfg: ExperimentConfig, eps: float):
    spec = GridSpec(cfg.half_width, cfg.points)
    fam = make_data_family(cfg.moment_class, eps, spec)
    ctrl = SolverControls(dt_min=cfg.dt_min)
    est, trace = solve_lifespan(fam, cfg.p, horizon=cfg.horizon, ctrl=ctrl)
    record = {
        "p": cfg.p, "eps": eps, "class": cfg.moment_class,
        "N": cfg.points, "L": cfg.half_width, "dt_min": cfg.dt_min,
        "status": est.status, "T_low": est.T_low, "T_high": est.T_high,
        "steps": len(trace.times),
    }
    # the march's deterministic counts; attempts lands beside steps
    record.update(asdict(est.stats))
    return record, trace


def _run_all_lifespans(cfg: ExperimentConfig, out: str):
    """Run every eps, in input order, and write one run_NNN.json each."""
    worker = functools.partial(_lifespan_worker, cfg)
    if cfg.workers > 1 and len(cfg.eps_list) > 1:
        # deferred: the pool pulls in multiprocessing, which one worker
        # never needs
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            results = list(pool.map(worker, cfg.eps_list))
    else:
        results = [worker(e) for e in cfg.eps_list]
    for i, (record, _) in enumerate(results):
        record["config"] = _config_record(cfg)
        _write_json(os.path.join(out, f"run_{i:03d}.json"), record)
    return results


def _abort_note(record) -> str:
    """What tripped a truncation abort: the time, and the edge ratio that
    passed the guard's boundary_tol.  Printed only, never written to the
    output files."""
    return (f"t={record['T_low']:.6g} edge_ratio={record['edge_ratio']:.3g}"
            f" > boundary_tol={SolverControls.boundary_tol:g}")


def run_lifespan(cfg: ExperimentConfig):
    """One record and one trace CSV per eps; verdict is pass unless any
    run aborted on the truncation rule."""
    out = _ensure_out(cfg)
    results = _run_all_lifespans(cfg, out)
    lines = []
    for i, (record, trace) in enumerate(results):
        trace.to_csv(os.path.join(out, f"trace_{i:03d}.csv"))
        line = (f"eps={record['eps']:.6g} status={record['status']} "
                f"T_low={record['T_low']:.8g} T_high={record['T_high']:.8g} "
                f"steps={record['steps']} attempts={record['attempts']}")
        if record["status"] == TRUNCATION_ABORT:
            line += f" truncation at {_abort_note(record)}"
        lines.append(line)
    statuses = [r["status"] for r, _ in results]
    verdict = UNCONVERGED if TRUNCATION_ABORT in statuses else PASS
    lines.append(f"verdict: {verdict}")
    return verdict, lines


def _sweep_csv(path, rows) -> None:
    with open(path, "w") as fh:
        fh.write("eps,T_low,T_high,status\n")
        for r in rows:
            fh.write(f"{r['eps']:.17g},{r['T_low']:.17g},"
                     f"{r['T_high']:.17g},{r['status']}\n")


def _is_critical_sweep(cfg: ExperimentConfig) -> bool:
    return (abs(cfg.p - 1.5) < 1e-12
            and cfg.moment_class == M0_ZERO_M1_NONZERO)


def run_sweep(cfg: ExperimentConfig):
    """Lifespan ladder, exponent fit, and verdict.

    The fitted slope of T_high against eps is compared with the predicted
    regime exponent; pass needs agreement within slope_rtol of the target
    and every run to blow up.  At the p = 3/2 borderline for the
    M1-carrying class the predictor is not a pure power, so the
    two-parameter form T = A eps^{-2/3} exp(2 W(B eps^{-1/2}) / 3) is
    fitted instead and judged by its r^2.  A truncation abort skips the
    fit and makes the verdict unconverged.  Every path writes one
    run_NNN.json per eps, sweep.csv, and fit.json with the verdict.
    """
    out = _ensure_out(cfg)
    rows = [record for record, _ in _run_all_lifespans(cfg, out)]
    _sweep_csv(os.path.join(out, "sweep.csv"), rows)

    statuses = [r["status"] for r in rows]
    all_blown = all(s == BLOWN_UP for s in statuses)
    eps = np.array([r["eps"] for r in rows])
    T = np.array([r["T_high"] for r in rows])
    lines = [f"eps={r['eps']:.6g} status={r['status']} "
             f"T_high={r['T_high']:.8g}" for r in rows]

    fit_record = {"p": cfg.p, "class": cfg.moment_class,
                  "config": _config_record(cfg)}
    reason = None
    if TRUNCATION_ABORT in statuses:
        verdict = UNCONVERGED
        reason = "truncation abort: " + "; ".join(
            f"eps={r['eps']:.6g} {_abort_note(r)}"
            for r in rows if r["status"] == TRUNCATION_ABORT)
    elif _is_critical_sweep(cfg):
        A, B, r2 = fit_critical_lifespan(eps, T)
        ok = all_blown and r2 >= cfg.lambert_r2_min
        verdict = PASS if ok else FAIL
        fit_record.update({"model": "A*eps^(-2/3)*exp(2W(B*eps^(-1/2))/3)",
                           "A": A, "B": B, "r2": r2,
                           "lambert_r2_min": cfg.lambert_r2_min})
        lines.append(f"lambert fit: A={A:.8g} B={B:.8g} r2={r2:.6f}")
    else:
        target = predicted_exponent(cfg.p, cfg.moment_class)
        fit = fit_loglog(eps, T, window=(float(np.min(eps)),
                                         float(np.max(eps))))
        fit_record.update({"slope": fit.slope, "r2": fit.r_squared,
                           "predicted_slope": target,
                           "slope_rtol": cfg.slope_rtol})
        if target is None:
            verdict = UNCONVERGED
            reason = "no pure-power prediction for this regime"
        else:
            ok = (all_blown and math.isfinite(fit.slope)
                  and abs(fit.slope - target) <= cfg.slope_rtol * abs(target))
            verdict = PASS if ok else FAIL
            lines.append(f"fit: slope={fit.slope:.6f} target={target:.6f} "
                         f"r2={fit.r_squared:.6f}")
    fit_record["verdict"] = verdict
    _write_json(os.path.join(out, "fit.json"), fit_record)
    lines.append(f"verdict: {verdict}" + (f" ({reason})" if reason else ""))
    return verdict, lines


# ----------------------------------------------------------------------
# decay
# ----------------------------------------------------------------------


def run_decay(cfg: ExperimentConfig):
    """Linear decay and residual slopes for the g, g', g'' families.

    cfg.p is the Lebesgue norm index here.  Times are log-spaced across
    [horizon/100, horizon]; a horizon below 10 leaves no usable window.
    """
    if cfg.horizon < 10.0:
        raise ConfigError("decay horizon below 10 leaves no fit window")
    if not math.isfinite(cfg.horizon):
        raise ConfigError(f"decay horizon must be finite, got {cfg.horizon}")
    out = _ensure_out(cfg)
    spec = GridSpec(cfg.half_width, cfg.points)
    window = (cfg.horizon / 100.0, cfg.horizon)
    times = np.geomspace(window[0], window[1], 12)
    targets = HEAT_EXPANSION_SLOPES(cfg.p)
    rows, lines = [], []
    ok, converged = True, True
    for k, kind in enumerate(("M0_nonzero", "M0_zero_M1_nonzero",
                              "M0_M1_zero")):
        f = gaussian_derivative(k, spec)
        rep = decay_scan(f, cfg.p, times, window=window)
        res = residual_scan(f, cfg.p, times, window=window)
        row = {"family": kind, "norm_p": cfg.p,
               "slope": rep.fit.slope, "target": targets[k],
               "r2": rep.fit.r_squared, "accepted": rep.fit.accepted,
               "residual_slope": res.fit.slope,
               "residual_r2": res.fit.r_squared}
        rows.append(row)
        rep.to_csv(os.path.join(out, f"decay_{kind}.csv"))
        hit = abs(rep.fit.slope - targets[k]) <= cfg.decay_tol
        ok &= hit
        converged &= rep.fit.accepted
        lines.append(
            f"{kind}: slope={rep.fit.slope:+.4f} target={targets[k]:+.4f} "
            f"r2={rep.fit.r_squared:.5f} residual_slope="
            f"{res.fit.slope:+.4f} [{'ok' if hit else 'off'}]")
    verdict = PASS if (ok and converged) else (FAIL if converged
                                               else UNCONVERGED)
    _write_json(os.path.join(out, "decay.json"),
                {"rows": rows, "verdict": verdict,
                 "decay_tol": cfg.decay_tol,
                 "config": _config_record(cfg)})
    lines.append(f"verdict: {verdict}")
    return verdict, lines


# ----------------------------------------------------------------------
# odi
# ----------------------------------------------------------------------


def run_odi(cfg: ExperimentConfig):
    """Blow-up times of the memory-kernel march across eps, plus the fit.

    odi_scaling_fit marches the eps list in order.  odi.csv holds the eps
    that blew up.  If one survives to the horizon, the march stops there:
    odi_fit.json names the censored eps instead of a fit, and the verdict
    is unconverged.
    """
    base = OdiConfig(p=cfg.p, beta=cfg.beta, gamma=cfg.gamma, t0=cfg.t0,
                     eps=cfg.eps_list[0], horizon=cfg.horizon)
    traces, fit = odi_scaling_fit(base, cfg.eps_list)
    out = _ensure_out(cfg)
    marched = list(zip(cfg.eps_list, traces))
    lines = [f"eps={e:.6g} blowup_time={tr.blowup_time:.8g} "
             f"steps={tr.steps}" for e, tr in marched]
    with open(os.path.join(out, "odi.csv"), "w") as fh:
        fh.write("eps,blowup_time,steps\n")
        for e, tr in marched:
            fh.write(f"{e:.17g},{tr.blowup_time:.17g},{tr.steps}\n")
    record = {"p": cfg.p, "beta": cfg.beta, "gamma": cfg.gamma}
    reason = None
    if fit is None:
        censored = cfg.eps_list[len(traces)]
        record.update({"censored_eps": censored, "horizon": cfg.horizon})
        verdict, reason = UNCONVERGED, "censored blow-up time"
        lines.append(f"eps={censored:.6g} survived to horizon "
                     f"{cfg.horizon:g}")
    else:
        target = odi_target_slope(cfg.p, cfg.beta)
        record.update({"slope": fit.slope, "target_slope": target,
                       "r2": fit.r_squared})
        ok = (abs(fit.slope - target) <= cfg.odi_rtol * abs(target)
              and fit.r_squared >= cfg.r2_min)
        verdict = PASS if ok else FAIL
        lines.append(f"fit: slope={fit.slope:.6f} target={target:.6f} "
                     f"r2={fit.r_squared:.6f}")
    _write_json(os.path.join(out, "odi_fit.json"), record)
    lines.append(f"verdict: {verdict}" + (f" ({reason})" if reason else ""))
    return verdict, lines


# ----------------------------------------------------------------------
# predict
# ----------------------------------------------------------------------


def run_predict(cfg: ExperimentConfig):
    """Closed-form lifespan table across moment classes and eps."""
    out = _ensure_out(cfg)
    rows, lines = [], []
    lines.append(f"p={cfg.p:g} constant={cfg.constant:g}")
    lines.append(f"{'eps':>10} {'class':>22} {'regime':>16} "
                 f"{'T_pred':>14} {'T_threshold':>14}")
    for e in cfg.eps_list:
        try:
            thresh = tilde_T2p(cfg.p, e, C=cfg.constant)
            thresh_txt = f"{thresh:.6g}"
        except HorizonError:
            thresh, thresh_txt = None, "-"
        for klass in MOMENT_CLASSES:
            pred = predict_lifespan(cfg.p, e, klass, c=cfg.constant)
            rows.append({"eps": e, "class": klass, "regime": pred.regime,
                         "T_pred": pred.value, "T_threshold": thresh})
            lines.append(f"{e:>10.4g} {klass:>22} {pred.regime:>16} "
                         f"{pred.value:>14.6g} {thresh_txt:>14}")
    _write_json(os.path.join(out, "predict.json"),
                {"rows": rows, "config": _config_record(cfg)})
    return PASS, lines


# ----------------------------------------------------------------------
# verify-propagators
# ----------------------------------------------------------------------


def _row(check, t, err, tol):
    status = "pass" if err <= tol else "fail"
    return {"check": check, "t": t, "error": err, "tol": tol,
            "status": status}


def run_verify_propagators(cfg: ExperimentConfig):
    """Mass anchors, kernel/multiplier duality, semigroup composition.

    Failures become report rows, not exceptions; kernel comparisons
    outside the quadrature range are skipped with a notice.
    """
    out = _ensure_out(cfg)
    spec = GridSpec(cfg.half_width, cfg.points)
    f = gaussian_derivative(0, spec)
    mass0 = moment(f, 0)
    rows = []
    for t in (1.0, 5.0, 20.0):
        got = moment(apply_S(t, f, check_boundary=False), 0)
        want = (1.0 - math.exp(-t)) * mass0
        rows.append(_row("mass_anchor_S", t, abs(got - want) / abs(mass0),
                         1e-8))
        got_d = moment(apply_dtS(t, f, check_boundary=False), 0)
        want_d = math.exp(-t) * mass0
        rows.append(_row("mass_anchor_dtS", t,
                         abs(got_d - want_d) / abs(mass0), 1e-8))
    for t in (1.0, 5.0, 100.0):
        try:
            direct = apply_S_kernel(t, f)
            mult = apply_S(t, f, check_boundary=False)
            num = float(np.sqrt(spec.h * np.sum((direct.values
                                                 - mult.values) ** 2)))
            den = float(np.sqrt(spec.h * np.sum(mult.values ** 2)))
            rows.append(_row("kernel_duality", t, num / den, 1e-6))
        except KernelRangeError as exc:
            rows.append({"check": "kernel_duality", "t": t, "error": None,
                         "tol": 1e-6, "status": "skipped",
                         "notice": str(exc)})
    t1, t2 = 0.7, 1.6
    a = linear_pair_matrix(t1, spec)
    b = linear_pair_matrix(t2, spec)
    c = linear_pair_matrix(t1 + t2, spec)
    comp = (b[0] * a[0] + b[1] * a[2], b[0] * a[1] + b[1] * a[3],
            b[2] * a[0] + b[3] * a[2], b[2] * a[1] + b[3] * a[3])
    err = max(float(np.max(np.abs(np.asarray(x) - np.asarray(y))))
              for x, y in zip(comp, c))
    rows.append(_row("semigroup_composition", t1 + t2, err, 1e-8))

    lines = []
    for r in rows:
        if r["status"] == "skipped":
            lines.append(f"{r['check']} t={r['t']:g}: skipped ({r['notice']})")
        else:
            lines.append(f"{r['check']} t={r['t']:g}: err={r['error']:.3e} "
                         f"tol={r['tol']:.0e} {r['status']}")
    verdict = PASS if all(r["status"] != "fail" for r in rows) else FAIL
    _write_json(os.path.join(out, "verify.json"),
                {"rows": rows, "verdict": verdict,
                 "config": _config_record(cfg)})
    lines.append(f"verdict: {verdict}")
    return verdict, lines


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

_RUNNERS = {
    "decay": run_decay,
    "lifespan": run_lifespan,
    "sweep": run_sweep,
    "odi": run_odi,
    "predict": run_predict,
    "verify-propagators": run_verify_propagators,
}


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="lab",
        description="Numerical laboratory for moment-dependent lifespan "
                    "scaling of a damped wave equation with a power "
                    "nonlinearity.")
    ap.add_argument("command", choices=COMMANDS)
    ap.add_argument("--config", metavar="FILE", default=None,
                    help="INI file with one section per command")
    ap.add_argument("--p", type=float, default=None,
                    help="nonlinearity exponent (norm index for decay)")
    ap.add_argument("--eps-list", metavar="a,b,c", default=None,
                    help="comma-separated amplitudes, descending")
    ap.add_argument("--out", metavar="DIR", default=None,
                    help="output directory")
    ap.add_argument("--workers", type=int, default=None,
                    help="parallel worker processes")
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {"p": args.p, "out_dir": args.out, "workers": args.workers}
    if args.eps_list is not None:
        overrides["eps_list"] = _parse_eps_list(args.eps_list)
    try:
        cfg = load_config(args.command, path=args.config,
                          overrides=overrides)
        verdict, lines = _RUNNERS[args.command](cfg)
    except (ConfigError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    return _EXIT[verdict]


if __name__ == "__main__":
    sys.exit(main())
