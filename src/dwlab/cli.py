"""Command line front end: `lab <command> [--config FILE] [overrides]`.

Commands

* decay               linear L^p decay and residual slopes for the three
                      Gaussian-derivative families
* lifespan            solve_lifespan per eps, one JSON record (bracket and
                      the march's counts) per run
* sweep               lifespan runs plus a log-log exponent fit (or the
                      two-parameter Lambert form at the p = 3/2 borderline)
                      and a pass/fail/unconverged verdict
* odi                 memory-kernel inequality blow-up times vs eps with an
                      exponent fit against -(p-1)/(1-beta)
* predict             closed-form lifespan table across moment classes
* verify-propagators  propagator invariant suite (mass anchors, kernel vs
                      multiplier duality, semigroup composition)

Configuration is a single INI file with one section per command, whose
keys are the settings that command reads (_SETTINGS); [DEFAULT] keys
apply wherever a command reads them.  --p, --eps-list, --out and
--workers override the file; a setting the command does not read exits 2
as an unknown config key.  The verdict thresholds are the acceptance gates'.
Every JSON report embeds the settings its command read.  Output files are
deterministic: runs are keyed by input index, results are gathered in
input order regardless of worker count, and no timestamps are written.

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
from dataclasses import asdict, dataclass, fields

import numpy as np

from .fitting import fit_critical_lifespan, fit_loglog
from .grid import GridFunction, GridSpec, lp_norm, moment
from .odi import OdiConfig, odi_scaling_fit, odi_target_slope
from .propagators import (HEAT_EXPANSION_SLOPES, KernelRangeError, apply_S,
                          apply_S_kernel, apply_dtS, decay_scan,
                          linear_pair_matrix, residual_scan)
from .special import (CRITICAL_M1, HorizonError, M0_ZERO_M1_NONZERO,
                      MOMENT_CLASSES, gaussian_derivative, make_data_family,
                      predict_lifespan, tilde_T2p)

__all__ = ["ConfigError", "ExperimentConfig", "load_config", "main",
           "run_decay", "run_lifespan", "run_sweep", "run_odi",
           "run_predict", "run_verify_propagators"]

# each command's settings and their defaults: it takes, checks and
# records no others, and builds a grid exactly when it reads points
_MARCH = dict(eps_list=(0.4, 0.283, 0.2, 0.141, 0.1),
              moment_class=M0_ZERO_M1_NONZERO, p=1.25, horizon=200.0,
              half_width=64.0, points=2048, workers=1)
_SETTINGS = {command: dict(keys, out_dir="lab_out") for command, keys in {
    "decay": dict(p=2.0, horizon=1e4, half_width=2000.0, points=32768),
    "lifespan": _MARCH, "sweep": _MARCH,
    "odi": dict(eps_list=tuple(np.geomspace(1e-2, 10 ** -3.5, 8)), p=2.0,
                horizon=3e5, beta=0.0),
    "predict": dict(eps_list=(0.5, 0.1, 0.01), p=1.5),
    "verify-propagators": dict(half_width=64.0, points=4096),
}.items()}
COMMANDS = tuple(_SETTINGS)

PASS, FAIL, UNCONVERGED = "pass", "fail", "unconverged"
_EXIT = {PASS: 0, FAIL: 1, UNCONVERGED: 2}

# the verdict thresholds, each the band of its acceptance gate: decay
# slopes (criterion 02), the ODI fit's relative slope band and r^2
# (criterion 04), the sweep's relative slope band (criterion 06) and the
# borderline Lambert fit's r^2 (criterion 08)
DECAY_TOL = 0.05
ODI_RTOL = 0.10
R2_MIN = 0.98
SLOPE_RTOL = 0.20
LAMBERT_R2_MIN = 0.95


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    """Checked settings of one command invocation.  A field the command
    does not read (_SETTINGS) stays None; a value there is an unknown key."""

    command: str
    p: float | None = None
    moment_class: str | None = None
    eps_list: tuple | None = None
    points: int | None = None
    half_width: float | None = None
    horizon: float | None = None
    workers: int | None = None
    out_dir: str | None = None
    beta: float | None = None

    def __post_init__(self):
        keys = _SETTINGS.get(self.command)
        if keys is None:
            raise ConfigError(f"unknown command {self.command!r}")
        for field in fields(self)[1:]:
            if getattr(self, field.name) is None:
                object.__setattr__(self, field.name, keys.get(field.name))
            elif field.name not in keys:
                raise ConfigError(f"unknown config key {field.name!r}")
        if self.p is not None and not (1.0 < self.p <= 3.0):
            raise ConfigError(f"p must lie in (1, 3], got {self.p}")
        if self.eps_list is not None:
            eps = tuple(float(e) for e in self.eps_list)
            if len(eps) == 0:
                raise ConfigError("eps_list must be non-empty")
            if not all(math.isfinite(e) for e in eps):
                raise ConfigError("eps_list entries must be finite")
            if any(e <= 0.0 for e in eps):
                raise ConfigError("eps_list entries must be positive")
            if any(later >= earlier for later, earlier in zip(eps[1:], eps)):
                raise ConfigError("eps_list must be sorted in descending "
                                  "order")
            object.__setattr__(self, "eps_list", eps)
        if self.moment_class not in (None, *MOMENT_CLASSES):
            raise ConfigError(f"unknown moment class {self.moment_class!r}")
        if self.workers is not None and self.workers < 1:
            raise ConfigError("workers must be a positive integer")
        if self.horizon is not None and not self.horizon > 0.0:
            raise ConfigError("horizon must be positive")
        if "points" in keys:
            try:
                self.spec()
            except ValueError as exc:   # GridError is one
                raise ConfigError(str(exc)) from exc

    def spec(self) -> GridSpec:
        return GridSpec(self.half_width, self.points)


def _parse_eps_list(text: str) -> tuple:
    try:
        return tuple(float(tok) for tok in text.replace(",", " ").split())
    except ValueError as exc:
        raise ConfigError(f"bad eps_list entry in {text!r}") from exc


# INI key -> (the ExperimentConfig field it sets, its parser)
_INI_KEYS = {"eps_list": ("eps_list", _parse_eps_list),
             "class": ("moment_class", str), "out": ("out_dir", str),
             "points": ("points", int), "workers": ("workers", int),
             **{k: (k, float) for k in ("p", "horizon", "half_width", "beta")}}


def load_config(command: str, path=None, overrides=None) -> ExperimentConfig:
    """Merge command's defaults, the INI file at path (whose [DEFAULT] keys
    apply where command reads them) and the overrides that are not None."""
    settings, keys = {}, _SETTINGS.get(command, {})
    if path is not None:
        import configparser  # only a config file needs it
        # [DEFAULT] is read as a plain section, so that parser[command]
        # yields the section's own keys only; values are taken literally
        parser = configparser.ConfigParser(default_section="",
                                           interpolation=None)
        try:
            found = parser.read(path)
        except configparser.Error as exc:
            # its text names the file and the line; keep it to one line
            raise ConfigError(f"bad config file: {' '.join(str(exc).split())}"
                              ) from exc
        if not found:
            raise ConfigError(f"cannot read config file {path!r}")
        for section in [s for s in ("DEFAULT", command) if s in parser]:
            for key, raw in parser[section].items():
                name, parse = _INI_KEYS.get(key, (None, None))
                if name not in keys:
                    if name is None or section == command:
                        raise ConfigError(f"unknown config key {key!r}")
                    continue  # a [DEFAULT] key that command does not read
                try:
                    settings[name] = parse(raw)
                except ValueError as exc:
                    raise ConfigError(f"bad {key} value: {raw!r}") from exc
    settings.update((key, value) for key, value in (overrides or {}).items()
                    if value is not None)
    return ExperimentConfig(command=command, **settings)


def _write_json(path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _finite_or_none(x: float):
    """x, or None (JSON null) where it is NaN or infinite."""
    return x if math.isfinite(x) else None


def _config_record(cfg: ExperimentConfig) -> dict:
    """The settings cfg.command read, less the execution details that
    cannot affect the numbers (workers, out_dir)."""
    return dict({key: getattr(cfg, key) for key in _SETTINGS[cfg.command]
                 if key not in ("workers", "out_dir")}, command=cfg.command)


def _ensure_out(cfg: ExperimentConfig) -> str:
    try:
        os.makedirs(cfg.out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot use {cfg.out_dir!r} as the output "
                          f"directory: {exc.strerror or exc}") from exc
    return cfg.out_dir


# ----------------------------------------------------------------------
# lifespan / sweep
# ----------------------------------------------------------------------


def _lifespan_worker(cfg: ExperimentConfig, eps: float):
    from .solver import solve_lifespan
    fam = make_data_family(cfg.moment_class, eps, cfg.spec())
    est, trace = solve_lifespan(fam, cfg.p, horizon=cfg.horizon)
    record = {
        "p": cfg.p, "eps": eps, "class": cfg.moment_class,
        "N": cfg.points, "L": cfg.half_width,
        "status": est.status, "T_low": est.T_low, "T_high": est.T_high,
        "steps": len(trace.times),
    }
    # the march's deterministic counts; attempts lands beside steps
    record.update(asdict(est.stats))
    return record


def _run_all_lifespans(cfg: ExperimentConfig, out: str):
    """Run every eps, in input order, write one run_NNN.json each, and
    return the records."""
    worker = functools.partial(_lifespan_worker, cfg)
    # the pool starts all its processes at once: no more than there are
    # runs or CPUs
    workers = min(cfg.workers, len(cfg.eps_list), os.cpu_count() or 1)
    if workers > 1:
        # deferred: the pool pulls in multiprocessing, which one worker
        # never needs
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(worker, cfg.eps_list))
    else:
        results = [worker(e) for e in cfg.eps_list]
    for i, record in enumerate(results):
        record["config"] = _config_record(cfg)
        _write_json(os.path.join(out, f"run_{i:03d}.json"), record)
    return results


def _abort_note(record) -> str:
    """What tripped a truncation abort: the time, and the edge ratio that
    passed the guard's BOUNDARY_TOL.  Printed only, never written to the
    output files."""
    from .solver import BOUNDARY_TOL
    return (f"t={record['T_low']:.6g} edge_ratio={record['edge_ratio']:.3g}"
            f" > boundary_tol={BOUNDARY_TOL:g}")


def run_lifespan(cfg: ExperimentConfig):
    """One record per eps; verdict is pass unless any run aborted on the
    truncation rule."""
    # deferred: only a march needs the stepper; loaded before a pool forks
    from .solver import TRUNCATION_ABORT
    records = _run_all_lifespans(cfg, _ensure_out(cfg))
    lines = []
    for record in records:
        line = (f"eps={record['eps']:.6g} status={record['status']} "
                f"T_low={record['T_low']:.8g} T_high={record['T_high']:.8g} "
                f"steps={record['steps']} attempts={record['attempts']}")
        if record["status"] == TRUNCATION_ABORT:
            line += f" truncation at {_abort_note(record)}"
        lines.append(line)
    statuses = [r["status"] for r in records]
    verdict = UNCONVERGED if TRUNCATION_ABORT in statuses else PASS
    lines.append(f"verdict: {verdict}")
    return verdict, lines


def _sweep_csv(path, rows) -> None:
    with open(path, "w") as fh:
        fh.write("eps,T_low,T_high,status\n")
        for r in rows:
            fh.write(f"{r['eps']:.17g},{r['T_low']:.17g},"
                     f"{r['T_high']:.17g},{r['status']}\n")


def run_sweep(cfg: ExperimentConfig):
    """Lifespan ladder, exponent fit, and verdict.

    The fitted slope of T_high against eps is compared with the exponent
    of predict_lifespan's law; pass needs agreement within SLOPE_RTOL of
    the target and every run to blow up.  In its critical_M1 regime (the
    p = 3/2 borderline for the M1-carrying class) the law is not a pure
    power, so the two-parameter form T = A eps^{-2/3} exp(2 W(B eps^{-1/2})
    / 3) is fitted instead and judged by its r^2.  Any other law without
    an exponent (p = 3) makes the verdict unconverged.  Either fit needs
    at least MIN_POINTS = 3 eps: with fewer the verdict is fail, and the
    power-law path writes a null slope.  A truncation abort skips the fit
    and makes the verdict unconverged.  Every path writes one run_NNN.json
    per eps, sweep.csv, and fit.json with the verdict.
    """
    from .solver import BLOWN_UP, TRUNCATION_ABORT  # see run_lifespan
    out = _ensure_out(cfg)
    rows = _run_all_lifespans(cfg, out)
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
    pred = predict_lifespan(cfg.p, cfg.eps_list[0], cfg.moment_class)
    if TRUNCATION_ABORT in statuses:
        verdict = UNCONVERGED
        reason = "truncation abort: " + "; ".join(
            f"eps={r['eps']:.6g} {_abort_note(r)}"
            for r in rows if r["status"] == TRUNCATION_ABORT)
    elif pred.regime == CRITICAL_M1:
        A, B, r2 = fit_critical_lifespan(eps, T)
        ok = all_blown and r2 >= LAMBERT_R2_MIN
        verdict = PASS if ok else FAIL
        fit_record.update({"model": "A*eps^(-2/3)*exp(2W(B*eps^(-1/2))/3)",
                           "A": A, "B": B, "r2": r2,
                           "lambert_r2_min": LAMBERT_R2_MIN})
        lines.append(f"lambert fit: A={A:.8g} B={B:.8g} r2={r2:.6f}")
    else:
        target = pred.exponent
        fit = fit_loglog(eps, T)
        fit_record.update({"slope": _finite_or_none(fit.slope),
                           "r2": fit.r_squared,
                           "predicted_slope": target,
                           "slope_rtol": SLOPE_RTOL})
        if target is None:
            verdict = UNCONVERGED
            reason = "no pure-power prediction for this regime"
        else:
            ok = (all_blown and math.isfinite(fit.slope)
                  and abs(fit.slope - target) <= SLOPE_RTOL * abs(target))
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
    spec = cfg.spec()
    times = np.geomspace(cfg.horizon / 100.0, cfg.horizon, 12)
    targets = HEAT_EXPANSION_SLOPES(cfg.p)
    rows, lines = [], []
    ok, converged = True, True
    for k, kind in enumerate(MOMENT_CLASSES):
        f = gaussian_derivative(k, spec)
        rep = decay_scan(f, cfg.p, times)
        res = residual_scan(f, cfg.p, times)
        row = {"family": kind, "norm_p": cfg.p,
               "slope": _finite_or_none(rep.fit.slope), "target": targets[k],
               "r2": rep.fit.r_squared, "accepted": rep.fit.accepted,
               "residual_slope": _finite_or_none(res.fit.slope),
               "residual_r2": res.fit.r_squared}
        rows.append(row)
        rep.to_csv(os.path.join(out, f"decay_{kind}.csv"))
        hit = abs(rep.fit.slope - targets[k]) <= DECAY_TOL
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
                 "decay_tol": DECAY_TOL,
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
    base = OdiConfig(p=cfg.p, beta=cfg.beta, horizon=cfg.horizon)
    traces, fit = odi_scaling_fit(base, cfg.eps_list)
    out = _ensure_out(cfg)
    marched = list(zip(cfg.eps_list, traces))
    lines = [f"eps={e:.6g} blowup_time={tr.blowup_time:.8g} "
             f"steps={tr.steps}" for e, tr in marched]
    with open(os.path.join(out, "odi.csv"), "w") as fh:
        fh.write("eps,blowup_time,steps\n")
        for e, tr in marched:
            fh.write(f"{e:.17g},{tr.blowup_time:.17g},{tr.steps}\n")
    record = {"p": cfg.p, "beta": cfg.beta, "config": _config_record(cfg)}
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
        ok = (abs(fit.slope - target) <= ODI_RTOL * abs(target)
              and fit.r_squared >= R2_MIN)
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
    """Closed-form lifespan table across moment classes and eps.  A law
    past the float range prints inf and is written as null."""
    out = _ensure_out(cfg)
    rows, lines = [], []
    lines.append(f"p={cfg.p:g}")
    lines.append(f"{'eps':>10} {'class':>22} {'regime':>16} "
                 f"{'T_pred':>14} {'T_threshold':>14}")
    for e in cfg.eps_list:
        try:
            thresh = tilde_T2p(cfg.p, e)
            thresh_txt = f"{thresh:.6g}"
        except HorizonError:
            thresh, thresh_txt = None, "-"
        for klass in MOMENT_CLASSES:
            pred = predict_lifespan(cfg.p, e, klass)
            rows.append({"eps": e, "class": klass, "regime": pred.regime,
                         "T_pred": _finite_or_none(pred.value),
                         "T_threshold": thresh})
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
    spec = cfg.spec()
    f = gaussian_derivative(0, spec)
    mass0 = moment(f, 0)
    rows = []
    for t in (1.0, 5.0, 20.0):
        got = moment(apply_S(t, f), 0)
        want = (1.0 - math.exp(-t)) * mass0
        rows.append(_row("mass_anchor_S", t, abs(got - want) / abs(mass0),
                         1e-8))
        got_d = moment(apply_dtS(t, f), 0)
        want_d = math.exp(-t) * mass0
        rows.append(_row("mass_anchor_dtS", t,
                         abs(got_d - want_d) / abs(mass0), 1e-8))
    for t in (1.0, 5.0, 100.0):
        try:
            direct = apply_S_kernel(t, f)
            mult = apply_S(t, f)
            gap = GridFunction(spec, direct.values - mult.values)
            rows.append(_row("kernel_duality", t,
                             lp_norm(gap, 2) / lp_norm(mult, 2), 1e-6))
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
                    help="nonlinearity exponent (norm index for decay); "
                         "not read by verify-propagators")
    ap.add_argument("--eps-list", metavar="a,b,c", default=None,
                    help="comma-separated amplitudes, descending")
    ap.add_argument("--out", metavar="DIR", default=None,
                    help="output directory")
    ap.add_argument("--workers", type=int, default=None,
                    help="parallel worker processes, at most one per eps "
                         "and per CPU (lifespan and sweep)")
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {"p": args.p, "out_dir": args.out, "workers": args.workers}
    try:
        if args.eps_list is not None:
            overrides["eps_list"] = _parse_eps_list(args.eps_list)
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
