#!/usr/bin/env python3
"""The lab's benchmark: one workload, one seed, end-to-end or traced.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
`src/`.  Every repetition of the workload runs in a fresh single-threaded
interpreter (perfbench/child.py), so caches start cold as in every `lab`
call.  Repetitions continue while another one fits in S seconds; there is
always at least one.

--trace 0 prints the end-to-end metrics (medians over repetitions):
setup_s (cold `import dwlab.cli`, median over at least SETUP_SAMPLES fresh
interpreters), wall_s and peak_rss_mb.  --trace 1 alternates untraced and
traced repetitions and prints the per-layer metrics, `-X importtime`
set-up terms, tracing overhead and error_rate.

Every operation is checked: a lifespan run must blow up, no check row may
fail, Duhamel residuals stay <= 1e-4, torus lifespans within 1% of the
scalar ODE, repetitions of one seed must produce byte-identical outputs,
and outputs must match perfbench/reference.json within its stated
tolerances (seed 0, or any seed for the parts the seed does not change).
The last stdout line is one JSON object; a full record with spans and the
environment goes to .perfbench_runs/ in the checkout.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS_DIR = os.path.join(ROOT, ".perfbench_runs")

SETUP_SAMPLES = 7      # cold imports per run for the setup_s median
IMPORTTIME_SAMPLES = 5  # `-X importtime` children per traced run
CHILD_TIMEOUT = 150.0
MEASURE_CAP = 100.0    # s: no new repetition after this, so a run ends in minutes
JITTER = 0.03          # seeds other than 0 scale each amplitude by 1 +- this

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "solver.solve_lifespan.s": "s",
    "solver.solve_lifespan.self_s": "s",
    "solver.solve_lifespan.calls": "count",
    "solver.accepted_steps": "count",
    "solver.us_per_step": "us",
    "solver.integrate.s": "s",
    "solver.duhamel_residual.s": "s",
    "propagators.linear_pair_matrix.calls": "count",
    "propagators.linear_pair_matrix.s": "s",
    "propagators.damped_symbol.calls": "count",
    "propagators.damped_symbol.s": "s",
    "propagators.decay_scan.s": "s",
    "propagators.residual_scan.s": "s",
    "propagators.apply_S_kernel.s": "s",
    "propagators.kernel_quadrature.s": "s",
    "kernels.kernel_convolve.s": "s",
    "kernels.kernel_convolve.calls": "count",
    "kernels.kernel_convolve.madds": "count",
    "kernels.bessel_i0_kernel.s": "s",
    "kernels.odi_march.s": "s",
    "kernels.odi_march.steps": "count",
    "kernels.odi_march.ns_per_step": "ns",
    "odi.simulate_odi.calls": "count",
    "odi.simulate_odi.s": "s",
    "odi.march_use_ratio": "ratio",
    "fitting.fit_loglog.s": "s",
    "setup.numpy_s": "s",
    "setup.scipy_optimize_s": "s",
    "setup.scipy_interpolate_s": "s",
    "setup.dwlab_self_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.missing_names": "count",
    "error_rate": "ratio",
}

# operations per repetition: lifespan runs, ODI rows, check rows, decay
# rows and oracle checks, plus one per fit or closed-form table
EXPECTED_OPS = {"sweep_p125": 6, "odi_p2": 9, "linear_checks": 14,
                "stepper_small": 5}
WORKLOADS = tuple(EXPECTED_OPS)


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------


def _jittered(rng, values, seed):
    """Seed 0 keeps the values exactly; others scale each by 1 +- JITTER.

    Neighbouring defaults differ by far more than 2*JITTER, so the order
    is kept; it is asserted all the same.
    """
    if seed == 0:
        return [float(v) for v in values]
    out = [float(v) * (1.0 + JITTER * rng.uniform(-1.0, 1.0))
           for v in values]
    if any(b >= a for a, b in zip(out, out[1:])):
        raise ValueError("jitter broke the descending eps order")
    return out


def make_inputs(workload: str, seed: int) -> dict:
    """The generated inputs; seed 0 is each command's default config."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "sweep_p125":
        return {"eps": _jittered(rng, (0.4, 0.283, 0.2, 0.141, 0.1), seed)}
    if workload == "odi_p2":
        # `lab odi` default: np.geomspace(1e-2, 10 ** -3.5, 8)
        import numpy as np
        return {"eps": _jittered(rng, np.geomspace(1e-2, 10 ** -3.5, 8),
                                 seed)}
    if workload == "linear_checks":
        return {"predict_eps": _jittered(rng, (0.5, 0.1, 0.01), seed)}
    if workload == "stepper_small":
        return {"amplitude": _jittered(rng, (0.3,), seed)[0],
                "duhamel_cases": [[2.0, 0.16], [2.0, 0.04], [1.5, 0.04]],
                "torus_p": [2.0, 2.5]}
    raise ValueError(f"unknown workload {workload!r}")


# ----------------------------------------------------------------------
# children
# ----------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(job: dict, importtime: bool = False):
    """Run child.py on one job; returns (record or None, stderr)."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) \
        + [os.path.join(HERE, "child.py"), json.dumps(job)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(),
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        return None, f"child timed out after {CHILD_TIMEOUT:g} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, proc.stderr
    record = json.loads(lines[-1])
    if not os.path.abspath(record["dwlab_file"]).startswith(SRC + os.sep):
        raise RuntimeError(f"imported dwlab from {record['dwlab_file']}, "
                           f"not from {SRC}")
    return record, proc.stderr


def run_once(workload: str, seed: int, trace: bool):
    """One repetition with its outputs in a throwaway directory; raises
    if it fails.  For the self-check and for writing the reference."""
    os.makedirs(RUNS_DIR, exist_ok=True)
    out = tempfile.mkdtemp(prefix="once-", dir=RUNS_DIR)
    try:
        record, stderr = run_child({"workload": workload,
                                    "inputs": make_inputs(workload, seed),
                                    "out": out, "trace": trace})
    finally:
        shutil.rmtree(out, ignore_errors=True)
    if record is None or "error" in record:
        raise RuntimeError(f"{workload} failed:\n"
                           f"{record['error'] if record else stderr}")
    return record


def setup_sample(importtime: bool = False):
    record, stderr = run_child({"workload": None}, importtime)
    if record is None:
        raise RuntimeError(f"import-only child failed:\n{stderr}")
    return record["setup_s"], stderr


def parse_importtime(stderr: str) -> dict:
    """setup.* terms from `-X importtime` lines (microseconds)."""
    cumulative, dwlab_self = {}, 0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, cum_us, name = line[len("import time:"):].split("|")
        name = name.strip()
        cumulative.setdefault(name, int(cum_us))
        if name == "dwlab" or name.startswith("dwlab."):
            dwlab_self += int(self_us)
    return {"setup.numpy_s": cumulative.get("numpy", 0) / 1e6,
            "setup.scipy_optimize_s": cumulative.get("scipy.optimize", 0) / 1e6,
            "setup.scipy_interpolate_s":
                cumulative.get("scipy.interpolate", 0) / 1e6,
            "setup.dwlab_self_s": dwlab_self / 1e6}


# ----------------------------------------------------------------------
# correctness
# ----------------------------------------------------------------------


def _vs(label, got, want, rtol=0.0, atol=0.0):
    """[reason] when got leaves the reference want, else []."""
    if want is None or got is None:
        off = got is not want
    else:
        off = not abs(got - want) <= atol + rtol * abs(want)
    return [f"{label} {got!r} vs reference {want!r}"] if off else []


def _check_sweep(values, want, tol, seed):
    ops = []
    for i, r in enumerate(values["runs"]):
        bad = [] if r["status"] == "blown_up" else [f"status {r['status']}"]
        if seed == 0:
            bad += [reason for k in ("T_low", "T_high")
                    for reason in _vs(k, r[k], want["runs"][i][k],
                                      rtol=tol["T_rtol"])]
        ops.append((f"lifespan eps={r['eps']:.6g}", bad))
    code = values["exit_code"]
    bad = [] if code in (0, 1) and math.isfinite(values["slope"]) else \
        [f"exit code {code}, slope {values['slope']!r}"]
    if seed == 0:
        # criterion 06's known red: the seed-0 verdict is `fail`, exit 1
        if (values["verdict"], code) != (want["verdict"], want["exit_code"]):
            bad.append(f"verdict {values['verdict']} (exit {code}), expected "
                       f"{want['verdict']} (exit {want['exit_code']})")
        bad += _vs("slope", values["slope"], want["slope"],
                   atol=tol["slope_atol"])
    return ops + [("sweep fit", bad)]


def _check_odi(values, want, tol, seed):
    ops = []
    for i, r in enumerate(values["rows"]):
        bad = [] if math.isfinite(r["blowup_time"]) else ["no blow-up"]
        if seed == 0:
            bad += _vs("blowup_time", r["blowup_time"],
                       want["rows"][i]["blowup_time"], rtol=tol["blowup_rtol"])
        ops.append((f"odi eps={r['eps']:.6g}", bad))
    bad = [] if values["exit_code"] == 0 else \
        [f"exit code {values['exit_code']}"]
    if seed == 0:
        bad += _vs("slope", values["slope"], want["slope"],
                   atol=tol["slope_atol"])
    return ops + [("odi fit", bad)]


def _check_linear(values, want, tol, seed):
    """verify-propagators and decay do not depend on the seed, so their
    rows are refereed on every seed; the predict table on seed 0.  Exit 1
    only says some row failed: each row is judged on its own."""
    codes = values["exit_codes"]
    ops = []
    for r, w in zip(values["verify"], want["verify"]):
        bad = [] if r["status"] != "fail" and codes["verify"] != 2 else \
            [f"status {r['status']}, exit {codes['verify']}"]
        if (r["check"], r["t"], r["status"]) != (w["check"], w["t"],
                                                  w["status"]):
            bad.append(f"row {r['check']} t={r['t']} {r['status']}, "
                       f"reference {w['check']} t={w['t']} {w['status']}")
        bad += _vs("error", r["error"], w["error"],
                   atol=tol["error_atol_per_tol"] * r["tol"])
        ops.append((f"verify {r['check']} t={r['t']:g}", bad))
    for r, w in zip(values["decay"], want["decay"]):
        hit = abs(r["slope"] - r["target"]) <= values["decay_tol"]
        bad = [] if hit and r["accepted"] and codes["decay"] != 2 else \
            [f"slope {r['slope']!r} off target {r['target']!r}, "
             f"exit {codes['decay']}"]
        bad += [reason for k in ("slope", "residual_slope")
                for reason in _vs(k, r[k], w[k], atol=tol["slope_atol"])]
        ops.append((f"decay {r['family']}", bad))
    bad = [] if codes["predict"] == 0 and all(
        r["T_pred"] > 0.0 for r in values["predict"]) else \
        [f"exit code {codes['predict']}"]
    if seed == 0:
        bad += [reason for r, w in zip(values["predict"], want["predict"])
                for k in ("T_pred", "T_threshold")
                for reason in _vs(f"{r['class']} eps={r['eps']:g} {k}",
                                  r[k], w[k], rtol=tol["predict_rtol"])]
    return ops + [("predict table", bad)]


@functools.lru_cache(maxsize=None)
def torus_ode_blowup(p: float) -> float:
    """Blow-up time of u'' + u' = |u|^p, u(0) = 1, u'(0) = 0: the oracle
    for constant data on the torus (criterion 10)."""
    from scipy.integrate import solve_ivp

    def rhs(t, y):
        return [y[1], abs(y[0]) ** p - y[1]]

    def blow(t, y):
        return y[0] - 1e9
    blow.terminal = True
    blow.direction = 1.0
    sol = solve_ivp(rhs, (0.0, 50.0), [1.0, 0.0], method="DOP853",
                    rtol=1e-12, atol=1e-12, events=blow)
    return float(sol.t_events[0][0])


def _check_stepper(values, want, tol, seed):
    """The torus runs do not depend on the seed: refereed on every seed."""
    ops = []
    for r, w in zip(values["residuals"], want["residuals"]):
        bad = [] if r["residual"] <= 1e-4 else \
            [f"residual {r['residual']:.3e} > 1e-4"]
        if seed == 0:
            bad += _vs("residual", r["residual"], w["residual"],
                       rtol=tol["residual_rtol"])
        ops.append((f"duhamel p={r['p']:g} dt={r['dt']:g}", bad))
    for r, w in zip(values["torus"], want["torus"]):
        bad = [] if r["status"] == "blown_up" else [f"status {r['status']}"]
        t_ode = torus_ode_blowup(r["p"])
        if abs(r["T_high"] - t_ode) > 0.01 * t_ode:
            bad.append(f"T_high {r['T_high']!r} vs ODE {t_ode!r}")
        bad += _vs("T_high", r["T_high"], w["T_high"], rtol=tol["T_rtol"])
        ops.append((f"torus p={r['p']:g}", bad))
    return ops


_CHECKS = {"sweep_p125": _check_sweep, "odi_p2": _check_odi,
           "linear_checks": _check_linear, "stepper_small": _check_stepper}


def check(workload, values, ref, seed):
    """[(operation, [reasons it failed])] for one repetition's outputs,
    against the gates and the workload's entry of reference.json."""
    ops = _CHECKS[workload](values, ref["values"], ref["tolerance"], seed)
    missing = EXPECTED_OPS[workload] - len(ops)
    return ops + [("missing output row", ["row absent"])] * max(missing, 0)


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------


def _spread(values):
    return f"n={len(values)} min={min(values):.6g} " \
           f"median={statistics.median(values):.6g} max={max(values):.6g}"


def environment() -> dict:
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    return {"nproc": os.cpu_count(),
            "python": sys.version.split()[0],
            "threads": {v: child_env()[v] for v in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                         "MKL_NUM_THREADS")},
            "workers": 1,
            "commit": commit}


def measure(workload, seed, seconds, trace, scratch):
    """Run repetitions; returns (inputs, repetitions, setup_s samples,
    `-X importtime` terms)."""
    inputs = make_inputs(workload, seed)
    setup_sample()  # warm-up: compiles dwlab's bytecode, warms file caches
    start = time.perf_counter()
    reps = []
    while True:
        round_start = time.perf_counter()
        for traced in ((False, True) if trace else (False,)):
            out = os.path.join(scratch, f"rep{len(reps):03d}")
            os.makedirs(out)
            job = {"workload": workload, "inputs": inputs, "out": out,
                   "trace": traced}
            record, stderr = run_child(job)
            reps.append({"traced": traced, "record": record,
                         "stderr": stderr[-4000:]})
        now = time.perf_counter()
        if now + (now - round_start) > start + seconds \
                or now - start > MEASURE_CAP:
            break
    setups = [r["record"]["setup_s"] for r in reps if r["record"]]
    while not trace and len(setups) < SETUP_SAMPLES:
        setups.append(setup_sample()[0])
    importtime = [parse_importtime(setup_sample(importtime=True)[1])
                  for _ in range(IMPORTTIME_SAMPLES if trace else 0)]
    return inputs, reps, setups, importtime


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "dwlab", "cli.py")):
        print(f"error: no dwlab package under {SRC}; run from a source "
              "checkout", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "reference.json")) as fh:
        ref = json.load(fh)[args.workload]

    os.makedirs(RUNS_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="outs-", dir=RUNS_DIR)
    try:
        inputs, reps, setups, importtime = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = failed = 0
    failures = []
    for i, rep in enumerate(reps):
        rec = rep["record"]
        if rec is None or "error" in rec:
            why = (rec["error"] if rec else rep["stderr"]).strip() \
                or "no output"
            attempted += EXPECTED_OPS[args.workload]
            failed += EXPECTED_OPS[args.workload]
            failures.append(f"repetition {i}: {why.splitlines()[-1]}")
            continue
        for name, reasons in check(args.workload, rec["values"], ref,
                                   args.seed):
            attempted += 1
            if reasons:
                failed += 1
                failures.append(f"repetition {i}: {name}: "
                                + "; ".join(reasons))
    good = [rep for rep in reps
            if rep["record"] and "error" not in rep["record"]]
    untraced = [rep["record"] for rep in good if not rep["traced"]]
    traced = [rep["record"] for rep in good if rep["traced"]]
    if not untraced or (args.trace and not traced):
        for line in failures:
            print(f"FAILED {line}", file=sys.stderr)
        print("error: no repetition completed", file=sys.stderr)
        return 1
    digests = sorted({rep["record"]["digest"] for rep in good})
    if len(digests) > 1:
        failures.append(f"outputs differ between repetitions: {digests}")
    correct = failed == 0 and len(digests) == 1

    median = statistics.median
    if args.trace:
        metrics = {name: median([r["layers"][name] for r in traced])
                   for name in traced[0]["layers"]}
        metrics.update({name: median([t[name] for t in importtime])
                        for name in importtime[0]})
        metrics["trace.overhead_frac"] = (
            median([r["wall_s"] for r in traced])
            / median([r["wall_s"] for r in untraced]) - 1.0)
        metrics["error_rate"] = failed / attempted
        units = PER_LAYER_UNITS
    else:
        metrics = {"setup_s": median(setups),
                   "wall_s": median([r["wall_s"] for r in untraced]),
                   "peak_rss_mb": median([r["peak_rss_mb"]
                                          for r in untraced])}
        units = END_TO_END_UNITS
    if set(metrics) != set(units):
        raise RuntimeError(f"metric names drifted: "
                           f"{sorted(set(metrics) ^ set(units))}")

    env = environment()
    env.update(untraced[0]["env"])
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(untraced)} untraced + {len(traced)} traced repetitions")
    print(f"environment: {json.dumps(env, sort_keys=True)}")
    print(f"wall_s per repetition: "
          f"{_spread([r['wall_s'] for r in untraced])}")
    if setups:
        print(f"setup_s samples: {_spread(setups)}")
    print(f"output sha256: {digests[0]}"
          + (" (matches the seed-0 reference)" if args.seed == 0
             and digests[0] == ref["digest"] else ""))
    if args.workload == "sweep_p125":
        print(f"sweep verdict: {untraced[0]['values']['verdict']} (seed-0 "
              f"expected: {ref['values']['verdict']}, criterion 06's "
              f"known red)")
    for line in failures:
        print(f"FAILED {line}")
    for name in units:
        print(f"{name} = {metrics[name]:.6g} {units[name]}")

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": env, "inputs": inputs, "digests": digests,
              "failures": failures, "metrics": metrics,
              "setup_samples": setups, "importtime": importtime,
              "repetitions": reps}
    path = os.path.join(RUNS_DIR, f"{args.workload}-seed{args.seed}"
                                  f"-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": {name: {"value": metrics[name],
                                         "unit": units[name]}
                                  for name in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
