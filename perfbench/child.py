"""One repetition of one workload, in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/child.py '<job as JSON>'

The job (written by run.py) names the workload, its generated inputs, an
output directory for every `lab` file, and whether to trace.  The first
thing this process does is the timed cold `import dwlab.cli`, the set-up
every `lab` call pays.  wall_s runs from the first call into the workload
to its last verdict.  One JSON record goes to stdout; run.py checks it.
"""
import sys
import time

_T0 = time.perf_counter()
import dwlab.cli  # noqa: E402  timed: the cold import a `lab` call pays

SETUP_S = time.perf_counter() - _T0

import contextlib  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402


def _cli(argv):
    """`lab <argv>` in-process; returns (exit code, stdout text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = dwlab.cli.main(argv)
    return code, buf.getvalue()


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _eps_arg(eps):
    return ",".join(repr(float(e)) for e in eps)


def out_digest(out_dir):
    """sha256 over every output file, keyed by its path in out_dir."""
    h = hashlib.sha256()
    for root, _, files in sorted(os.walk(out_dir)):
        for name in sorted(files):
            path = os.path.join(root, name)
            h.update(os.path.relpath(path, out_dir).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
            h.update(b"\0")
    return h.hexdigest()


# ----------------------------------------------------------------------
# workloads: each runs its timed part and returns (wall_s, values, digest)
# ----------------------------------------------------------------------


def sweep_p125(inputs, out, step):
    t0 = time.perf_counter()
    with step("cli.sweep"):
        code, _ = _cli(["sweep", "--eps-list", _eps_arg(inputs["eps"]),
                        "--workers", "1", "--out", out])
    wall = time.perf_counter() - t0
    rows = _read_csv(os.path.join(out, "sweep.csv"))
    fit = _read_json(os.path.join(out, "fit.json"))
    values = {"exit_code": code, "verdict": fit["verdict"],
              "slope": fit["slope"],
              "runs": [{"eps": float(r["eps"]), "status": r["status"],
                        "T_low": float(r["T_low"]),
                        "T_high": float(r["T_high"])} for r in rows]}
    return wall, values, out_digest(out)


def odi_p2(inputs, out, step):
    t0 = time.perf_counter()
    with step("cli.odi"):
        code, _ = _cli(["odi", "--eps-list", _eps_arg(inputs["eps"]),
                        "--out", out])
    wall = time.perf_counter() - t0
    rows = _read_csv(os.path.join(out, "odi.csv"))
    fit = _read_json(os.path.join(out, "odi_fit.json"))
    values = {"exit_code": code, "slope": fit["slope"], "r2": fit["r2"],
              "rows": [{"eps": float(r["eps"]),
                        "blowup_time": float(r["blowup_time"])}
                       for r in rows]}
    return wall, values, out_digest(out)


def linear_checks(inputs, out, step):
    t0 = time.perf_counter()
    codes = {}
    with step("cli.verify-propagators"):
        codes["verify"], _ = _cli(["verify-propagators", "--out", out])
    with step("cli.decay"):
        codes["decay"], _ = _cli(["decay", "--out", out])
    with step("cli.predict"):
        codes["predict"], _ = _cli(["predict", "--eps-list",
                                    _eps_arg(inputs["predict_eps"]),
                                    "--out", out])
    wall = time.perf_counter() - t0
    verify = _read_json(os.path.join(out, "verify.json"))
    decay = _read_json(os.path.join(out, "decay.json"))
    predict = _read_json(os.path.join(out, "predict.json"))
    values = {
        "exit_codes": codes,
        "verify": [{"check": r["check"], "t": r["t"], "error": r["error"],
                    "tol": r["tol"], "status": r["status"]}
                   for r in verify["rows"]],
        "decay": [{"family": r["family"], "slope": r["slope"],
                   "target": r["target"], "accepted": r["accepted"],
                   "residual_slope": r["residual_slope"]}
                  for r in decay["rows"]],
        "decay_tol": decay["decay_tol"],
        "predict": [{"eps": r["eps"], "class": r["class"],
                     "T_pred": r["T_pred"], "T_threshold": r["T_threshold"]}
                    for r in predict["rows"]],
    }
    return wall, values, out_digest(out)


def stepper_small(inputs, out, step):
    import numpy as np
    from dwlab.grid import GridFunction, GridSpec
    from dwlab.solver import (SolverControls, duhamel_residual, integrate,
                              solve_lifespan)
    from dwlab.special import DataFamily

    t0 = time.perf_counter()
    residuals = []
    spec = GridSpec(32.0, 1024)
    u = GridFunction(spec, inputs["amplitude"]
                     * np.exp(-0.25 * spec.nodes ** 2))
    v = GridFunction(spec, np.zeros(spec.points))
    for p, dt in inputs["duhamel_cases"]:
        with step("api.integrate+duhamel_residual"):
            traj = integrate(u, v, p=p, t_final=4.0, dt=dt)
            residuals.append({"p": p, "dt": dt,
                              "residual": duhamel_residual(traj, p)})
    torus = GridSpec(math.pi, 64)
    one = GridFunction(torus, np.ones(torus.points))
    zero = GridFunction(torus, np.zeros(torus.points))
    runs = []
    for p in inputs["torus_p"]:
        with step("api.solve_lifespan"):
            fam = DataFamily(one, zero, "M0_nonzero", "torus_constant", 1.0)
            est, _ = solve_lifespan(fam, p, horizon=20.0,
                                    ctrl=SolverControls(check_boundary=False))
        runs.append({"p": p, "status": est.status, "T_low": est.T_low,
                     "T_high": est.T_high})
    wall = time.perf_counter() - t0
    values = {"residuals": residuals, "torus": runs}
    # no output files: the digest covers the returned numbers, repr-exact
    digest = hashlib.sha256(json.dumps(values, sort_keys=True).encode())
    return wall, values, digest.hexdigest()


WORKLOADS = {f.__name__: f for f in (sweep_p125, odi_p2, linear_checks,
                                      stepper_small)}


def main():
    job = json.loads(sys.argv[1])
    record = {"setup_s": SETUP_S, "dwlab_file": dwlab.cli.__file__}
    if job["workload"] is None:  # a set-up sample only
        print(json.dumps(record))
        return
    recorder = None
    step = contextlib.nullcontext
    if job["trace"]:
        import tracing
        recorder = tracing.Recorder()
        tracing.install(recorder)
        step = recorder.step
    try:
        wall, values, digest = WORKLOADS[job["workload"]](
            job["inputs"], job["out"], step)
        record.update(wall_s=wall, values=values, digest=digest)
    except Exception:  # the parent counts this repetition's operations failed
        record["error"] = traceback.format_exc()
    record["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if recorder is not None:
        record["layers"] = tracing.layer_metrics(recorder)
        record["spans"] = recorder.spans
        record["missing"] = recorder.missing
    import numpy
    import scipy
    record["env"] = {"numpy": numpy.__version__, "scipy": scipy.__version__,
                     "have_numba": bool(dwlab._kernels.HAVE_NUMBA)}
    print(json.dumps(record))


if __name__ == "__main__":
    main()
