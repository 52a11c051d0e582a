#!/usr/bin/env python3
"""Fast self-check of the benchmark's names and spans (about a minute).

    python3 perfbench/selfcheck.py

1. The workload and metric names (and units) in run.py equal those
   declared in BENCHMARK.json, and run.py prints exactly the declared
   metrics in both modes.
2. One traced seed-0 repetition per workload fires exactly the spans the
   interaction table in NOTES.md says: every layer that runs there, and
   none of those that should not move there.  No wrapped name is missing.

A renamed metric, layer or workload then fails here instead of reading 0.
"""
import json
import os
import subprocess
import sys

from run import (END_TO_END_UNITS, HERE, PER_LAYER_UNITS, ROOT, WORKLOADS,
                 run_once)
from tracing import SPAN_NAMES

_SOLVER = {"solver.solve_lifespan", "propagators.linear_pair_matrix"}
EXPECTED_SPANS = {
    "sweep_p125": _SOLVER | {"fitting.fit_loglog"},
    "odi_p2": {"odi.simulate_odi", "kernels.odi_march", "fitting.fit_loglog"},
    "linear_checks": {
        "propagators.linear_pair_matrix", "propagators.damped_symbol",
        "propagators.decay_scan", "propagators.residual_scan",
        "propagators.apply_S_kernel", "propagators.kernel_quadrature",
        "kernels.kernel_convolve", "kernels.bessel_i0_kernel",
        "fitting.fit_loglog"},
    "stepper_small": _SOLVER | {"solver.integrate", "solver.duhamel_residual",
                                "propagators.damped_symbol"},
}


def check_declared(errors):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    declared = [w["name"] for w in bench["workloads"]]
    if declared != list(WORKLOADS):
        errors.append(f"workloads: declared {declared}, run.py {WORKLOADS}")
    for key, units in (("end_to_end", END_TO_END_UNITS),
                       ("per_layer", PER_LAYER_UNITS)):
        got = {m["name"]: m["unit"] for m in bench[key]}
        if got != units:
            errors.append(f"{key}: declared and run.py differ on "
                          f"{sorted(set(got.items()) ^ set(units.items()))}")
    return bench


def check_printed(bench, errors):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               "linear_checks", "--seed", "0", "--seconds", "1",
               "--trace", str(trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            errors.append(f"run.py --trace {trace} exited {proc.returncode}:"
                          f"\n{proc.stderr}")
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        declared = {m["name"]: m["unit"] for m in bench[key]}
        if printed != declared:
            errors.append(f"--trace {trace} printed {sorted(printed)}, "
                          f"declared {sorted(declared)}")
        if not result["correct"]:
            errors.append(f"--trace {trace}: outputs not correct")


def check_spans(errors):
    for workload in WORKLOADS:
        try:
            record = run_once(workload, 0, trace=True)
        except RuntimeError as exc:
            errors.append(str(exc))
            continue
        fired = {s[0] for s in record["spans"]} & set(SPAN_NAMES)
        want = EXPECTED_SPANS[workload]
        if record["missing"]:
            errors.append(f"{workload}: wrapped names missing from the "
                          f"package: {record['missing']}")
        if fired != want:
            errors.append(f"{workload}: spans not fired {sorted(want - fired)}"
                          f", fired unexpectedly {sorted(fired - want)}")
        print(f"{workload}: {len(record['spans'])} spans, layers "
              f"{sorted(fired)}")


def main():
    errors = []
    bench = check_declared(errors)
    check_printed(bench, errors)
    check_spans(errors)
    for e in errors:
        print(f"FAIL {e}")
    print("selfcheck: " + ("FAIL" if errors else "ok"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
