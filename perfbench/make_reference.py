#!/usr/bin/env python3
"""Write perfbench/reference.json from one seed-0 repetition per workload.

    python3 perfbench/make_reference.py

Run it only when a change is meant to move the physics outputs, and state
the change in the commit.  The tolerances below are the referee's: each is
well inside the gate the value feeds, and far above the roundoff a
re-ordered FFT or sum can cause.
"""
import json
import os

from run import HERE, WORKLOADS, run_once

TOLERANCES = {
    # blown_up brackets are <= 1% wide; half of that is a physics change
    "sweep_p125": {"T_rtol": 5e-3, "slope_atol": 5e-3},
    # blow-up times sit on the dt = 1/32 grid: 2e-3 is a few steps at T=110
    "odi_p2": {"blowup_rtol": 2e-3, "slope_atol": 2e-3},
    # check-row errors are roundoff-sized; allow 1e-3 of each row's gate
    "linear_checks": {"error_atol_per_tol": 1e-3, "slope_atol": 1e-6,
                      "predict_rtol": 1e-9},
    # residuals move with dt^4 truncation error, not with roundoff
    "stepper_small": {"residual_rtol": 1e-2, "T_rtol": 1e-3},
}


def main():
    reference = {}
    for workload in WORKLOADS:
        record = run_once(workload, 0, trace=False)
        reference[workload] = {"tolerance": TOLERANCES[workload],
                               "values": record["values"],
                               "digest": record["digest"]}
        print(f"{workload}: wall {record['wall_s']:.3f} s, "
              f"sha256 {record['digest']}")
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
