#!/usr/bin/env python3
"""Record one point of the lab's perf trajectory as benchmarks/BENCH_<label>.json.

    python3 benchmarks/bench_record.py --label LABEL [--seconds 20] [--seed 0]

Run from the root of a source checkout.  Every workload that
BENCHMARK.json declares goes through perfbench/run.py twice, untraced and
then traced.  The record holds the machine, the numba flag, per workload
the end-to-end medians (setup_s, wall_s, peak_rss_mb) with the wall_s
samples, the output sha256 and the benchmark's correctness verdict, and
the stepper's traced solver.accepted_steps and solver.us_per_step, and
the traced import layers setup.numpy_s and setup.dwlab_self_s.  It also
holds the git commit, whether the tracked files differ from it, and a
sha256 over src/dwlab/*.py that names the measured source.  The machine
entry states the bytecode state: PYTHONDONTWRITEBYTECODE as the children
inherit it, and whether src/dwlab/__pycache__ holds .pyc files: without
cached bytecode every child compiles the package, which raises setup_s
and peak_rss_mb.

Wall times drift with the host; compare records made on one machine,
and claim a gain only from alternated perfbench runs.
"""
from __future__ import annotations

import argparse
import datetime
import glob
import hashlib
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS_DIR = os.path.join(ROOT, ".perfbench_runs")
END_TO_END = ("setup_s", "wall_s", "peak_rss_mb")
TRACED = ("solver.accepted_steps", "solver.us_per_step", "setup.numpy_s",
          "setup.dwlab_self_s")


def _git(*args) -> str:
    proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True)
    return proc.stdout.strip() if proc.returncode == 0 else ""


def source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "dwlab", "*.py"))):
        h.update(os.path.basename(path).encode() + b"\0")
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_workload(workload: str, seed: int, seconds: float, trace: int):
    """perfbench/run.py's JSON result line and its full record."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    path = os.path.join(RUNS_DIR, f"{workload}-seed{seed}-trace{trace}.json")
    with open(path) as fh:
        return json.loads(lines[-1]), json.load(fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True,
                    help="names the output file BENCH_<label>.json")
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="perfbench --seconds per workload and mode")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        workloads = [w["name"] for w in json.load(fh)["workloads"]]
    out = {"label": args.label,
           "recorded_utc": datetime.datetime.now(datetime.timezone.utc)
           .strftime("%Y-%m-%dT%H:%M:%SZ"),
           "commit": _git("rev-parse", "HEAD") or None,
           "tracked_files_modified":
               bool(_git("status", "--porcelain", "--untracked-files=no")),
           "src_sha256": source_sha256(),
           "seed": args.seed, "seconds": args.seconds,
           "machine": {"platform": platform.platform(),
                       "cpu": cpu_model(), "nproc": os.cpu_count(),
                       "python": platform.python_version(),
                       # the children inherit this process's environment
                       "PYTHONDONTWRITEBYTECODE":
                           os.environ.get("PYTHONDONTWRITEBYTECODE"),
                       "dwlab_pyc_cached": bool(glob.glob(os.path.join(
                           ROOT, "src", "dwlab", "__pycache__", "*.pyc")))},
           "workloads": {}}
    for workload in workloads:
        plain, record = run_workload(workload, args.seed, args.seconds, 0)
        traced, _ = run_workload(workload, args.seed, args.seconds, 1)
        env = record["environment"]
        out.setdefault("numpy", env.get("numpy"))
        out.setdefault("have_numba", env.get("have_numba"))
        entry = {name: plain["metrics"][name]["value"] for name in END_TO_END}
        entry["wall_s_samples"] = [
            rep["record"]["wall_s"] for rep in record["repetitions"]
            if rep["record"] and "wall_s" in rep["record"]]
        entry.update({name: traced["metrics"][name]["value"]
                      for name in TRACED})
        entry["output_sha256"] = record["digests"][0] \
            if len(record["digests"]) == 1 else record["digests"]
        entry["correct"] = plain["correct"] and traced["correct"]
        entry["failed_ops"] = plain["failed"] + traced["failed"]
        out["workloads"][workload] = entry
        print(f"{workload}: wall_s {entry['wall_s']:.4g} s, setup_s "
              f"{entry['setup_s']:.4g} s, peak_rss_mb "
              f"{entry['peak_rss_mb']:.4g}, accepted steps "
              f"{entry['solver.accepted_steps']:g}", flush=True)
    path = os.path.join(HERE, f"BENCH_{args.label}.json")
    with open(path, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.relpath(path, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
