#!/usr/bin/env python3
"""Compare what the `lab` commands write and print between two source trees.

    python3 benchmarks/output_digests.py PARENT_TREE CHANGE_TREE

Each tree is a source checkout (a `git archive` of a commit will do).  For
each tree, every run below goes through a fresh interpreter with that
tree's src/ first on sys.path: the six `lab` commands at their defaults;
`lab lifespan` on the grids (half_width 48, points 1536) and
(25.6, 1024); `lab sweep` at p = 1.5 with eps 0.5 0.3 0.2 (the borderline
Lambert fit), and at p = 3 with M0_nonzero data, eps 0.9 0.8 0.7 and
horizon 30 (a law with no exponent: unconverged, exit 2);
`lab predict` at p = 1.25, 2 and 3, which with its default p = 1.5 reach
every regime and exponent of predict_lifespan; `lab decay` at p = 2.5,
whose scans take each norm through an irfft and lp_norm's general power
where the default p = 2 takes Parseval's sum; and `lab odi` at beta =
0.5, which marches the beta != 0 branches of odi_march until an eps
survives to the horizon (censored: unconverged, exit 2).  The runs of
both trees use the same relative output directory, so the printed text
does not name the tree.  One more interpreter per tree runs the API path of
perfbench's `stepper_small`: `integrate` and `duhamel_residual` on a
Gaussian of amplitude 0.3 (L 32, N 1024, t 4) at (p, dt) = (2, 0.16),
(2, 0.04), (1.5, 0.04), the same on a long trajectory (amplitude
0.05, L 64, N 2048, p = 3, dt 0.05 to t 25: 501 states, so the oracle's
spline and tau quadrature cross many knots and node blocks), and
`solve_lifespan` on constant data on the 64-point torus at p = 2 and 2.5,
guard off, horizon 20.  It also evaluates the oracle's `_cubic_spline`
through 64 seeded rows on 40 seeded nonuniform knots, at the knots,
between them and outside both ends: a one-ulp change inside the spline
need not move a residual's repr, but it moves these bytes.  It prints,
as the JSON file `api.json`, the sha256 of the bytes of each
trajectory's u, v and times and of the spline's values, and the repr of
every other number returned.  The script hashes every output
file, stdout and the exit code of each run, prints each difference (with
the differing values of a JSON file), and exits 1 when there is any, 0
when the trees agree.  Its last line counts the runs and the files
compared, "16 runs, 50 files" on one tree.  It takes about twelve
seconds on two CPUs.
"""
from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile

COMMANDS = ("decay", "lifespan", "sweep", "odi", "predict",
            "verify-propagators")
# label -> (command, INI text or None)
RUNS = {**{command: (command, None) for command in COMMANDS},
        "lifespan L48 N1536": ("lifespan",
                               "[lifespan]\nhalf_width = 48\npoints = 1536\n"),
        "lifespan L25.6 N1024": ("lifespan",
                                 "[lifespan]\nhalf_width = 25.6\n"
                                 "points = 1024\n"),
        "sweep p1.5": ("sweep", "[sweep]\np = 1.5\neps_list = 0.5 0.3 0.2\n"),
        "sweep p3 M0_nonzero": ("sweep",
                                "[sweep]\np = 3\nclass = M0_nonzero\n"
                                "eps_list = 0.9 0.8 0.7\nhorizon = 30\n"),
        **{f"predict p{p}": ("predict", f"[predict]\np = {p}\n")
           for p in ("1.25", "2", "3")},
        "decay p2.5": ("decay", "[decay]\np = 2.5\n"),
        "odi beta0.5": ("odi", "[odi]\nbeta = 0.5\n")}
MAIN = "import sys; sys.path.insert(0, sys.argv[1]); " \
    "from dwlab.cli import main; sys.exit(main(sys.argv[2:]))"
API_LABEL = "api stepper_small"
API = """
import hashlib, json, math, sys
sys.path.insert(0, sys.argv[1])
import numpy as np
from dwlab.grid import GridFunction, GridSpec
from dwlab.solver import (SolverControls, _cubic_spline, duhamel_residual,
                          integrate, solve_lifespan)
from dwlab.special import DataFamily

out = {}


def sha256(a):
    return hashlib.sha256(a.tobytes()).hexdigest()


def oracle_case(label, half_width, points, amplitude, p, dt, t_final):
    spec = GridSpec(half_width, points)
    u = GridFunction(spec, amplitude * np.exp(-0.25 * spec.nodes ** 2))
    v = GridFunction(spec, np.zeros(spec.points))
    traj = integrate(u, v, p=p, t_final=t_final, dt=dt)
    out[label] = {
        "u_sha256": sha256(traj.u),
        "v_sha256": sha256(traj.v),
        "times_sha256": sha256(traj.times),
        "duhamel_residual": repr(duhamel_residual(traj, p))}


for p, dt in ((2.0, 0.16), (2.0, 0.04), (1.5, 0.04)):
    oracle_case(f"integrate p={p} dt={dt}", 32.0, 1024, 0.3, p, dt, 4.0)
oracle_case("integrate long L64 N2048 p=3.0 dt=0.05", 64.0, 2048, 0.05,
            3.0, 0.05, 25.0)
torus = GridSpec(math.pi, 64)
one = GridFunction(torus, np.ones(torus.points))
zero = GridFunction(torus, np.zeros(torus.points))
for p in (2.0, 2.5):
    fam = DataFamily(one, zero, "M0_nonzero", "torus_constant", 1.0)
    est, trace = solve_lifespan(fam, p, horizon=20.0,
                                ctrl=SolverControls(check_boundary=False))
    out[f"solve_lifespan torus p={p}"] = {
        "estimate": repr(est),
        "times_sha256": sha256(trace.times)}
rng = np.random.default_rng(5)
x = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 0.4, 39))])
U = (np.sin(np.outer(x, np.linspace(0.5, 3.0, 64)))
     + 0.1 * rng.standard_normal((40, 64)))
mid = x[:-1] + rng.uniform(0.0, 1.0, 39) * np.diff(x)
tq = np.concatenate([x, mid, [x[0] - 0.3, x[-1] + 0.3]])
out["cubic_spline 40 nonuniform knots x 64"] = {
    "sha256": sha256(_cubic_spline(x, U)(tq))}
print(json.dumps(out, indent=1, sort_keys=True))
"""


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_tree(tree: str, workdir: str) -> dict:
    """label -> {"exit": code, "stdout": sha, "files": {name: bytes}}."""
    src = os.path.join(os.path.abspath(tree), "src")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    results = {}
    for i, (label, (command, ini)) in enumerate(RUNS.items()):
        cwd = os.path.join(workdir, f"run{i}")
        os.makedirs(cwd)
        argv = [command, "--out", "out"]
        if ini is not None:
            with open(os.path.join(cwd, "lab.ini"), "w") as fh:
                fh.write(ini)
            argv += ["--config", "lab.ini"]
        proc = subprocess.run([sys.executable, "-c", MAIN, src, *argv],
                              cwd=cwd, env=env, capture_output=True)
        out = os.path.join(cwd, "out")
        files = {}
        for name in sorted(os.listdir(out)) if os.path.isdir(out) else []:
            with open(os.path.join(out, name), "rb") as fh:
                files[name] = fh.read()
        results[label] = {"exit": proc.returncode,
                          "stdout": _sha(proc.stdout), "files": files}
    # a failing API run is an error of the tree, not a difference
    proc = subprocess.run([sys.executable, "-c", API, src], cwd=workdir,
                          env=env, stdout=subprocess.PIPE, check=True)
    results[API_LABEL] = {"exit": proc.returncode, "stdout": _sha(b""),
                          "files": {"api.json": proc.stdout}}
    return results


def _json_leaves(node, path=""):
    if isinstance(node, dict):
        for key in sorted(node):
            yield from _json_leaves(node[key], f"{path}.{key}")
    elif isinstance(node, list):
        for i, item in enumerate(node):
            yield from _json_leaves(item, f"{path}[{i}]")
    else:
        yield path, node


def json_differences(a: bytes, b: bytes):
    """The (path, a value, b value) leaves that differ between two JSON
    documents; a path held by one side only shows None on the other."""
    try:
        left = dict(_json_leaves(json.loads(a)))
        right = dict(_json_leaves(json.loads(b)))
    except ValueError:
        return []
    return [(path, left.get(path), right.get(path))
            for path in sorted(left.keys() | right.keys())
            if left.get(path) != right.get(path)]


def compare(parent: dict, change: dict) -> list:
    """One line per difference between two run_tree results."""
    lines = []
    for label in (*RUNS, API_LABEL):
        a, b = parent[label], change[label]
        for key in ("exit", "stdout"):
            if a[key] != b[key]:
                lines.append(f"{label}: {key} {a[key]} != {b[key]}")
        for name in sorted(a["files"].keys() | b["files"].keys()):
            fa, fb = a["files"].get(name), b["files"].get(name)
            if fa is None or fb is None:
                side = "parent" if fb is None else "change"
                lines.append(f"{label}: {name} only in the {side} tree")
            elif fa != fb:
                lines.append(f"{label}: {name} sha256 {_sha(fa)[:12]} != "
                             f"{_sha(fb)[:12]}")
                if name.endswith(".json"):
                    lines += [f"    {path}: {va!r} != {vb!r}"
                              for path, va, vb in json_differences(fa, fb)]
    return lines


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: output_digests.py PARENT_TREE CHANGE_TREE",
              file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        results = []
        for tag, tree in zip(("parent", "change"), args):
            if not os.path.isdir(os.path.join(tree, "src", "dwlab")):
                print(f"error: no src/dwlab under {tree!r}", file=sys.stderr)
                return 2
            os.makedirs(os.path.join(tmp, tag))
            results.append(run_tree(tree, os.path.join(tmp, tag)))
    lines = compare(*results)
    for line in lines:
        print(line)
    n_files = sum(len(r["files"]) for r in results[0].values())
    print(f"{len(RUNS) + 1} runs, {n_files} files: "
          f"{'differences above' if lines else 'identical'}")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
