#!/usr/bin/env python3
"""Compare what the `lab` commands write and print between two source trees.

    python3 benchmarks/output_digests.py PARENT_TREE CHANGE_TREE

Each tree is a source checkout (a `git archive` of a commit will do).  For
each tree, every run below goes through a fresh interpreter with that
tree's src/ first on sys.path: the six `lab` commands at their defaults,
and `lab lifespan` on the grids (half_width 48, points 1536) and
(25.6, 1024).  The runs of both trees use the same relative output
directory, so the printed text does not name the tree.  The script
hashes every output file, stdout and the exit code of each run, prints
each difference (with the differing values of a JSON file), and exits 1
when there is any, 0 when the trees agree.  It takes about ten seconds
on two CPUs.
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
                                 "points = 1024\n")}
MAIN = "import sys; sys.path.insert(0, sys.argv[1]); " \
    "from dwlab.cli import main; sys.exit(main(sys.argv[2:]))"


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
    for label in RUNS:
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
    print(f"{len(RUNS)} runs, {n_files} files: "
          f"{'differences above' if lines else 'identical'}")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
