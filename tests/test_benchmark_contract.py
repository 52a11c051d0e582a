"""The names the benchmark in perfbench/ takes from the package exist.

perfbench's tracer counts a missing target in trace.missing_names instead of
failing, and a missing name in its child process fails every repetition of a
workload.  These checks only read perfbench/: they load tracing.py by path
for its target table and parse child.py.
"""
import ast
import importlib
import importlib.util
import pathlib

import dwlab

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _child_names():
    """Dotted dwlab names child.py uses: `from dwlab.m import a` gives
    dwlab.m.a, and an attribute chain on `dwlab` gives that chain."""
    tree = ast.parse((PERFBENCH / "child.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module \
                and node.module.split(".")[0] == "dwlab":
            names.update(f"{node.module}.{a.name}" for a in node.names)
        elif isinstance(node, ast.Attribute):
            chain = []
            while isinstance(node, ast.Attribute):
                chain.append(node.attr)
                node = node.value
            if isinstance(node, ast.Name) and node.id == "dwlab":
                names.add(".".join(["dwlab"] + chain[::-1]))
    # dwlab.cli.main also walks its prefix dwlab.cli; keep the full chains
    return {n for n in names if not any(m.startswith(n + ".") for m in names)}


def _resolve(dotted):
    obj = dwlab
    for attr in dotted.split(".")[1:]:
        obj = getattr(obj, attr)
    return obj


def test_tracing_targets_resolve():
    tracing = _load_tracing()
    assert tracing.TARGETS
    for module_name, attr, _ in tracing.TARGETS:
        module = importlib.import_module(module_name)
        assert getattr(module, attr, None) is not None, f"{module_name}.{attr}"


def test_child_names_exist():
    names = _child_names()
    assert {"dwlab.solver.integrate", "dwlab.solver.duhamel_residual",
            "dwlab.solver.solve_lifespan", "dwlab.solver.SolverControls",
            "dwlab.special.DataFamily", "dwlab.grid.GridFunction",
            "dwlab.grid.GridSpec", "dwlab._kernels.HAVE_NUMBA",
            "dwlab.cli.main"} <= names
    for name in sorted(names):
        importlib.import_module(name.rsplit(".", 1)[0])
        _resolve(name)
