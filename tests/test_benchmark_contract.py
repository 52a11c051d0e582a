"""The names the benchmark in perfbench/ takes from the package exist.

perfbench's tracer counts a missing target in trace.missing_names instead of
failing, and a missing name in its child process fails every repetition of a
workload.  So does an error in one of the tracer's hooks, which read the
arguments and results of the traced calls.  These checks only read
perfbench/: they load tracing.py by path for its target table and hooks and
parse child.py.  The hook checks run each hook on a real call of its
target, caught by a spy at the name the package calls it through.
"""
import ast
import importlib
import importlib.util
import inspect
import math
import pathlib

import numpy as np

import dwlab
import dwlab._kernels
import dwlab.odi
import dwlab.solver
from dwlab.grid import GridFunction, GridSpec
from dwlab.odi import OdiConfig, odi_scaling_fit
from dwlab.propagators import apply_S_kernel
from dwlab.solver import SolverControls, solve_lifespan
from dwlab.special import DataFamily

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


def _hook(tracing, module_name, attr):
    return {(m, a): h for m, a, h in tracing.TARGETS}[(module_name, attr)]


def _spy(monkeypatch, namespace, attr):
    """Replace namespace.attr with a wrapper that records (args, result)."""
    calls = []
    fn = getattr(namespace, attr)

    def spy(*args, **kwargs):
        result = fn(*args, **kwargs)
        calls.append((args, kwargs, result))
        return result

    monkeypatch.setattr(namespace, attr, spy)
    return calls


def test_solve_lifespan_hook_counts_accepted_steps():
    # the p = 2 torus run of stepper_small, constant data on [-pi, pi)
    tracing = _load_tracing()
    torus = GridSpec(math.pi, 64)
    fam = DataFamily(GridFunction(torus, np.ones(64)),
                     GridFunction(torus, np.zeros(64)),
                     "M0_nonzero", "torus_constant", 1.0)
    args = (fam, 2.0)
    result = solve_lifespan(*args, horizon=20.0,
                            ctrl=SolverControls(check_boundary=False))
    assert len(result) == 2
    est, trace = result
    s = est.stats
    accepted = (s.attempts - s.rejected_tol - s.rejected_growth
                - s.rejected_nonfinite - s.regrids)
    assert accepted > 0
    assert len(trace.times) == accepted
    hook = _hook(tracing, "dwlab.solver", "solve_lifespan")
    rec = tracing.Recorder()
    hook(rec, args, result)
    assert rec.counts["solver.accepted_steps"] == accepted
    # the same family at amplitude 0 survives without a step, and the
    # hook counts none
    zero = DataFamily(fam.f0, fam.f1, "M0_nonzero", "torus_constant", 0.0)
    stepless = solve_lifespan(zero, 2.0, horizon=20.0,
                              ctrl=SolverControls(check_boundary=False))
    assert stepless[0].stats.attempts == 0
    rec = tracing.Recorder()
    hook(rec, (zero, 2.0), stepless)
    assert rec.counts["solver.accepted_steps"] == 0


def test_odi_hooks_read_march_length_and_config(monkeypatch):
    # simulate_odi is called positionally with a hashable OdiConfig from
    # odi_scaling_fit's loop, and odi_march's second result is len(v)
    tracing = _load_tracing()
    marches = _spy(monkeypatch, dwlab.odi, "simulate_odi")
    kernels = _spy(monkeypatch, dwlab.odi, "odi_march")
    cfg = OdiConfig(p=2.0, beta=0.0, horizon=400.0)
    times, fit = odi_scaling_fit(cfg, [1e-2, 7e-3, 5e-3])
    assert fit is not None
    assert len(marches) == len(kernels) == 3
    rec = tracing.Recorder()
    for args, kwargs, result in marches:
        assert kwargs == {} and isinstance(args[0], OdiConfig)
        _hook(tracing, "dwlab.odi", "simulate_odi")(rec, args, result)
    assert rec.march_inputs == {args[0] for args, _, _ in marches}
    steps = 0
    for args, kwargs, result in kernels:
        v, n, blow = result
        assert n == len(v) and blow == n - 1
        steps += n
        _hook(tracing, "dwlab._kernels", "odi_march")(rec, args, result)
    assert rec.counts["kernels.odi_march.steps"] == steps


def test_kernel_convolve_hook_reads_positional_arguments(monkeypatch):
    tracing = _load_tracing()
    assert list(inspect.signature(dwlab._kernels.kernel_convolve).parameters) \
        == ["f", "wk", "mq", "lag", "R", "n_out"]
    calls = _spy(monkeypatch, dwlab._kernels, "kernel_convolve")
    spec = GridSpec(16.0, 128)
    f = GridFunction(spec, np.exp(-spec.nodes ** 2))
    apply_S_kernel(1.0, f)
    assert len(calls) == 1
    args, kwargs, result = calls[0]
    f, wk, mq, lag, R, n_out = args
    assert kwargs == {}
    assert len(wk) == len(mq) == len(lag)
    assert n_out == spec.points and len(result) == n_out
    assert len(f) == n_out
    rec = tracing.Recorder()
    _hook(tracing, "dwlab._kernels", "kernel_convolve")(rec, args, result)
    assert rec.counts["kernels.kernel_convolve.madds"] == 4 * len(wk) * n_out
