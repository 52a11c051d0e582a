"""Spans around dwlab's public functions, installed from outside the package.

`install()` replaces each target in its defining module and in every loaded
`dwlab.*` namespace that bound the same object with `from ... import`, so
calls made through either name are recorded.  A target the package no longer
defines is listed as missing, not raised.  Spans stay in memory as
[name, start, end, parent index, op id]; the caller writes them out when the
run ends.
"""
from __future__ import annotations

import collections
import contextlib
import functools
import importlib
import sys
import time


def _accepted_steps(rec, args, result):
    rec.counts["solver.accepted_steps"] += len(result[1].times)


def _convolve_madds(rec, args, result):
    # out[i] = sum_q wk[q] * (4 cubic taps): 4 multiply-adds per (q, i)
    rec.counts["kernels.kernel_convolve.madds"] += 4 * len(args[1]) * int(args[5])


def _march_steps(rec, args, result):
    rec.counts["kernels.odi_march.steps"] += int(result[1])


def _march_input(rec, args, result):
    # OdiConfig is a frozen dataclass, so equal inputs hash equal
    rec.march_inputs.add(args[0])


# (defining module, attribute, hook run on the call's result)
TARGETS = (
    ("dwlab.solver", "solve_lifespan", _accepted_steps),
    ("dwlab.solver", "integrate", None),
    ("dwlab.solver", "duhamel_residual", None),
    ("dwlab.propagators", "linear_pair_matrix", None),
    ("dwlab.propagators", "damped_symbol", None),
    ("dwlab.propagators", "decay_scan", None),
    ("dwlab.propagators", "residual_scan", None),
    ("dwlab.propagators", "apply_S_kernel", None),
    ("dwlab.propagators", "kernel_quadrature", None),
    ("dwlab._kernels", "kernel_convolve", _convolve_madds),
    ("dwlab._kernels", "bessel_i0_kernel", None),
    ("dwlab._kernels", "odi_march", _march_steps),
    ("dwlab.odi", "simulate_odi", _march_input),
    ("dwlab.fitting", "fit_loglog", None),
)


def span_name(module_name: str, attr: str) -> str:
    """`dwlab._kernels.odi_march` -> `kernels.odi_march`."""
    return f"{module_name.rsplit('.', 1)[-1].lstrip('_')}.{attr}"


SPAN_NAMES = tuple(span_name(m, a) for m, a, _ in TARGETS)


class Recorder:
    """In-memory span list plus counters taken at the same boundaries."""

    def __init__(self):
        self.spans = []
        self.counts = collections.Counter()
        self.march_inputs = set()
        self.missing = []
        self._stack = []
        self._op = -1

    def _enter(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self._op])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _exit(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def step(self, name: str):
        """Root span for one benchmark step (a CLI command or API call);
        every span opened inside carries its op id."""
        self._op += 1
        idx = self._enter(name)
        try:
            yield
        finally:
            self._exit(idx)

    def wrap(self, name, fn, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(idx)
            if hook is not None:
                hook(self, args, result)
            return result
        return traced

    def layer_totals(self) -> dict:
        """Per span name: calls, total seconds, self seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls, total, self_s = totals.get(name, (0, 0.0, 0.0))
            totals[name] = (calls + 1, total + (end - start),
                            self_s + (end - start) - child_time[i])
        return totals


def layer_metrics(rec: Recorder) -> dict:
    """The traced per-layer metrics of one workload repetition.

    A layer that did not run reads 0, and so do its per-step ratios.
    """
    totals = rec.layer_totals()

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def secs(name):
        return totals.get(name, (0, 0.0, 0.0))[1]

    accepted = rec.counts["solver.accepted_steps"]
    march_steps = rec.counts["kernels.odi_march.steps"]
    marches = calls("odi.simulate_odi")
    return {
        "solver.solve_lifespan.s": secs("solver.solve_lifespan"),
        "solver.solve_lifespan.self_s":
            totals.get("solver.solve_lifespan", (0, 0.0, 0.0))[2],
        "solver.solve_lifespan.calls": calls("solver.solve_lifespan"),
        "solver.accepted_steps": accepted,
        "solver.us_per_step": (1e6 * secs("solver.solve_lifespan") / accepted
                               if accepted else 0.0),
        "solver.integrate.s": secs("solver.integrate"),
        "solver.duhamel_residual.s": secs("solver.duhamel_residual"),
        "propagators.linear_pair_matrix.calls":
            calls("propagators.linear_pair_matrix"),
        "propagators.linear_pair_matrix.s":
            secs("propagators.linear_pair_matrix"),
        "propagators.damped_symbol.calls": calls("propagators.damped_symbol"),
        "propagators.damped_symbol.s": secs("propagators.damped_symbol"),
        "propagators.decay_scan.s": secs("propagators.decay_scan"),
        "propagators.residual_scan.s": secs("propagators.residual_scan"),
        "propagators.apply_S_kernel.s": secs("propagators.apply_S_kernel"),
        "propagators.kernel_quadrature.s":
            secs("propagators.kernel_quadrature"),
        "kernels.kernel_convolve.s": secs("kernels.kernel_convolve"),
        "kernels.kernel_convolve.calls": calls("kernels.kernel_convolve"),
        "kernels.kernel_convolve.madds":
            rec.counts["kernels.kernel_convolve.madds"],
        "kernels.bessel_i0_kernel.s": secs("kernels.bessel_i0_kernel"),
        "kernels.odi_march.s": secs("kernels.odi_march"),
        "kernels.odi_march.steps": march_steps,
        "kernels.odi_march.ns_per_step": (1e9 * secs("kernels.odi_march")
                                          / march_steps
                                          if march_steps else 0.0),
        "odi.simulate_odi.calls": marches,
        "odi.simulate_odi.s": secs("odi.simulate_odi"),
        # distinct march inputs / marches run: a repeated march is waste
        "odi.march_use_ratio": (len(rec.march_inputs) / marches
                                if marches else 0.0),
        "fitting.fit_loglog.s": secs("fitting.fit_loglog"),
        "trace.missing_names": len(rec.missing),
    }


def install(recorder: Recorder) -> None:
    """Wrap every target in place; missing names go to recorder.missing."""
    for module_name, attr, hook in TARGETS:
        name = span_name(module_name, attr)
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if original is None:
            recorder.missing.append(name)
            continue
        traced = recorder.wrap(name, original, hook)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "dwlab"
                                   or mod_name.startswith("dwlab.")):
                continue
            for key in [k for k, v in vars(mod).items() if v is original]:
                setattr(mod, key, traced)
