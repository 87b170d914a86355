"""Outside-in span tracing of congestion-sim's public layer functions.

The tracer replaces each traced function with a recording wrapper in
every ``congestion_sim`` module namespace that holds it.  Modules bind
each other's functions with ``from .x import y``, so patching only the
defining module would miss calls made from other layers.  Nothing under
``src/`` is edited; ``uninstall`` puts every original binding back.

A span is ``(layer, start, end, parent)`` with ``parent`` the index of
the enclosing span, or -1.  Spans stay in memory until the caller takes
them.  Private helpers are not wrapped, so the self time of a public
function absorbs the private helpers it calls.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

PACKAGE = "congestion_sim"

# layer -> (defining module, public functions reported under that layer)
LAYERS = {
    "solver.step": ("solver", ("step_w_form", "step_u_form")),
    "solver.solve_cyclic_tridiagonal": ("solver", ("solve_cyclic_tridiagonal",)),
    "solver.run_simulation": ("solver", ("run_simulation",)),
    "solver.compute_dt": ("solver", ("compute_dt",)),
    "model.power_law": ("model", ("pressure", "lambda_visc", "pi_prime",
                                  "potential_pi", "enthalpy_H")),
    "model.velocities": ("model", ("velocities",)),
    "grid.ddx_central": ("grid", ("ddx_central",)),
    "grid.integrate": ("grid", ("integrate",)),
    "diagnostics.record": ("diagnostics", ("record",)),
    "diagnostics.summarize_initial_data": ("diagnostics", ("summarize_initial_data",)),
    "diagnostics.psi_test_function": ("diagnostics", ("psi_test_function",)),
    "cli.write_snapshot_csv": ("cli", ("write_snapshot_csv",)),
    "cli.write_summary_json": ("cli", ("write_summary_json",)),
    "sweep.run_sweep": ("sweep", ("run_sweep",)),
    "verify.convergence_study": ("verify", ("convergence_study",)),
    "verify.dense_step_oracle": ("verify", ("dense_step_oracle",)),
    "initial_data.make_initial_data": ("initial_data", ("make_initial_data",)),
    "config.load_run_config": ("config", ("load_run_config",)),
}

# power-law evaluations made by these spans, directly or through
# model.velocities, are the ones the time-stepping loop pays per step;
# snapshot records and initial-data summaries are excluded
STEP_LOOP = ("solver.run_simulation", "solver.compute_dt", "solver.step")


def package_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def patch_everywhere(original, replacement) -> list:
    """Rebind ``original`` to ``replacement`` in every package namespace.

    Returns the ``(module, attribute, original)`` triples to restore.
    """
    patched = []
    for mod in package_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                patched.append((mod, attr, original))
    return patched


def restore(patched) -> None:
    for mod, attr, original in reversed(patched):
        setattr(mod, attr, original)


class Tracer:
    """Records spans around every function named in ``LAYERS``.

    Import ``congestion_sim.cli`` before ``install`` so that every
    module, and every binding it made, exists to be patched.
    """

    def __init__(self) -> None:
        # unboxed columns: span tuples would be objects that every garbage
        # collection walks, a cost that grows with the length of the run
        self._layer = array("H")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("l")
        self._stack = [-1]
        self._patched: list = []
        self._names = list(LAYERS)

    def _wrap(self, layer: str, fn):
        layer_id = self._names.index(layer)
        layers, starts, ends, parents = self._layer, self._start, self._end, self._parent
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            layers.append(layer_id)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            starts[index] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        for layer, (module, names) in LAYERS.items():
            mod = importlib.import_module(f"{PACKAGE}.{module}")
            for name in names:
                original = getattr(mod, name)
                self._patched += patch_everywhere(original, self._wrap(layer, original))

    def uninstall(self) -> None:
        restore(self._patched)
        self._patched = []

    def take(self) -> list:
        """Return the recorded ``(layer, start, end, parent)`` spans and reset."""
        names = self._names
        spans = [(names[i], s, e, p) for i, s, e, p
                 in zip(self._layer, self._start, self._end, self._parent)]
        for column in (self._layer, self._start, self._end, self._parent):
            del column[:]
        return spans


def layer_stats(spans) -> dict:
    """Per-layer calls and self time, plus the derived per-step ratios.

    Self time is a span's duration minus the durations of its direct
    children; spans nest strictly, so the children never overlap.
    """
    child = [0.0] * len(spans)
    for layer, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    stats = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
    for i, (layer, start, end, _) in enumerate(spans):
        stats[layer]["calls"] += 1
        stats[layer]["self_s"] += end - start - child[i]

    steps = stats["solver.step"]["calls"]
    solves_in_steps = sum(1 for layer, _, _, parent in spans
                          if layer == "solver.solve_cyclic_tridiagonal"
                          and parent >= 0 and spans[parent][0] == "solver.step")
    evals = sum(1 for i, span in enumerate(spans)
                if span[0] == "model.power_law" and _step_loop_eval(spans, i))
    return {
        "layers": stats,
        "steps": steps,
        "solves_per_step": solves_in_steps / steps if steps else 0.0,
        "evals_per_step": evals / steps if steps else 0.0,
        "self_s_total": sum(s["self_s"] for s in stats.values()),
    }


def _step_loop_eval(spans, index: int) -> bool:
    """True for an outermost power-law span whose caller is the step loop."""
    parent = spans[index][3]
    while parent >= 0 and spans[parent][0] == "model.velocities":
        parent = spans[parent][3]
    return parent >= 0 and spans[parent][0] in STEP_LOOP
