"""The benchmark traces program functions by name; a rename must fail here."""
import importlib.util
from pathlib import Path

import congestion_sim.cli as cli
from conftest import shipped_config

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_layer_function_resolves():
    tracer = load_tracing().Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()


def traced_layer_stats(tmp_path, command, case, changes):
    """``layer_stats`` of one traced ``command`` run of the shipped config
    ``case`` at n = 64, with the keys of ``changes`` set."""
    path = shipped_config(tmp_path, case, {"grid.n_cells": "64", **changes},
                          tmp_path / case, name=f"{case}.cfg")
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.main([command, "--config", path]) == 0
    finally:
        tracer.uninstall()
    return tracing.layer_stats(tracer.take())


def test_per_step_ratios_and_velocities_layer_are_measured(tmp_path):
    # the benchmark's harness fails when a per-layer metric reads 0 on every
    # workload; these are the ones that the program's own call graph decides
    simulate = traced_layer_stats(tmp_path, "simulate", "standard_smooth",
                                  {"time.t_end": "0.05"})
    assert simulate["solves_per_step"] == 1.0
    assert simulate["evals_per_step"] > 0.0
    # the sweep's cross rows are the only caller of model.velocities
    sweep = traced_layer_stats(tmp_path, "sweep", "standard_sweep",
                               {"sweep.gammas": "5, 10, 20", "time.t_end": "0.05"})
    assert sweep["layers"]["model.velocities"]["calls"] == 3
    # a w_form rescue adds a solve, so 1.0 says the batch took none
    assert sweep["solves_per_step"] == 1.0
