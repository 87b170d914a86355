"""The benchmark traces program functions by name; a rename must fail here."""
import importlib.util
from pathlib import Path

import congestion_sim.cli  # noqa: F401  (the tracer patches every loaded module)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_layer_function_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
