"""The benchmark checks each run's outputs; a writer change that breaks
those checks must fail here, not only in a benchmark run."""
import importlib.util
import sys
from pathlib import Path

import pytest

import congestion_sim.cli as cli

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name,digest", [
    ("simulate_snapshots", "e3cb116aa86fb146a8c84b350a3376b0ecd50a4a29ea6284bbf1bca8748bf015"),
    ("sweep_n256", "92c2b479305baaaa1d87b6fc2c1d46cd27caa4b63d356296e08e2995b89b8b6f"),
], ids=["simulate_snapshots", "sweep_n256"])
def test_benchmark_output_checks_pass(tmp_path, monkeypatch, capsys, name, digest):
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    # the module's dataclasses look the module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    workload = workloads.WORKLOADS[name]
    argv = workload.prepare(str(ROOT), str(tmp_path), 0)
    outcome = workload.check(cli.main(argv), capsys.readouterr().out, str(tmp_path))
    assert outcome.ok, outcome.reason
    assert outcome.digest == digest
