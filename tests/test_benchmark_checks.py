"""The benchmark checks each run's outputs; a writer change that breaks
those checks must fail here, not only in a benchmark run."""
import importlib.util
import sys
from pathlib import Path

import pytest

import congestion_sim.cli as cli

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name,digest", [
    ("simulate_snapshots", "bd4487c207cf33814d494a0300a61754e24823615035b4e46bbf77409beffdb6"),
    ("sweep_n256", "b019ad89f23ee42699b1738eceb5c26bb1f55f228fe7ac1010a8a11ede8c520f"),
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
