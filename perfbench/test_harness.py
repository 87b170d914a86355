"""Self-tests of the benchmark harness; not part of the project's test suite.

    python3 -m pytest -q perfbench/test_harness.py

They run every workload once, traced, for about a minute in all.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from tracing import LAYERS, Tracer, package_modules
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TIMEOUT_S = 300


def run_bench(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def load_record(workload: str, trace: int) -> dict:
    path = ROOT / ".perfbench_runs" / f"{workload}-seed0-trace{trace}.json"
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def traced():
    """The result line and the record of one traced run per workload."""
    out = {}
    for name in WORKLOADS:
        proc = run_bench(name, 1)
        assert proc.returncode == 0, proc.stderr
        out[name] = (json.loads(proc.stdout.splitlines()[-1]), load_record(name, 1))
    return out


@pytest.fixture(scope="module")
def spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def test_tracer_rebinds_every_namespace():
    sys.path.insert(0, str(SRC))
    import congestion_sim.cli  # noqa: F401  (loads every module)
    from congestion_sim import model

    def bindings(fn):
        return [(mod.__name__, attr) for mod in package_modules()
                for attr, value in vars(mod).items() if value is fn]

    originals = [getattr(sys.modules[f"congestion_sim.{module}"], name)
                 for module, names in LAYERS.values() for name in names]
    before = {fn: bindings(fn) for fn in originals}
    # bindings made by "from .model import ..." in other layers
    assert ("congestion_sim.solver", "velocities") in before[model.velocities]
    assert ("congestion_sim.diagnostics", "potential_pi") in before[model.potential_pi]

    tracer = Tracer()
    tracer.install()
    try:
        for fn, names in before.items():
            assert bindings(fn) == []
            for mod, attr in names:
                assert getattr(sys.modules[mod], attr).__wrapped__ is fn
    finally:
        tracer.uninstall()
    assert {fn: bindings(fn) for fn in originals} == before


def test_traced_output_matches_untraced(traced):
    for name, (result, record) in traced.items():
        assert result["correct"] and result["failed"] == 0, (name, record["failures"])
        # untraced and traced runs all produced the same digest
        assert len(record["digests"]) == 1, (name, record["digests"])
        assert len(record["traced_wall_s"]) >= 1 and len(record["untraced_wall_s"]) >= 1


def test_every_layer_is_called_somewhere(traced, spec):
    for layer in LAYERS:
        calls = sum(result["metrics"][f"{layer}.calls"]["value"]
                    for result, _ in traced.values())
        assert calls > 0, f"no workload calls {layer}"
    for metric in spec["per_layer"]:
        values = [result["metrics"][metric["name"]]["value"] for result, _ in traced.values()]
        if metric["name"] != "sweep.rows_failed":
            assert any(v != 0 for v in values), f"{metric['name']} is 0 on every workload"


def test_self_times_within_traced_wall(traced):
    for name, (_, record) in traced.items():
        for total, wall in zip(record["traced_self_s_total"], record["traced_wall_s"]):
            assert 0.0 < total <= wall, (name, total, wall)


def test_end_to_end_result_line(spec):
    proc = run_bench("verify_all", 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("verify_all", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_seed_zero_is_the_shipped_case(tmp_path):
    sys.path.insert(0, str(SRC))
    from congestion_sim.config import parse_config_file

    workload = Workload("probe", "simulate", "standard_smooth.cfg")
    argv = workload.prepare(str(ROOT), str(tmp_path), 0)
    got = parse_config_file(argv[-1])
    want = parse_config_file(str(ROOT / "configs" / "standard_smooth.cfg"))
    assert got.pop("output.dir") == str(tmp_path / "out")
    assert got.pop("init.phase") == 0.0
    want.pop("output.dir")
    assert got == want
    other = parse_config_file(workload.prepare(str(ROOT), str(tmp_path), 7)[-1])
    assert 0.0 < other["init.phase"] < 6.3
