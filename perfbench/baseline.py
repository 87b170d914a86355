#!/usr/bin/env python3
"""Measure every workload twice over seeds 0-9 and record the baseline.

    python3 perfbench/baseline.py

This runs ``run.py --trace 0`` for every workload of BENCHMARK.json at
seeds 0-9, then the same again as a second set, then ``run.py --trace 1``
once per workload at seed 0, each for the ``run_seconds`` of
BENCHMARK.json (about 45 minutes in all).  For every end-to-end metric
it prints, per set, the median over seeds and the spread (distance
between the first and third quartile as a share of the median, from
``statistics.quantiles(values, n=4)``), and how much the second set's
median is worse than the first's, each next to the metric's bound.  It
writes the whole result set to ``perfbench/baseline.json``.
"""
from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "baseline.json"
SEEDS = range(10)
SETS = 2
RUN_TIMEOUT_S = 600


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record_path = ROOT / ".perfbench_runs" / f"{workload}-seed{seed}-trace{trace}.json"
    with open(record_path, encoding="utf-8") as fh:
        record = json.load(fh)
    return {"result": result, "record": record,
            "process_s": time.perf_counter() - started}


def spread(values) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def worse_by(metric: dict, first: float, second: float) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


def summarize(spec: dict, name: str, runs: list) -> dict:
    print(f"{name}: {sum(r['result']['failed'] for r in runs)} of "
          f"{sum(r['result']['attempted'] for r in runs)} runs failed, "
          f"all correct: {all(r['result']['correct'] for r in runs)}, "
          f"longest process {max(r['process_s'] for r in runs):.1f} s")
    end_to_end = {}
    for metric in spec["end_to_end"]:
        values = [r["result"]["metrics"][metric["name"]]["value"] for r in runs]
        end_to_end[metric["name"]] = {
            "unit": metric["unit"], "median": statistics.median(values),
            "spread": spread(values), "bound": metric["bound"], "values": values}
        print(f"  {metric['name']:<18} median {statistics.median(values):<12.6g} "
              f"{metric['unit']:<4} spread {spread(values):.4f} "
              f"(bound {metric['bound']})")
    seeds = [{"seed": seed, "process_s": r["process_s"],
              "attempted": r["record"]["attempted"], "failed": r["record"]["failed"],
              "digests": r["record"]["digests"], "n_steps": r["record"]["n_steps"],
              **{k: r["record"]["values"][k]
                 for k in ("wall_s", "setup_raw_s", "ref_unit_s")}}
             for seed, r in zip(SEEDS, runs)]
    return {"end_to_end": end_to_end, "runs": seeds}


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]

    sets = []
    for number in range(1, SETS + 1):
        print(f"set {number}")
        sets.append({name: summarize(spec, name, [run(name, seed, seconds, 0)
                                                  for seed in SEEDS])
                     for name in names})

    results = {}
    for workload in spec["workloads"]:
        name = workload["name"]
        entry = {"why": workload["why"], "sets": [s[name] for s in sets],
                 "second_set_worse_by": {}}
        print(f"{name}: second set against the first")
        for metric in spec["end_to_end"]:
            first, second = (s[name]["end_to_end"][metric["name"]]["median"]
                             for s in sets)
            worse = worse_by(metric, first, second)
            entry["second_set_worse_by"][metric["name"]] = worse
            print(f"  {metric['name']:<18} worse by {worse:+.4f} (bound {metric['bound']})")
        traced = run(name, 0, seconds, 1)
        entry["per_layer_seed0"] = {
            k: m["value"] for k, m in traced["result"]["metrics"].items()}
        entry["environment"] = traced["record"]["environment"]
        for k, value in entry["per_layer_seed0"].items():
            print(f"  {k:<42} {value:.6g}")
        results[name] = entry

    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump({"seconds": seconds, "seeds": list(SEEDS), "workloads": results},
                  fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
