#!/usr/bin/env python3
"""Benchmark one congestion-sim workload through ``congestion_sim.cli.main``.

    python3 perfbench/run.py --workload simulate_n4096 --seed 0 --seconds 27 --trace 0

Run it from anywhere; it benchmarks the source tree that holds this
directory (``src/`` and ``configs/`` beside ``perfbench/``).

A run measures set-up in fresh interpreters, imports the program, then
repeats the workload until ``--seconds`` (set-up probes included) is
used up.  Every run's outputs are checked (see workloads.py) and must be
bit-identical to the first run's.

The speed of a shared machine drifts by tens of percent within minutes,
so a fixed reference job (``reference_unit``) is timed between the CLI
runs, and the time metrics are measured against it: ``wall_ref`` is
the median CLI wall time over the mean time of one reference unit, and
``setup_s`` is the median set-up probe time over the same, converted
back to seconds at the fixed ``REF_UNIT_NOMINAL_S``.  The raw times are
printed and recorded too.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json from
untraced runs.  ``--trace 1`` spends half the time untraced and half
traced (see tracing.py) and reports the per-layer metrics, including
the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before
it print every metric by name with its unit, the error rate and the
output digests.  The full record of the run (environment, every wall
time, digests) goes to ``.perfbench_runs/`` in the source tree, with the
spans of the last traced run when tracing.  Scratch outputs are written
there too and removed before exit.
"""
from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy
from scipy.linalg import solve_banded

from tracing import LAYERS, Tracer, layer_stats
from workloads import WORKLOADS, Outcome

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"

THREADS_ENV = "CONGESTION_SIM_THREADS"
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# printed and recorded beside the metrics of BENCHMARK.json
PRINTED_UNITS = {"wall_s": "s", "ns_per_cell_step": "ns", "setup_raw_s": "s",
                 "ref_unit_s": "s"}

# reference job: its time before the first CLI run, and after each run as
# a share of that run's wall time
REF_FIRST_S = 0.2
REF_SHARE = 0.15

SETUP_PROBES = 5
# about the mean time of one reference unit on the baseline machine
# (perfbench/README.md); setup_s is the set-up time at that speed
REF_UNIT_NOMINAL_S = 0.04
IMPORT_PROBES = 3
PROBE_TIMEOUT_S = 60
# each module after the ones it imports, so each probe step adds one module
IMPORT_ORDER = ("grid", "model", "diagnostics", "solver", "initial_data",
                "config", "sweep", "verify", "cli")

# perf_counter is CLOCK_MONOTONIC, so the child's reading compares with ours
SETUP_PROBE = "import time, congestion_sim.cli; print(repr(time.perf_counter()))"

# imports the modules one at a time under a bare package object, so the
# package __init__ (which imports everything) does not run first
IMPORT_PROBE = """
import importlib, json, sys, time, types
pkg = types.ModuleType("congestion_sim")
pkg.__path__ = [sys.argv[1]]
sys.modules["congestion_sim"] = pkg
added = {}
for name in sys.argv[2:]:
    start = time.perf_counter()
    importlib.import_module("congestion_sim." + name)
    added[name] = time.perf_counter() - start
print(json.dumps(added))
"""


@dataclass
class Attempt:
    wall: float
    outcome: Outcome
    stats: dict = field(default_factory=dict)   # traced runs only


@dataclass
class Phase:
    """CLI runs and the reference job's timings taken between them."""

    runs: list[Attempt] = field(default_factory=list)
    ref_seconds: float = 0.0
    ref_units: int = 0

    @property
    def walls(self) -> list[float]:
        return [a.wall for a in self.runs]

    @property
    def ref_unit_s(self) -> float:
        return self.ref_seconds / self.ref_units

    def reference(self, seconds: float) -> None:
        """Run whole reference units until ``seconds`` have passed."""
        start = time.perf_counter()
        while True:
            reference_unit()
            self.ref_units += 1
            elapsed = time.perf_counter() - start
            if elapsed >= seconds:
                self.ref_seconds += elapsed
                return

    def wall_ref(self) -> float:
        """Median CLI wall time in reference units."""
        return statistics.median(self.walls) / self.ref_unit_s


class Bench:
    """One workload at one seed, with its scratch directory."""

    def __init__(self, workload, seed: int, work: str) -> None:
        self.workload = workload
        self.seed = seed
        self.work = work
        self.cli = None
        self.spans: list = []

    def load_program(self) -> None:
        sys.path.insert(0, str(SRC))
        import congestion_sim.cli as cli

        if not Path(cli.__file__).resolve().is_relative_to(SRC):
            raise SystemExit(f"perfbench: imported {cli.__file__}, not the tree at {SRC}")
        self.cli = cli

    def attempt(self, tracer: Tracer | None = None) -> Attempt:
        """One ``cli.main`` run, timed from call to return, then checked."""
        run_dir = tempfile.mkdtemp(prefix="run-", dir=self.work)
        try:
            argv = self.workload.prepare(str(ROOT), run_dir, self.seed)
            out, err = io.StringIO(), io.StringIO()
            crash = ""
            gc.collect()
            if tracer is not None:
                tracer.install()
            start = time.perf_counter()
            try:
                with redirect_stdout(out), redirect_stderr(err):
                    code = self.cli.main(argv)
            except Exception:  # a crash is a failed run, not a benchmark error
                code, crash = None, traceback.format_exc(limit=-1).strip()
            finally:
                wall = time.perf_counter() - start
                if tracer is not None:
                    tracer.uninstall()
            try:
                outcome = self.workload.check(code, out.getvalue(), run_dir)
            except (OSError, LookupError, ValueError) as exc:
                outcome = Outcome(False, f"outputs unreadable: {exc!r}")
            if not outcome.ok:
                outcome.reason = " | ".join(
                    part for part in (outcome.reason, crash, err.getvalue().strip()) if part)
            result = Attempt(wall, outcome)
            if tracer is not None:
                self.spans = tracer.take()
                result.stats = layer_stats(self.spans)
            return result
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)

    def measure(self, budget_s: float, traced: bool = False) -> Phase:
        """CLI runs back to back while the next should end within budget_s.

        The reference job runs before the first CLI run and after every
        one, for ``REF_SHARE`` of that run's wall time.
        """
        phase = Phase()
        phase.reference(REF_FIRST_S)
        started = time.perf_counter()
        while not phase.runs or (time.perf_counter() - started
                                 + (1.0 + REF_SHARE) * phase.runs[-1].wall <= budget_s):
            phase.runs.append(self.attempt(Tracer() if traced else None))
            phase.reference(REF_SHARE * phase.runs[-1].wall)
        return phase


def reference_unit() -> None:
    """One unit of a fixed job that shares no code with congestion-sim.

    It mixes the kinds of work the workloads do: shifts and arithmetic on
    256- and 4096-cell arrays and banded LAPACK solves, driven from Python,
    and formatting floats as text with 17 significant digits.
    """
    for n, loops in ((256, 180), (4096, 48)):
        x = np.linspace(0.5, 1.0, n)
        bands = np.ones((3, n))
        bands[1] = 4.0
        for _ in range(loops):
            y = np.roll(x, 1) + np.roll(x, -1) - 2.0 * x
            x = 2.0 * solve_banded((1, 1), bands, x + 0.1 * y)
    for _ in range(3):
        "\n".join(format(float(v), ".17g") for v in x)


def probe_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != THREADS_ENV}
    env["PYTHONPATH"] = str(SRC)
    return env


def run_probe(args, cwd: str) -> str:
    proc = subprocess.run([sys.executable, *args], env=probe_env(), cwd=cwd,
                          capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                          check=True)
    return proc.stdout.strip().splitlines()[-1]


def setup_seconds(cwd: str) -> list[float]:
    """Process start until ``import congestion_sim.cli`` returns, per probe."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        imported = float(run_probe(["-c", SETUP_PROBE], cwd))
        times.append(imported - start)
    return times


def import_seconds(cwd: str) -> dict:
    """Median added import time of each module, in dependency order."""
    probes = [json.loads(run_probe(["-c", IMPORT_PROBE, str(SRC / "congestion_sim"),
                                    *IMPORT_ORDER], cwd))
              for _ in range(IMPORT_PROBES)]
    return {name: statistics.median(p[name] for p in probes) for name in IMPORT_ORDER}


def git_commit():
    """The checked-out commit, read from .git without leaving the tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "git_commit": git_commit(),
    }


def quartiles(values) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def tally(reference: Attempt, attempts) -> list[str]:
    """Failure reasons; a run whose outputs differ from the first's fails."""
    reasons = []
    for a in attempts:
        if not a.outcome.ok:
            reasons.append(a.outcome.reason)
        elif a.outcome.digest != reference.outcome.digest:
            reasons.append(f"output digest {a.outcome.digest} differs from "
                           f"{reference.outcome.digest}")
    return reasons


def end_to_end(bench: Bench, seconds: float) -> tuple[dict, dict]:
    started = time.perf_counter()
    setups = setup_seconds(bench.work)
    bench.load_program()
    phase = bench.measure(seconds - (time.perf_counter() - started))
    wall = statistics.median(phase.walls)
    metrics = {
        "wall_ref": phase.wall_ref(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setups) / phase.ref_unit_s * REF_UNIT_NOMINAL_S,
        "wall_s": wall,
        "setup_raw_s": statistics.median(setups),
        "ref_unit_s": phase.ref_unit_s,
    }
    first = phase.runs[0].outcome
    if bench.workload.command == "simulate" and first.n_steps:
        metrics["ns_per_cell_step"] = wall / (first.n_cells * first.n_steps) * 1e9
    record = {
        "attempts": phase.runs,
        "wall_s": phase.walls,
        "ref_unit_s": phase.ref_unit_s,
        "ref_units": phase.ref_units,
        "setup_raw_s": setups,
        "n_steps": first.n_steps,
    }
    return metrics, record


def per_layer(bench: Bench, seconds: float) -> tuple[dict, dict]:
    imports = import_seconds(bench.work)
    bench.load_program()
    plain = bench.measure(seconds / 2.0)
    traced = bench.measure(seconds / 2.0, traced=True)
    first = traced.runs[0]
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = first.stats["layers"][layer]["calls"]
        metrics[f"{layer}.self_s"] = statistics.median(
            a.stats["layers"][layer]["self_s"] for a in traced.runs)
    metrics.update({
        "solver.steps": first.stats["steps"],
        "solver.solves_per_step": first.stats["solves_per_step"],
        "model.power_law.evals_per_step": first.stats["evals_per_step"],
        "cli.bytes_written": first.outcome.bytes_written,
        "sweep.rows_failed": first.outcome.rows_failed,
        "trace.overhead_frac": traced.wall_ref() / plain.wall_ref() - 1.0,
    })
    metrics.update({f"{name}.import_s": t for name, t in imports.items()})
    record = {
        "attempts": [*plain.runs, *traced.runs],
        "untraced_wall_s": plain.walls,
        "untraced_ref_unit_s": plain.ref_unit_s,
        "traced_wall_s": traced.walls,
        "traced_ref_unit_s": traced.ref_unit_s,
        "traced_self_s_total": [a.stats["self_s_total"] for a in traced.runs],
    }
    return metrics, record


def write_spans(path: Path, spans) -> None:
    names = list(LAYERS)
    index = {name: i for i, name in enumerate(names)}
    origin = spans[0][1] if spans else 0.0
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"layers": names,
                   "fields": ["layer", "start_s", "end_s", "parent"],
                   "spans": [[index[n], s - origin, e - origin, p]
                             for n, s, e, p in spans]}, fh, separators=(",", ":"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "congestion_sim" / "cli.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"perfbench: no congestion-sim source tree at {ROOT}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    reported = spec["per_layer"] if args.trace else spec["end_to_end"]

    os.environ.pop(THREADS_ENV, None)
    RUNS.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix="work-", dir=RUNS)
    bench = Bench(WORKLOADS[args.workload], args.seed, work)
    try:
        measure = per_layer if args.trace else end_to_end
        values, record = measure(bench, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempts = record.pop("attempts")
    failures = tally(attempts[0], attempts)
    units = {m["name"]: m["unit"] for m in reported} | PRINTED_UNITS
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in reported}
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    env = environment()
    digests = sorted({a.outcome.digest for a in attempts if a.outcome.digest})
    full = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "environment": env, "values": values,
            "attempted": len(attempts), "failed": len(failures),
            "failures": failures, "digests": digests, **record}
    with open(RUNS / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(full, fh, indent=1)
    if args.trace:
        write_spans(RUNS / f"{args.workload}-seed{args.seed}-spans.json", bench.spans)

    print(f"perfbench {tag}: {len(attempts)} runs, env {json.dumps(env)}")
    for name, value in values.items():
        print(f"  {name:<42} {value:.6g} {units[name]}")
    walls = record.get("wall_s") or record["untraced_wall_s"]
    q1, q2, q3 = quartiles(walls)
    print(f"  untraced wall quartiles {q1:.4f} {q2:.4f} {q3:.4f} s "
          f"over {len(walls)} runs")
    print(f"  error_rate {len(failures) / len(attempts):.6g} ratio "
          f"({len(failures)} of {len(attempts)} runs failed)")
    for reason in failures[:5]:
        print(f"  failure: {reason}")
    print(f"  output sha256 {' '.join(digests)}")
    print(json.dumps({"correct": not failures, "attempted": len(attempts),
                      "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
