"""Command-line entry point: run orchestration and serialization.

Subcommands: ``simulate`` (single run), ``sweep`` (gamma sweep),
``verify`` (verification suites), ``mms`` (one manufactured-solution
study).  Exit codes: 0 success, 1 verdict failure, 2 configuration
error, 3 runtime failure (vacuum, saturation, a failed linear solve, a
non-finite state or a step budget overrun), with the offending time, cell
and gamma printed.
``run_log`` owns ``output.dir``: it writes ``run.log`` before a run starts
(naming the LAPACK path the solves take, ``lapack <source>``) and every
output after it, so a failed write exits 2 naming the file.

``simulate`` writes its snapshots from one forked writer process
(``forked``), so that formatting and creating the files leave the process
that steps.  The run hands each snapshot down a pipe as it takes it; the
writer writes its ``snapshot_NNNN.csv``, then its ``diagnostics.jsonl``
line, in snapshot order.  The run writes ``run.log`` and, once the writer
has written every snapshot and ended, ``summary.json``.  A run that is
killed keeps every snapshot it handed over: the writer drains the pipe
before it ends.  A writer that fails or dies ends the run with exit 2 and
a ``failed`` line.

``verify`` runs its jobs (each shipped case, the oracle, each MMS order
check and the constant study) in forked children, at most one per usable
core at a time (``in_children``), and prints each job's lines in job
order: the bytes, and the exit code, of running them one after another in
process, which it does where ``os.fork`` does not exist or one core is
usable.  ``sweep`` and ``mms`` never fork.  Python >= 3.12 warns that
forking a process with threads may deadlock the child.  The threads are
numpy's OpenBLAS pool, and OpenBLAS registers a fork handler
(``blas_thread_shutdown_``) that stops the pool before each fork, so a
child may call BLAS and LAPACK; the warning is left as it is.

The ``invariants`` suite of ``verify`` runs every single-gamma config
(``model.gamma`` set) in ``CONFIG_DIR``, the ``configs/`` directory of
the source tree, so adding a config there adds a verified case.

Data files are deterministic: no timestamps inside them (timestamps go
to the run log), floats serialized with 17 significant digits in CSV and
as ``repr`` in JSON, where a non-finite value is ``null`` (``to_json``).
Each value of a snapshot CSV is exactly ``'%.17g' % v``:
``textfmt.csv_blocks`` formats them with numpy, a block of rows at a time,
and falls back to ``'%.17g' % v`` for each value it cannot settle.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import itertools
import json
import os
import pickle
import sys
import time as _time
from pathlib import Path

import numpy as np

from . import diagnostics as diag
from ._lapack import SOURCE as LAPACK_SOURCE
from .config import RunConfig, config_key_help, load_run_config
from .errors import ConfigError, RunFailure
from .grid import Grid, ddx_central
from .initial_data import build_profiles
from .model import ModelParams, U_FORM, W_FORM
from .solver import Trajectory
from .sweep import GammaRow, SweepReport, run_config, run_sweep
from .textfmt import csv_blocks
from .verify import (
    CASES,
    convergence_study,
    dense_oracle_checks,
    doubling_resolutions,
    mms_order_checks,
    random_cyclic_systems_check,
)

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


# ----------------------------------------------------------------- output --

# "%.17g" % v is format(v, ".17g"), the same float formatting for every
# finite and non-finite value
FLOAT_FORMAT = "%.17g"

SNAPSHOT_COLUMNS = ("x", "rho", "u", "w", "pi", "W", "V")


def to_json(value, **kwargs) -> str:
    """``json.dumps`` of ``value`` as strict JSON: each non-finite float in
    it (a failed row's aggregates, say), at any depth, is ``null``.  A
    finite float keeps its bits and its text, as ``float(repr(v)) == v``."""
    plain = json.loads(json.dumps(value), parse_constant=lambda _: None)
    return json.dumps(plain, allow_nan=False, **kwargs)


def _snapshot_columns(g: Grid, snap) -> list:
    """The ``SNAPSHOT_COLUMNS``; u, w, pi, W and lambda (in V = lambda dx u)
    are the snapshot's."""
    fields = snap.fields
    return [g.x, snap.state.rho, fields.u, fields.w, snap.pi, snap.W,
            fields.lam * ddx_central(fields.u, g)]


def write_snapshot_csv(path: str, g: Grid, snap) -> None:
    """Write ``snap``'s ``SNAPSHOT_COLUMNS`` to ``path`` as CSV."""
    values = np.column_stack(_snapshot_columns(g, snap))
    with open(path, "wb") as fh:
        fh.write((",".join(SNAPSHOT_COLUMNS) + "\n").encode("ascii"))
        fh.writelines(csv_blocks(values))


def snapshot_writer(write, out_dir: str):
    """``simulate``'s sink over ``run_log``'s ``write``: each snapshot as the run
    takes it, as its ``snapshot_NNNN.csv`` (a whole file, closed at once),
    and its ``diagnostics.jsonl`` line."""
    index = itertools.count()

    def sink(g: Grid, params: ModelParams, snap) -> None:
        write_snapshot_csv(os.path.join(out_dir, f"snapshot_{next(index):04d}.csv"), g, snap)
        write("diagnostics.jsonl", to_json(dataclasses.asdict(snap.rec)))

    return sink


# what the pipe to the writer holds: about 12 snapshots of 1024 cells, so
# the run waits for the writer only when it falls that far behind
PIPE_BYTES = 1 << 20


def _child(work, report_fd: int):
    """A forked child's whole life: ``work()``, its outcome pickled to
    ``report_fd`` as ``(True, result)`` or ``(False, exception)``, then
    ``os._exit``, so that it never flushes or closes what it shares with its
    parent.  An outcome that does not survive pickling goes as a
    RuntimeError naming it."""
    code = 1
    try:
        try:
            outcome = (True, work())
            code = 0
        except Exception as exc:  # the child's boundary: report, then end
            outcome = (False, exc)
        try:
            report = pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL)
            pickle.loads(report)
        except Exception as exc:
            report = pickle.dumps((False, RuntimeError(
                f"{outcome[1]!r} cannot be pickled: {exc!r}")))
        with open(report_fd, "wb") as fh:
            fh.write(report)
    finally:
        os._exit(code)


def _fork(work) -> tuple[int, int]:
    """Start ``_child(work, ...)``; return its pid and its report's read end."""
    report_r, report_w = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(report_r)
        _child(work, report_w)
    os.close(report_w)
    return pid, report_r


def _reap(pid: int, report_fd: int, lost):
    """Wait for the child ``pid`` and return its outcome; one that ended
    without a report (a signal, say) returns ``(False, lost(how))``, with
    ``how`` "was killed by signal N" or "exited N"."""
    with open(report_fd, "rb") as fh:
        report = fh.read()
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if report:
        return pickle.loads(report)
    return False, lost(f"was killed by signal {-code}" if code < 0 else f"exited {code}")


@contextlib.contextmanager
def forked(sink):
    """Run ``sink`` in one forked writer process and yield the sink the run
    calls, which pickles each ``(g, params, snapshot)`` down a pipe to it;
    the writer runs ``sink`` on them in order while the run steps on.  A
    snapshot crosses without what ``snapshot_writer`` does not read: its
    ``int_mass_flux`` and its fields' ``p`` and ``dxp`` arrive as None.

    Leaving the block closes the pipe and waits for the writer, so every
    snapshot handed over is written when the block ends, however it ends.
    An OSError that ended the writer (it pickles with its errno, strerror
    and filename), or an early end without one (a signal, say), stops the
    run at its next hand-off, whose BrokenPipeError it replaces, or is
    raised at the end of the block; any other exception raised in the
    block wins.  Where ``os.fork`` does not exist, ``sink`` runs in the
    run's own process."""
    if not hasattr(os, "fork"):
        yield sink
        return
    data_r, data_w = os.pipe()
    import fcntl  # imported only when a run forks
    with contextlib.suppress(AttributeError, OSError):  # Linux only; else 64 KiB
        fcntl.fcntl(data_w, fcntl.F_SETPIPE_SZ, PIPE_BYTES)

    def serve() -> None:
        """The writer's work: ``sink`` on each snapshot read from the pipe,
        until the run closes it."""
        os.close(data_w)
        # imported by the writer alone: a Ctrl-C meant for the run must not
        # cut a snapshot short or drop the ones handed over before it
        import signal
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        with open(data_r, "rb") as pipe:
            while True:
                try:
                    args = pickle.load(pipe)
                except EOFError:  # the run closed the pipe
                    return
                sink(*args)

    pid, report_r = _fork(serve)
    os.close(data_r)  # so a writer that ended breaks the pipe
    pipe = open(data_w, "wb")

    def hand_off(g: Grid, params: ModelParams, snap) -> None:
        # only what the writer reads: p, dxp and the mass flux stay here
        snap = dataclasses.replace(snap, int_mass_flux=None,
                                   fields=snap.fields._replace(p=None, dxp=None))
        pickle.dump((g, params, snap), pipe, pickle.HIGHEST_PROTOCOL)
        pipe.flush()

    def reap():
        """Close the pipe, wait for the writer, and return the OSError that
        ended it early, or None."""
        with contextlib.suppress(OSError):
            pipe.close()
        ok, error = _reap(pid, report_r,
                          lambda how: OSError(None, f"the snapshot writer {how}"))
        if not ok and not isinstance(error, OSError):
            error = OSError(None, f"the snapshot writer failed: {error!r}")
        return None if ok else error

    try:
        yield hand_off
    except BaseException as exc:
        error = reap()
        if error is not None and isinstance(exc, BrokenPipeError):
            raise error from None  # a hand-off found the writer gone
        raise
    error = reap()
    if error is not None:
        raise error


def in_children(jobs):
    """Yield each of ``jobs``' results in job order, each job run in its own
    forked child (``_child``), at most one child per usable core at a time.

    A failed job's exception is raised here at its turn, and a child that
    ended without a result raises a RunFailure saying how it ended; the
    results of the jobs before it have been yielded.  Leaving the generator,
    however it is left, kills the children still running and reaps every
    child.  Where ``os.fork`` does not exist, with one usable core or with
    one job, the jobs run in this process, in order."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        cores = os.cpu_count() or 1
    width = min(len(jobs), cores)
    if width < 2 or not hasattr(os, "fork"):
        for job in jobs:
            yield job()
        return
    import select  # imported only when jobs run in children
    import signal
    running = {}   # report fd -> (job index, pid)
    outcomes = {}  # job index -> outcome, for the jobs that ended early
    todo = iter(enumerate(jobs))
    try:
        for index in range(len(jobs)):
            while index not in outcomes:
                for i, job in itertools.islice(todo, width - len(running)):
                    pid, fd = _fork(job)
                    running[fd] = (i, pid)
                for fd in select.select(list(running), [], [])[0]:
                    i, pid = running[fd]
                    outcomes[i] = _reap(pid, fd, lambda how: RunFailure(
                        f"the child process of job {i + 1} of {len(jobs)} {how}"))
                    del running[fd]
            ok, value = outcomes.pop(index)
            if not ok:
                raise value
            yield value
    finally:
        for fd, (_, pid) in running.items():
            with contextlib.suppress(OSError):  # reaped, or its fd closed, meanwhile
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            with contextlib.suppress(OSError):
                os.close(fd)


def _trajectory_summary(traj: Trajectory) -> dict:
    checks = diag.trajectory_checks(traj)
    return {
        "initial": dataclasses.asdict(traj.init_summary),
        "final": dataclasses.asdict(traj.records[-1]),
        "mean_rho": traj.init_summary.mean_rho0,
        "n_steps": traj.n_steps,
        "mass_drift_rel": checks["mass_conservation"].worst,
        "ke_w_max_increase": checks["ke_w_non_increasing"].worst,
        "energy_residual_max": checks["energy_residual_max"].worst,
        "energy_residual_min": checks["energy_residual_min"].worst,
        "W_max_drift": checks["W_max_principle"].worst,
        "rhoW2_drift": checks["rhoW2_conservation"].worst,
        "lower_bound_margin_min": checks["lower_bound_margin"].worst,
        "switching_residual_max": float(np.max(traj.series("switching_residual"))),
        "psi_periodicity_defect": checks["psi_periodicity"].worst,
        "psi_gradient_defect": checks["psi_gradient"].worst,
        "I_plain": traj.accums.diss_plain,
        "dissipation_visc": traj.accums.diss_visc,
    }


def write_summary_json(write, traj: Trajectory) -> None:
    write("summary.json", to_json(_trajectory_summary(traj), indent=2, sort_keys=True))


SWEEP_COLUMNS = tuple(f.name for f in dataclasses.fields(GammaRow))


def write_sweep_report(write, report: SweepReport) -> None:
    write("sweep_report.csv", ",".join(SWEEP_COLUMNS))
    for row in report.rows:
        cells = []
        for name in SWEEP_COLUMNS:
            value = getattr(row, name)
            if isinstance(value, bool):
                cells.append(str(int(value)))
            elif isinstance(value, str):
                cells.append(json.dumps(value))
            else:
                cells.append(FLOAT_FORMAT % value)
        write("sweep_report.csv", ",".join(cells))

    summary = {
        "fit": dataclasses.asdict(report.fit),
        "cross": [dataclasses.asdict(c) for c in report.cross],
        "rows": [
            {k: v for k, v in dataclasses.asdict(r).items() if k != "runtime"}
            for r in report.rows
        ],
    }
    write("sweep_summary.json", to_json(summary, indent=2, sort_keys=True))


# ------------------------------------------------------------ subcommands --

@contextlib.contextmanager
def run_log(out_dir: str, config_path: str, *header: str):
    """Own ``out_dir`` for one run: create it, write ``run.log``'s ``started``,
    ``config``, ``header`` and ``lapack`` lines before the run inside starts,
    and yield ``write(name, text)``, which writes ``text`` and a newline to the
    file ``name`` there, opened at its first line, line-buffered, until the
    block ends.  An OSError on any output is a ConfigError naming the file;
    that, a ConfigError or a RunFailure raised inside ends ``run.log`` with a
    ``failed`` line and propagates."""
    with contextlib.ExitStack() as stack:
        files = {}

        def write(name: str, text: str) -> None:
            if name not in files:
                files[name] = stack.enter_context(open(
                    os.path.join(out_dir, name), "w", buffering=1, encoding="utf-8"))
            files[name].write(text + "\n")

        try:
            os.makedirs(out_dir, exist_ok=True)
            write("run.log", "\n".join([f"started {_time.strftime('%Y-%m-%dT%H:%M:%S')}",
                                        f"config {os.path.abspath(config_path)}",
                                        *header, f"lapack {LAPACK_SOURCE}"]))
            yield write
        except OSError as exc:
            failure = ConfigError(f"output.dir {out_dir}: cannot write "
                                  f"{exc.filename or out_dir}: {exc.strerror}")
            if "run.log" in files:  # not when run.log itself cannot be opened
                write("run.log", f"failed {failure}")
            raise failure from exc
        except ConfigError as exc:
            write("run.log", f"failed {exc}")
            raise
        except RunFailure as exc:
            write("run.log", f"failed {exc} {exc.context()}")
            raise


def cmd_simulate(args) -> int:
    cfg = load_run_config(args.config)
    if cfg.gamma is None:
        raise ConfigError("simulate needs model.gamma (use the sweep subcommand "
                          "for sweep.gammas)")
    with run_log(cfg.out_dir, args.config) as write:
        with forked(snapshot_writer(write, cfg.out_dir)) as sink:
            traj = run_config(cfg, sink)
        write("run.log", f"steps {traj.n_steps}\nwall_seconds {traj.wall_seconds:.3f}")
        write_summary_json(write, traj)
    print(f"simulate: {traj.n_steps} steps to t={cfg.t_end:g}, "
          f"outputs in {cfg.out_dir}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = load_run_config(args.config)
    if cfg.gammas is None:
        raise ConfigError("sweep needs sweep.gammas")
    gammas = f"gammas {','.join(str(gm) for gm in cfg.gammas)}"
    with run_log(cfg.out_dir, args.config, gammas) as write:
        report = run_sweep(cfg)
        failed = [r for r in report.rows if r.failed]
        for row in failed:
            write("run.log", f"failed {row.failure}")
        write_sweep_report(write, report)

    print(f"sweep: {len(report.rows)} rows ({len(failed)} failed), "
          f"fit verdict: {report.fit.verdict}, outputs in {cfg.out_dir}")
    if len(failed) == len(report.rows):
        # no trajectory exists: the sweep fails as its first row did
        raise report.failures[0]
    return EXIT_OK


# ------------------------------------------------------- verification suites

CONFIG_DIR = Path(__file__).resolve().parents[2] / "configs"


def shipped_cases() -> list[tuple[str, RunConfig]]:
    """Every single-gamma config in ``CONFIG_DIR``, named by file, in file order."""
    cases = []
    for path in sorted(CONFIG_DIR.glob("*.cfg")):
        cfg = load_run_config(str(path))
        if cfg.gamma is not None:
            cases.append((path.stem, cfg))
    if not cases:
        raise ConfigError(f"no single-gamma config (model.gamma) to verify in {CONFIG_DIR}")
    return cases


def _invariant_checks(name: str, traj: Trajectory,
                      check_w_reconstruction: bool) -> list[tuple[str, bool, str]]:
    """The ``verify`` lines of one case's trajectory checks."""
    checks = diag.trajectory_checks(traj)

    def line(label, key, detail):
        return (f"{name}: {label}", checks[key].passed, detail.format(checks[key]))

    low, high = checks["energy_residual_min"], checks["energy_residual_max"]
    drift = "drift {0.worst:.3e} tol {0.tol:.3e}"
    defect = "defect {0.worst:.3e} tol {0.tol:.3e}"
    out = [
        line("mass conservation", "mass_conservation", "rel drift {0.worst:.3e}"),
        line("ke_w non-increasing", "ke_w_non_increasing", "max rise {0.worst:.3e}"),
        (f"{name}: energy residual band", low.passed and high.passed,
         f"range [{low.worst:.3e}, {high.worst:.3e}], E1 {traj.init_summary.E1:.3e}"),
    ]
    if check_w_reconstruction:
        out.append(line("W max principle", "W_max_principle", drift))
    out += [
        line("rhoW2 conservation", "rhoW2_conservation", drift),
        line("density lower bound", "lower_bound_margin", "min margin {0.worst:.3e}"),
        line("psi_periodicity", "psi_periodicity", defect),
        line("psi_gradient", "psi_gradient", defect),
        line("positivity", "positivity", "min rho {0.worst:.6g}"),
    ]
    return out


def _case_lines(name: str, cfg: RunConfig) -> list[tuple[str, bool, str]]:
    traj = run_config(cfg)
    # the reconstructed-W checks assume the desired velocity has no
    # slow stagnation points, where first-order upwinding leaves a
    # local kink in dx(w) that does not vanish under refinement
    _, w0 = build_profiles(cfg.recipe, traj.grid)
    return _invariant_checks(name, traj, np.min(w0) * np.max(w0) >= 0.0)


def _suite_invariants() -> list:
    return [functools.partial(_case_lines, name, cfg) for name, cfg in shipped_cases()]


def _oracle_lines() -> list[tuple[str, bool, str]]:
    checks = dense_oracle_checks() + [random_cyclic_systems_check(20260810, 40)]
    return [(c.name, c.passed, f"max err {c.worst:.3e}") for c in checks]


def _mms_order_lines(formulation: str) -> list[tuple[str, bool, str]]:
    order, _ = mms_order_checks(formulation)
    return [(order.name, order.passed, f"observed order {order.worst:.3f}")]


def _mms_constant_lines() -> list[tuple[str, bool, str]]:
    study = convergence_study(CASES["constant"], (16, 32, 64))
    return [("mms constant case exact", study.exact,
             f"max rho_L1 err {max(study.rho_l1):.3e}")]


# each suite's jobs, which ``verify`` runs through ``in_children``; a job
# returns its (label, passed, detail) lines
SUITES = {
    "invariants": _suite_invariants,
    "oracle": lambda: [_oracle_lines],
    "mms": lambda: [functools.partial(_mms_order_lines, U_FORM),
                    functools.partial(_mms_order_lines, W_FORM), _mms_constant_lines],
}


def cmd_verify(args) -> int:
    names = [args.suite] if args.suite else list(SUITES)
    jobs = [job for name in names for job in SUITES[name]()]
    all_ok = True
    with contextlib.closing(in_children(jobs)) as results:
        for lines in results:
            for label, ok, detail in lines:
                print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
                all_ok = all_ok and ok
    return EXIT_OK if all_ok else EXIT_VERDICT


def cmd_mms(args) -> int:
    if args.case not in CASES:
        raise ConfigError(f"unknown case {args.case!r}; "
                          f"available: {', '.join(sorted(CASES))}")
    try:
        resolutions = doubling_resolutions(args.resolutions.split(","))
    except ValueError as exc:
        raise ConfigError(f"--resolutions {args.resolutions!r}: {exc}") from exc
    study = convergence_study(CASES[args.case], resolutions, formulation=args.formulation)
    print(study.table())
    return EXIT_OK


# ------------------------------------------------------------------ parser --

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="congestion-sim",
        description="1D periodic finite-volume simulator for a generalized "
                    "Aw-Rascle system with power-law offset",
        epilog=config_key_help(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="single run with snapshots and diagnostics")
    p_sim.add_argument("--config", required=True, help="flat key-value config file")
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="matched runs across sweep.gammas")
    p_sweep.add_argument("--config", required=True, help="flat key-value config file")
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument("--suite", choices=sorted(SUITES), default=None,
                          help="run one suite (default: all)")
    p_verify.set_defaults(func=cmd_verify)

    p_mms = sub.add_parser("mms", help="one manufactured-solution convergence study")
    p_mms.add_argument("--case", required=True,
                       help=f"case name: {', '.join(sorted(CASES))}")
    p_mms.add_argument("--formulation", choices=[U_FORM, W_FORM], default=U_FORM)
    p_mms.add_argument("--resolutions", default="64,128,256")
    p_mms.set_defaults(func=cmd_mms)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RunFailure as exc:
        print(f"runtime failure ({exc.kind}): {exc} {exc.context()}", file=sys.stderr)
        return EXIT_RUNTIME


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
