"""Matched simulations across a gamma sequence and congestion-limit fits.

All runs share one grid, one time horizon and one initial-data recipe,
so final fields subtract cell-wise.  They step together as one batch of
``run_simulation``, one row per gamma, and each row equals the run of
its gamma alone bit for bit.  A failure in any row ends the batch whole;
``run_sweep`` then runs each gamma alone, so which gamma failed, and
with what error, is decided here and nowhere else.

``run_config`` is the one start of every run a config describes: a
``simulate`` run, the cases of ``verify``, the sweep's batch and, after
a failed batch, each gamma's run alone.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .config import RunConfig
from .diagnostics import W_max_principle_check
from .errors import RunFailure
from .grid import Grid, norm
from .initial_data import make_initial_data
from .model import ModelParams, velocities
from .solver import Trajectory, run_simulation


@dataclass(frozen=True)
class GammaRow:
    """Aggregates of one gamma run; ``failed`` rows carry the reason."""

    gamma: float
    max_rho: float = float("nan")
    min_rho: float = float("nan")
    switching_residual_max: float = float("nan")
    pi_l1_max: float = float("nan")
    dpi_l2_max: float = float("nan")
    I_plain_abs: float = float("nan")
    W_max_drift: float = float("nan")
    runtime: float = float("nan")
    failed: bool = False
    failure: str = ""


@dataclass(frozen=True)
class CrossRow:
    """Cauchy difference between consecutive gamma runs at t_end."""

    gamma_lo: float
    gamma_hi: float
    rho_l1: float
    w_linf: float


@dataclass(frozen=True)
class CongestionFit:
    """Least-squares fit of (max_rho - 1) against ln(gamma)/gamma."""

    verdict: str          # "fit", "congestion never exceeded", "insufficient data"
    slope: float = float("nan")
    r2: float = float("nan")
    n_points: int = 0


@dataclass(frozen=True)
class SweepReport:
    """``failures`` holds the RunFailure of each failed row, in gamma order."""

    rows: tuple[GammaRow, ...]
    cross: tuple[CrossRow, ...]
    fit: CongestionFit
    failures: tuple[RunFailure, ...] = ()


def _row_from_trajectory(gamma: float, traj: Trajectory) -> GammaRow:
    return GammaRow(
        gamma=gamma,
        max_rho=float(np.max(traj.series("rho_max"))),
        min_rho=float(np.min(traj.series("rho_min"))),
        switching_residual_max=float(np.max(traj.series("switching_residual"))),
        pi_l1_max=float(np.max(traj.series("pi_l1"))),
        dpi_l2_max=float(np.max(traj.series("dpi_l2"))),
        I_plain_abs=float(abs(traj.accums.diss_plain)),
        W_max_drift=W_max_principle_check(traj.series("W_max")).worst,
        runtime=traj.wall_seconds,
    )


def run_config(cfg: RunConfig, sink=None):
    """The runs a config describes: a Trajectory for ``model.gamma``; for
    ``sweep.gammas``, one batch and a Trajectory per gamma, or the
    RunFailure that ended the batch.  ``sink`` receives each snapshot as it
    is taken (``run_simulation``)."""
    g = Grid(cfg.n_cells)
    gamma = cfg.gamma if cfg.gammas is None else np.array(cfg.gammas)[:, None]
    params = ModelParams(gamma=gamma)
    init = make_initial_data(cfg.recipe, g, params, cfg.scheme.formulation)
    return run_simulation(init, g, params, cfg.scheme, cfg.t_end, sink=sink)


def _run_alone(cfg: RunConfig, gamma: float):
    """The run of one gamma of the ladder by itself: its Trajectory, or the
    RunFailure that ended it and the run's wall time."""
    started = time.perf_counter()
    try:
        return run_config(replace(cfg, gamma=gamma, gammas=None))
    except RunFailure as err:
        return err, time.perf_counter() - started


def run_sweep(cfg: RunConfig) -> SweepReport:
    """Run every gamma of ``sweep.gammas`` as one batch and assemble the
    report in gamma order.

    A runtime failure in any row ends the batch; every gamma then runs
    alone, and each run that fails (vacuum, saturation, a failed linear
    solve, the step budget) is reported as a failed row with its own text
    and (t, cell, gamma), while the other rows are still emitted.  Each
    row equals its run alone, so the rows are the same either way.  A
    row's runtime is the wall time from the start of the batch until the
    row finished or, after a failed batch, the wall time of its own run.
    """
    try:
        results = run_config(cfg)
    except RunFailure:
        results = [_run_alone(cfg, gamma) for gamma in cfg.gammas]
    rows, finals, failures, g = [], {}, [], None
    for gamma, result in zip(cfg.gammas, results):
        if not isinstance(result, Trajectory):
            err, runtime = result
            rows.append(GammaRow(gamma=gamma, failed=True,
                                 failure=f"{err} {err.context()}", runtime=runtime))
            failures.append(err)
        else:
            rows.append(_row_from_trajectory(gamma, result))
            # the final density and desired velocity, once per finished row
            g, final = result.grid, result.final_state
            finals[gamma] = final.rho, velocities(final, g, result.params)[1]

    cross = [CrossRow(lo, hi, norm(finals[lo][0] - finals[hi][0], g, "l1"),
                      norm(finals[lo][1] - finals[hi][1], g, "linf"))
             for lo, hi in zip(cfg.gammas, cfg.gammas[1:]) if lo in finals and hi in finals]

    return SweepReport(rows=tuple(rows), cross=tuple(cross), fit=fit_congestion_rate(rows),
                       failures=tuple(failures))


def fit_congestion_rate(rows) -> CongestionFit:
    """Fit the density excess over 1 against ln(gamma)/gamma.

    Needs at least 3 rows with max_rho > 1; reports a degenerate verdict
    when congestion is never exceeded, and an insufficient-data verdict
    when fewer than 3 usable rows exist.
    """
    usable = [(r.gamma, r.max_rho - 1.0) for r in rows
              if not r.failed and np.isfinite(r.max_rho) and r.max_rho > 1.0]
    if not usable:
        return CongestionFit(verdict="congestion never exceeded")
    if len(usable) < 3:
        return CongestionFit(verdict="insufficient data", n_points=len(usable))
    x = np.array([np.log(gm) / gm for gm, _ in usable])
    y = np.array([excess for _, excess in usable])
    slope, r = _least_squares_line(x, y)
    return CongestionFit(verdict="fit", slope=float(slope),
                         r2=float(r ** 2), n_points=len(usable))


def _least_squares_line(x: np.ndarray, y: np.ndarray):
    """Slope and correlation coefficient of the least-squares line of y on x.

    The same operations as ``scipy.stats.linregress``, so the results
    agree bit for bit, without importing ``scipy.stats`` (most of the
    start-up time of the command line otherwise).
    """
    if np.amax(x) == np.amin(x) and len(x) > 1:
        raise ValueError("Cannot calculate a linear regression "
                         "if all x values are identical")
    ssxm, ssxym, _, ssym = np.cov(x, y, bias=True).flat
    if ssxm == 0.0 or ssym == 0.0:
        r = np.float64(np.nan if ssxym == 0 else 0.0)
    else:
        r = ssxym / np.sqrt(ssxm * ssym)
        # rounding can push |r| past 1
        if r > 1.0:
            r = 1.0
        elif r < -1.0:
            r = -1.0
    return ssxym / ssxm, r
