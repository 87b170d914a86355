"""Matched simulations across a gamma sequence and congestion-limit fits.

All runs share one grid, one time horizon and one initial-data recipe,
so final fields subtract cell-wise.  They step together as one batch of
``run_simulation``, one row per gamma, and each row equals the run of
its gamma alone bit for bit.
"""
from __future__ import annotations

import time as _time
from dataclasses import dataclass

import numpy as np

from .diagnostics import W_max_principle_check
from .errors import ConfigError
from .grid import Grid, norm
from .initial_data import InitRecipe, build_profiles, initial_state, validate_profiles
from .model import ModelParams, State, velocities
from .solver import FailedRun, SchemeConfig, Trajectory, run_simulation


@dataclass(frozen=True)
class SweepConfig:
    gammas: tuple[float, ...]
    recipe: InitRecipe
    n_cells: int
    t_end: float
    scheme: SchemeConfig

    def __post_init__(self) -> None:
        if len(self.gammas) == 0:
            raise ConfigError("sweep needs at least one gamma")
        if any(b <= a for a, b in zip(self.gammas, self.gammas[1:])):
            raise ConfigError("gammas must be strictly increasing")
        if any(gamma <= 0 for gamma in self.gammas):
            raise ConfigError("gammas must be positive")


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
    rows: tuple[GammaRow, ...]
    cross: tuple[CrossRow, ...]
    fit: CongestionFit


def _row_from_trajectory(gamma: float, traj: Trajectory, runtime: float) -> GammaRow:
    return GammaRow(
        gamma=gamma,
        max_rho=float(np.max(traj.series("rho_max"))),
        min_rho=float(np.min(traj.series("rho_min"))),
        switching_residual_max=float(np.max(traj.series("switching_residual"))),
        pi_l1_max=float(np.max(traj.series("pi_l1"))),
        dpi_l2_max=float(np.max(traj.series("dpi_l2"))),
        I_plain_abs=float(abs(traj.accums.diss_plain)),
        W_max_drift=W_max_principle_check(traj.series("W_max")).worst,
        runtime=runtime,
    )


def run_sweep(config: SweepConfig) -> SweepReport:
    """Run every gamma as one batch and assemble the report in gamma order.

    Failed runs (vacuum, saturation or a failed linear solve) are
    reported as failed rows; the remaining rows are still emitted.  A
    row's runtime is the wall time from the start of the sweep until the
    row finished or failed.
    """
    g = Grid(config.n_cells)
    rho0, w0 = build_profiles(config.recipe, g)
    validate_profiles(rho0, w0, config.gammas, g)

    started = _time.perf_counter()
    inits = [initial_state(rho0, w0, g, ModelParams(gamma=gamma), config.scheme.formulation)
             for gamma in config.gammas]
    batch = State(0.0, np.stack([init.rho for init in inits]),
                  np.stack([init.mom for init in inits]), config.scheme.formulation)
    params = ModelParams(gamma=np.array(config.gammas)[:, None])
    offset = _time.perf_counter() - started
    results = run_simulation(batch, g, params, config.scheme, config.t_end)

    rows, finals = [], {}
    for gamma, result in zip(config.gammas, results):
        runtime = offset + result.wall_seconds
        if isinstance(result, FailedRun):
            rows.append(GammaRow(gamma=gamma, failed=True, failure=str(result.error),
                                 runtime=runtime))
        else:
            rows.append(_row_from_trajectory(gamma, result, runtime))
            finals[gamma] = result

    cross = []
    for lo, hi in zip(config.gammas, config.gammas[1:]):
        if lo not in finals or hi not in finals:
            continue
        ta, tb = finals[lo], finals[hi]
        drho = ta.final_state.rho - tb.final_state.rho
        _, wa = velocities(ta.final_state, g, ta.params)
        _, wb = velocities(tb.final_state, g, tb.params)
        cross.append(CrossRow(lo, hi, norm(drho, g, "l1"), norm(wa - wb, g, "linf")))

    return SweepReport(rows=tuple(rows), cross=tuple(cross), fit=fit_congestion_rate(rows))


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
