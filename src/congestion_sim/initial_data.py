"""Initial-data recipes and their admissibility checks.

A recipe specifies (rho0, w0); the actual velocity is always derived as
u0 = w0 - dx p(rho0), so runs of the two formulations start from matched
data.  Admissibility mirrors the hypotheses the gamma sweep relies on:
positive density, maximum at most 1 + 1/gamma, spatial mean strictly
below 1, finite initial potential.
"""
from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .grid import Grid, integrate
from .model import ModelParams, State, U_FORM, W_FORM, w_to_u

INIT_KINDS = ("cosine", "two_mode", "custom_csv")

# cells x profile rows of one block of the custom_csv distance matrix
RESAMPLE_BLOCK = 1 << 16


@dataclass(frozen=True)
class InitRecipe:
    """Parameters of one initial-data family.

    ``w_mean`` shifts the desired velocity; a value above w_amp keeps w
    bounded away from zero, which avoids slow stagnation points.
    """

    kind: str = "cosine"
    rho_mean: float = 0.8
    rho_amp: float = 0.1
    w_amp: float = 0.2
    w_mean: float = 0.0
    phase: float = 0.0
    csv_path: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in INIT_KINDS:
            raise ConfigError(f"init.kind must be one of {INIT_KINDS}")
        if self.kind == "custom_csv" and not self.csv_path:
            raise ConfigError("init.kind = custom_csv requires init.csv_path")
        if self.kind != "custom_csv":
            if not (self.rho_mean > self.rho_amp >= 0.0):
                raise ConfigError(
                    "init.rho_mean > init.rho_amp >= 0 must hold "
                    f"(got init.rho_mean={self.rho_mean}, init.rho_amp={self.rho_amp})"
                )


def _read_profile_csv(path: str):
    try:
        with open(path, encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read custom_csv file {path}: {exc}") from exc
    if not text.strip():
        raise ConfigError(f"custom_csv file {path} is empty")
    try:
        rows = np.genfromtxt(io.StringIO(text), delimiter=",", names=True)
    except ValueError as exc:  # a row of the wrong width, or not comma-separated
        raise ConfigError(f"custom_csv file {path} is malformed: "
                          f"{' '.join(str(exc).split())}") from exc
    for col in ("x", "rho", "w"):
        if col not in (rows.dtype.names or ()):
            raise ConfigError(f"custom_csv file {path} lacks column {col!r}")
    if rows.size == 0:
        raise ConfigError(f"custom_csv file {path} has no data rows")
    return np.atleast_1d(rows["x"]), np.atleast_1d(rows["rho"]), np.atleast_1d(rows["w"])


def build_profiles(recipe: InitRecipe, g: Grid):
    """Return the (rho0, w0) cell samples of a recipe."""
    x = g.x
    if recipe.kind == "cosine":
        rho = recipe.rho_mean + recipe.rho_amp * np.cos(2.0 * np.pi * x + recipe.phase)
        w = recipe.w_mean + recipe.w_amp * np.sin(2.0 * np.pi * x)
    elif recipe.kind == "two_mode":
        rho = recipe.rho_mean + recipe.rho_amp * (
            np.cos(2.0 * np.pi * x + recipe.phase)
            + 0.5 * np.cos(4.0 * np.pi * x + recipe.phase)
        )
        w = recipe.w_mean + recipe.w_amp * (
            np.sin(2.0 * np.pi * x) + 0.5 * np.sin(4.0 * np.pi * x))
    else:
        xs, rhos, ws = _read_profile_csv(recipe.csv_path)
        # nearest-row resampling with periodic distance, a block of cells at
        # a time so memory stays bounded; ties go to the first row.  The
        # distance is reduced modulo 1 for rows outside [0, 1), and is then
        # unchanged for rows inside it
        idx = np.empty(g.n_cells, dtype=np.intp)
        step = max(1, RESAMPLE_BLOCK // xs.size)
        for lo in range(0, g.n_cells, step):
            dist = np.abs(x[lo:lo + step, None] - xs[None, :]) % 1.0
            idx[lo:lo + step] = np.argmin(np.minimum(dist, 1.0 - dist), axis=1)
        rho, w = rhos[idx], ws[idx]
    return rho, w


def validate_profiles(rho0, w0, gammas, g: Grid) -> None:
    """Check the admissibility hypotheses against the largest gamma."""
    gamma_max = max(gammas)
    if not np.all(np.isfinite(rho0)) or not np.all(np.isfinite(w0)):
        raise ConfigError("initial data contain non-finite values")
    rho_min = float(np.min(rho0))
    if rho_min <= 0.0:
        raise ConfigError(
            f"initial density lower bound violated: min rho0 = {rho_min:.6g} <= 0"
        )
    cap = 1.0 + 1.0 / gamma_max
    rho_max = float(np.max(rho0))
    if rho_max > cap:
        raise ConfigError(
            f"initial density upper bound violated: max rho0 = {rho_max:.6g} "
            f"> 1 + 1/gamma = {cap:.6g} at gamma = {gamma_max:g}"
        )
    mean = integrate(np.asarray(rho0, dtype=float), g)
    if mean >= 1.0:
        raise ConfigError(
            f"initial mean-density bound violated: <rho0> = {mean:.6g} >= 1"
        )


def make_initial_data(recipe: InitRecipe, g: Grid, params: ModelParams,
                      formulation: str) -> State:
    """The state at t = 0 of a recipe in ``formulation``, checked against
    its gamma.

    A (rows, 1) gamma column gives a batch with one row per gamma, checked
    against the largest; each row holds the bits of its gamma's own state.
    """
    rho0, w0 = build_profiles(recipe, g)
    validate_profiles(rho0, w0, np.ravel(params.gamma), g)
    if formulation == U_FORM:
        mom = rho0 * w_to_u(rho0, w0, g, params)
    elif formulation == W_FORM:
        mom = rho0 * w0
    else:
        raise ConfigError(f"unknown formulation {formulation!r}")
    shape = np.shape(params.gamma)[:-1] + rho0.shape
    return State(0.0, np.broadcast_to(rho0, shape).copy(),
                 np.broadcast_to(mom, shape).copy(), formulation)
