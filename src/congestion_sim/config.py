"""Flat key-value run configuration.

Grammar: one ``section.key = value`` per line, UTF-8 (a leading
byte-order mark is skipped), ``#`` starts a comment.  Unknown keys are an
error, never silently ignored.  Numbers must be finite.  Exactly one of
``model.gamma`` and ``sweep.gammas`` must be present: a positive gamma, or
a positive, strictly increasing ladder.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from .errors import ConfigError
from .grid import MAX_CELLS, Grid
from .initial_data import INIT_KINDS, InitRecipe
from .model import FORMULATIONS, W_FORM
from .solver import MAX_CELL_STEPS, STEP_OVERHEAD_CELLS, SchemeConfig, step_budget


def _parse_bool_free_float(text: str, key: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise ConfigError(f"{key}: expected a number, got {text!r}") from exc
    # nan passes every later range check (all comparisons are false) and
    # inf makes a run loop forever, so neither reaches the solver
    if not math.isfinite(value):
        raise ConfigError(f"{key}: expected a finite number, got {text!r}")
    return value


def _parse_int(text: str, key: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise ConfigError(f"{key}: expected an integer, got {text!r}") from exc


def _parse_float_list(text: str, key: str) -> tuple[float, ...]:
    items = [part.strip() for part in text.split(",") if part.strip()]
    if not items:
        raise ConfigError(f"{key}: expected a comma-separated list of numbers")
    return tuple(_parse_bool_free_float(item, key) for item in items)


# key -> (parser, default-or-None, help text); None default means optional
# presence handled downstream, REQUIRED means the key must appear.  The
# scheme and init defaults are those of SchemeConfig and InitRecipe (a
# dataclass field's default is also its class attribute).
REQUIRED = object()

CONFIG_KEYS = {
    "scheme.formulation": (str, "w_form",
                           f"state formulation, one of {FORMULATIONS}"),
    "scheme.cfl": (float, SchemeConfig.cfl, "advective CFL number in (0, 1]"),
    "scheme.dt_max": (float, SchemeConfig.dt_max, "upper bound on the time step"),
    "scheme.dt_init": (float, SchemeConfig.dt_init,
                       "time step cap for the very first step"),
    "grid.n_cells": (int, REQUIRED,
                     f"number of cells of the periodic mesh (4 to {MAX_CELLS})"),
    "model.gamma": (float, None, "offset exponent for a single run"),
    "sweep.gammas": ("float_list", None,
                     "comma-separated increasing exponents for a sweep"),
    "init.kind": (str, InitRecipe.kind, f"initial-data family, one of {INIT_KINDS}"),
    "init.rho_mean": (float, InitRecipe.rho_mean,
                      "mean initial density (must exceed rho_amp)"),
    "init.rho_amp": (float, InitRecipe.rho_amp, "density perturbation amplitude (>= 0)"),
    "init.w_amp": (float, InitRecipe.w_amp, "desired-velocity amplitude"),
    "init.w_mean": (float, InitRecipe.w_mean, "mean desired velocity"),
    "init.phase": (float, InitRecipe.phase, "phase shift of the density perturbation"),
    "init.csv_path": (str, InitRecipe.csv_path, "profile file for init.kind = custom_csv"),
    "time.t_end": (float, REQUIRED, "final time of the run (at most scheme.dt_max * "
                   f"{MAX_CELL_STEPS:.0e} / (grid.n_cells + {STEP_OVERHEAD_CELLS}))"),
    "output.dir": (str, "out", "output directory"),
    "diagnostics.every": (float, SchemeConfig.snapshot_every,
                          "snapshot/diagnostics cadence in time"),
}


def parse_config_text(text: str, origin: str = "<config>") -> dict:
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{origin}:{lineno}: expected 'section.key = value'")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{origin}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{origin}:{lineno}: duplicate key {key!r}")
        kind = CONFIG_KEYS[key][0]
        if kind is float:
            values[key] = _parse_bool_free_float(val, key)
        elif kind is int:
            values[key] = _parse_int(val, key)
        elif kind == "float_list":
            values[key] = _parse_float_list(val, key)
        else:
            values[key] = val
    return values


def parse_config_file(path: str) -> dict:
    try:
        with open(path, encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config_text(text, origin=path)


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run configuration."""

    scheme: SchemeConfig
    n_cells: int
    gamma: float | None
    gammas: tuple[float, ...] | None
    recipe: InitRecipe
    t_end: float
    out_dir: str


def resolve_run_config(values: dict) -> RunConfig:
    """Fill defaults, enforce requiredness and cross-key rules."""
    resolved = {}
    for key, (_, default, _help) in CONFIG_KEYS.items():
        if key in values:
            resolved[key] = values[key]
        elif default is REQUIRED:
            raise ConfigError(f"missing required config key {key!r}")
        else:
            resolved[key] = default

    gamma, gammas = resolved["model.gamma"], resolved["sweep.gammas"]
    if (gamma is None) == (gammas is None):
        raise ConfigError(
            "exactly one of model.gamma and sweep.gammas must be present"
        )
    if gamma is not None and gamma <= 0.0:
        raise ConfigError(f"model.gamma must be positive, got {gamma:g}")
    if gammas is not None and (not gammas or gammas[0] <= 0.0 or any(
            b <= a for a, b in zip(gammas, gammas[1:]))):
        raise ConfigError("sweep.gammas must be positive and strictly increasing, "
                          f"got {', '.join(f'{v:g}' for v in gammas)}")

    # one key at a time on an admissible scheme, so a rule the dataclass
    # rejects is the rule of that key
    scheme = SchemeConfig(formulation=W_FORM)
    for f in fields(SchemeConfig):
        key = "diagnostics.every" if f.name == "snapshot_every" else f"scheme.{f.name}"
        try:
            scheme = replace(scheme, **{f.name: resolved[key]})
        except ValueError as exc:
            raise ConfigError(f"{key} = {resolved[key]!r}: {exc}") from exc
    recipe = InitRecipe(**{f.name: resolved[f"init.{f.name}"]
                           for f in fields(InitRecipe)})

    # every accepted run is finishable: Grid bounds the cell count, and the
    # least step count t_end / dt_max lies within the step budget of those cells
    n_cells, t_end = resolved["grid.n_cells"], resolved["time.t_end"]
    try:
        Grid(n_cells)
    except ValueError as exc:
        raise ConfigError(f"grid.n_cells: {exc}") from exc
    if t_end <= 0.0:
        raise ConfigError("time.t_end must be positive")
    if t_end / scheme.dt_max > step_budget(n_cells):
        raise ConfigError(f"time.t_end / scheme.dt_max = {t_end / scheme.dt_max:.3g} steps "
                          f"at least, above the step budget of {step_budget(n_cells):.3g}")

    return RunConfig(
        scheme=scheme,
        n_cells=n_cells,
        gamma=gamma,
        gammas=gammas,
        recipe=recipe,
        t_end=t_end,
        out_dir=resolved["output.dir"],
    )


def load_run_config(path: str) -> RunConfig:
    return resolve_run_config(parse_config_file(path))


def config_key_help() -> str:
    lines = ["configuration keys (section.key = value, '#' comments):"]
    for key, (_, default, help_text) in CONFIG_KEYS.items():
        tag = "required" if default is REQUIRED else f"default {default!r}"
        lines.append(f"  {key:<22} {help_text} [{tag}]")
    return "\n".join(lines)
