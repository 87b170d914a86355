"""Shared fixtures: the shipped cases, loaded from configs/ and run once per session."""
from __future__ import annotations

import dataclasses
import tempfile

import numpy as np
import pytest
from hypothesis.configuration import set_hypothesis_home_dir

from congestion_sim.cli import CONFIG_DIR
from congestion_sim.config import RunConfig, load_run_config
from congestion_sim.grid import Grid, as_field, backward_difference, forward_difference
from congestion_sim.initial_data import make_initial_data
from congestion_sim.model import ModelParams, U_FORM, W_FORM
from congestion_sim.solver import SchemeConfig, run_simulation
from congestion_sim.sweep import run_config
from congestion_sim.verify import ConvergenceStudy, _scaled_dt, _study, doubling_resolutions


# hypothesis keeps its storage in a directory removed when the session
# ends, not in the checkout (pyproject.toml turns off the plugins of pytest
# that write there)
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)


def pytest_sessionfinish(session, exitstatus):
    _HYPOTHESIS_HOME.cleanup()


def shipped(name: str) -> RunConfig:
    return load_run_config(str(CONFIG_DIR / f"{name}.cfg"))


STANDARD = shipped("standard_smooth")
TRAVELLING = shipped("travelling_smooth")
CONSTANT = shipped("constant_state")
SWEEP = shipped("standard_sweep")


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def shipped_config(tmp_path, case, changes, out_dir, name="run.cfg"):
    """The shipped config ``case`` with the keys of ``changes`` set and its
    output in ``out_dir``, written to ``tmp_path / name``."""
    changes = dict(changes, **{"output.dir": out_dir})
    lines = [line for line in (CONFIG_DIR / f"{case}.cfg").read_text(
        encoding="utf-8").splitlines() if line.partition("=")[0].strip() not in changes]
    lines += [f"{key} = {value}" for key, value in changes.items()]
    return write_config(tmp_path, "\n".join(lines) + "\n", name=name)


def run_case(case: RunConfig, formulation: str, n_cells: int, t_end: float | None = None,
             gamma: float | None = None, recipe=None, sink=None):
    """Run a shipped case, overriding only what the caller names."""
    traj = run_config(dataclasses.replace(
        case, n_cells=n_cells, recipe=recipe or case.recipe,
        scheme=dataclasses.replace(case.scheme, formulation=formulation),
        gamma=case.gamma if gamma is None else gamma,
        t_end=case.t_end if t_end is None else t_end), sink)
    return traj, traj.init_summary, traj.grid


# the fine-grid self-convergence study the tests run; no run of the
# program takes it

def average_down(fine: np.ndarray, factor: int) -> np.ndarray:
    """Exact block averaging of fine cells onto a coarser grid."""
    arr = np.asarray(fine, dtype=float)
    if arr.shape[0] % factor != 0:
        raise ValueError("fine resolution must be a multiple of the factor")
    return arr.reshape(-1, factor).mean(axis=1)


def self_convergence_study(make_init, params: ModelParams, resolutions,
                           t_end: float, config: SchemeConfig,
                           refine: int = 4) -> ConvergenceStudy:
    """Errors against a ``refine``-times-finer run of the same data.

    ``make_init`` maps a Grid to the initial State; the reference run is
    injected onto each coarse grid by exact block averaging.
    """
    resolutions = doubling_resolutions(resolutions)
    g_ref = Grid(resolutions[-1] * refine)
    ref = run_simulation(make_init(g_ref), g_ref, params, _scaled_dt(config, g_ref),
                         t_end).final_state

    def errors(g):
        traj = run_simulation(make_init(g), g, params, _scaled_dt(config, g), t_end)
        factor = g_ref.n_cells // g.n_cells
        return (traj.final_state.rho - average_down(ref.rho, factor),
                traj.final_state.mom - average_down(ref.mom, factor))

    return _study(resolutions, errors)


def standard_self_convergence(resolutions, t_end: float):
    """The standard case in w_form against a 4x finer run of itself, with
    the time-step settings of the manufactured-solution studies."""
    params = ModelParams(STANDARD.gamma)
    scheme = dataclasses.replace(STANDARD.scheme, cfl=0.45, dt_max=0.1, dt_init=0.1)

    def make_init(g):
        return make_initial_data(STANDARD.recipe, g, params, W_FORM)

    return self_convergence_study(make_init, params, resolutions, t_end, scheme)


@pytest.fixture(scope="session")
def standard_w_256():
    return run_case(STANDARD, W_FORM, 256)


@pytest.fixture(scope="session")
def standard_w_512():
    return run_case(STANDARD, W_FORM, 512)


@pytest.fixture(scope="session")
def standard_u_256():
    return run_case(STANDARD, U_FORM, 256)


@pytest.fixture(scope="session")
def standard_u_512():
    return run_case(STANDARD, U_FORM, 512)


@pytest.fixture(scope="session")
def travelling_w_256():
    return run_case(TRAVELLING, W_FORM, 256)


@pytest.fixture(scope="session")
def travelling_w_512():
    return run_case(TRAVELLING, W_FORM, 512)


@pytest.fixture(scope="session")
def constant_u_256():
    return run_case(CONSTANT, U_FORM, 256)


# the pure transport step of W that the maximum-principle tests run; no run
# of the program takes it

class CflError(ValueError):
    """Explicit transport step requested with dt above the CFL limit."""


def step_W_transport(W, u, g: Grid, dt: float):
    """Monotone upwind update of the pure transport equation for W.

    Each output value is a convex combination of old neighbouring values,
    so the discrete max cannot grow and the min cannot shrink.  Requires
    dt * max|u| <= dx.
    """
    W = as_field(W, g)
    u = as_field(u, g)
    courant = dt * float(np.max(np.abs(u))) / g.dx
    if courant > 1.0 + 1e-14:
        raise CflError(f"transport step violates CFL: dt*max|u|/dx = {courant:.4g}")
    u_pos = np.maximum(u, 0.0)
    u_neg = np.minimum(u, 0.0)
    return W - (dt / g.dx) * (u_pos * backward_difference(W)
                              + u_neg * forward_difference(W))


def observed_order(coarse: float, fine: float) -> float:
    return float(np.log2(coarse / fine))
