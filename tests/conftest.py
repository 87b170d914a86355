"""Shared fixtures: the shipped cases, loaded from configs/ and run once per session."""
from __future__ import annotations

import dataclasses
import tempfile

import numpy as np
import pytest
from hypothesis.configuration import set_hypothesis_home_dir

from congestion_sim.cli import CONFIG_DIR
from congestion_sim.config import RunConfig, load_run_config
from congestion_sim.initial_data import make_initial_data
from congestion_sim.model import ModelParams, U_FORM, W_FORM
from congestion_sim.sweep import run_config
from congestion_sim.verify import self_convergence_study


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


def run_case(case: RunConfig, formulation: str, n_cells: int, t_end: float | None = None,
             gamma: float | None = None, recipe=None):
    """Run a shipped case, overriding only what the caller names."""
    traj = run_config(dataclasses.replace(
        case, n_cells=n_cells, recipe=recipe or case.recipe,
        scheme=dataclasses.replace(case.scheme, formulation=formulation),
        gamma=case.gamma if gamma is None else gamma,
        t_end=case.t_end if t_end is None else t_end))
    return traj, traj.init_summary, traj.grid


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


def observed_order(coarse: float, fine: float) -> float:
    return float(np.log2(coarse / fine))
