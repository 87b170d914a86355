import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congestion_sim.errors import DomainError, SaturationError
from congestion_sim.grid import Grid, ddx_central
from congestion_sim.model import (
    ModelParams,
    State,
    U_FORM,
    W_FORM,
    compute_V,
    compute_W,
    enthalpy_H,
    lambda_visc,
    potential_pi,
    pressure,
    u_to_w,
    velocities,
    w_to_u,
)


def mp_power(base: float, exponent: float) -> float:
    with mpmath.workdps(40):
        return float(mpmath.mpf(base) ** mpmath.mpf(exponent))


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(gamma=0.0)
    with pytest.raises(ValueError):
        ModelParams(gamma=float("inf"))


def test_pressure_basic_values():
    assert pressure(1.0, ModelParams(5.0)) == 1.0
    assert pressure(2.0, ModelParams(3.0)) == pytest.approx(8.0, rel=1e-14)


def test_pressure_large_gamma_against_oracle():
    # independent high-precision oracle for 0.9^80
    want = mp_power(0.9, 80)
    assert want == pytest.approx(2.1847450052839213e-4, abs=1e-12)
    assert pressure(0.9, ModelParams(80.0)) == pytest.approx(want, abs=1e-8)


def test_pressure_domain_and_saturation():
    with pytest.raises(DomainError):
        pressure(0.0, ModelParams(2.0))
    with pytest.raises(DomainError):
        pressure(-1.0, ModelParams(2.0))
    with pytest.raises(SaturationError):
        pressure(2.0, ModelParams(1100.0))  # 1100*ln 2 > 700


def test_saturation_error_carries_context():
    g = Grid(8)
    rho = np.full(8, 1.0)
    rho[3] = 2.5
    with pytest.raises(SaturationError) as err:
        pressure(rho, ModelParams(1000.0))
    assert err.value.cell == 3
    assert err.value.gamma == 1000.0


def test_saturation_error_names_the_batch_row():
    rho = np.ones((3, 8))
    rho[1, 3] = 2.5
    gammas = np.array([[10.0], [1000.0], [20.0]])
    with pytest.raises(SaturationError) as batch:
        pressure(rho, ModelParams(gammas))
    with pytest.raises(SaturationError) as alone:
        pressure(rho[1], ModelParams(1000.0))
    assert str(batch.value) == str(alone.value)
    assert (batch.value.row, batch.value.cell, batch.value.gamma) == (1, 3, 1000.0)
    assert alone.value.row is None


def test_lambda_visc_values():
    assert lambda_visc(1.0, ModelParams(7.0)) == pytest.approx(7.0, rel=1e-14)
    assert lambda_visc(0.5, ModelParams(1.0)) == pytest.approx(0.25, rel=1e-14)
    want = 40.0 * mp_power(1.05, 41)
    assert want == pytest.approx(295.67952590923514, rel=1e-12)
    assert lambda_visc(1.05, ModelParams(40.0)) == pytest.approx(want, rel=1e-12)


def test_potential_pi_values():
    assert potential_pi(1.0, ModelParams(9.0)) == pytest.approx(0.9, rel=1e-14)
    assert potential_pi(1e-8, ModelParams(3.0)) <= 1e-30


def test_potential_pi_derivative_matches_finite_difference():
    params = ModelParams(20.0)
    rho, h = 0.95, 1e-7
    fd = (potential_pi(rho + h, params) - potential_pi(rho - h, params)) / (2.0 * h)
    assert fd == pytest.approx(params.gamma * pressure(rho, params), rel=1e-6)


def test_enthalpy_values_and_identity():
    assert enthalpy_H(1.0, ModelParams(9.0)) == pytest.approx(0.1, rel=1e-14)
    want = mp_power(1.1, 11) / 11.0
    assert enthalpy_H(1.1, ModelParams(10.0)) == pytest.approx(want, abs=1e-5)
    # pi is computed as gamma * H, so the identity is exact
    for gamma in (0.7, 3.0, 42.0):
        params = ModelParams(gamma)
        for rho in (0.3, 0.95, 1.1):
            assert potential_pi(rho, params) == gamma * enthalpy_H(rho, params)


@given(st.floats(min_value=0.05, max_value=1.25),
       st.floats(min_value=0.5, max_value=120.0))
@settings(max_examples=80, deadline=None)
def test_constitutive_identities(rho, gamma):
    params = ModelParams(gamma)
    lam = lambda_visc(rho, params)
    assert lam == pytest.approx(gamma * mp_power(rho, gamma + 1.0), rel=1e-12)
    # H'(rho) = p(rho) via central differences
    h = 3e-6 * rho
    fd = (enthalpy_H(rho + h, params) - enthalpy_H(rho - h, params)) / (2.0 * h)
    assert fd == pytest.approx(pressure(rho, params), rel=1e-6)


def test_monotonicity_on_log_spaced_sample():
    for gamma in (0.5, 2.0, 17.0, 90.0):
        params = ModelParams(gamma)
        sample = np.logspace(-2, 0.1, 40)
        for fn in (pressure, lambda_visc, potential_pi, enthalpy_H):
            values = fn(sample, params)
            assert np.all(np.diff(values) > 0.0)


def test_u_to_w_constant_density():
    g = Grid(32)
    rho = np.full(32, 0.7)
    u = np.sin(2.0 * np.pi * g.x)
    w = u_to_w(rho, u, g, ModelParams(6.0))
    assert np.allclose(w, u, atol=1e-15)


def test_u_to_w_manufactured_chain_rule():
    g = Grid(2048)
    params = ModelParams(2.0)
    rho = 1.0 + 0.1 * np.sin(2.0 * np.pi * g.x)
    u = np.zeros(g.n_cells)
    # w = u + dx(rho^2) = 2 rho dx(rho)
    exact = 2.0 * rho * (0.1 * 2.0 * np.pi * np.cos(2.0 * np.pi * g.x))
    w = u_to_w(rho, u, g, params)
    assert np.max(np.abs(w - exact)) <= 1e-4


@given(st.floats(min_value=0.6, max_value=40.0))
@settings(max_examples=30, deadline=None)
def test_velocity_round_trip(gamma):
    g = Grid(64)
    params = ModelParams(gamma)
    rng = np.random.default_rng(int(gamma * 1000) % 2**31)
    rho = 0.5 + 0.4 * rng.random(64)
    u = rng.normal(size=64)
    w = u_to_w(rho, u, g, params)
    back = w_to_u(rho, w, g, params)
    assert np.max(np.abs(back - u)) <= 1e-14 * (1.0 + np.max(np.abs(u)))


def test_compute_W_cases():
    g = Grid(1024)
    rho = np.ones(1024)
    w = np.sin(2.0 * np.pi * g.x)
    W = compute_W(rho, w, g)
    assert np.max(np.abs(W - 2.0 * np.pi * np.cos(2.0 * np.pi * g.x))) <= 1e-4
    assert np.all(compute_W(rho, np.full(1024, 2.3), g) == 0.0)
    # scaling rho by 2 scales W by exactly 1/2 (binary scaling is exact)
    rho2 = 0.8 + 0.1 * np.cos(2.0 * np.pi * g.x)
    assert np.array_equal(compute_W(2.0 * rho2, w, g), compute_W(rho2, w, g) / 2.0)
    with pytest.raises(DomainError):
        compute_W(np.zeros(1024), w, g)


def test_compute_W_times_rho_recovers_gradient():
    g = Grid(128)
    rng = np.random.default_rng(7)
    rho = 0.5 + rng.random(128)
    w = rng.normal(size=128)
    assert np.allclose(compute_W(rho, w, g) * rho, ddx_central(w, g),
                       rtol=1e-14, atol=1e-14)


def test_compute_V_cases():
    g = Grid(1024)
    params = ModelParams(5.0)
    rho = np.ones(1024)
    u = np.sin(2.0 * np.pi * g.x)
    V = compute_V(rho, u, g, params)
    assert np.max(np.abs(V - 5.0 * 2.0 * np.pi * np.cos(2.0 * np.pi * g.x))) <= 5e-4
    assert np.all(compute_V(rho, np.full(1024, 1.5), g, params) == 0.0)
    # with lambda = 4 exactly, V / lambda recovers the gradient exactly
    params4 = ModelParams(4.0)
    V4 = compute_V(rho, u, g, params4)
    assert np.array_equal(V4 / 4.0, ddx_central(u, g))


def test_state_validation():
    with pytest.raises(ValueError):
        State(0.0, np.ones(8), np.ones(7), U_FORM)
    with pytest.raises(ValueError):
        State(0.0, np.ones(8), np.ones(8), "q_form")
    with pytest.raises(ValueError):
        State(-1.0, np.ones(8), np.ones(8), U_FORM)


def test_velocities():
    g = Grid(64)
    params = ModelParams(3.0)
    rho = 0.8 + 0.1 * np.cos(2.0 * np.pi * g.x)
    w = 0.2 * np.sin(2.0 * np.pi * g.x)
    state = State(0.0, rho, rho * w, W_FORM)
    u, w_back = velocities(state, g, params)
    assert np.allclose(w_back, w, atol=1e-15)
    assert np.allclose(u, w - ddx_central(pressure(rho, params), g), atol=1e-15)
