import numpy as np
import pytest

from conftest import average_down, step_W_transport
from congestion_sim.grid import Grid
from congestion_sim.model import ModelParams, State, U_FORM, W_FORM
from congestion_sim.solver import SchemeConfig, run_simulation
from congestion_sim.verify import (
    CASES,
    convergence_study,
    dense_oracle_checks,
    dense_step_oracle,
    mms_constant_check,
    mms_order_checks,
)


def test_constant_case_has_zero_sources():
    case = CASES["constant"]
    x = np.linspace(0.0, 1.0, 17)
    s_rho, s_mom = case.sources_u(x, 0.3)
    assert np.all(s_rho == 0.0)
    assert np.all(s_mom == 0.0)
    s_rho_w, s_mom_w = case.sources_w(x, 0.3)
    assert np.all(s_rho_w == 0.0) and np.all(s_mom_w == 0.0)


def test_travelling_velocity_source_closed_form():
    # rho* = 0.8, u* = 0.1 sin(2 pi (x - t)):
    # S_rho = 0.8 * 0.2 pi cos(2 pi (x - t))
    case = CASES["travelling_velocity"]
    x = np.array([0.0, 0.13, 0.5, 0.77])
    t = 0.31
    s_rho, _ = case.sources_u(x, t)
    want = 0.8 * 0.2 * np.pi * np.cos(2.0 * np.pi * (x - t))
    assert np.allclose(s_rho, want, rtol=1e-13)


def closure_by_closure_sources(case, x, t):
    """Both formulations' sources with every partial taken from its closure
    where the formula uses it: the assembly the sources had before each
    profile was evaluated once per call."""
    gm = case.gamma
    rho, u = case.rho(x, t), case.u(x, t)
    rx, rt = case.drho_dx(x, t), case.drho_dt(x, t)
    ux, ut = case.du_dx(x, t), case.du_dt(x, t)
    s_rho = rt + rx * u + rho * ux
    lam = gm * rho ** (gm + 1.0)
    dlam = gm * (gm + 1.0) * rho ** gm * rx
    diffusion = dlam * ux + lam * case.d2u_dx2(x, t)
    s_mom_u = rt * u + rho * ut + rx * u * u + 2.0 * rho * u * ux - diffusion
    w = case.u(x, t) + gm * case.rho(x, t) ** (gm - 1.0) * case.drho_dx(x, t)
    wx = (case.du_dx(x, t)
          + gm * (gm - 1.0) * case.rho(x, t) ** (gm - 2.0) * case.drho_dx(x, t)
          * case.drho_dx(x, t)
          + gm * case.rho(x, t) ** (gm - 1.0) * case.d2rho_dx2(x, t))
    wt = (case.du_dt(x, t)
          + gm * (gm - 1.0) * case.rho(x, t) ** (gm - 2.0) * case.drho_dt(x, t)
          * case.drho_dx(x, t)
          + gm * case.rho(x, t) ** (gm - 1.0) * case.d2rho_dxdt(x, t))
    s_mom_w = rt * w + rho * wt + rx * w * u + rho * wx * u + rho * w * ux
    return (s_rho, s_mom_u), (s_rho, s_mom_w)


@pytest.mark.parametrize("name", sorted(CASES))
def test_sources_match_the_closure_by_closure_formulas_bit_for_bit(name):
    case = CASES[name]
    x = Grid(64).x
    for t in (0.0, 0.1234, case.t_end):
        want_u, want_w = closure_by_closure_sources(case, x, t)
        for got, want in ((case.sources_u(x, t), want_u), (case.sources_w(x, t), want_w)):
            assert [a.tobytes() for a in got] == [b.tobytes() for b in want]


def test_sources_periodic_in_time():
    case = CASES["travelling_wave"]
    x = np.linspace(0.0, 1.0, 33)
    a = case.sources_u(x, 0.2)
    b = case.sources_u(x, 1.2)  # shifted by one period of the wave
    assert np.allclose(a[0], b[0], atol=1e-12)
    assert np.allclose(a[1], b[1], atol=1e-12)


@pytest.mark.parametrize("name", ["travelling_velocity", "travelling_wave"])
@pytest.mark.parametrize("formulation", [U_FORM, W_FORM])
def test_sources_cross_checked_by_high_order_differences(name, formulation):
    # independent check of the hand-derived sources: evaluate the PDE
    # residual of the exact fields with fourth-order finite differences
    case = CASES[name]
    params = case.params()
    gm = params.gamma
    rng = np.random.default_rng(99)
    hx, ht = 1e-4, 1e-4

    def d4(f, z, h):
        return (-f(z + 2 * h) + 8 * f(z + h) - 8 * f(z - h) + f(z - 2 * h)) / (12 * h)

    for _ in range(5):
        x = float(rng.uniform(0.0, 1.0))
        t = float(rng.uniform(0.0, 0.5))
        xa = np.array([x])

        def rho_x(z):
            return case.rho(np.array([z]), t)[0]

        def rho_t(s):
            return case.rho(xa, s)[0]

        def mass_flux_x(z):
            za = np.array([z])
            return (case.rho(za, t) * case.u(za, t))[0]

        s_rho_fd = d4(rho_t, t, ht) + d4(mass_flux_x, x, hx)
        s_rho, s_mom = case.sources_u(xa, t)
        assert s_rho_fd == pytest.approx(s_rho[0], rel=1e-7, abs=1e-7)

        if formulation == U_FORM:
            def mom_t(s):
                return (case.rho(xa, s) * case.u(xa, s))[0]

            def mom_flux_x(z):
                za = np.array([z])
                rho, u = case.rho(za, t), case.u(za, t)
                lam = gm * rho ** (gm + 1.0)
                return (rho * u * u - lam * case.du_dx(za, t))[0]

            fd = d4(mom_t, t, ht) + d4(mom_flux_x, x, hx)
            assert fd == pytest.approx(s_mom[0], rel=1e-6, abs=1e-6)
        else:
            def w_of(za, s):
                rho = case.rho(za, s)
                return case.u(za, s) + gm * rho ** (gm - 1.0) * case.drho_dx(za, s)

            def mom_t(s):
                return (case.rho(xa, s) * w_of(xa, s))[0]

            def mom_flux_x(z):
                za = np.array([z])
                return (case.rho(za, t) * w_of(za, t) * case.u(za, t))[0]

            fd = d4(mom_t, t, ht) + d4(mom_flux_x, x, hx)
            _, s_mom_w = case.sources_w(xa, t)
            assert fd == pytest.approx(s_mom_w[0], rel=1e-6, abs=1e-6)


def test_dense_oracle_constant_fixed_point():
    g = Grid(8)
    params = ModelParams(3.0)
    rho = np.full(8, 0.8)
    state = State(0.0, rho, np.zeros(8), U_FORM)
    out = dense_step_oracle(state, g, params, SchemeConfig(formulation=U_FORM), 1e-3)
    assert np.max(np.abs(out.rho - rho)) <= 1e-15
    assert np.max(np.abs(out.mom)) <= 1e-15


@pytest.mark.parametrize("formulation", [U_FORM, W_FORM])
def test_dense_oracle_matches_solver_step(formulation):
    u_check, w_check = dense_oracle_checks()
    assert (u_check if formulation == U_FORM else w_check).worst <= 1e-12


def test_dense_oracle_rejects_large_grids():
    g = Grid(16)
    state = State(0.0, np.ones(16), np.zeros(16), U_FORM)
    with pytest.raises(ValueError):
        dense_step_oracle(state, g, ModelParams(2.0), SchemeConfig(formulation=U_FORM), 1e-4)


def test_convergence_study_constant_case_exact():
    study = convergence_study(CASES["constant"], (16, 32, 64))
    assert study.exact
    assert max(study.rho_l1) <= 1e-12
    assert "exact" in study.table()
    # verify's check of the same study has its verdict
    check = mms_constant_check()
    assert check.passed is study.exact
    assert check.worst == max(study.rho_l1 + study.mom_l1)


def test_convergence_study_validates_resolutions():
    with pytest.raises(ValueError):
        convergence_study(CASES["constant"], (16, 32))
    with pytest.raises(ValueError):
        convergence_study(CASES["constant"], (16, 24, 32))


@pytest.mark.parametrize("formulation", [U_FORM, W_FORM])
def test_mms_orders_first_order_band(formulation):
    rho_order, mom_order = mms_order_checks(formulation)
    assert rho_order.passed and mom_order.passed


def test_sources_disabled_reproduces_plain_trajectory():
    case = CASES["travelling_wave"]
    g = Grid(64)
    params = case.params()
    cfg = SchemeConfig(formulation=U_FORM, dt_max=1e-3, dt_init=1e-3,
                       snapshot_every=0.05)
    init = case.exact_state(g, 0.0, U_FORM)
    plain = run_simulation(init, g, params, cfg, 0.1)
    zero = run_simulation(init, g, params, cfg, 0.1,
                          sources=lambda x, t: (np.zeros_like(x), np.zeros_like(x)))
    assert np.array_equal(plain.final_state.rho, zero.final_state.rho)
    assert np.array_equal(plain.final_state.mom, zero.final_state.mom)


def test_transport_step_exact_at_unit_cfl_all_resolutions():
    for n in (32, 64, 128):
        g = Grid(n)
        W = np.sin(2.0 * np.pi * g.x)
        out = W.copy()
        for _ in range(n // 4):
            out = step_W_transport(out, np.ones(n), g, g.dx)
        assert np.allclose(out, np.roll(W, n // 4), rtol=0.0, atol=1e-13)


def test_average_down_block_means():
    fine = np.arange(16.0)
    coarse = average_down(fine, 4)
    assert np.allclose(coarse, [1.5, 5.5, 9.5, 13.5])
    with pytest.raises(ValueError):
        average_down(np.arange(10.0), 4)


def test_self_convergence_study_on_smooth_case():
    from conftest import standard_self_convergence

    study = standard_self_convergence((32, 64, 128), t_end=0.2)
    assert study.orders_rho_l1[-1] >= 0.8
