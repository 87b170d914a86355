import copy
import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import congestion_sim._lapack as _lapack
import congestion_sim.solver as solver_mod
from conftest import (
    CONSTANT,
    STANDARD,
    SWEEP,
    CflError,
    assert_report_is_plain_runs,
    run_case,
    standard_self_convergence,
    step_W_transport,
)
from congestion_sim.diagnostics import trajectory_checks
from congestion_sim.errors import LinearSolveError, NonFiniteError, VacuumError
from congestion_sim.grid import Grid, integrate
from congestion_sim.initial_data import make_initial_data
from congestion_sim.model import ModelParams, State, StateFields, U_FORM, W_FORM, state_fields
from congestion_sim.solver import (
    VELOCITY_FLOOR,
    SchemeConfig,
    compute_dt,
    run_simulation,
    solve_cyclic_tridiagonal,
    step_u_form,
    step_w_form,
)
from congestion_sim.sweep import run_config, run_sweep
from congestion_sim.verify import random_cyclic_systems_check


def quiescent_state(n, rho0=0.8, formulation=U_FORM):
    rho = np.full(n, rho0)
    return State(0.0, rho, np.zeros(n), formulation)


# ------------------------------------------------------------- compute_dt --

def test_compute_dt_quiescent_hits_dt_max():
    g = Grid(64)
    cfg = SchemeConfig(formulation=U_FORM, dt_max=0.37)
    dt = compute_dt(quiescent_state(64), g, ModelParams(4.0), cfg)
    assert dt == 0.37


def test_compute_dt_cfl_formula():
    g = Grid(256)
    cfg = SchemeConfig(formulation=U_FORM, cfl=0.45, dt_max=10.0)
    rho = np.ones(256)
    u = np.zeros(256)
    u[10] = 1.0
    state = State(0.0, rho, rho * u, U_FORM)
    dt = compute_dt(state, g, ModelParams(1e-6), cfg)
    # offset gradient is negligible at tiny gamma, so max speed is 1
    assert dt == pytest.approx(0.45 / 256, rel=1e-6)


def test_compute_dt_halves_with_resolution():
    cfg = SchemeConfig(formulation=U_FORM, cfl=0.45, dt_max=10.0)
    dts = []
    for n in (128, 256):
        g = Grid(n)
        rho = np.ones(n)
        u = np.ones(n)
        dts.append(compute_dt(State(0.0, rho, rho * u, U_FORM), g,
                              ModelParams(1e-6), cfg))
    assert dts[0] == pytest.approx(2.0 * dts[1], rel=1e-12)


# u and w of a batch of 3 rows, with both signs of zero, nan and huge and
# tiny values among their cells
velocity_pairs = hnp.arrays(np.float64, st.integers(1, 9).map(lambda k: (2, 3, 4 * k)),
                            elements=st.one_of(st.floats(allow_infinity=False, width=64),
                                               st.sampled_from([0.0, -0.0, np.nan])))


@given(velocity_pairs)
@settings(max_examples=200, deadline=None)
def test_compute_dt_is_the_cfl_step_of_the_largest_speed(uw):
    u, w = uw
    # bit for bit the step of max(|u|, |w|) over each row, nan included, for
    # a batch and for each of its rows alone
    g = Grid(u.shape[-1])
    cfg = SchemeConfig(formulation=U_FORM, cfl=0.45, dt_max=10.0)
    fields = StateFields(*(np.ones_like(u),) * 3, u, w)
    state = State(np.zeros(len(u)), np.ones_like(u), u, U_FORM)
    speed = np.maximum(np.abs(u), np.abs(w)).max(axis=-1)
    want = np.minimum(cfg.dt_max, cfg.cfl * g.dx / np.maximum(VELOCITY_FLOOR, speed))
    got = compute_dt(state, g, ModelParams(np.full((len(u), 1), 2.0)), cfg, fields)
    assert got.tobytes() == want.tobytes()
    for i in range(len(u)):
        alone = compute_dt(State(0.0, state.rho[i], u[i], U_FORM), g, ModelParams(2.0),
                           cfg, StateFields(*(f[i] for f in fields)))
        assert np.float64(alone).tobytes() == want[i].tobytes()


# ---------------------------------------------------------- donor fluxes --

def next_cells(f):
    """f[i+1], periodic, as the step reads it from its halo."""
    return np.roll(f, -1, axis=-1)


def viscosity_form_flux(q, v):
    """The donor-cell flux of q at faces i+1/2 in viscosity form, with the
    expansion-face floor, written out with rolls."""
    v_face = 0.5 * (v + np.roll(v, -1, axis=-1))
    a = np.maximum(np.abs(v_face), np.maximum(np.roll(v, -1, axis=-1) - v, 0.0))
    return 0.5 * (v_face * (q + np.roll(q, -1, axis=-1)) - a * (np.roll(q, -1, axis=-1) - q))


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=50, deadline=None)
def test_donor_split_flux_is_the_viscosity_form_flux(seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(0.0, rng.uniform(0.1, 10.0), (3, int(rng.integers(4, 40))))
    q = rng.uniform(0.1, 2.0, v.shape)
    v_face, vp, vm = solver_mod._upwind_faces(v, next_cells(v))
    assert (vp >= 0.0).all() and (vm <= 0.0).all()
    flux = solver_mod._donor_flux(q, next_cells(q), vp, vm)
    want = viscosity_form_flux(q, v)
    scale = np.abs(v).max() * q.max()
    assert np.allclose(flux, want, rtol=0.0, atol=8e-16 * scale)
    # each row of the batch has the bits of that row alone
    for i in range(len(v)):
        alone = solver_mod._donor_flux(q[i], next_cells(q[i]),
                                       *solver_mod._upwind_faces(v[i], next_cells(v[i]))[1:])
        assert np.array_equal(flux[i], alone)


def test_donor_split_flux_is_exact_on_the_drain_case(monkeypatch):
    # the state of test_vacuum_error_after_exhausted_halvings: both faces of
    # cell 0 carry exactly the viscosity-form flux, so the step empties it
    # to exactly zero
    rho = np.ones(4)
    u = np.array([0.0, 2.0, 0.0, -2.0])
    flux = solver_mod._donor_flux(rho, next_cells(rho),
                                  *solver_mod._upwind_faces(u, next_cells(u))[1:])
    assert np.array_equal(flux, viscosity_form_flux(rho, u))
    assert np.array_equal(flux, [1.0, 1.0, -1.0, -1.0])
    state = State(0.0, rho, rho * u, U_FORM)
    cfg = SchemeConfig(formulation=U_FORM)
    monkeypatch.setattr(solver_mod, "MAX_HALVINGS", 0)
    with pytest.raises(VacuumError):
        step_u_form(state, Grid(4), ModelParams(1e-9), cfg, 0.125)
    half = step_u_form(state, Grid(4), ModelParams(1e-9), cfg, 0.0625)
    assert half.rho[0] == 0.5


# ------------------------------------------------------------ fixed points --

@pytest.mark.parametrize("formulation,step", [(U_FORM, step_u_form),
                                              (W_FORM, step_w_form)])
def test_constant_state_is_fixed_point(formulation, step):
    g = Grid(32)
    params = ModelParams(7.0)
    cfg = SchemeConfig(formulation=formulation)
    state = quiescent_state(32, formulation=formulation)
    out = step(state, g, params, cfg, 1e-3)
    assert np.max(np.abs(out.rho - state.rho)) <= 1e-15
    assert np.max(np.abs(out.mom - state.mom)) <= 1e-15


@pytest.mark.parametrize("formulation,step", [(U_FORM, step_u_form),
                                              (W_FORM, step_w_form)])
def test_uniform_translation_is_fixed_point(formulation, step):
    g = Grid(32)
    params = ModelParams(3.0)
    cfg = SchemeConfig(formulation=formulation)
    rho = np.full(32, 0.9)
    vel = np.full(32, 0.4)
    state = State(0.0, rho, rho * vel, formulation)
    out = step(state, g, params, cfg, 1e-3)
    assert np.max(np.abs(out.rho - rho)) <= 1e-15
    assert np.max(np.abs(out.mom - rho * vel)) <= 1e-14


def test_step_formulation_mismatch_raises():
    g = Grid(16)
    params = ModelParams(2.0)
    state = quiescent_state(16, formulation=U_FORM)
    with pytest.raises(ValueError):
        step_w_form(state, g, params, SchemeConfig(formulation=W_FORM), 1e-3)


def test_vacuum_error_after_exhausted_halvings(monkeypatch):
    # strong divergence drains cell 0 to exactly zero in one step
    g = Grid(4)
    params = ModelParams(1e-9)
    cfg = SchemeConfig(formulation=U_FORM)
    monkeypatch.setattr(solver_mod, "MAX_HALVINGS", 0)
    rho = np.ones(4)
    u = np.array([0.0, 2.0, 0.0, -2.0])
    state = State(0.0, rho, rho * u, U_FORM)
    with pytest.raises(VacuumError) as err:
        step_u_form(state, g, params, cfg, g.dx / 2.0)
    assert err.value.cell == 0
    assert err.value.gamma == params.gamma


def test_positivity_rescue_halves_dt(monkeypatch):
    # a rescued step is the plain step at the accepted dt, bit for bit; the
    # u-formulation case is the state above, which needs one halving
    g = Grid(4)
    params = ModelParams(1e-9)
    rho = np.ones(4)
    for formulation, v, dt, halvings in [
            (U_FORM, [0.0, 2.0, 0.0, -2.0], g.dx / 2.0, 1),
            (W_FORM, [0.0, 4.0, 0.0, -4.0], g.dx, 2)]:
        state = State(0.0, rho, rho * np.array(v), formulation)
        cfg = SchemeConfig(formulation=formulation)

        def step(max_halvings, dt):
            monkeypatch.setattr(solver_mod, "MAX_HALVINGS", max_halvings)
            return (step_u_form if formulation == U_FORM else step_w_form)(
                state, g, params, cfg, dt)

        with pytest.raises(VacuumError):
            step(halvings - 1, dt)
        out = step(20, dt)
        plain = step(0, dt / 2**halvings)
        assert out.t == plain.t < state.t + dt
        assert np.array_equal(out.rho, plain.rho)
        assert np.array_equal(out.mom, plain.mom)
        assert np.min(out.rho) > 0.0


@pytest.mark.parametrize("formulation,forced", [(W_FORM, False), (U_FORM, False),
                                                (W_FORM, True), (U_FORM, True)])
def test_standalone_step_matches_run_loop_step(monkeypatch, formulation, forced):
    # the run loop hands each step precomputed fields and collects its face
    # quantities; a bare call must return the same bits on the same state
    import congestion_sim.solver as solver_mod
    from congestion_sim.verify import CASES

    name = "step_u_form" if formulation == U_FORM else "step_w_form"
    bare = getattr(solver_mod, name)
    seen = []

    def recording(state, g, params, config, dt, sources=None, **kw):
        assert kw["fields"] is not None and kw["scratch"] is not None
        new = bare(state, g, params, config, dt, sources, **kw)
        seen.append((state, dt, sources, new))
        return new

    monkeypatch.setattr(solver_mod, name, recording)
    g = Grid(64)
    if forced:
        case = CASES["travelling_wave"]
        params = case.params()
        init = case.exact_state(g, 0.0, formulation)
        sources = case.sources(formulation)
    else:
        params = ModelParams(10.0)
        init = make_initial_data(STANDARD.recipe, g, params, formulation)
        sources = None
    cfg = SchemeConfig(formulation=formulation, cfl=0.45, dt_max=0.01, dt_init=0.005)
    traj = run_simulation(init, g, params, cfg, 0.05, sources=sources)
    assert len(seen) == traj.n_steps > 1
    for state, dt, src, new in seen:
        alone = bare(state, g, params, cfg, dt, src)
        assert alone.t == new.t
        assert np.array_equal(alone.rho, new.rho)
        assert np.array_equal(alone.mom, new.mom)


# --------------------------------------------------------------- W transport

def test_w_transport_trivial_cases():
    g = Grid(64)
    W = np.full(64, 1.3)
    u = np.sin(2.0 * np.pi * g.x)
    assert np.array_equal(step_W_transport(W, u, g, 1e-3), W)
    W2 = np.cos(2.0 * np.pi * g.x)
    assert np.array_equal(step_W_transport(W2, np.zeros(64), g, 1e-3), W2)


def test_w_transport_unit_cfl_exact_shift():
    # exact shift in exact arithmetic; rounding leaves 1-ulp wobble
    g = Grid(64)
    rng = np.random.default_rng(3)
    W = rng.normal(size=64)
    out = step_W_transport(W, np.ones(64), g, g.dx)
    assert np.allclose(out, np.roll(W, 1), rtol=0.0, atol=1e-14)


def test_w_transport_cfl_violation():
    g = Grid(64)
    with pytest.raises(CflError):
        step_W_transport(np.zeros(64), np.ones(64), g, 1.5 * g.dx)


@given(hnp.arrays(np.float64, 64,
                  elements=st.floats(min_value=-10, max_value=10)),
       hnp.arrays(np.float64, 64,
                  elements=st.floats(min_value=-3, max_value=3)),
       st.floats(min_value=0.05, max_value=1.0))
@settings(max_examples=60, deadline=None)
def test_w_transport_max_principle(W, u, frac):
    g = Grid(64)
    umax = max(np.max(np.abs(u)), 1e-9)
    dt = frac * g.dx / umax
    out = step_W_transport(W, u, g, dt)
    span = max(1.0, np.max(np.abs(W)))
    assert np.max(out) <= np.max(W) + 1e-14 * span
    assert np.min(out) >= np.min(W) - 1e-14 * span


# ------------------------------------------------------- cyclic tridiagonal

def test_cyclic_tridiagonal_identity():
    rng = np.random.default_rng(0)
    rhs = rng.normal(size=12)
    x = solve_cyclic_tridiagonal(np.ones(12), np.zeros(12), rhs)
    assert np.allclose(x, rhs, atol=1e-14)


def test_cyclic_tridiagonal_circulant_eigenvector():
    # identity plus periodic second-difference: strictly dominant circulant
    n = 64
    k = 3
    g = Grid(n)
    mode = np.sin(2.0 * np.pi * k * g.x)
    eig = 3.0 - 2.0 * np.cos(2.0 * np.pi * k / n)
    x = solve_cyclic_tridiagonal(np.full(n, 3.0), np.full(n, -1.0), mode)
    assert np.max(np.abs(x - mode / eig)) <= 1e-12


def test_cyclic_tridiagonal_matches_dense_on_random_systems():
    check = random_cyclic_systems_check(seed=42, n_max=40)
    assert check.worst <= 1e-12


def test_cyclic_tridiagonal_rejects_indefinite():
    # a negative diagonal entry at a cell the rank-one split leaves as it
    # is (neither the first nor the last) makes the split matrix
    # indefinite, so the factorization meets a non-positive pivot
    rng = np.random.default_rng(42)
    for _ in range(20):
        n = int(rng.integers(4, 40))
        diag, off, rhs = (a[0] for a in random_dominant_systems(rng, 1, n))
        diag *= rng.choice([-1.0, 1.0], size=n)
        k = int(rng.integers(1, n - 1))
        diag[k] = -abs(diag[k])
        with pytest.raises(LinearSolveError, match="ptsv info"):
            solve_cyclic_tridiagonal(diag, off, rhs)


def test_cyclic_tridiagonal_linearity():
    rng = np.random.default_rng(5)
    n = 24
    off = rng.normal(size=n)
    diag = np.abs(off) + np.abs(np.roll(off, 1)) + 2.5 + rng.random(n)
    r1, r2 = rng.normal(size=n), rng.normal(size=n)
    args = (diag, off)
    x12 = solve_cyclic_tridiagonal(*args, r1 + r2)
    x1 = solve_cyclic_tridiagonal(*args, r1)
    x2 = solve_cyclic_tridiagonal(*args, r2)
    assert np.max(np.abs(x12 - (x1 + x2))) <= 1e-13 * (1 + np.max(np.abs(x12)))


def test_cyclic_tridiagonal_rejects_singular():
    # bare periodic second difference is singular
    n = 16
    with pytest.raises(LinearSolveError):
        solve_cyclic_tridiagonal(np.full(n, 2.0), np.full(n, -1.0), np.ones(n))


@pytest.mark.parametrize("scale", [0.5, 2.0], ids=["short", "long"])
def test_cyclic_tridiagonal_rejects_a_residual_of_either_sign(monkeypatch, scale):
    # scaling the first solution column by ``scale`` scales x by it, so the
    # residual is (scale - 1) * rhs: negative everywhere for a short x,
    # positive for a long one, and far above the bound either way
    real = _lapack.ptsv
    rows, n = 3, 32
    diag, off = np.full((rows, n), 3.0), np.full((rows, n), -1.0)
    rhs = np.linspace(1.0, 2.0, rows * n).reshape(rows, n)

    def scaled(bands, row=0):
        info = real(bands)
        bands[2, row * n:(row + 1) * n] *= scale
        return info

    monkeypatch.setattr(_lapack, "ptsv", scaled)
    with pytest.raises(LinearSolveError, match="residual") as alone:
        solve_cyclic_tridiagonal(diag[1], off[1], rhs[1])
    monkeypatch.setattr(_lapack, "ptsv", lambda bands: scaled(bands, row=1))
    with pytest.raises(LinearSolveError, match="residual") as batch:
        solve_cyclic_tridiagonal(diag, off, rhs)
    assert str(batch.value) == str(alone.value)


# ------------------------------------------------------------ run_simulation

def test_run_zero_duration():
    g = Grid(32)
    params = ModelParams(4.0)
    cfg = SchemeConfig(formulation=U_FORM)
    traj = run_simulation(quiescent_state(32), g, params, cfg, 0.0)
    assert len(traj.records) == 1
    assert traj.accums.diss_visc == 0.0
    assert traj.accums.diss_plain == 0.0


def test_run_constant_state_stays_put():
    traj, _, _ = run_case(CONSTANT, U_FORM, 64, t_end=1.0)
    final = traj.final_state
    assert np.max(np.abs(final.rho - 0.8)) <= 1e-13
    assert np.max(np.abs(final.mom)) <= 1e-13
    assert abs(traj.accums.diss_visc) <= 1e-13
    assert abs(traj.accums.diss_offset) <= 1e-13


def test_run_lands_exactly_on_t_end(standard_w_256):
    traj, _, _ = standard_w_256
    assert traj.final_state.t == 0.5
    times = traj.series("t")
    assert np.all(np.diff(times) > 0.0)


def test_long_last_step_lands_exactly_on_t_end():
    # the last step runs from t = 1e-3 (the dt_init step) to 0.0105, where
    # t + (t_end - t) rounds to a neighbour of t_end
    traj = run_simulation(quiescent_state(16), Grid(16), ModelParams(4.0),
                          SchemeConfig(formulation=U_FORM), 0.0105)
    assert traj.n_steps == 2
    assert traj.final_state.t == traj.records[-1].t == 0.0105


def test_snapshots_at_the_first_step_reaching_each_multiple_of_every():
    # steps of 0.01 and a cadence of 0.025: the multiples are reached at
    # steps 3, 5, 8, 10, ...; the sum of ten steps is 0.09999999999999999,
    # which reaches 0.1 within the cadence's float slack
    cfg = SchemeConfig(formulation=U_FORM, dt_init=0.01, dt_max=0.01, snapshot_every=0.025)
    traj = run_simulation(quiescent_state(16), Grid(16), ModelParams(4.0), cfg, 0.195)
    times = traj.series("t")
    assert list(np.round(times[:-1] / 0.01)) == [0, 3, 5, 8, 10, 13, 15, 18]
    assert times[-1] == 0.195 and traj.n_steps == 20


def test_run_rejects_bad_inputs():
    g = Grid(32)
    params = ModelParams(4.0)
    cfg = SchemeConfig(formulation=U_FORM)
    state = quiescent_state(32)
    with pytest.raises(ValueError):
        run_simulation(state, g, params, cfg, -1.0)
    bad = State(0.0, np.full(32, -0.1), np.zeros(32), U_FORM)
    with pytest.raises(ValueError):
        run_simulation(bad, g, params, cfg, 0.1)


def test_run_is_deterministic():
    a, _, _ = run_case(STANDARD, W_FORM, 64, t_end=0.1)
    b, _, _ = run_case(STANDARD, W_FORM, 64, t_end=0.1)
    assert np.array_equal(a.final_state.rho, b.final_state.rho)
    assert np.array_equal(a.final_state.mom, b.final_state.mom)
    assert a.records == b.records


def test_sink_gets_one_call_per_record_in_order():
    calls = []

    def sink(g, params, snap):
        calls.append((g.n_cells, params.gamma, snap))

    cfg = SchemeConfig(formulation=U_FORM, snapshot_every=0.01)
    traj = run_simulation(quiescent_state(32), Grid(32), ModelParams(4.0), cfg, 0.05,
                          sink=sink)
    assert len(traj.records) >= 3
    assert traj.records[0].t == 0.0 and traj.records[-1].t == 0.05
    assert [(n, gamma, snap.rec) for n, gamma, snap in calls] == [
        (32, 4.0, rec) for rec in traj.records]
    assert all(snap.state.t == snap.rec.t for _, _, snap in calls)
    assert calls[-1][2].state is traj.final_state

    # a batch whose rows take different steps: the sink tells them apart by gamma
    calls.clear()
    sweep = dataclasses.replace(SWEEP, gammas=(5.0, 80.0), n_cells=64, t_end=0.1)
    trajs = run_config(sweep, sink)
    assert len({traj.n_steps for traj in trajs}) == 2
    assert len(calls) == sum(len(traj.records) for traj in trajs)
    for gamma, traj in zip(sweep.gammas, trajs):
        mine = [snap for _, gm, snap in calls if gm == gamma]
        assert [snap.rec for snap in mine] == traj.records
        assert np.array_equal(mine[-1].state.rho, traj.final_state.rho)
        # each snapshot's fields are its state's, copied out of the batch
        for snap in mine:
            want = state_fields(snap.state, Grid(64), ModelParams(gamma))
            assert all(f.base is None and np.array_equal(f, w)
                       for f, w in zip(snap.fields, want))


def test_memory_does_not_grow_with_the_snapshot_count():
    # a run held every snapshot's state until it ended: with a snapshot at
    # every step its traced peak was 6.39 MB, against 0.30 MB with two
    def traced_peak(every):
        cfg = dataclasses.replace(STANDARD, n_cells=1024, t_end=0.05,
                                  scheme=dataclasses.replace(STANDARD.scheme,
                                                             snapshot_every=every))
        tracemalloc.start()
        try:
            traj = run_config(cfg)
            return tracemalloc.get_traced_memory()[1], len(traj.records)
        finally:
            tracemalloc.stop()

    every_step, n_snapshots = traced_peak(1e-20)
    plain, n_plain = traced_peak(0.05)
    assert (n_snapshots, n_plain) == (236, 2)
    assert every_step <= 2 * plain


@pytest.mark.parametrize("fixture", ["standard_w_256", "standard_u_256",
                                     "travelling_w_256"])
def test_mass_conserved_along_trajectory(fixture, request):
    traj, _, _ = request.getfixturevalue(fixture)
    assert trajectory_checks(traj)["mass_conservation"].worst <= 1e-12


@pytest.mark.parametrize("fixture", ["standard_w_256", "travelling_w_256"])
def test_ke_w_non_increasing(fixture, request):
    traj, _, _ = request.getfixturevalue(fixture)
    rise = trajectory_checks(traj)["ke_w_non_increasing"].worst
    assert rise <= 1e-8 * (1.0 + traj.records[0].ke_w)


@pytest.mark.parametrize("fixture", ["standard_w_256", "standard_u_256"])
def test_energy_residual_band(fixture, request):
    traj, summary, _ = request.getfixturevalue(fixture)
    checks = trajectory_checks(traj)
    assert checks["energy_residual_max"].worst <= 1e-8
    assert checks["energy_residual_min"].worst >= -0.05 * summary.E1


def test_positivity_along_trajectory(standard_w_256):
    traj, _, _ = standard_w_256
    assert trajectory_checks(traj)["positivity"].worst > 0.0


def test_formulations_converge_together(standard_u_256, standard_w_256):
    # scheme-order agreement at matched data; the acceptance suite measures
    # the decay order, here only the magnitude is sanity-checked
    tu, _, g = standard_u_256
    tw, _, _ = standard_w_256
    diff = integrate(np.abs(tu.final_state.rho - tw.final_state.rho), g)
    assert diff <= 0.02


LAPACK_PATHS = (_lapack.ptsv, _lapack.scipy_ptsv)


def random_dominant_systems(rng, k, n):
    """(diag, off, rhs) of k symmetric, diagonally dominant periodic systems
    of n unknowns with a positive diagonal, stacked."""
    off = rng.normal(size=(k, n))
    diag = np.abs(off) + np.abs(np.roll(off, 1, axis=-1)) + 3.0 + rng.random(size=(k, n))
    return diag, off, rng.normal(size=(k, n))


def test_batched_solve_matches_each_system(monkeypatch):
    # on both LAPACK paths, numpy's bundled OpenBLAS and the scipy
    # fallback, which must give the same bits
    rng = np.random.default_rng(11)
    for k, n in ((4, 24), (1, 8), (3, 256), (2, 4096)):
        systems = random_dominant_systems(rng, k, n)
        solutions = []
        for ptsv in LAPACK_PATHS:
            monkeypatch.setattr(_lapack, "ptsv", ptsv)
            x = solve_cyclic_tridiagonal(*systems)
            for i in range(k):
                assert np.array_equal(x[i], solve_cyclic_tridiagonal(*(a[i] for a in systems)))
            solutions.append(x)
        assert np.array_equal(*solutions)

        # a nan in any operand: the same ValueError on both paths, naming its cell
        for operand in range(3):   # diag, off, rhs
            one = [a[0].copy() for a in systems]
            one[operand][5] = np.nan
            for ptsv in LAPACK_PATHS:
                monkeypatch.setattr(_lapack, "ptsv", ptsv)
                with pytest.raises(ValueError, match="must not contain infs or NaNs") as err:
                    solve_cyclic_tridiagonal(*one)
                assert isinstance(err.value, NonFiniteError)
                assert err.value.cell == 5
    monkeypatch.undo()

    diag, off, rhs = random_dominant_systems(np.random.default_rng(11), 4, 24)
    # row 1 becomes the singular periodic Laplacian: only that row fails
    diag[1], off[1] = 2.0, -1.0
    with pytest.raises(LinearSolveError) as batch:
        solve_cyclic_tridiagonal(diag, off, rhs)
    with pytest.raises(LinearSolveError) as alone:
        solve_cyclic_tridiagonal(diag[1], off[1], rhs[1])
    assert str(batch.value) == str(alone.value)


def test_batched_indefinite_row_fails_alone(monkeypatch):
    # an indefinite row 2 stops the factorization in its own block: the
    # batch says what that row says alone, on both paths
    diag, off, rhs = random_dominant_systems(np.random.default_rng(3), 4, 24)
    diag[2, 9] = -diag[2, 9]
    for ptsv in LAPACK_PATHS:
        monkeypatch.setattr(_lapack, "ptsv", ptsv)
        with pytest.raises(LinearSolveError, match="ptsv info") as batch:
            solve_cyclic_tridiagonal(diag, off, rhs)
        with pytest.raises(LinearSolveError, match="ptsv info") as alone:
            solve_cyclic_tridiagonal(diag[2], off[2], rhs[2])
        assert str(batch.value) == str(alone.value)
        for i in (0, 1, 3):
            solve_cyclic_tridiagonal(diag[i], off[i], rhs[i])


def test_batch_row_saturating_at_start_fails_alone(monkeypatch):
    from congestion_sim.errors import SaturationError
    import congestion_sim.sweep as sweep_mod

    g = Grid(32)
    cfg = SchemeConfig(formulation=U_FORM)
    rho = np.full(32, 2.2)  # 900 * ln 2.2 > 700, 4 * ln 2.2 is not

    def at_rest(recipe, g, params, formulation):
        shape = np.shape(params.gamma)[:-1] + rho.shape
        return State(0.0, np.broadcast_to(rho, shape).copy(), np.zeros(shape), U_FORM)

    # the batch ends at its first fields, and each gamma then runs alone
    batch = ModelParams(np.array([[4.0], [900.0]]))
    with pytest.raises(SaturationError):
        run_simulation(at_rest(None, g, batch, U_FORM), g, batch, cfg, 0.01)
    monkeypatch.setattr(sweep_mod, "make_initial_data", at_rest)
    report = run_sweep(dataclasses.replace(SWEEP, gammas=(4.0, 900.0), n_cells=32,
                                           t_end=0.01, scheme=cfg))
    want = run_simulation(at_rest(None, g, ModelParams(4.0), U_FORM), g, ModelParams(4.0),
                          cfg, 0.01)
    with pytest.raises(SaturationError) as alone:
        run_simulation(at_rest(None, g, ModelParams(900.0), U_FORM), g, ModelParams(900.0),
                       cfg, 0.01)
    assert alone.value.t == 0.0
    assert_report_is_plain_runs(report, {4.0: want, 900.0: alone.value})


def test_run_saturation_aborts_with_context():
    from congestion_sim.errors import SaturationError
    g = Grid(32)
    params = ModelParams(900.0)
    cfg = SchemeConfig(formulation=U_FORM)
    rho = np.full(32, 2.2)  # 900 * ln 2.2 > 700
    state = State(0.0, rho, np.zeros(32), U_FORM)
    with pytest.raises(SaturationError) as err:
        run_simulation(state, g, params, cfg, 0.1)
    assert err.value.t is not None
    assert err.value.gamma == 900.0


def test_run_linear_solve_failure_carries_step_time_and_gamma(monkeypatch):
    # the solve names no time or gamma; the run loop adds those of the
    # step that failed
    import congestion_sim.solver as solver_mod

    starts = []
    bare = solver_mod.step_w_form

    def recording(state, *args, **kwargs):
        starts.append(state.t)
        return bare(state, *args, **kwargs)

    def failing(*args, **kwargs):
        if len(starts) == 4:
            raise LinearSolveError("synthetic residual")
        return solve_cyclic_tridiagonal(*args, **kwargs)

    monkeypatch.setattr(solver_mod, "step_w_form", recording)
    monkeypatch.setattr(solver_mod, "solve_cyclic_tridiagonal", failing)
    g = Grid(64)
    params = ModelParams(10.0)
    init = make_initial_data(STANDARD.recipe, g, params, W_FORM)
    with pytest.raises(LinearSolveError) as err:
        run_simulation(init, g, params, STANDARD.scheme, 0.1)
    assert len(starts) == 4 and starts[-1] > 0.0
    assert (err.value.t, err.value.cell, err.value.gamma) == (starts[-1], None, 10.0)


def test_standard_case_self_refinement_order():
    # half-resolution comparison against a 4x reference on the shipped
    # smooth case: first-order convergence of the density in L1
    study = standard_self_convergence((64, 128, 256), t_end=0.5)
    assert study.orders_rho_l1[-1] >= 0.9


# ------------------------------------------------ finiteness on the failure path

@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("ptsv", LAPACK_PATHS, ids=["openblas", "scipy"])
@pytest.mark.parametrize("operand", ["diag", "off", "rhs"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_input_raises_the_non_finite_error_without_a_warning(
        monkeypatch, ptsv, operand, value):
    # the finiteness scan runs only on the failure path: every non-finite
    # entry must still reach it, with no RuntimeWarning on the way there, and
    # the error names the entry's cell
    monkeypatch.setattr(_lapack, "ptsv", ptsv)
    n = 24
    index = ("diag", "off", "rhs").index(operand)
    for cell in (0, 5, n - 1):
        system = [a.copy() for a in random_dominant_systems(np.random.default_rng(cell), 4, n)]
        system[index][2, cell] = value
        for args in ([a[2] for a in system], system):
            with pytest.raises(NonFiniteError) as err:
                solve_cyclic_tridiagonal(*args)
            assert str(err.value) == "array must not contain infs or NaNs"
            assert err.value.cell == cell


# ------------------------------------------------------------- step scratch

def snapshot_arrays(snap):
    return [snap.state.rho, snap.state.mom, *snap.fields, snap.pi, snap.W,
            snap.int_mass_flux]


def keeping_sink(kept):
    """A sink that keeps every snapshot it is handed, with a deep copy of it
    taken at hand-off."""
    def sink(g, params, snap):
        kept.append((snap, copy.deepcopy(snap)))
    return sink


def assert_snapshots_unchanged(kept):
    assert kept
    for snap, at_hand_off in kept:
        assert snap.rec == at_hand_off.rec
        assert snap.state.t == at_hand_off.state.t
        for now, then in zip(snapshot_arrays(snap), snapshot_arrays(at_hand_off)):
            assert now.tobytes() == then.tobytes()


@pytest.mark.parametrize("formulation", [W_FORM, U_FORM])
def test_no_scratch_array_escapes_a_step(formulation):
    # every snapshot a sink keeps still holds, after the run, what it held
    # when it was handed over: nothing the step reuses leaks into a state,
    # its fields or a record, alone or in a batch whose rows leave it
    kept = []
    g = Grid(64)
    params = ModelParams(10.0)
    cfg = SchemeConfig(formulation=formulation, cfl=0.45, dt_max=0.01, snapshot_every=1e-3)
    init = make_initial_data(STANDARD.recipe, g, params, formulation)
    traj = run_simulation(init, g, params, cfg, 0.03, sink=keeping_sink(kept))
    assert len(kept) == len(traj.records) == traj.n_steps + 1
    assert_snapshots_unchanged(kept)

    kept.clear()
    sweep = dataclasses.replace(SWEEP, gammas=(5.0, 20.0, 80.0), n_cells=64, t_end=0.1,
                                scheme=dataclasses.replace(SWEEP.scheme, formulation=formulation,
                                                           snapshot_every=0.005))
    trajs = run_config(sweep, keeping_sink(kept))
    assert len({traj.n_steps for traj in trajs}) > 1
    assert_snapshots_unchanged(kept)


def test_ptsv_argument_block_follows_the_bands_it_is_handed():
    # the OpenBLAS path keeps the argument block of the last bands array:
    # another array, of another shape, while the first one lives, gets its
    # own; the same array gets the same block again, with new contents
    def systems(k, n, seed):
        diag, off, rhs = random_dominant_systems(np.random.default_rng(seed), k, n)
        off[:, -1] = 0.0
        rhs2 = np.random.default_rng(seed + 1).normal(size=(k, n))
        return np.stack([diag.ravel(), off.ravel(), rhs.ravel(), rhs2.ravel()])

    def solved(path, packed):
        bands = packed.copy()
        assert path(bands) == 0
        return bands[2:]

    big, small = systems(3, 16, 1), systems(2, 16, 2)
    held = big.copy()
    assert _lapack.ptsv(held) == 0
    assert np.array_equal(held[2:], solved(_lapack.scipy_ptsv, big))
    for packed in (small, big, small):
        bands = packed.copy()
        assert _lapack.ptsv(bands) == 0
        assert np.array_equal(bands[2:], solved(_lapack.scipy_ptsv, packed))
        # the same array with new contents
        bands[...] = packed
        assert _lapack.ptsv(bands) == 0
        assert np.array_equal(bands[2:], solved(_lapack.scipy_ptsv, packed))
    assert np.array_equal(held[2:], solved(_lapack.scipy_ptsv, big))
