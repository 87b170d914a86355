import dataclasses

import mpmath
import numpy as np
import pytest

import congestion_sim.solver as solver_mod
from conftest import CONSTANT, SWEEP, assert_report_is_plain_runs
from congestion_sim.config import parse_config_text, resolve_run_config
from congestion_sim.diagnostics import summarize_initial_data
from congestion_sim.errors import ConfigError, LinearSolveError, RunFailure, VacuumError
from congestion_sim.grid import Grid
from congestion_sim.initial_data import InitRecipe, make_initial_data
from congestion_sim.model import U_FORM, W_FORM, ModelParams, State, state_fields
from congestion_sim.solver import run_simulation
from congestion_sim.sweep import GammaRow, fit_congestion_rate, run_sweep

ACCUMULATORS = ("diss_visc", "diss_offset", "work_offset", "diss_plain")


def sweep_config(gammas, recipe=SWEEP.recipe, n_cells=128, t_end=0.2,
                 scheme=SWEEP.scheme):
    return dataclasses.replace(SWEEP, gammas=tuple(gammas), recipe=recipe,
                               n_cells=n_cells, t_end=t_end, scheme=scheme)


def plain_inits(config):
    g = Grid(config.n_cells)
    return g, [make_initial_data(config.recipe, g, ModelParams(gamma),
                                 config.scheme.formulation)
               for gamma in config.gammas]


def snapshot_sink(snapshots):
    """A sink that files each snapshot in ``snapshots`` under its row's gamma;
    None when ``snapshots`` is."""
    if snapshots is None:
        return None
    return lambda g, params, snap: snapshots.setdefault(params.gamma, []).append(snap)


def plain_runs(config, snapshots=None):
    """Each gamma's run alone, or the exception that ended it; each run's
    snapshots go to ``snapshots``, by gamma, if given."""
    g, inits = plain_inits(config)
    out = {}
    for gamma, init in zip(config.gammas, inits):
        try:
            out[gamma] = run_simulation(init, g, ModelParams(gamma), config.scheme,
                                        config.t_end, sink=snapshot_sink(snapshots))
        except RunFailure as exc:
            out[gamma] = exc
    return out


def batched_runs(config, snapshots=None):
    """Every gamma stepped as one batch, the way the sweep runs them; each
    row's snapshots go to ``snapshots``, by gamma, if given."""
    g, inits = plain_inits(config)
    batch = State(0.0, np.stack([i.rho for i in inits]),
                  np.stack([i.mom for i in inits]), config.scheme.formulation)
    params = ModelParams(np.array(config.gammas)[:, None])
    return dict(zip(config.gammas,
                    run_simulation(batch, g, params, config.scheme, config.t_end,
                                   sink=snapshot_sink(snapshots))))


def assert_same_trajectory(got, want, got_snapshots, want_snapshots):
    assert got.n_steps == want.n_steps
    assert got.final_state.t == want.final_state.t
    assert np.array_equal(got.final_state.rho, want.final_state.rho)
    assert np.array_equal(got.final_state.mom, want.final_state.mom)
    assert got.records == want.records
    for name in ACCUMULATORS:
        assert getattr(got.accums, name) == getattr(want.accums, name), name
    assert np.array_equal(got.accums.int_mass_flux, want.accums.int_mass_flux)
    assert (got.psi.wrap, got.psi.gradient) == (want.psi.wrap, want.psi.gradient)
    assert np.array_equal(got.psi.prefix, want.psi.prefix)
    assert len(got_snapshots) == len(want_snapshots) == len(got.records)
    for a, b in zip(got_snapshots, want_snapshots):
        assert np.array_equal(a.int_mass_flux, b.int_mass_flux)


def largest_gamma_summary(recipe, gammas, g):
    """A sweep's admissibility check of its recipe, which is against the
    largest gamma, then the initial-data summary at that gamma."""
    params = ModelParams(max(gammas))
    state = make_initial_data(recipe, g, params, W_FORM)
    return summarize_initial_data(state, state_fields(state, g, params), g, params)


def closed_form_switching(rho, gamma):
    with mpmath.workdps(40):
        r, gm = mpmath.mpf(rho), mpmath.mpf(gamma)
        return float((1 - r) * gm / (gm + 1) * r ** (gm + 1))


def test_sweep_config_validation():
    for ladder in ("", "5, 5", "10, 5", "0, 5"):
        with pytest.raises(ConfigError) as err:
            resolve_run_config(parse_config_text(
                f"grid.n_cells = 128\ntime.t_end = 0.2\nsweep.gammas = {ladder}"))
        assert "sweep.gammas" in str(err.value)


def test_validate_recipe_accepts_constant():
    g = Grid(64)
    recipe = InitRecipe(kind="cosine", rho_mean=0.9, rho_amp=0.0, w_amp=0.0)
    summary = largest_gamma_summary(recipe, (5.0, 80.0), g)
    assert summary.rho0_min == pytest.approx(0.9)
    assert summary.M0 == 0.0


def test_validate_recipe_rejects_cap_violation():
    g = Grid(64)
    recipe = InitRecipe(kind="cosine", rho_mean=1.05, rho_amp=0.0, w_amp=0.0)
    with pytest.raises(ConfigError) as err:
        largest_gamma_summary(recipe, (5.0, 80.0), g)
    assert "1 + 1/gamma" in str(err.value)
    assert "1.0125" in str(err.value)


def test_validate_recipe_rejects_mean_at_one():
    g = Grid(64)
    recipe = InitRecipe(kind="cosine", rho_mean=1.0, rho_amp=0.0, w_amp=0.0)
    with pytest.raises(ConfigError) as err:
        largest_gamma_summary(recipe, (1000.0,), g)
    assert "mean" in str(err.value)


def test_validate_recipe_analytic_extrema():
    g = Grid(256)
    recipe = InitRecipe(kind="cosine", rho_mean=0.85, rho_amp=0.1, w_amp=0.0)
    summary = largest_gamma_summary(recipe, (5.0, 80.0), g)
    assert summary.mean_rho0 == pytest.approx(0.85, abs=1e-12)
    assert summary.rho0_max == pytest.approx(0.95, abs=1e-4)
    assert summary.rho0_min == pytest.approx(0.75, abs=1e-4)


def test_constant_state_sweep_matches_closed_form():
    report = run_sweep(sweep_config((5.0, 80.0), recipe=CONSTANT.recipe, t_end=0.5))
    want5 = closed_form_switching(0.8, 5.0)
    want80 = closed_form_switching(0.8, 80.0)
    assert want5 == pytest.approx(4.3690666666666667e-2, rel=1e-12)
    assert want80 <= 1e-8
    by_gamma = {row.gamma: row for row in report.rows}
    assert by_gamma[5.0].switching_residual_max == pytest.approx(want5, abs=1e-12)
    assert by_gamma[80.0].switching_residual_max == pytest.approx(want80, abs=1e-12)
    assert by_gamma[5.0].max_rho == pytest.approx(0.8, abs=1e-12)
    assert by_gamma[5.0].min_rho == pytest.approx(0.8, abs=1e-12)
    assert by_gamma[5.0].I_plain_abs <= 1e-12
    assert report.fit.verdict == "congestion never exceeded"
    # constant runs coincide across gamma, so cross differences vanish
    assert report.cross[0].rho_l1 <= 1e-12
    assert report.cross[0].w_linf <= 1e-12


def test_single_gamma_sweep_matches_plain_run():
    # a one-gamma sweep, then every gamma of the shipped ladder
    for gammas in ((10.0,), SWEEP.gammas):
        config = sweep_config(gammas, n_cells=128, t_end=0.2)
        report = run_sweep(config)
        plain = plain_runs(config)
        assert [row.gamma for row in report.rows] == list(gammas)
        for row in report.rows:
            traj = plain[row.gamma]
            assert row.max_rho == pytest.approx(np.max(traj.series("rho_max")), abs=0.0)
            assert row.switching_residual_max == pytest.approx(
                np.max(traj.series("switching_residual")), abs=0.0)
            assert row.I_plain_abs == pytest.approx(abs(traj.accums.diss_plain), abs=0.0)
        assert_report_is_plain_runs(report, plain)
        assert len(report.cross) == len(gammas) - 1


@pytest.mark.parametrize("config", [
    # the shipped sweep: its rows take 293, 290, 276, 258 and 256 steps
    sweep_config(SWEEP.gammas, n_cells=SWEEP.n_cells, t_end=SWEEP.t_end),
    sweep_config((2.0, 7.0, 33.0), n_cells=64, t_end=0.3),
    sweep_config((5.0, 10.0, 20.0), n_cells=64, t_end=0.2,
                 scheme=dataclasses.replace(SWEEP.scheme, formulation=U_FORM)),
], ids=["shipped", "uneven", "u_form"])
def test_batched_rows_equal_their_plain_runs(config):
    plain_snapshots, batched_snapshots = {}, {}
    plain = plain_runs(config, plain_snapshots)
    batched = batched_runs(config, batched_snapshots)
    assert len({traj.n_steps for traj in plain.values()}) > 1
    for gamma in config.gammas:
        assert_same_trajectory(batched[gamma], plain[gamma],
                               batched_snapshots[gamma], plain_snapshots[gamma])
    assert_report_is_plain_runs(run_sweep(config), plain)


def stiffness_limited_solve(limit, band=(np.inf, np.inf)):
    """The real solve, except that a row whose diagonal exceeds ``limit``
    comes back negative, which forces the positivity rescue on that row,
    and a row whose largest diagonal entry lies in ``band`` = (lo, hi]
    fails the solve with a LinearSolveError; what a row gets depends on
    that row alone."""
    real = solver_mod.solve_cyclic_tridiagonal

    def solve(diag, off, rhs, **kw):
        top = np.max(diag, axis=-1, keepdims=True)
        in_band = (band[0] < top[..., 0]) & (top[..., 0] <= band[1])
        if in_band.any():
            raise LinearSolveError("largest diagonal entry in the failing band")
        x = real(diag, off, rhs, **kw)
        return np.where(top > limit, -x, x)

    return ("solve_cyclic_tridiagonal", solve)


def density_sink(rate):
    """Every flux difference plus ``rate`` dx, which the step takes times
    dt/dx: a uniform sink of ``rate`` that the u-formulation's explicit
    density update must resolve row by row."""
    real = solver_mod.backward_difference
    return ("backward_difference",
            lambda face_flux, out=None: real(face_flux, out) + rate / face_flux.shape[-1])


@pytest.mark.parametrize("formulation,patch,max_halvings,t_end,survivors", [
    # rows halve their own dt, none fails
    (W_FORM, stiffness_limited_solve(20.0), 20, 0.1, (2.0, 5.0, 20.0)),
    # two rows exhaust their halvings
    (W_FORM, stiffness_limited_solve(15.0), 1, 0.1, (2.0,)),
    # rows whose density the sink empties skip the velocity solve
    (U_FORM, density_sink(600.0), 3, 0.00117, (2.0, 5.0)),
], ids=["w_form-rescued", "w_form-exhausted", "u_form-sink"])
def test_positivity_rescue_is_per_row(monkeypatch, formulation, patch, max_halvings,
                                      t_end, survivors):
    scheme = dataclasses.replace(SWEEP.scheme, formulation=formulation)
    config = sweep_config((2.0, 5.0, 20.0), n_cells=64, t_end=t_end, scheme=scheme)
    monkeypatch.setattr(solver_mod, *patch)
    monkeypatch.setattr(solver_mod, "MAX_HALVINGS", max_halvings)
    plain_snapshots, batched_snapshots = {}, {}
    plain = plain_runs(config, plain_snapshots)
    assert [gm for gm, run in plain.items() if not isinstance(run, RunFailure)] == list(
        survivors)
    for gamma in set(config.gammas) - set(survivors):
        assert "halvings exhausted" in str(plain[gamma])
    assert_report_is_plain_runs(run_sweep(config), plain)
    if len(survivors) < len(config.gammas):
        # a failing row ends the batch whole
        with pytest.raises(VacuumError, match="halvings exhausted"):
            batched_runs(config)
        return
    batched = batched_runs(config, batched_snapshots)
    for gamma in config.gammas:
        assert_same_trajectory(batched[gamma], plain[gamma],
                               batched_snapshots[gamma], plain_snapshots[gamma])


def test_solve_failure_in_a_batch_rescue_is_its_rows_failure(monkeypatch):
    # gamma 20's second step has a largest diagonal entry of 36.98, above the
    # limit, and its one halving takes it to 18.99, into the band: the solve
    # fails while the rescue redoes the density, in the batch as in the run
    # of gamma 20 alone; gammas 2 and 5 never reach the band, and gamma 5
    # takes rescues of its own
    scheme = dataclasses.replace(SWEEP.scheme, formulation=W_FORM)
    config = sweep_config((2.0, 5.0, 20.0), n_cells=64, t_end=0.1, scheme=scheme)
    monkeypatch.setattr(solver_mod, *stiffness_limited_solve(30.0, band=(18.9, 19.0)))
    plain = plain_runs(config)
    assert type(plain[20.0]) is LinearSolveError
    with pytest.raises(LinearSolveError):
        batched_runs(config)
    assert_report_is_plain_runs(run_sweep(config), plain)


def test_sweep_switching_monotone_on_shipped_recipe():
    report = run_sweep(sweep_config(SWEEP.gammas, n_cells=128, t_end=0.2))
    values = [r.switching_residual_max for r in report.rows]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_sweep_cauchy_differences_decay_in_asymptotic_tail():
    # the strong-convergence echo applies once the congestion asymptotics
    # set in; the tail gammas provide that regime
    report = run_sweep(sweep_config((20.0, 40.0, 80.0, 160.0),
                                    n_cells=128, t_end=0.5))
    w_diffs = [c.w_linf for c in report.cross]
    rho_diffs = [c.rho_l1 for c in report.cross]
    assert all(b < a for a, b in zip(w_diffs, w_diffs[1:]))
    assert all(b < a for a, b in zip(rho_diffs, rho_diffs[1:]))


def test_fit_congestion_rate_degenerate():
    rows = [GammaRow(gamma=g, max_rho=0.9) for g in (5.0, 10.0, 20.0)]
    assert fit_congestion_rate(rows).verdict == "congestion never exceeded"


def test_fit_congestion_rate_insufficient():
    rows = [GammaRow(gamma=5.0, max_rho=1.1), GammaRow(gamma=10.0, max_rho=1.05),
            GammaRow(gamma=20.0, max_rho=0.99)]
    fit = fit_congestion_rate(rows)
    assert fit.verdict == "insufficient data"
    assert fit.n_points == 2


def test_fit_congestion_rate_exact_synthetic():
    gammas = (5.0, 10.0, 20.0, 40.0, 80.0)
    rows = [GammaRow(gamma=g, max_rho=1.0 + 2.0 * np.log(g) / g) for g in gammas]
    fit = fit_congestion_rate(rows)
    assert fit.verdict == "fit"
    assert fit.slope == pytest.approx(2.0, abs=1e-12)
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)


def test_failed_rows_are_reported_not_fatal(monkeypatch):
    import congestion_sim.model as model_mod

    config = sweep_config((5.0, 10.0, 20.0))
    real = model_mod.pressure

    def flaky(rho, params, lam_guard=False):
        # every pressure of gamma 10's run fails, alone or in the batch
        if 10.0 in np.ravel(params.gamma):
            raise VacuumError("synthetic vacuum", t=0.1, cell=3, gamma=10.0)
        return real(rho, params, lam_guard)

    monkeypatch.setattr(model_mod, "pressure", flaky)
    plain = plain_runs(config)
    report = run_sweep(config)
    by_gamma = {row.gamma: row for row in report.rows}
    assert not by_gamma[5.0].failed and not by_gamma[20.0].failed
    assert by_gamma[10.0].failed
    assert "vacuum" in by_gamma[10.0].failure
    assert by_gamma[10.0].failure.endswith("[t=0.1, cell=3, gamma=10.0]")
    # the cross pair spanning the failed run is skipped
    assert all({c.gamma_lo, c.gamma_hi}.isdisjoint({10.0}) for c in report.cross)
    # one row's failure leaves the others exactly as they run alone
    assert_report_is_plain_runs(report, plain)


def test_fit_matches_linregress_bit_for_bit():
    from scipy.stats import linregress

    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(3, 12))
        gammas = np.sort(rng.uniform(1.5, 200.0, size=n))
        rows = [GammaRow(gamma=float(g), max_rho=1.0 + float(rng.uniform(1e-4, 0.2)))
                for g in gammas]
        fit = fit_congestion_rate(rows)
        x = np.array([np.log(g) / g for g in gammas])
        y = np.array([r.max_rho - 1.0 for r in rows])
        want = linregress(x, y)
        assert fit.verdict == "fit" and fit.n_points == n
        assert fit.slope == float(want.slope)
        assert fit.r2 == float(want.rvalue ** 2)


def test_fit_degenerate_branches_match_linregress():
    from scipy.stats import linregress

    from congestion_sim.sweep import _least_squares_line

    x = np.array([0.25, 0.5, 1.0])
    flat = np.full(3, 0.5)             # exact mean, so ssym == ssxym == 0
    slope, r = _least_squares_line(x, flat)
    want = linregress(x, flat)
    assert slope == want.slope == 0.0
    assert np.isnan(r) and np.isnan(want.rvalue)
    with pytest.raises(ValueError, match="identical"):
        _least_squares_line(np.full(3, 0.2), np.array([0.1, 0.2, 0.3]))
    with pytest.raises(ValueError, match="identical"):
        linregress(np.full(3, 0.2), np.array([0.1, 0.2, 0.3]))


def spoil_solves_of(monkeypatch, gamma, spoil, after=-np.inf):
    """Hand the right-hand side of every solve in a step of ``gamma``'s run
    from a time past ``after``, alone or as a batch row, to ``spoil(rhs,
    rows)`` before it is solved; ``rhs`` is a (rows, n) copy and ``rows``
    flags that run's row.  Whether a run is spoilt depends on its gamma and
    its own times only.  Returns the list that receives the number of runs
    stepping together at each spoilt solve."""
    real_step, real_solve = solver_mod._step, solver_mod.solve_cyclic_tridiagonal
    rows, seen = [None], []

    def step(state, g, params, *args):
        rows[0] = (np.ravel(params.gamma) == gamma) & (np.ravel(state.t) > after)
        return real_step(state, g, params, *args)

    def solve(diag, off, rhs, *args, **kwargs):
        if rows[0].any():
            seen.append(rows[0].size)
            rhs = np.array(rhs)
            spoil(rhs.reshape(-1, rhs.shape[-1]), rows[0])
        return real_solve(diag, off, rhs, *args, **kwargs)

    monkeypatch.setattr(solver_mod, "_step", step)
    monkeypatch.setattr(solver_mod, "solve_cyclic_tridiagonal", solve)
    return seen


def failing_solve(rhs, rows):
    raise LinearSolveError("synthetic residual 1e-3 exceeds 1e-10")


def test_linear_solve_failure_is_a_failed_row(monkeypatch):
    config = sweep_config((5.0, 10.0, 20.0), t_end=0.05)
    spoil_solves_of(monkeypatch, 10.0, failing_solve)
    plain = plain_runs(config)
    report = run_sweep(config)
    by_gamma = {row.gamma: row for row in report.rows}
    assert [row.gamma for row in report.rows] == [5.0, 10.0, 20.0]
    assert not by_gamma[5.0].failed and not by_gamma[20.0].failed
    assert by_gamma[10.0].failed
    assert "residual" in by_gamma[10.0].failure
    # the first solve fails: the run loop adds the step's time and the
    # run's gamma
    assert by_gamma[10.0].failure.endswith("[t=0.0, cell=None, gamma=10.0]")
    assert np.isfinite(by_gamma[5.0].max_rho) and np.isfinite(by_gamma[20.0].max_rho)
    assert_report_is_plain_runs(report, plain)


def test_non_finite_operands_are_a_failed_row(monkeypatch):
    # a nan in one row's solve ended the whole sweep in a ValueError traceback
    config = sweep_config((5.0, 10.0, 20.0), t_end=0.05)

    def poisoned(rhs, rows):
        rhs[rows, 7] = np.nan

    spoil_solves_of(monkeypatch, 10.0, poisoned)
    plain = plain_runs(config)
    report = run_sweep(config)
    by_gamma = {row.gamma: row for row in report.rows}
    assert [row.failed for row in report.rows] == [False, True, False]
    assert by_gamma[10.0].failure == ("array must not contain infs or NaNs "
                                      "[t=0.0, cell=7, gamma=10.0]")
    assert_report_is_plain_runs(report, plain)


def test_row_failing_after_another_left_the_batch(monkeypatch):
    # on the shipped ladder gammas 80 and 40 reach t_end after 256 and 258
    # steps, and gamma 5 after 293; gamma 5's solves fail once its run passes
    # t = 0.48, which it reaches only after those rows have left the batch
    config = sweep_config(SWEEP.gammas, n_cells=SWEEP.n_cells, t_end=SWEEP.t_end)
    seen = spoil_solves_of(monkeypatch, 5.0, failing_solve, after=0.48)
    plain = plain_runs(config)
    assert [gm for gm, run in plain.items() if isinstance(run, RunFailure)] == [5.0]
    assert seen == [1]
    report = run_sweep(config)
    # the batch fails with fewer rows than the ladder, then gamma 5 alone
    assert seen[1] < len(config.gammas) and seen[2:] == [1]
    assert report.rows[0].failed and "t=0.48" in report.rows[0].failure
    assert_report_is_plain_runs(report, plain)
