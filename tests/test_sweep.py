import dataclasses

import mpmath
import numpy as np
import pytest

from conftest import SHIPPED_SCHEME, STANDARD_RECIPE
from congestion_sim.errors import ConfigError
from congestion_sim.grid import Grid
from congestion_sim.initial_data import InitRecipe
from congestion_sim.model import W_FORM
from congestion_sim.solver import SchemeConfig
from congestion_sim.sweep import (
    GammaRow,
    SweepConfig,
    fit_congestion_rate,
    run_sweep,
    validate_recipe,
)

SCHEME = SchemeConfig(formulation=W_FORM, **SHIPPED_SCHEME)


def sweep_config(gammas, recipe=STANDARD_RECIPE, n_cells=128, t_end=0.2,
                 parallel_runs=1):
    return SweepConfig(gammas=tuple(gammas), recipe=recipe, n_cells=n_cells,
                       t_end=t_end, scheme=SCHEME, parallel_runs=parallel_runs)


def closed_form_switching(rho, gamma):
    with mpmath.workdps(40):
        r, gm = mpmath.mpf(rho), mpmath.mpf(gamma)
        return float((1 - r) * gm / (gm + 1) * r ** (gm + 1))


def test_sweep_config_validation():
    with pytest.raises(ConfigError):
        sweep_config(())
    with pytest.raises(ConfigError):
        sweep_config((5.0, 5.0))
    with pytest.raises(ConfigError):
        sweep_config((10.0, 5.0))
    with pytest.raises(ConfigError):
        sweep_config((5.0, 10.0), parallel_runs=0)


def test_validate_recipe_accepts_constant():
    g = Grid(64)
    recipe = InitRecipe(kind="cosine", rho_mean=0.9, rho_amp=0.0, w_amp=0.0)
    summary = validate_recipe(recipe, (5.0, 80.0), g)
    assert summary.rho0_min == pytest.approx(0.9)
    assert summary.M0 == 0.0


def test_validate_recipe_rejects_cap_violation():
    g = Grid(64)
    recipe = InitRecipe(kind="cosine", rho_mean=1.05, rho_amp=0.0, w_amp=0.0)
    with pytest.raises(ConfigError) as err:
        validate_recipe(recipe, (5.0, 80.0), g)
    assert "1 + 1/gamma" in str(err.value)
    assert "1.0125" in str(err.value)


def test_validate_recipe_rejects_mean_at_one():
    g = Grid(64)
    recipe = InitRecipe(kind="cosine", rho_mean=1.0, rho_amp=0.0, w_amp=0.0)
    with pytest.raises(ConfigError) as err:
        validate_recipe(recipe, (1000.0,), g)
    assert "mean" in str(err.value)


def test_validate_recipe_analytic_extrema():
    g = Grid(256)
    recipe = InitRecipe(kind="cosine", rho_mean=0.85, rho_amp=0.1, w_amp=0.0)
    summary = validate_recipe(recipe, (5.0, 80.0), g)
    assert summary.mean_rho0 == pytest.approx(0.85, abs=1e-12)
    assert summary.rho0_max == pytest.approx(0.95, abs=1e-4)
    assert summary.rho0_min == pytest.approx(0.75, abs=1e-4)


def test_constant_state_sweep_matches_closed_form():
    recipe = InitRecipe(kind="cosine", rho_mean=0.8, rho_amp=0.0, w_amp=0.0)
    report = run_sweep(sweep_config((5.0, 80.0), recipe=recipe, t_end=0.5))
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
    from conftest import run_case
    report = run_sweep(sweep_config((10.0,), n_cells=128, t_end=0.2))
    traj, _, _ = run_case(STANDARD_RECIPE, W_FORM, 128, t_end=0.2)
    row = report.rows[0]
    assert row.max_rho == pytest.approx(np.max(traj.series("rho_max")), abs=0.0)
    assert row.switching_residual_max == pytest.approx(
        np.max(traj.series("switching_residual")), abs=0.0)
    assert row.I_plain_abs == pytest.approx(abs(traj.accums.diss_plain), abs=0.0)
    assert report.cross == ()


def test_sweep_rows_deterministic_under_parallelism():
    serial = run_sweep(sweep_config((5.0, 10.0, 20.0), parallel_runs=1))
    threaded = run_sweep(sweep_config((5.0, 10.0, 20.0), parallel_runs=3))
    for a, b in zip(serial.rows, threaded.rows):
        assert dataclasses.replace(a, runtime=0.0) == dataclasses.replace(b, runtime=0.0)
    assert serial.cross == threaded.cross
    assert serial.fit == threaded.fit


def test_sweep_switching_monotone_on_shipped_recipe():
    report = run_sweep(sweep_config((5.0, 10.0, 20.0, 40.0, 80.0),
                                    n_cells=128, t_end=0.2))
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
    import congestion_sim.sweep as sweep_mod
    from congestion_sim.errors import VacuumError

    real = sweep_mod.run_simulation

    def flaky(init, g, params, scheme, t_end, **kw):
        if params.gamma == 10.0:
            raise VacuumError("synthetic vacuum", t=0.1, cell=3, gamma=10.0)
        return real(init, g, params, scheme, t_end, **kw)

    monkeypatch.setattr(sweep_mod, "run_simulation", flaky)
    report = run_sweep(sweep_config((5.0, 10.0, 20.0)))
    by_gamma = {row.gamma: row for row in report.rows}
    assert not by_gamma[5.0].failed and not by_gamma[20.0].failed
    assert by_gamma[10.0].failed
    assert "vacuum" in by_gamma[10.0].failure
    # the cross pair spanning the failed run is skipped
    assert all({c.gamma_lo, c.gamma_hi}.isdisjoint({10.0}) for c in report.cross)


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


def test_linear_solve_failure_is_a_failed_row(monkeypatch):
    import congestion_sim.sweep as sweep_mod
    from congestion_sim.errors import LinearSolveError

    real = sweep_mod.run_simulation

    def failing(init, g, params, scheme, t_end, **kw):
        if params.gamma == 10.0:
            raise LinearSolveError("synthetic residual 1e-3 exceeds 1e-10")
        return real(init, g, params, scheme, t_end, **kw)

    monkeypatch.setattr(sweep_mod, "run_simulation", failing)
    report = run_sweep(sweep_config((5.0, 10.0, 20.0), t_end=0.05))
    by_gamma = {row.gamma: row for row in report.rows}
    assert [row.gamma for row in report.rows] == [5.0, 10.0, 20.0]
    assert not by_gamma[5.0].failed and not by_gamma[20.0].failed
    assert by_gamma[10.0].failed
    assert "residual" in by_gamma[10.0].failure
    assert np.isfinite(by_gamma[5.0].max_rho) and np.isfinite(by_gamma[20.0].max_rho)
