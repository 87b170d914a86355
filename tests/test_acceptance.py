"""Acceptance suite: one test per exit criterion, each printing a verdict.

Tolerances come from the shared constants table in the diagnostics
module; refinement checks demand observed order >= TOL.min_order under
one grid doubling.
"""
import time

import numpy as np
import pytest

from conftest import STANDARD, SWEEP, observed_order, run_case, step_W_transport
import congestion_sim.diagnostics as diag
from congestion_sim.diagnostics import TOL
from congestion_sim.grid import Grid, norm
from congestion_sim.model import U_FORM, W_FORM
from congestion_sim.sweep import run_sweep
from congestion_sim.verify import (
    dense_oracle_checks,
    mms_order_checks,
    random_cyclic_systems_check,
)


def verdict(label: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{label}: {detail}"


@pytest.fixture(scope="module")
def standard_sweep_report():
    started = time.perf_counter()
    report = run_sweep(SWEEP)
    return report, time.perf_counter() - started


def test_c01_mass_conservation(standard_w_256, standard_u_256,
                               travelling_w_256, constant_u_256):
    worst = 0.0
    slowest = 0.0
    for traj, _, _ in (standard_w_256, standard_u_256, travelling_w_256,
                       constant_u_256):
        worst = max(worst, diag.trajectory_checks(traj)["mass_conservation"].worst)
        slowest = max(slowest, traj.wall_seconds)
    verdict("C1 mass conservation", worst <= TOL.exact and slowest <= 60.0,
            f"max rel drift {worst:.3e}, slowest run {slowest:.1f}s")


def test_c02_basic_energy_band_and_decay(standard_u_256, standard_u_512,
                                         standard_w_256, standard_w_512):
    ok = True
    details = []
    for name, coarse, fine in (("u_form", standard_u_256, standard_u_512),
                               ("w_form", standard_w_256, standard_w_512)):
        magnitudes = []
        for traj, _, _ in (coarse, fine):
            checks = diag.trajectory_checks(traj)
            ok = (ok and checks["energy_residual_max"].passed
                  and checks["energy_residual_min"].passed)
            magnitudes.append(float(np.max(np.abs(traj.series("energy_residual")))))
        order = observed_order(magnitudes[0], magnitudes[1])
        ok = ok and order >= TOL.min_order
        details.append(f"{name}: |res|={magnitudes[0]:.3e} order={order:.2f}")
    verdict("C2 basic energy", ok, "; ".join(details))


def test_c03_additional_energy(standard_w_256, standard_w_512,
                               travelling_w_256, constant_u_256):
    ok = True
    rises = []
    for traj, _, _ in (standard_w_256, travelling_w_256, constant_u_256):
        rise = diag.trajectory_checks(traj)["ke_w_non_increasing"]
        rises.append(rise.worst)
        ok = ok and rise.passed
    defects = [float(np.max(np.abs(traj.series("H_balance_residual"))))
               for traj, _, _ in (standard_w_256, standard_w_512)]
    order = observed_order(defects[0], defects[1])
    ok = ok and order >= TOL.min_order
    verdict("C3 additional energy", ok,
            f"max ke_w rise {max(rises):.3e}, H-balance order {order:.2f}")


def test_c04_w_maximum_principle(travelling_w_256, travelling_w_512):
    # monotone transport integrator: per-step slack at rounding level
    rng = np.random.default_rng(2026)
    g = Grid(64)
    worst_step = 0.0
    steps = 0
    for _ in range(100):
        W = rng.normal(size=64) * rng.uniform(0.5, 5.0)
        u = rng.normal(size=64)
        dt = rng.uniform(0.05, 1.0) * g.dx / max(np.max(np.abs(u)), 1e-9)
        for _ in range(100):
            new = step_W_transport(W, u, g, dt)
            scale = max(1.0, float(np.max(np.abs(W))))
            worst_step = max(worst_step,
                             (np.max(new) - np.max(W)) / scale,
                             (np.min(W) - np.min(new)) / scale)
            W = new
            steps += 1
    ok = steps == 10_000 and worst_step <= TOL.w_transport_step

    # reconstructed potential from full w-form runs of a smooth case with
    # the desired velocity bounded away from zero
    drifts = []
    for traj, _, _ in (travelling_w_256, travelling_w_512):
        check = diag.W_max_principle_check(traj.series("W_max"))
        ok = ok and check.passed
        drifts.append(max(check.worst, 0.0))
    decaying = (drifts[0] <= 1e-10
                or observed_order(drifts[0], max(drifts[1], 1e-300)) >= TOL.min_order)
    ok = ok and decaying
    verdict("C4 W maximum principle", ok,
            f"{steps} transport steps, worst slack {worst_step:.2e}; "
            f"reconstructed drifts {drifts[0]:.2e}/{drifts[1]:.2e}")


def test_c05_quantitative_lower_bound():
    worst = np.inf
    for gamma in SWEEP.gammas:
        traj, _, _ = run_case(STANDARD, W_FORM, 256, t_end=1.0, gamma=gamma)
        worst = min(worst, diag.trajectory_checks(traj)["lower_bound_margin"].worst)
    verdict("C5 quantitative lower bound", worst >= -TOL.lower_bound_abs,
            f"min margin {worst:+.3e} over gammas {SWEEP.gammas}")


def test_c06_rhoW2_conservation(standard_w_256, standard_w_512):
    drifts = []
    ok = True
    for traj, _, _ in (standard_w_256, standard_w_512):
        check = diag.rhoW2_conservation_check(traj.series("rhoW2"))
        ok = ok and check.passed
        drifts.append(check.worst)
    order = observed_order(drifts[0], drifts[1])
    ok = ok and order >= TOL.min_order
    verdict("C6 conserved rho W^2", ok,
            f"drift {drifts[0]:.3e} -> {drifts[1]:.3e}, order {order:.2f}")


def test_c07_hard_congestion_trend(standard_sweep_report):
    report, wall = standard_sweep_report
    rows = report.rows
    ok = not any(r.failed for r in rows)
    switching = [r.switching_residual_max for r in rows]
    ok = ok and all(b < a for a, b in zip(switching, switching[1:]))
    ok = ok and switching[-1] <= 0.05 * switching[0]
    excess = rows[-1].max_rho - 1.0
    ok = ok and excess <= 0.1
    ok = ok and wall <= 900.0
    verdict("C7 hard-congestion trend", ok,
            f"switching {switching[0]:.3e} -> {switching[-1]:.3e} "
            f"(ratio {switching[-1]/switching[0]:.3f}), "
            f"max_rho-1 at gamma=80: {excess:+.3f}, sweep wall {wall:.1f}s")


def test_c08_potential_estimate_machinery(standard_w_256, standard_sweep_report):
    traj, _, _ = standard_w_256
    checks = diag.trajectory_checks(traj)
    wrap, gradient = checks["psi_periodicity"], checks["psi_gradient"]
    ok = wrap.passed and gradient.passed
    report, _ = standard_sweep_report
    plains = [r.I_plain_abs for r in report.rows]
    ok = ok and all(v <= 2.0 * plains[0] for v in plains)
    verdict("C8 potential-estimate machinery", ok,
            f"psi wrap {wrap.worst:.1e}, "
            f"psi gradient {gradient.worst:.3e} (tol {gradient.tol:.3e}), "
            f"I_plain max/first {max(plains)/plains[0]:.2f}")


def test_c09_scheme_verification():
    ok = True
    details = []
    for formulation in (U_FORM, W_FORM):
        rho_order, mom_order = mms_order_checks(formulation)
        ok = ok and rho_order.passed and mom_order.passed
        details.append(f"mms {formulation} order {rho_order.worst:.2f}")

    worst_oracle = max(check.worst for check in dense_oracle_checks())
    ok = ok and worst_oracle <= 1e-12
    details.append(f"oracle err {worst_oracle:.1e}")

    worst_tri = random_cyclic_systems_check(seed=7, n_max=32).worst
    ok = ok and worst_tri <= 1e-12
    details.append(f"tridiag err {worst_tri:.1e}")
    verdict("C9 scheme verification", ok, "; ".join(details))


def test_c10_formulation_equivalence():
    diffs = []
    for n in (256, 512, 1024):
        tu, _, g = run_case(STANDARD, U_FORM, n, t_end=0.25)
        tw, _, _ = run_case(STANDARD, W_FORM, n, t_end=0.25)
        diffs.append(norm(tu.final_state.rho - tw.final_state.rho, g, "l1"))
    orders = [observed_order(a, b) for a, b in zip(diffs, diffs[1:])]
    ok = all(order >= TOL.min_order for order in orders)
    verdict("C10 formulation equivalence", ok,
            f"L1 diffs {['%.3e' % d for d in diffs]}, "
            f"orders {['%.2f' % o for o in orders]}")
