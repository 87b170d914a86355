"""IMEX time integration of the system in both formulations.

One step is: explicit donor-cell upwind advection (monotone under the
CFL condition, with a dissipation floor at expansion faces) followed by
backward-Euler treatment of the degenerate diffusion with the
coefficient lagged at the previous density, which yields one periodic
tridiagonal solve per step.  Positivity failures are rescued by halving
dt before a vacuum error is declared.

Both formulations, forced or not, go through one step path.  The run
loop evaluates the per-state fields (the carried velocity, p(rho), its
central derivative and the other velocity) once per state and hands
them to ``compute_dt``, the step and the running time integrals; pi'
is gamma * p and lambda is evaluated once per step, on the old density.
The step builds each face quantity (donor-cell flux, face velocity,
diffusive face flux, face viscosity) once and hands the ones the time
integrals need to them, which only reduce them.  Neighbour shifts are
slices, and the periodic tridiagonal system goes straight to LAPACK
``gtsv``, the routine ``solve_banded((1, 1), ...)`` dispatches to.
"""
from __future__ import annotations

import time as _time
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgtsv

from .diagnostics import (
    Accumulators,
    DiagnosticsRecord,
    InitialDataSummary,
    record,
    summarize_initial_data,
)
from .errors import CflError, LinearSolveError, SaturationError, VacuumError
from .grid import (
    Field,
    Grid,
    as_field,
    backward_difference,
    central_difference,
    face_sum,
    forward_difference,
    integrate,
)
from .model import (
    U_FORM,
    W_FORM,
    FORMULATIONS,
    ModelParams,
    State,
    StateFields,
    lambda_visc,
    state_fields,
)

# guards the CFL formula in a quiescent fluid
VELOCITY_FLOOR = 1e-12


@dataclass(frozen=True)
class SchemeConfig:
    """Time-stepping parameters shared by both formulations."""

    formulation: str
    cfl: float = 0.45
    dt_max: float = 1e-2
    dt_init: float = 1e-3
    newton_tol: float = 1e-10
    max_halvings: int = 20
    snapshot_every: float = 0.05

    def __post_init__(self) -> None:
        if self.formulation not in FORMULATIONS:
            raise ValueError(f"formulation must be one of {FORMULATIONS}")
        if not (0.0 < self.cfl <= 1.0):
            raise ValueError("cfl must lie in (0, 1]")
        for name in ("dt_max", "dt_init", "newton_tol", "snapshot_every"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if self.max_halvings < 0:
            raise ValueError("max_halvings must be nonnegative")


@dataclass(frozen=True)
class Snapshot:
    """State plus diagnostics at one snapshot time.

    ``int_mass_flux`` carries the rectangle sum over time of the total
    mass flux per face up to the snapshot, consumed by the
    cumulative-test-function diagnostic.
    """

    state: State
    rec: DiagnosticsRecord
    int_mass_flux: np.ndarray


@dataclass
class Trajectory:
    """Ordered snapshots, final state and the running time integrals."""

    grid: Grid
    params: ModelParams
    config: SchemeConfig
    init_summary: InitialDataSummary
    mean_rho: float
    snapshots: list[Snapshot]
    final_state: State
    accums: Accumulators
    n_steps: int
    wall_seconds: float

    @property
    def records(self) -> list[DiagnosticsRecord]:
        return [s.rec for s in self.snapshots]

    def series(self, name: str) -> np.ndarray:
        return np.array([getattr(s.rec, name) for s in self.snapshots])


class _PositivityFailure(Exception):
    """Internal signal: a trial step produced a nonpositive density."""

    def __init__(self, cell: int):
        super().__init__("nonpositive density")
        self.cell = cell


@dataclass
class StepFaces:
    """Face quantities of one accepted step, for the running time integrals.

    Entry i belongs to face i+1/2, except ``lam``, which holds the cell
    values lambda(rho_old) that ``lam_face`` averages.  ``mass_flux`` is
    the step's total mass flux: the donor-cell flux of rho, minus the
    implicit diffusive flux in the w-formulation.
    """

    mass_flux: Field | None = None
    lam: Field | None = None
    lam_face: Field | None = None


def compute_dt(state: State, g: Grid, params: ModelParams,
               config: SchemeConfig, fields: StateFields | None = None) -> float:
    """Advective CFL time step; the implicit diffusion imposes no limit.

    ``fields`` are the state's precomputed fields; evaluated when absent.
    """
    if fields is None:
        fields = state_fields(state, g, params)
    speed = max(VELOCITY_FLOOR, float(np.max(np.abs(fields.u))),
                float(np.max(np.abs(fields.w))))
    return min(config.dt_max, config.cfl * g.dx / speed)


def solve_cyclic_tridiagonal(sub, diag, sup, corner_lo: float, corner_hi: float,
                             rhs, tol: float = 1e-10):
    """Solve the periodic tridiagonal system A x = rhs.

    A[i][i] = diag[i], A[i][i-1] = sub[i], A[i][i+1] = sup[i], with the
    wrap entries A[0][n-1] = corner_lo and A[n-1][0] = corner_hi given
    separately (sub[0] and sup[-1] are ignored).  Uses a rank-one
    correction of two non-periodic tridiagonal solves, made as one LAPACK
    ``gtsv`` call on a two-column right-hand side; valid for the strictly
    diagonally dominant systems produced by backward-Euler diffusion.
    Raises ValueError on non-finite input, and LinearSolveError if the
    factorization breaks down or the residual exceeds tol * (1 + max|rhs|).
    """
    diag = np.asarray(diag, dtype=float)
    sub = np.asarray(sub, dtype=float)
    sup = np.asarray(sup, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    n = diag.shape[0]
    if not (sub.shape[0] == sup.shape[0] == rhs.shape[0] == n):
        raise ValueError("sub, diag, sup and rhs must share one length")
    if n < 3:
        raise ValueError("periodic tridiagonal solve needs at least 3 unknowns")

    gamma_p = -diag[0] if diag[0] != 0.0 else 1.0
    b = diag.copy()
    b[0] -= gamma_p
    b[-1] -= corner_lo * corner_hi / gamma_p
    lower, upper = sub[1:], sup[:-1]

    # columns: rhs, then the spike gamma_p e_0 + corner_hi e_{n-1}
    cols = np.zeros((n, 2), order="F")
    cols[:, 0] = rhs
    cols[0, 1] = gamma_p
    cols[-1, 1] = corner_hi
    if not all(np.all(np.isfinite(a)) for a in (lower, b, upper, cols)):
        raise ValueError("array must not contain infs or NaNs")

    _, _, _, sol, info = dgtsv(lower, b, upper, cols, overwrite_d=1, overwrite_b=1)
    if info != 0:  # pragma: no cover - defensive
        raise LinearSolveError(f"banded factorization failed: gtsv info {info}")
    y, z = sol[:, 0], sol[:, 1]

    frac = corner_lo / gamma_p
    denom = 1.0 + z[0] + frac * z[-1]
    if denom == 0.0 or not np.isfinite(denom):
        raise LinearSolveError("rank-one correction denominator vanished")
    x = y - z * ((y[0] + frac * y[-1]) / denom)

    # diag*x + sub*x[i-1] + sup*x[i+1] - rhs, the wrap terms on the corners
    residual = diag * x
    residual[1:] += lower * x[:-1]
    residual[0] += corner_lo * x[-1]
    residual[:-1] += upper * x[1:]
    residual[-1] += corner_hi * x[0]
    residual -= rhs
    bound = tol * (1.0 + float(np.max(np.abs(rhs))))
    if not np.all(np.isfinite(x)) or float(np.max(np.abs(residual))) > bound:
        raise LinearSolveError(
            f"periodic tridiagonal residual {np.max(np.abs(residual)):.3e} "
            f"exceeds {bound:.3e}"
        )
    return x


def _face_mean(cells: Field) -> Field:
    # value at face i+1/2 as the arithmetic mean of cells i and i+1
    return 0.5 * face_sum(cells)


def _upwind_faces(v_cells: Field) -> tuple[Field, Field]:
    """Face velocity and donor-cell dissipation coefficient at faces i+1/2.

    The coefficient a = |v_face| makes the viscosity-form flux below
    algebraically the donor-cell flux; at expansion faces (diverging cell
    velocities) it is floored at the velocity spread so the dissipation
    cannot vanish at a stagnation face, which would otherwise pin a
    persistent kink there.  The face factor 0.5*(a + |v_face|) never
    exceeds max|v|, so monotonicity and positivity hold under the same
    CFL bound as plain donor cell.
    """
    v_face = _face_mean(v_cells)
    spread = forward_difference(v_cells)
    return v_face, np.maximum(np.abs(v_face), np.maximum(spread, 0.0))


def _advective_flux(q: Field, v_face: Field, a: Field) -> Field:
    """Donor-cell flux of q at faces i+1/2, in viscosity form."""
    return 0.5 * (v_face * face_sum(q) - a * forward_difference(q))


def _flux_divergence(face_flux: Field, g: Grid) -> Field:
    return backward_difference(face_flux) / g.dx


def _implicit_diffusion_solve(mass_diag: Field | float, coeff_face: Field,
                              rhs: Field, g: Grid, dt: float, tol: float) -> Field:
    """One backward-Euler solve of mass_diag*x - dt*d/dx(coeff dx x) = rhs."""
    r = dt / (g.dx * g.dx)
    lam_hi = r * coeff_face                 # couples cell i to i+1
    lam_lo = np.empty_like(lam_hi)          # couples cell i to i-1
    lam_lo[1:] = lam_hi[:-1]
    lam_lo[0] = lam_hi[-1]
    diag = mass_diag + lam_hi + lam_lo
    return solve_cyclic_tridiagonal(
        -lam_lo, diag, -lam_hi,
        corner_lo=-lam_lo[0], corner_hi=-lam_hi[-1],
        rhs=rhs, tol=tol,
    )


def _check_positive(rho_new: Field) -> None:
    if np.min(rho_new) <= 0.0:
        raise _PositivityFailure(int(np.argmin(rho_new)))


def _implicit_u_update(t: float, rho_new: Field, mom_star: Field,
                       lam_face: Field, g: Grid, config: SchemeConfig,
                       dt: float) -> State:
    """Velocity solve of the u-formulation, whose density is final already."""
    _check_positive(rho_new)
    u_new = _implicit_diffusion_solve(rho_new, lam_face, mom_star, g, dt,
                                      config.newton_tol)
    return State(t + dt, rho_new, rho_new * u_new, U_FORM)


def _implicit_w_update(t: float, rho_star: Field, mom_star: Field,
                       diff_face: Field, v_face: Field, g: Grid,
                       config: SchemeConfig, dt: float) -> tuple[State, Field]:
    """Density solve of the w-formulation, then the momentum cross flux.

    The cross flux w * dx(pi) at faces uses the same discrete diffusive
    flux ``dpi_face`` that the implicit mass solve just applied, which is
    returned with the new state.
    """
    rho_new = _implicit_diffusion_solve(1.0, diff_face, rho_star, g, dt,
                                        config.newton_tol)
    _check_positive(rho_new)
    dpi_face = diff_face * forward_difference(rho_new) / g.dx
    mom_new = mom_star + dt * _flux_divergence(v_face * dpi_face, g)
    return State(t + dt, rho_new, mom_new, W_FORM), dpi_face


def _step(state: State, g: Grid, params: ModelParams, config: SchemeConfig,
          dt: float, sources, fields: StateFields | None,
          faces: StepFaces | None) -> State:
    """The one step path of both formulations, forced or not.

    Everything before the dt-scaled update depends on the old state only,
    so it is built once; a positivity rescue halves dt and repeats only
    the update and the implicit solve.
    """
    if fields is None:
        fields = state_fields(state, g, params)
    u_form = state.formulation == U_FORM
    rho, mom = as_field(state.rho, g), as_field(state.mom, g)
    v_face, a = _upwind_faces(fields.u if u_form else fields.w)
    flux_rho = _advective_flux(rho, v_face, a)
    div_rho = _flux_divergence(flux_rho, g)
    div_mom = _flux_divergence(_advective_flux(mom, v_face, a), g)
    forcing = None if sources is None else sources(g.x, state.t)
    # lambda(rho_old): the u-formulation's lagged viscosity, and the
    # weight of the dissipation integrals in both formulations
    lam = lambda_visc(rho, params)
    lam_face = _face_mean(lam)
    # the w-formulation's lagged diffusion coefficient pi'(rho) = gamma p(rho)
    diff_face = None if u_form else _face_mean(params.gamma * fields.p)

    dt_try = dt
    for _ in range(config.max_halvings + 1):
        rho_star = rho - dt_try * div_rho
        mom_star = mom - dt_try * div_mom
        if forcing is not None:
            rho_star = rho_star + dt_try * forcing[0]
            mom_star = mom_star + dt_try * forcing[1]
        try:
            if u_form:
                new = _implicit_u_update(state.t, rho_star, mom_star, lam_face,
                                         g, config, dt_try)
            else:
                new, dpi_face = _implicit_w_update(state.t, rho_star, mom_star,
                                                   diff_face, v_face, g, config,
                                                   dt_try)
        except _PositivityFailure as fail:
            last_cell = fail.cell
            dt_try *= 0.5
            continue
        if faces is not None:
            faces.mass_flux = flux_rho if u_form else flux_rho - dpi_face
            faces.lam, faces.lam_face = lam, lam_face
        return new
    raise VacuumError(
        f"density reached zero at t={state.t:.6g}, cell {last_cell}; "
        f"{config.max_halvings} dt halvings exhausted",
        t=state.t, cell=last_cell, gamma=params.gamma,
    )


def step_u_form(state: State, g: Grid, params: ModelParams,
                config: SchemeConfig, dt: float, sources=None,
                fields: StateFields | None = None,
                faces: StepFaces | None = None) -> State:
    """One IMEX step of the velocity formulation.

    Explicit donor-cell advection of rho and rho*u on the face-averaged
    velocity, then backward-Euler diffusion with the viscosity lagged at
    the old density, solved as one periodic tridiagonal system in the new
    velocity.  Mass is conserved exactly by the conservative fluxes.

    ``fields`` are the state's precomputed fields (evaluated when absent);
    a given ``faces`` receives the step's face quantities.
    """
    if state.formulation != U_FORM:
        raise ValueError("step_u_form requires a u-formulation state")
    return _step(state, g, params, config, dt, sources, fields, faces)


def step_w_form(state: State, g: Grid, params: ModelParams,
                config: SchemeConfig, dt: float, sources=None,
                fields: StateFields | None = None,
                faces: StepFaces | None = None) -> State:
    """One IMEX step of the desired-velocity formulation.

    The advective fluxes rho*w and rho*w^2 are upwinded on w; the
    diffusive flux dx(pi) is backward-Euler implicit in rho with the face
    coefficient pi'(rho) lagged at the old density; the momentum cross
    flux reuses the exact discrete diffusive flux of the mass solve so a
    uniform desired velocity is preserved identically.

    ``fields`` are the state's precomputed fields (evaluated when absent);
    a given ``faces`` receives the step's face quantities.
    """
    if state.formulation != W_FORM:
        raise ValueError("step_w_form requires a w-formulation state")
    return _step(state, g, params, config, dt, sources, fields, faces)


def step_W_transport(W: Field, u: Field, g: Grid, dt: float) -> Field:
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


def _accumulate(accums: Accumulators, old: State, fields: StateFields,
                new_fields: StateFields, faces: StepFaces, g: Grid,
                mean_rho: float, dt: float) -> None:
    """Advance all running time integrals over one step.

    Rectangle rule in time with the integrand at the step start, except
    the viscous dissipation, whose velocity gradient is taken at the
    backward-Euler level (face differences of the new velocity against
    the lagged viscosity) so it accounts exactly for what the implicit
    solve removed; this keeps the discrete energy balance one-sided.
    The fields of both states and the step's face quantities are
    evaluated once elsewhere; this only reduces them.
    """
    rho_old = old.rho
    du_face = forward_difference(new_fields.u) / g.dx
    accums.diss_visc += dt * g.dx * float(np.sum(faces.lam_face * du_face * du_face))

    dxp = fields.dxp
    accums.diss_offset += dt * integrate(rho_old * dxp * dxp, g)
    accums.work_offset += dt * integrate(dxp * rho_old * fields.w, g)

    lam_dxu = faces.lam * (central_difference(fields.u) / (2.0 * g.dx))
    accums.diss_plain += dt * integrate(lam_dxu, g)
    accums.diss_weighted += dt * integrate((rho_old - mean_rho) * lam_dxu, g)
    s_mid = 0.5 * (1.0 + mean_rho)
    low = rho_old <= s_mid
    accums.diss_plain_low += dt * integrate(np.where(low, lam_dxu, 0.0), g)
    accums.diss_plain_high += dt * integrate(np.where(low, 0.0, lam_dxu), g)

    # the step's total mass flux per face: rho*u there, telescoping
    # exactly against the density update
    accums.int_mass_flux += dt * faces.mass_flux


def run_simulation(init: State, g: Grid, params: ModelParams,
                   config: SchemeConfig, t_end: float,
                   hooks=None, sources=None) -> Trajectory:
    """Advance the state to t_end, recording diagnostics along the way.

    The final step is clipped to land exactly on t_end so runs at
    different resolutions are comparable at identical times.  The whole
    loop is deterministic: identical inputs give bit-identical output.
    """
    if t_end < init.t:
        raise ValueError("t_end must not precede the initial time")
    rho0 = as_field(init.rho, g)
    if not np.all(rho0 > 0.0):
        raise ValueError("initial density must be strictly positive")

    started = _time.perf_counter()
    try:
        summary = summarize_initial_data(init, g, params)
    except SaturationError as err:
        if err.t is None:
            err.t = init.t
        raise
    mean_rho = integrate(rho0, g) / g.length
    accums = Accumulators(int_mass_flux=np.zeros(g.n_cells))
    step = step_u_form if config.formulation == U_FORM else step_w_form

    def take_snapshot(state: State) -> None:
        rec = record(state, g, params, accums, summary)
        snapshots.append(Snapshot(state, rec, accums.int_mass_flux.copy()))
        if hooks:
            for hook in hooks:
                hook(state, rec)

    snapshots: list[Snapshot] = []
    state = init
    take_snapshot(state)

    n_steps = 0
    next_snap = init.t + config.snapshot_every
    # each state's fields are evaluated once, then serve compute_dt, the
    # step and the time integrals of the step that starts from it
    fields = None
    faces = StepFaces()
    while state.t < t_end:
        try:
            if fields is None:
                fields = state_fields(state, g, params)
            dt = compute_dt(state, g, params, config, fields)
            if n_steps == 0:
                dt = min(dt, config.dt_init)
            final_step = state.t + dt >= t_end
            if final_step:
                dt = t_end - state.t
            new_state = step(state, g, params, config, dt, sources,
                             fields=fields, faces=faces)
            new_fields = state_fields(new_state, g, params)
        except SaturationError as err:
            if err.t is None:
                err.t = state.t
            raise
        dt_actual = new_state.t - state.t
        _accumulate(accums, state, fields, new_fields, faces, g, mean_rho,
                    dt_actual)
        if final_step and dt_actual > 0.6 * dt:
            # the step was not halved by the positivity rescue: land exactly
            new_state = State(t_end, new_state.rho, new_state.mom,
                              new_state.formulation)
        state, fields = new_state, new_fields
        n_steps += 1
        if state.t >= t_end:
            take_snapshot(state)
        elif state.t + 1e-14 >= next_snap:
            take_snapshot(state)
            while next_snap <= state.t + 1e-14:
                next_snap += config.snapshot_every

    return Trajectory(
        grid=g, params=params, config=config, init_summary=summary,
        mean_rho=mean_rho, snapshots=snapshots, final_state=state,
        accums=accums, n_steps=n_steps,
        wall_seconds=_time.perf_counter() - started,
    )
