"""IMEX time integration of the system in both formulations.

One step is: explicit donor-cell upwind advection (monotone under the
CFL condition, with a dissipation floor at expansion faces) followed by
backward-Euler treatment of the degenerate diffusion with the
coefficient lagged at the previous density, which yields one periodic
tridiagonal solve per step.  Positivity failures are rescued by halving
dt before a vacuum error is declared.

Both formulations, forced or not, go through one step path.  The run
loop evaluates each state's cell fields (``model.state_fields``: the
carried velocity, p(rho), its central derivative, lambda(rho) and the
other velocity) once and hands them to ``compute_dt``, the step, the
running time integrals and the state's snapshot; pi' is gamma * p.
The step builds each face quantity (donor-cell flux, face velocity,
diffusive face flux, face viscosity) once and hands the ones the time
integrals need to them, which only reduce them.  Neighbour shifts are
slices, and the periodic tridiagonal system goes straight to LAPACK
``gtsv``, the routine ``solve_banded((1, 1), ...)`` dispatches to.  It is
called from the OpenBLAS that numpy bundles (``_lapack``), so a run never
imports scipy; scipy's ``dgtsv`` serves only where numpy exports no such
routine (``_lapack.SOURCE`` says which).

Runs that differ only in gamma step as one batch: their fields are the
rows of 2D arrays, gamma is a column and each per-row value (t, dt, the
time integrals) has one entry per row.  The same functions serve a
single run, whose fields stay 1D and whose per-row values are scalars.
A positivity rescue halves the dt of the failing rows only and redoes
every row's density, with the same bits where a row's dt did not change.

A small batch step is bound by the count of numpy calls, so the step
path keeps it low with the same bits: per-row flags are read as lists
and reductions go through ndarray methods, ``compute_dt`` reduces once,
the seven time integrands are summed as one buffer, and the loop clips
and lands a step only when a row reaches t_end.
"""
from __future__ import annotations

import time as _time
from dataclasses import dataclass

import numpy as np

from . import _lapack
from .diagnostics import (
    Accumulators,
    DiagnosticsRecord,
    InitialDataSummary,
    PsiDefects,
    psi_test_function,
    record,
    summarize_initial_data,
)
from .errors import (
    LinearSolveError,
    NonFiniteError,
    RunFailure,
    StepBudgetError,
    VacuumError,
)
from .grid import (
    Field,
    Grid,
    as_field,
    backward_difference,
    central_difference,
    face_sum,
    forward_difference,
)
from .model import (
    U_FORM,
    W_FORM,
    FORMULATIONS,
    ModelParams,
    State,
    StateFields,
    state_fields,
)

# guards the CFL formula in a quiescent fluid
VELOCITY_FLOOR = 1e-12

# the work budget of a run, in cell-steps: a step costs about 0.114 us x
# (n_cells + STEP_OVERHEAD_CELLS) (2-core x86: 214 us at 256 cells, 650 us at
# 4096), so a run within it takes at most about 10 minutes
MAX_CELL_STEPS = 5e9
STEP_OVERHEAD_CELLS = 1600


def step_budget(n_cells: int) -> float:
    """The most steps a run on ``n_cells`` cells may take."""
    return MAX_CELL_STEPS / (n_cells + STEP_OVERHEAD_CELLS)


@dataclass(frozen=True)
class SchemeConfig:
    """Time-stepping parameters shared by both formulations."""

    formulation: str
    cfl: float = 0.45
    dt_max: float = 1e-2
    dt_init: float = 1e-3
    max_halvings: int = 20
    snapshot_every: float = 0.05

    def __post_init__(self) -> None:
        if self.formulation not in FORMULATIONS:
            raise ValueError(f"formulation must be one of {FORMULATIONS}")
        if not (0.0 < self.cfl <= 1.0):
            raise ValueError("cfl must lie in (0, 1]")
        for name in ("dt_max", "dt_init", "snapshot_every"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if self.max_halvings < 0:
            raise ValueError("max_halvings must be nonnegative")


@dataclass(frozen=True)
class Snapshot:
    """State, its cell fields and diagnostics at one snapshot time, as a
    sink receives it.

    ``fields`` are the run loop's ``state_fields`` of ``state``, copied out
    of a batch like the state.  ``pi`` and ``W`` are the cell fields that
    ``record`` evaluated for ``rec``.  ``int_mass_flux`` carries the
    rectangle sum over time of the total mass flux per face up to the
    snapshot, from which Psi is built.
    """

    state: State
    fields: StateFields
    rec: DiagnosticsRecord
    pi: np.ndarray
    W: np.ndarray
    int_mass_flux: np.ndarray


@dataclass
class Trajectory:
    """What a run keeps: its snapshots' records, the last one's state, Psi's
    defects folded over all of them, and the running time integrals."""

    grid: Grid
    params: ModelParams
    init_summary: InitialDataSummary
    records: list[DiagnosticsRecord]
    final_state: State
    psi: PsiDefects
    accums: Accumulators
    n_steps: int
    wall_seconds: float

    def series(self, name: str) -> np.ndarray:
        return np.array([getattr(rec, name) for rec in self.records])


@dataclass
class StepFaces:
    """Face quantities of one accepted step, for the running time integrals.

    Entry i belongs to face i+1/2: ``lam_face`` averages the old state's
    ``fields.lam``, and ``mass_flux`` is the step's total mass flux: the
    donor-cell flux of rho, minus the implicit diffusive flux in the
    w-formulation.
    """

    mass_flux: Field | None = None
    lam_face: Field | None = None


# per-row helpers: on a handful of values a numpy wrapper costs more than
# the work, so they test ``.ndim`` and read flags as a list

def _col(v):
    """A per-row value as a column against stacked fields; a scalar as is."""
    return v[..., None] if isinstance(v, np.ndarray) and v.ndim else v


def _any(flags) -> bool:
    """Whether any row is flagged; one run's flag is a numpy scalar."""
    return any(flags.tolist()) if flags.ndim else bool(flags)


def _where(cond, a, b):
    """np.where that keeps one run's per-row scalars numpy scalars."""
    if cond.ndim:
        return np.where(cond, a, b)
    return a if cond else b


def compute_dt(state: State, g: Grid, params: ModelParams,
               config: SchemeConfig, fields: StateFields | None = None):
    """Advective CFL time step; the implicit diffusion imposes no limit.

    ``fields`` are the state's precomputed fields; evaluated when absent.
    A batch gets one time step per row.
    """
    if fields is None:
        fields = state_fields(state, g, params)
    # one reduction per row: max is exact, so the order of the maxima is free
    speed = np.maximum(np.abs(fields.u), np.abs(fields.w)).max(axis=-1)
    return np.minimum(config.dt_max,
                      config.cfl * g.dx / np.maximum(VELOCITY_FLOOR, speed))


def solve_cyclic_tridiagonal(sub, diag, sup, corner_lo, corner_hi, rhs,
                             tol: float = 1e-10):
    """Solve the periodic tridiagonal system A x = rhs.

    A[i][i] = diag[i], A[i][i-1] = sub[i], A[i][i+1] = sup[i], with the
    wrap entries A[0][n-1] = corner_lo and A[n-1][0] = corner_hi given
    separately (sub[0] and sup[-1] are ignored).  Uses a rank-one
    correction of two non-periodic tridiagonal solves, made as one LAPACK
    ``gtsv`` call on a two-column right-hand side; valid for the strictly
    diagonally dominant systems produced by backward-Euler diffusion.
    Raises NonFiniteError, a ValueError, on non-finite input, and
    LinearSolveError if the factorization breaks down or the residual
    exceeds tol * (1 + max|rhs|).

    A batch passes (rows, n) arrays and one corner pair per row.  Its
    systems go to the one ``gtsv`` call as a block-diagonal stack: the
    couplings between blocks are zero, so each block is eliminated
    exactly as it is alone.  Every check holds per row, and a failing
    row is named in the error's ``row``.
    """
    diag = np.asarray(diag, dtype=float)
    sub = np.asarray(sub, dtype=float)
    sup = np.asarray(sup, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    shape = diag.shape
    n = shape[-1]
    if not (sub.shape == sup.shape == rhs.shape == shape):
        raise ValueError("sub, diag, sup and rhs must share one length")
    if n < 3:
        raise ValueError("periodic tridiagonal solve needs at least 3 unknowns")

    # the first and last cell of each row; plain integers index one
    # system's elements more cheaply than a last-axis index
    first, last = (0, -1) if diag.ndim == 1 else ((..., 0), (..., -1))
    # -diag[0], or 1 where diag[0] vanishes
    gamma_p = -diag[first] + (diag[first] == 0.0)
    # the packed bands of ``_lapack.gtsv``: the stack's three diagonals,
    # then the columns rhs and the spike gamma_p e_0 + corner_hi e_{n-1};
    # sub[0] and sup[-1] of each block become the zero couplings to its
    # neighbour blocks
    bands = np.empty((5,) + shape)
    lower, b, upper, y, z = bands
    lower[...] = sub
    lower[first] = 0.0
    b[...] = diag
    b[first] -= gamma_p
    b[last] -= corner_lo * corner_hi / gamma_p
    upper[...] = sup
    upper[last] = 0.0
    y[...] = rhs
    z.fill(0.0)
    z[first] = gamma_p
    z[last] = corner_hi
    if not np.isfinite(bands).all():
        # the first non-finite entry of the first row that has one
        bad = ~np.isfinite(bands).all(axis=0)
        at, row = _first_row(bad.any(axis=-1))
        raise NonFiniteError("array must not contain infs or NaNs",
                             cell=int(np.argmax(bad[at])), row=row)

    info = _lapack.gtsv(bands.reshape(5, -1))
    if info != 0:  # pragma: no cover - defensive
        row = (info - 1) // n if info > 0 and len(shape) > 1 else None
        raise LinearSolveError(
            f"banded factorization failed: gtsv info {info - n * (row or 0)}",
            row=row)

    frac = corner_lo / gamma_p
    denom = 1.0 + z[first] + frac * z[last]
    bad = ~np.isfinite(denom) | (denom == 0.0)
    if _any(bad):
        raise LinearSolveError("rank-one correction denominator vanished",
                               row=_first_row(bad)[1])
    x = y - z * _col((y[first] + frac * y[last]) / denom)

    # diag*x + sub*x[i-1] + sup*x[i+1] - rhs, the wrap terms on the corners
    residual = diag * x
    residual[..., 1:] += sub[..., 1:] * x[..., :-1]
    residual[first] += corner_lo * x[last]
    residual[..., :-1] += sup[..., :-1] * x[..., 1:]
    residual[last] += corner_hi * x[first]
    residual -= rhs
    worst = np.abs(residual).max(axis=-1)
    bound = tol * (1.0 + np.abs(rhs).max(axis=-1))
    # a non-finite entry of x makes its row's residual, and so ``worst``,
    # non-finite (0 * inf is nan; max keeps a nan)
    bad = ~np.isfinite(worst) | (worst > bound)
    if _any(bad):
        at, row = _first_row(bad)
        raise LinearSolveError(
            f"periodic tridiagonal residual {worst[at]:.3e} exceeds {bound[at]:.3e}",
            row=row)
    return x


def _first_row(flags):
    """(index, row) of the first flagged row: ((), None) outside a batch."""
    if flags.ndim == 0:
        return (), None
    row = int(np.argmax(flags))
    return row, row


# the face helpers scale the arrays they create in place: the same bits,
# fewer arrays

def _face_mean(cells: Field) -> Field:
    # value at face i+1/2 as the arithmetic mean of cells i and i+1
    out = face_sum(cells)
    out *= 0.5
    return out


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
    """Donor-cell flux of q at faces i+1/2, in viscosity form:
    0.5 * (v_face * face_sum(q) - a * forward_difference(q))."""
    flux = face_sum(q)
    flux *= v_face
    flux -= a * forward_difference(q)
    flux *= 0.5
    return flux


def _flux_divergence(face_flux: Field, g: Grid) -> Field:
    out = backward_difference(face_flux)
    out /= g.dx
    return out


def _implicit_diffusion_solve(mass_diag, coeff_face: Field, rhs: Field,
                              g: Grid, dt) -> Field:
    """One backward-Euler solve of mass_diag*x - dt*d/dx(coeff dx x) = rhs."""
    r = dt / (g.dx * g.dx)
    lam_hi = r * coeff_face                 # couples cell i to i+1
    lam_lo = np.empty_like(lam_hi)          # couples cell i to i-1
    hi, lo = lam_hi.T, lam_lo.T             # cells on the first axis
    lo[1:] = hi[:-1]
    lo[0] = hi[-1]
    diag = mass_diag + lam_hi + lam_lo
    return solve_cyclic_tridiagonal(
        -lam_lo, diag, -lam_hi,
        corner_lo=-lo[0], corner_hi=-hi[-1],
        rhs=rhs,
    )


def _step(state: State, g: Grid, params: ModelParams, config: SchemeConfig,
          dt, sources, fields: StateFields | None,
          faces: StepFaces | None) -> State:
    """The one step path of both formulations, forced or not.

    Everything before the dt-scaled update depends on the old state only,
    so it is built once.  Only the density decides positivity, so a
    positivity rescue halves dt and redoes only the density (and, in the
    w-formulation, its mass solve); the momentum is then updated once, at
    the accepted dt.  In a batch, a row that loses positivity halves only
    its own dt, and the density is redone for every row: a row whose dt
    did not change gets the same bits again.
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
    # lambda(rho_old) at faces: the u-formulation's lagged viscosity, and
    # the weight of the viscous dissipation integral in both formulations
    lam_face = _face_mean(fields.lam)
    # the w-formulation's lagged diffusion coefficient pi'(rho) = gamma p(rho)
    diff_face = None if u_form else _face_mean(params.gamma * fields.p)

    def density(d):
        """The density after the steps ``d`` and, in the w-formulation, the
        diffusive face flux its mass solve applied."""
        rho_star = rho - d * div_rho
        if forcing is not None:
            rho_star = rho_star + d * forcing[0]
        if u_form:
            return rho_star, None
        rho_new = _implicit_diffusion_solve(1.0, diff_face, rho_star, g, d)
        return rho_new, diff_face * forward_difference(rho_new) / g.dx

    # the positivity rescue: only the failing rows halve their dt
    for _ in range(config.max_halvings + 1):
        rho_new, dpi_face = density(_col(dt))
        bad = rho_new.min(axis=-1) <= 0.0
        if not _any(bad):
            break
        dt = _where(bad, 0.5 * dt, dt)
    else:
        at, row = _first_row(bad)
        t = float(np.asarray(state.t)[at])
        cell = int(np.argmin(rho_new[at]))
        gamma = params.gamma if row is None else params.row(row).gamma
        raise VacuumError(
            f"density reached zero at t={t:.6g}, cell {cell}; "
            f"{config.max_halvings} dt halvings exhausted",
            t=t, cell=cell, gamma=gamma, row=row,
        )
    d = _col(dt)

    # the momentum, once per row at its accepted dt
    mom_star = mom - d * div_mom
    if forcing is not None:
        mom_star = mom_star + d * forcing[1]
    if u_form:
        mom_new = rho_new * _implicit_diffusion_solve(rho_new, lam_face, mom_star, g, d)
    else:
        # the momentum cross flux w * dx(pi) at faces reuses the discrete
        # diffusive flux the mass solve applied
        mom_new = mom_star + d * _flux_divergence(v_face * dpi_face, g)
    if faces is not None:
        faces.mass_flux = flux_rho if u_form else flux_rho - dpi_face
        faces.lam_face = lam_face
    return State(state.t + dt, rho_new, mom_new, state.formulation)


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


def _accumulate(accums: Accumulators, old: State, fields: StateFields,
                new_fields: StateFields, faces: StepFaces, g: Grid,
                mean_rho, dt) -> None:
    """Advance all running time integrals over one step.

    Rectangle rule in time with the integrand at the step start, except
    the viscous dissipation, whose velocity gradient is taken at the
    backward-Euler level (face differences of the new velocity against
    the lagged viscosity) so it accounts exactly for what the implicit
    solve removed; this keeps the discrete energy balance one-sided.
    The fields of both states and the step's face quantities are
    evaluated once elsewhere; this only reduces them, per row in a batch.
    """
    rho_old, dxp, mean_rho = old.rho, fields.dxp, _col(mean_rho)
    du_face = forward_difference(new_fields.u) / g.dx
    # the seven integrands, built in one buffer and reduced by one sum: each
    # row's sum has the bits of that row summed alone
    f = np.empty((7,) + rho_old.shape)
    np.multiply(faces.lam_face, du_face, out=f[0])
    f[0] *= du_face
    np.multiply(rho_old, dxp, out=f[1])
    f[1] *= dxp
    np.multiply(dxp, rho_old, out=f[2])
    f[2] *= fields.w
    lam_dxu = np.multiply(fields.lam, central_difference(fields.u) / (2.0 * g.dx), out=f[3])
    np.subtract(rho_old, mean_rho, out=f[4])
    f[4] *= lam_dxu
    low = rho_old <= 0.5 * (1.0 + mean_rho)
    f[5] = np.where(low, lam_dxu, 0.0)
    f[6] = np.where(low, 0.0, lam_dxu)
    sums = f.sum(axis=-1)
    # each integral keeps its own order of products, so its bits hold:
    # dt * dx * sum for the viscous dissipation, dt * (dx * sum) otherwise
    accums.diss_visc += dt * g.dx * sums[0]
    offset, work, plain, weighted, plain_low, plain_high = dt * (g.dx * sums[1:])
    accums.diss_offset += offset
    accums.work_offset += work
    accums.diss_plain += plain
    accums.diss_weighted += weighted
    accums.diss_plain_low += plain_low
    accums.diss_plain_high += plain_high

    # the step's total mass flux per face: rho*u there, telescoping
    # exactly against the density update
    accums.int_mass_flux += _col(dt) * faces.mass_flux


@dataclass(frozen=True)
class FailedRun:
    """A row of a batched run that ended in a runtime failure.

    ``error`` is the exception the row's run alone raises; ``wall_seconds``
    runs from the start of the batch to the failure.
    """

    error: RunFailure
    wall_seconds: float


@dataclass
class _Row:
    """What a run keeps outside the stacked arrays of its batch."""

    index: int
    params: ModelParams
    records: list
    summary: InitialDataSummary | None = None   # set by the first snapshot
    psi: PsiDefects | None = None               # likewise
    last: Snapshot | None = None                # the last snapshot


def run_simulation(init: State, g: Grid, params: ModelParams,
                   config: SchemeConfig, t_end: float, sources=None, sink=None):
    """Advance the state to t_end, recording diagnostics along the way.

    The final step is clipped to land exactly on t_end so runs at
    different resolutions are comparable at identical times.  The whole
    loop is deterministic: identical inputs give bit-identical output.

    Runs that differ only in gamma step together as one batch: ``init``
    holds (rows, n_cells) arrays and ``params.gamma`` is a (rows, 1)
    column.  Each row keeps its own dt (with the first-step cap and the
    landing on t_end), positivity rescue, snapshots and time integrals, so
    it gives bit for bit the Trajectory of its run alone; a row leaves the
    batch when it reaches t_end or fails.  A batch returns one entry per
    row: its Trajectory, or the FailedRun holding the RunFailure that its
    run alone raises.  A RunFailure carries the time of the step or
    snapshot that failed and the run's gamma.  ``sources`` serve single
    runs.  A row whose CFL step cannot reach t_end within
    ``step_budget(g.n_cells)`` steps fails, at the step that finds it so.

    A snapshot is taken at the start, at the first step that reaches each
    multiple of ``config.snapshot_every`` and at t_end; a step that crosses
    several multiples takes one and restarts the cadence from its own time,
    so a cadence shorter than a step takes a snapshot every step.  The
    first snapshot also summarizes the initial data.  ``sink(g, params,
    snapshot)``, if given, gets each row's snapshots as they are taken.
    """
    if t_end < init.t:
        raise ValueError("t_end must not precede the initial time")
    rho0 = as_field(init.rho, g)
    if not np.all(rho0 > 0.0):
        raise ValueError("initial density must be strictly positive")
    mom0 = as_field(init.mom, g)

    started = _time.perf_counter()
    batched = rho0.ndim > 1
    rows = [_Row(index, params.row(index) if batched else params, [])
            for index in range(len(rho0) if batched else 1)]
    results = [None] * len(rows)

    # the stacked arrays of the rows still stepping; per-row values are
    # numpy scalars for a single run and have the shape (rows,) in a batch
    t_end = np.float64(t_end)
    state = State(np.full(rho0.shape[:-1], init.t)[()], rho0, mom0, init.formulation)
    accums = Accumulators.zeros(rho0.shape)
    next_snap = np.full(rho0.shape[:-1], init.t)
    step = step_u_form if config.formulation == U_FORM else step_w_form
    every = config.snapshot_every
    fields = mean_rho = None

    def restack(keep):
        """The batch arrays of the rows flagged in ``keep``."""
        nonlocal rows, state, accums, next_snap, fields, params, mean_rho
        rows = [row for row, k in zip(rows, keep) if k]
        state = State(state.t[keep], state.rho[keep], state.mom[keep],
                      state.formulation)
        accums = accums.select(keep)
        next_snap = next_snap[keep]
        fields = None if fields is None else StateFields(*(f[keep] for f in fields))
        params = ModelParams(np.array([[row.params.gamma] for row in rows]))
        mean_rho = None

    def end_row(err: RunFailure, i: int) -> None:
        """The one way a failing row ends: stamp ``err``, raised at stacked
        row ``i``'s current time, with that time and the row's gamma, then
        raise it for a single run; in a batch, keep it as the row's
        FailedRun and drop the row."""
        row, at = rows[i], (i if batched else ())
        if err.t is None:
            err.t = float(state.t[at])
        if err.gamma is None:
            err.gamma = row.params.gamma
        if not batched:
            raise err
        err.row = row.index
        results[row.index] = FailedRun(err, _time.perf_counter() - started)
        restack(np.arange(len(rows)) != i)

    def take_snapshots(due) -> None:
        """Snapshot the rows flagged in ``due``, last first, so a row whose
        record fails leaves the batch without moving the rows to come."""
        for i in reversed(range(len(rows))):
            at, row = (i if batched else ()), rows[i]
            if not due[at]:
                continue
            rho, mom, row_fields = state.rho, state.mom, fields
            if batched:
                rho, mom = rho[i].copy(), mom[i].copy()
                row_fields = StateFields(*(f[i].copy() for f in fields))
            snap_state = State(float(state.t[at]), rho, mom, state.formulation)
            row_accums = accums.select(at)
            state_args = (snap_state, row_fields, g, row.params)
            try:
                if row.summary is None:
                    row.summary = summarize_initial_data(*state_args)
                rec, pi, W = record(*state_args, row_accums, row.summary)
            except RunFailure as err:
                end_row(err, i)
                continue
            row.records.append(rec)
            row.last = Snapshot(snap_state, row_fields, rec, pi, W, row_accums.int_mass_flux)
            row.psi = psi_test_function(row.psi, row.last, g, row.summary.mean_rho0)[1]
            if sink is not None:
                sink(g, row.params, row.last)
            next_snap[at] += every
            if next_snap[at] <= state.t[at] + 1e-14:
                next_snap[at] = state.t[at] + every

    def finish(done) -> None:
        for pos, row in zip(np.ndindex(np.shape(done)), rows):
            if done[pos]:
                results[row.index] = Trajectory(
                    grid=g, params=row.params, init_summary=row.summary,
                    records=row.records, final_state=row.last.state, psi=row.psi,
                    accums=accums.select(pos), n_steps=n_steps,
                    wall_seconds=_time.perf_counter() - started,
                )

    # each state's fields are evaluated once, for its snapshot and the step
    # from it; a row whose first fields fail leaves before its snapshot
    while rows and fields is None:
        try:
            fields = state_fields(state, g, params)
        except RunFailure as err:
            end_row(err, err.row if batched else 0)
    take_snapshots(np.full(state.t.shape, True))
    n_steps, budget = 0, step_budget(g.n_cells)
    faces = StepFaces()
    while rows and _any(state.t < t_end):
        try:
            if mean_rho is None:
                mean_rho = np.reshape([row.summary.mean_rho0 for row in rows],
                                      state.t.shape)[()]
            dt = compute_dt(state, g, params, config, fields)
            remaining = t_end - state.t
            over = remaining > (budget - n_steps) * dt
            if _any(over):
                # the fastest cell of the first such row sets its step
                at, row = _first_row(over)
                speed = np.maximum(np.abs(fields.u[at]), np.abs(fields.w[at]))
                raise StepBudgetError(
                    f"CFL step {float(dt[at]):.3g} cannot reach t_end within the "
                    f"step budget of {budget:.3g} ({n_steps} steps taken)",
                    cell=int(np.argmax(speed)), row=row)
            if n_steps == 0:
                dt = np.minimum(dt, config.dt_init)
            # only a step that reaches t_end is clipped and lands on it
            final_step = state.t + dt >= t_end
            if landing := _any(final_step):
                dt = _where(final_step, remaining, dt)
            new_state = step(state, g, params, config, dt, sources,
                             fields=fields, faces=faces)
            new_fields = state_fields(new_state, g, params)
        except RunFailure as err:
            # the row leaves the batch and the others retake the step
            end_row(err, err.row if batched else 0)
            continue
        dt_actual = new_state.t - state.t
        _accumulate(accums, state, fields, new_fields, faces, g, mean_rho,
                    dt_actual)
        # land exactly on t_end unless the positivity rescue halved the step
        if landing and _any(land := final_step & (dt_actual > 0.6 * dt)):
            new_state = State(_where(land, t_end, new_state.t), new_state.rho,
                              new_state.mom, new_state.formulation)
        state, fields = new_state, new_fields
        n_steps += 1
        due = (state.t >= t_end) | (state.t + 1e-14 >= next_snap)
        if _any(due):
            take_snapshots(due)
        done = state.t >= t_end
        if batched and _any(done):
            finish(done)
            restack(~done)
    # the single run, or rows that started at t_end
    finish(state.t >= t_end)
    return results if batched else results[0]

