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
The step builds each face quantity (the donor split of the face
velocity, donor-cell fluxes, diffusive face flux, face viscosity) once
and hands the ones the time integrals need to them, which only reduce
them.  The periodic tridiagonal system is symmetric positive definite
and goes straight to LAPACK ``ptsv`` (LDL^T on two bands), called from
the OpenBLAS that numpy bundles (``_lapack``), so a run never imports
scipy; scipy's ``dptsv`` serves only where numpy exports no such routine
(``_lapack.SOURCE`` says which).

Runs that differ only in gamma step as one batch: their fields are the
rows of 2D arrays, gamma is a column and each per-row value (t, dt, the
time integrals) has one entry per row.  The same functions serve a
single run, whose fields stay 1D and whose per-row values are scalars.
A positivity rescue halves the dt of the failing rows only and redoes
every row's density, with the same bits where a row's dt did not change.

On the grids of ``verify`` a step costs about its count of numpy calls,
and on large grids about its count of array passes, so the step path
keeps both low.  The run owns one ``StepScratch``: the step, its
diffusion solve and the time integrals write their temporaries there,
and each state lives in one of its two ``model.StateBuffer``s, which
hold rho, mom and the state's fields with each cell's neighbours, so a
neighbour is a view.  The step writes the new rho and mom into the
buffer that the old state does not use and ``state_fields`` writes the
new fields beside them, so no field is copied and no state array is
made; the run copies a state out only for its snapshot.  The solve
packs the step's system into the same bands each step, without checking
its operands again, and ``_lapack`` keeps their LAPACK argument block;
it scans for non-finite input only on its way to an error.  Per-row
flags are read as lists, reductions call the ufuncs' own ``reduce`` (one
run's checks argmin and argmax, which cost less), ``compute_dt`` reduces
once, each flux takes three passes, the grid factors go into the dt and
integral factors, the four time integrands are summed as one buffer, and
the loop clips and lands a step only when a row reaches t_end.  No value
that reaches an output is reduced by BLAS, whose sums depend on its
thread count.
"""
from __future__ import annotations

import time as _time
from dataclasses import dataclass, field

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
    forward_difference,
    row_max,
    row_min,
)
from .model import (
    U_FORM,
    W_FORM,
    FORMULATIONS,
    ModelParams,
    State,
    StateBuffer,
    StateFields,
    set_wraps,
    state_fields,
)

# guards the CFL formula in a quiescent fluid
VELOCITY_FLOOR = 1e-12

# the work budget of a run, in cell-steps: a step costs at most about
# 0.055 us x (n_cells + STEP_OVERHEAD_CELLS) (2-core x86, in process: 84 us
# at 256 cells, 327 us at 4096), so a run within it takes at most about 4.5
# minutes
MAX_CELL_STEPS = 5e9
STEP_OVERHEAD_CELLS = 1600

# dt halvings the positivity rescue tries before it raises a VacuumError
MAX_HALVINGS = 20

# 0.5 and 1.0 as 0-d arrays: an array operand skips the conversion that a
# Python or numpy scalar takes in every ufunc call, with the same result
_HALF, _ONE = np.array(0.5), np.array(1.0)
_HALF.flags.writeable = _ONE.flags.writeable = False


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
    snapshot_every: float = 0.05

    def __post_init__(self) -> None:
        if self.formulation not in FORMULATIONS:
            raise ValueError(f"formulation must be one of {FORMULATIONS}")
        if not (0.0 < self.cfl <= 1.0):
            raise ValueError("cfl must lie in (0, 1]")
        for name in ("dt_max", "dt_init", "snapshot_every"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class Snapshot:
    """State, its cell fields and diagnostics at one snapshot time, as a
    sink receives it.

    ``fields`` are the run loop's ``state_fields`` of ``state``, copied out
    of a batch like the state.  ``pi`` and ``W`` are the cell fields that
    ``record`` evaluated for ``rec``.  ``accums`` are the time integrals up
    to the snapshot, whose per-face ``int_mass_flux`` Psi is built from.
    """

    state: State
    fields: StateFields
    rec: DiagnosticsRecord
    pi: np.ndarray
    W: np.ndarray
    accums: Accumulators


@dataclass
class Trajectory:
    """What a run keeps: its snapshots' records, the last one's state and
    time integrals, and Psi's defects folded over all of them.  ``take``
    sets each of them; the run loop sets ``n_steps`` and ``wall_seconds``."""

    grid: Grid
    params: ModelParams
    init_summary: InitialDataSummary | None = None
    records: list[DiagnosticsRecord] = field(default_factory=list)
    final_state: State | None = None
    psi: PsiDefects | None = None
    accums: Accumulators | None = None
    n_steps: int = 0
    wall_seconds: float = 0.0

    def take(self, state: State, fields: StateFields, accums: Accumulators,
             sink=None) -> None:
        """Take the snapshot of ``state``, its ``fields`` and the time
        integrals ``accums`` up to it (the first also summarizes the initial
        data) and hand it to ``sink(grid, params, snapshot)`` if given."""
        args = (state, fields, self.grid, self.params)
        if self.init_summary is None:
            self.init_summary = summarize_initial_data(*args)
        rec, pi, W = record(*args, accums, self.init_summary)
        self.records.append(rec)
        snap = Snapshot(state, fields, rec, pi, W, accums)
        self.psi = psi_test_function(self.psi, snap, self.grid,
                                     self.init_summary.mean_rho0)[1]
        self.final_state, self.accums = state, accums
        if sink is not None:
            sink(self.grid, self.params, snap)

    def series(self, name: str) -> np.ndarray:
        return np.array([getattr(rec, name) for rec in self.records])


class StepScratch:
    """A run's step temporaries for fields of one shape, (n,) or (rows, n):
    the run loop builds one per run and again when a batch restacks.

    Two ``StateBuffer``s hold the states: a step reads the old state and
    its fields from the one that holds them (copying them into a free one
    first when none does) and writes the new rho and mom into the other,
    where ``state_fields`` then writes the new state's fields.  So a step
    copies no field, and the state it returns lives in the scratch; the
    scratch writes into a buffer again only once the State that lives
    there is gone, so a state keeps its bits for as long as it is held.
    After a step, ``old`` and ``new`` are the buffers of its old and new
    state.  The step, its diffusion solve and the time integrals write
    their temporaries into the scratch; entry i of ``mass_flux`` and
    ``lam_sum`` belongs to face i+1/2: ``mass_flux`` is the step's total
    mass flux (the donor-cell flux of rho, minus the implicit diffusive
    flux in the w-formulation), ``lam_sum`` the sum of the old state's
    ``fields.lam`` over the face's two cells.
    """

    def __init__(self, g: Grid, shape) -> None:
        self.shape = shape = tuple(shape)
        self.buffers = [StateBuffer(shape), StateBuffer(shape)]
        self.old = self.new = None
        # the donor fluxes of rho and mom, and their temporaries, as stacks
        self.fluxes, self.flux_tmp = np.empty((2, 2) + shape)
        self.mass_flux, self.flux_mom = self.fluxes
        (self.lam_sum, self.diff_face, self.v_face, self.vp, self.vm, self.dflux,
         self.rhs, self.off, self.diag, self.du) = np.empty((10,) + shape)
        # the four time integrands, summed as one buffer
        self.integrands = np.empty((4,) + shape)
        # the solve's packed bands, in the layout of ``_lapack.ptsv``
        self.bands = np.empty((4, self.off.size))
        # each cell's coupling through its left face, diag[..., 1:] and
        # off[..., :-1], and the wrap entries with the cells first
        self.diag_right, self.off_left = self.diag[..., 1:], self.off[..., :-1]
        self.diag_cells, self.off_cells = self.diag.T, self.off.T
        # the cell centres, for the sources of a forced run
        self.x = g.x
        self.x.flags.writeable = False

    def buffers_for(self, state: State, fields: StateFields | None, g: Grid,
                    params: ModelParams) -> tuple[StateBuffer, StateBuffer]:
        """The buffers of a step from ``state`` and its ``fields``, also set
        as ``old`` and ``new``: the one that holds the state (or a free one
        that it is copied into), with the fields there (evaluated when
        absent), and a free one for the new state."""
        for old in self.buffers:
            if old.holds(state):
                break
        else:
            old = self._free(0, state)
        if fields is None:
            state_fields(state, g, params, out=old)
        elif fields is not old.views:
            if not old.holds(state):
                old.rho[...] = as_field(state.rho, g)
                old.mom[...] = as_field(state.mom, g)
            for cells, f in zip(old.views, fields):
                cells[...] = f
            set_wraps(old.wraps)
        new = self._free(1 if old is self.buffers[0] else 0, state)
        self.old, self.new = old, new
        return old, new

    def _free(self, i: int, state: State) -> StateBuffer:
        """Buffer i, or a new one in its place while a State still lives in
        it or it holds ``state``."""
        buf = self.buffers[i]
        if not buf.free or buf.holds(state):
            buf = self.buffers[i] = StateBuffer(self.shape)
        return buf


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
    # one reduction per row, from the floor: max is exact, so the order of
    # the maxima is free
    speed = np.abs(fields.u)
    speed = np.maximum.reduce(np.maximum(speed, np.abs(fields.w), out=speed), axis=-1,
                              initial=VELOCITY_FLOOR)
    return np.minimum(config.dt_max, config.cfl * g.dx / speed)


def solve_cyclic_tridiagonal(diag, off, rhs, *, bands=None):
    """Solve the symmetric periodic tridiagonal system A x = rhs.

    A[i][i] = diag[i] and A[i][i+1 mod n] = A[i+1 mod n][i] = off[i], so
    off[-1] is the wrap coupling of cells n-1 and 0.  A must be positive
    definite, as the backward-Euler diffusion systems are: a positive mass
    diagonal plus a weighted periodic Laplacian.  The rank-one split
    A = B + u u^T / gamma_p, with gamma_p = -diag[0] < 0, leaves B (A plus a
    positive semidefinite term, without the wrap) positive definite, and
    its two solves are one LAPACK ``ptsv`` call on a two-column right-hand
    side.  Raises NonFiniteError, a ValueError, on non-finite input, and
    LinearSolveError if the factorization meets a non-positive pivot or
    the residual exceeds 1e-10 * (1 + max|rhs|).  ``bands``, a C-ordered
    float64 array of shape (4, diag.size), receives the packed system, and
    x is a view of its third row.  A caller that passes it, as the step
    does with its scratch, passes float64 arrays of one shape with at least
    3 unknowns a row, which are taken as they are; without it the operands
    are checked and converted, and the bands are new.

    A batch passes (rows, n) arrays.  Its systems go to the one ``ptsv``
    call as a block-diagonal stack: the couplings between blocks are zero,
    so each block is eliminated exactly as it is alone.  Every check holds
    per system; an error names no row, and its text and cell are those of
    the first failing system alone.

    Finiteness is tested only on the way to an error: a non-finite entry
    of diag, off or rhs makes its row's residual non-finite (inf times
    anything is inf or nan, nan propagates and max keeps a nan), so such
    input always fails a check below, and the failure is then reported as
    NonFiniteError.  The arithmetic runs under ``np.errstate``, so such
    input raises no RuntimeWarning on its way there.
    """
    if bands is None:
        diag = np.asarray(diag, dtype=float)
        off = np.asarray(off, dtype=float)
        rhs = np.asarray(rhs, dtype=float)
        if not (off.shape == rhs.shape == diag.shape):
            raise ValueError("diag, off and rhs must share one length")
        if diag.shape[-1] < 3:
            raise ValueError("periodic tridiagonal solve needs at least 3 unknowns")
        bands = np.empty((4, diag.size))
    # the first and last cell of each row; plain integers index one
    # system's elements more cheaply than a last-axis index
    first, last = (0, -1) if diag.ndim == 1 else ((..., 0), (..., -1))
    with np.errstate(all="ignore"):
        d, y, z, gamma_p, wrap = _pack(diag, off, rhs, bands, first, last)
        info = _lapack.ptsv(bands)
        if info != 0:
            # a failing pivot's position within its own system
            at = (info - 1) % diag.shape[-1] + 1 if info > 0 else info
            _fail(LinearSolveError(f"tridiagonal factorization failed: ptsv info {at}"),
                  diag, off, rhs, first, last)

        frac = wrap / gamma_p
        denom = 1.0 + z[first] + frac * z[last]
        size = abs(denom)
        if _any(~((size > 0.0) & (size < np.inf))):
            _fail(LinearSolveError("rank-one correction denominator vanished"),
                  diag, off, rhs, first, last)
        z *= _col((y[first] + frac * y[last]) / denom)
        x = np.subtract(y, z, out=y)

        # A x - rhs, in the bands that the solve has spent: diag*x - rhs, then
        # off[i-1]*x[i-1] and off[i]*x[i+1].  These products are taken on the
        # flat band rows, so one call covers every row of a batch; each row's
        # entry whose flat neighbour lies in another row is then set from the
        # row's wrap coupling off[-1]
        residual = np.multiply(diag, x, out=d)
        residual -= rhs
        o, v, t = off.reshape(-1), bands[2], bands[3]
        np.multiply(o[:-1], v[:-1], out=t[1:])
        z[first] = wrap * x[last]
        residual += z
        np.multiply(o[:-1], v[1:], out=t[:-1])
        z[last] = wrap * x[first]
        residual += z
        worst = row_max(np.abs(residual, out=residual))
        rhs_max = row_max(np.abs(rhs, out=z))
        bound = 1e-10 * (1.0 + rhs_max)
        # a non-finite entry of x makes its row's residual, and so ``worst``,
        # non-finite (0 * inf is nan; max keeps a nan)
        bad = (worst > bound) | ~(worst < np.inf)
        if _any(bad):
            _fail(LinearSolveError(f"periodic tridiagonal residual {worst[bad][0]:.3e} "
                                   f"exceeds {bound[bad][0]:.3e}"),
                  diag, off, rhs, first, last)
    return x


def _pack(diag, off, rhs, bands, first, last):
    """Pack the system into ``bands`` as ``_lapack.ptsv`` takes it: B's
    diagonal and off-diagonal, then the columns rhs and the spike
    u = gamma_p e_0 + wrap e_{n-1}, each band row with diag's shape.
    off[-1] of each block becomes the zero coupling to the next block.
    Returns the band rows d, y and z, gamma_p and wrap."""
    d, e, y, z = bands.reshape((4,) + diag.shape) if diag.ndim > 1 else bands
    top, wrap = diag[first], off[last]
    # -diag[0], or 1 where diag[0] vanishes
    gamma_p = -top + (top == 0.0)
    d[...] = diag
    d[first] = top - gamma_p
    d[last] -= wrap * wrap / gamma_p
    e[...] = off
    e[last] = 0.0
    y[...] = rhs
    z.fill(0.0)
    z[first] = gamma_p
    z[last] = wrap
    return d, y, z, gamma_p, wrap


def _fail(err: LinearSolveError, diag, off, rhs, first, last):
    """Raise ``err``, or NonFiniteError where the system has a non-finite
    entry, naming the first cell of the packed bands that has one in any
    system."""
    packed = np.empty((4, diag.size))
    _pack(diag, off, rhs, packed, first, last)
    finite = np.isfinite(packed.reshape(-1, diag.shape[-1])).all(axis=0)
    if not finite.all():
        raise NonFiniteError("array must not contain infs or NaNs",
                             cell=int(np.argmin(finite)))
    raise err


def _upwind_faces(v_cells: Field, v_next: Field, v_face: Field | None = None,
                  vp: Field | None = None, vm: Field | None = None):
    """Face velocity and its donor split at faces i+1/2: (v_face, vp, vm),
    from the cell velocities and ``v_next`` = v[i+1], in the given arrays
    (new ones where absent).

    vp = 0.5 * (v_face + a) >= 0 and vm = v_face - vp <= 0, so the
    donor-cell flux of q is vp[i] q[i] + vm[i] q[i+1] (``_donor_flux``).
    The dissipation coefficient a = |v_face| makes that plain donor cell;
    at expansion faces (diverging cell velocities) a is floored at the
    velocity spread so the dissipation cannot vanish at a stagnation face,
    which would otherwise pin a persistent kink there.  Neither vp nor -vm
    exceeds max|v|, so monotonicity and positivity hold under the same CFL
    bound as plain donor cell.
    """
    v_face = np.add(v_cells, v_next, out=v_face)
    v_face *= _HALF
    a = np.abs(v_face, out=vm)
    spread = np.subtract(v_next, v_cells, out=vp)
    # max(|v_face|, spread) is max(|v_face|, max(spread, 0)): |v_face| >= 0
    np.maximum(a, spread, out=a)
    vp = np.add(v_face, a, out=spread)
    vp *= _HALF
    # 0.5 * (v_face - a) to rounding, and <= 0 exactly: fl(vp) >= v_face
    vm = np.subtract(v_face, vp, out=a)
    return v_face, vp, vm


def _donor_flux(q: Field, q_next: Field, vp: Field, vm: Field,
                out: Field | None = None, tmp: Field | None = None) -> Field:
    """Donor-cell flux of q at faces i+1/2: vp[i] q[i] + vm[i] q[i+1],
    periodic, from q and ``q_next`` = q[i+1].  ``out`` and ``tmp`` receive
    the flux and vm q[i+1] (new arrays where absent)."""
    flux = np.multiply(vp, q, out=out)
    flux += np.multiply(vm, q_next, out=tmp)
    return flux


def _implicit_diffusion_solve(mass_diag, coeff: Field, scale, rhs: Field,
                              s: StepScratch) -> Field:
    """One backward-Euler solve of mass_diag*x - dt*d/dx(c dx x) = rhs,
    where ``scale * coeff`` = dt/dx^2 c at each face.

    The system is symmetric: face i+1/2 couples cells i and i+1 by
    off[i] = -scale * coeff[i], and off[-1] is the wrap face.  A positive
    mass diagonal and a nonnegative coefficient make it positive definite.
    The system is built in ``s``, and x is a view of its bands.
    """
    off = np.multiply(coeff, -scale, out=s.off)
    # mass_diag minus both couplings of each cell
    diag = np.subtract(mass_diag, off, out=s.diag)
    s.diag_right -= s.off_left
    s.diag_cells[0] -= s.off_cells[-1]
    return solve_cyclic_tridiagonal(diag, off, rhs, bands=s.bands)


def _step(state: State, g: Grid, params: ModelParams, config: SchemeConfig,
          dt, sources, fields: StateFields | None, s: StepScratch | None) -> State:
    """The one step path of both formulations, forced or not.

    Everything before the dt-scaled update depends on the old state only,
    so it is built once, both donor fluxes included.  Only the density
    decides positivity, so a positivity rescue halves dt and redoes only
    the density (and, in the w-formulation, its mass solve); the momentum
    is then updated once, at the accepted dt.  In a batch, a row that
    loses positivity halves only its own dt, and the density is redone for
    every row: a row whose dt did not change gets the same bits again.
    Each update takes the flux differences times dt/dx, so no divergence
    array is formed.  The old state is read from, and the new one written
    into, the buffers of ``s`` (a new scratch when absent).
    """
    if s is None:
        s = StepScratch(g, np.shape(state.rho))
    old, new = s.buffers_for(state, fields, g, params)
    u_form = state.formulation == U_FORM
    # v is the carried velocity
    v, v_next = (old.u, old.u_next) if u_form else (old.w, old.w_next)
    v_face, vp, vm = _upwind_faces(v, v_next, s.v_face, s.vp, s.vm)
    flux_rho = _donor_flux(old.rho, old.rho_next, vp, vm, s.mass_flux, s.flux_tmp[0])
    flux_mom = _donor_flux(old.mom, old.mom_next, vp, vm, s.flux_mom, s.flux_tmp[1])
    dflux_rho = backward_difference(flux_rho, s.dflux)
    forcing = None if sources is None else sources(s.x, state.t)
    # lambda(rho_old) at faces, as the sum over the face's two cells (the
    # u-formulation's lagged viscosity, its mean once halved, and the
    # weight of the viscous dissipation integral in both formulations), and
    # the same sum of p: the w-formulation's lagged diffusion coefficient
    # pi'(rho) = gamma p(rho) at faces, over dx, once scaled
    np.add(old.lam, old.lam_next, out=s.lam_sum)
    if not u_form:
        diff_face = np.add(old.p, old.p_next, out=s.diff_face)
        diff_face *= (0.5 / g.dx) * params.gamma

    # the positivity rescue: only the failing rows halve their dt.  The
    # explicit density is the new density in the u-formulation and the
    # right-hand side of the mass solve in the w-formulation
    for _ in range(MAX_HALVINGS + 1):
        d = _col(dt)
        rate = d / g.dx
        rho_new = np.multiply(dflux_rho, -rate, out=new.rho if u_form else s.rhs)
        rho_new += old.rho
        if forcing is not None:
            rho_new += d * forcing[0]
        if not u_form:
            rho_new = _implicit_diffusion_solve(_ONE, diff_face, rate, rho_new, s)
        bad = row_min(rho_new) <= 0.0
        if not _any(bad):
            break
        dt = _where(bad, 0.5 * dt, dt)
    else:
        # the time, emptiest cell and gamma of the first failing run
        t = float(np.asarray(state.t)[bad][0])
        cell = int(np.argmin(rho_new[bad][0]))
        gamma = float(np.ravel(params.gamma)[np.ravel(bad)][0])
        raise VacuumError(
            f"density reached zero at t={t:.6g}, cell {cell}; "
            f"{MAX_HALVINGS} dt halvings exhausted",
            t=t, cell=cell, gamma=gamma,
        )

    # the momentum, once per row at its accepted dt
    if not u_form:
        new.rho[...] = rho_new
        # the diffusive flux the mass solve applied, off the mass flux; the
        # momentum cross flux w * dx(pi) at faces reuses it
        corrections = s.flux_tmp
        dpi_face = forward_difference(rho_new, corrections[0])
        dpi_face *= diff_face
        np.multiply(v_face, dpi_face, out=corrections[1])
        s.fluxes -= corrections
    # the explicit momentum: the new one in the w-formulation, the
    # right-hand side of the velocity solve in the u-formulation
    mom_new = np.multiply(backward_difference(flux_mom, s.dflux), -rate,
                          out=s.rhs if u_form else new.mom)
    mom_new += old.mom
    if forcing is not None:
        mom_new += d * forcing[1]
    if u_form:
        # the mean of the face's two cells: half their sum
        scale = d / (g.dx * g.dx) * 0.5
        velocity = _implicit_diffusion_solve(new.rho, s.lam_sum, scale, mom_new, s)
        np.multiply(new.rho, velocity, out=new.mom)
    return new.hold(state.t + dt, state.formulation)


def step_u_form(state: State, g: Grid, params: ModelParams,
                config: SchemeConfig, dt: float, sources=None,
                fields: StateFields | None = None,
                scratch: StepScratch | None = None) -> State:
    """One IMEX step of the velocity formulation.

    Explicit donor-cell advection of rho and rho*u on the face-averaged
    velocity, then backward-Euler diffusion with the viscosity lagged at
    the old density, solved as one periodic tridiagonal system in the new
    velocity.  Mass is conserved exactly by the conservative fluxes.

    ``fields`` are the state's precomputed fields (evaluated when absent).
    With a given ``scratch`` the step keeps its temporaries and face
    quantities there and returns a state that lives in it (see
    ``StepScratch``); without one, its arrays are its own.
    """
    if state.formulation != U_FORM:
        raise ValueError("step_u_form requires a u-formulation state")
    return _step(state, g, params, config, dt, sources, fields, scratch)


def step_w_form(state: State, g: Grid, params: ModelParams,
                config: SchemeConfig, dt: float, sources=None,
                fields: StateFields | None = None,
                scratch: StepScratch | None = None) -> State:
    """One IMEX step of the desired-velocity formulation.

    The advective fluxes rho*w and rho*w^2 are upwinded on w; the
    diffusive flux dx(pi) is backward-Euler implicit in rho with the face
    coefficient pi'(rho) lagged at the old density; the momentum cross
    flux reuses the exact discrete diffusive flux of the mass solve so a
    uniform desired velocity is preserved identically.

    ``fields`` are the state's precomputed fields (evaluated when absent).
    With a given ``scratch`` the step keeps its temporaries and face
    quantities there and returns a state that lives in it (see
    ``StepScratch``); without one, its arrays are its own.
    """
    if state.formulation != W_FORM:
        raise ValueError("step_w_form requires a w-formulation state")
    return _step(state, g, params, config, dt, sources, fields, scratch)


def _accumulate(accums: Accumulators, s: StepScratch, g: Grid, dt) -> None:
    """Advance the running time integrals over the step that ``s`` took
    last: the four that the checks read (the viscous dissipation of the
    energy band, the offset dissipation and work of the H balance, and the
    plain dissipation of the rho*p balance) and the mass flux per face that
    Psi is built from.

    Rectangle rule in time with the integrand at the step start, except
    the viscous dissipation, whose velocity gradient is taken at the
    backward-Euler level (face differences of the new velocity against
    the lagged viscosity) so it accounts exactly for what the implicit
    solve removed; this keeps the discrete energy balance one-sided.
    The fields of both states (in the buffers ``s.old`` and ``s.new``) and
    the step's face quantities are evaluated once elsewhere; this only
    reduces them, per row in a batch.  The grid factors of the differences
    go into each integral's scalar factor.
    """
    old, new = s.old, s.new
    du = np.subtract(new.u_next, new.u, out=s.du)
    # the four integrands, built in one buffer and reduced by one sum: each
    # row's sum has the bits of that row summed alone, and a sum takes
    # neither BLAS nor threads
    f = s.integrands
    np.multiply(s.lam_sum, du, out=f[0])
    f[0] *= du
    # rho * dxp, formed once for the offset dissipation and work
    np.multiply(old.rho, old.dxp, out=f[2])
    np.multiply(f[2], old.dxp, out=f[1])
    f[2] *= old.w
    # the central difference of the old velocity
    np.subtract(old.u_next, old.u_prev, out=f[3])
    f[3] *= old.lam
    visc, offset, work, plain = np.add.reduce(f, axis=-1)
    # lam_sum is twice the face viscosity; du and the central difference
    # are dx and 2 dx times the velocity gradients
    accums.diss_visc += dt * (0.5 / g.dx) * visc
    accums.diss_offset += dt * (g.dx * offset)
    accums.work_offset += dt * (g.dx * work)
    accums.diss_plain += dt * (0.5 * plain)

    # the step's total mass flux per face: rho*u there, telescoping
    # exactly against the density update
    accums.int_mass_flux += np.multiply(s.mass_flux, _col(dt), out=du)


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
    batch when it reaches t_end, and a batch returns one Trajectory per
    row.  A RunFailure ends the whole run, a batch at its first failure in
    any row (``sweep.run_sweep`` then runs each gamma alone); a single
    run's carries the time of the step or snapshot that failed and the
    run's gamma.  ``sources`` serve single runs.  A run whose CFL step
    cannot reach t_end within ``step_budget(g.n_cells)`` steps fails, at
    the step that finds it so.

    Each row's snapshots go through its ``Trajectory.take``: one at the
    start, at the first step that reaches each multiple of
    ``config.snapshot_every`` and at t_end; a step that crosses several
    multiples takes one and restarts the cadence from its own time, so a
    cadence shorter than a step takes a snapshot every step.  ``sink(g,
    params, snapshot)``, if given, gets each row's snapshots as they are
    taken.
    """
    if t_end < init.t:
        raise ValueError("t_end must not precede the initial time")
    rho0 = as_field(init.rho, g)
    if not np.all(rho0 > 0.0):
        raise ValueError("initial density must be strictly positive")
    mom0 = as_field(init.mom, g)

    started = _time.perf_counter()
    batched = rho0.ndim > 1
    # one Trajectory per row, in row order; ``rows`` holds those still stepping
    rows = results = [Trajectory(g, params.row(i) if batched else params)
                      for i in range(len(rho0) if batched else 1)]

    # the stacked arrays of the rows still stepping; per-row values are
    # numpy scalars for a single run and have the shape (rows,) in a batch
    t_end = np.float64(t_end)
    state = State(np.full(rho0.shape[:-1], init.t)[()], rho0, mom0, init.formulation)
    accums = Accumulators.zeros(rho0.shape)
    next_snap = state.t
    step = step_u_form if config.formulation == U_FORM else step_w_form
    every = config.snapshot_every
    scratch = StepScratch(g, rho0.shape)

    def restack(keep):
        """The batch arrays of the rows flagged in ``keep``."""
        nonlocal rows, state, accums, next_snap, fields, params, scratch
        rows = [row for row, k in zip(rows, keep) if k]
        state = State(state.t[keep], state.rho[keep], state.mom[keep],
                      state.formulation)
        accums = accums.select(keep)
        next_snap = next_snap[keep]
        fields = StateFields(*(f[keep] for f in fields))
        params = ModelParams(params.gamma[keep])
        scratch = StepScratch(g, state.rho.shape) if rows else None

    def take_snapshots(due) -> None:
        """Snapshot the rows flagged in ``due``, each copied out of the
        stepping arrays, and move their next snapshot time on."""
        nonlocal next_snap
        for i, row in enumerate(rows):
            at = i if batched else ()
            if due[at]:
                row.take(State(float(state.t[at]), state.rho[at].copy(),
                               state.mom[at].copy(), state.formulation),
                         StateFields(*(f[at].copy() for f in fields)),
                         accums.select(at), sink)
        next_snap = _where(due, next_snap + every, next_snap)
        next_snap = _where(due & (next_snap <= state.t + 1e-14), state.t + every, next_snap)

    def finish(done) -> None:
        """Close the rows flagged in ``done``, which have reached t_end."""
        for pos, row in zip(np.ndindex(np.shape(done)), rows):
            if done[pos]:
                row.n_steps, row.wall_seconds = n_steps, _time.perf_counter() - started

    n_steps, budget = 0, step_budget(g.n_cells)
    try:
        # each state's fields are evaluated once, for its snapshot and the
        # step from it; the first state's in the buffer its step reads
        fields = state_fields(state, g, params, out=scratch.buffers[0])
        take_snapshots(np.full(np.shape(state.t), True)[()])
        while _any(state.t < t_end):
            dt = compute_dt(state, g, params, config, fields)
            remaining = t_end - state.t
            over = remaining > (budget - n_steps) * dt
            if _any(over):
                # the fastest cell of the first such run sets its step
                speed = np.maximum(np.abs(fields.u), np.abs(fields.w))[over][0]
                raise StepBudgetError(
                    f"CFL step {float(dt[over][0]):.3g} cannot reach t_end within the "
                    f"step budget of {budget:.3g} ({n_steps} steps taken)",
                    cell=int(np.argmax(speed)))
            if n_steps == 0:
                dt = np.minimum(dt, config.dt_init)
            # only a step that reaches t_end is clipped and lands on it
            final_step = state.t + dt >= t_end
            if landing := _any(final_step):
                dt = _where(final_step, remaining, dt)
            new_state = step(state, g, params, config, dt, sources,
                             fields=fields, scratch=scratch)
            new_fields = state_fields(new_state, g, params, out=scratch.new)
            dt_actual = new_state.t - state.t
            _accumulate(accums, scratch, g, dt_actual)
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
    except RunFailure as err:
        # a batch ends whole: which row failed, and how, is for its caller
        # to find by running each gamma alone (``sweep.run_sweep``)
        if not batched:
            if err.t is None:
                err.t = float(state.t)
            if err.gamma is None:
                err.gamma = params.gamma
        raise
    # the single run, or rows that started at t_end
    finish(state.t >= t_end)
    return results if batched else results[0]

