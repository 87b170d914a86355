"""Per-snapshot diagnostics and end-of-run verdicts.

Every monitored functional falls into one of three tolerance classes,
declared once in ``TOL`` so tests cite a single source:

  * exact class      -- identities the scheme preserves to rounding,
  * reconstruction   -- continuum identities evaluated on reconstructed
                        fields, satisfied up to scheme error,
  * refinement class -- residuals that must decay under grid refinement
                        at a minimum observed order.
"""
from __future__ import annotations

from dataclasses import dataclass, fields as dc_fields

import numpy as np

from .errors import NonFiniteError
from .grid import Field, Grid, as_field, ddx_central, integrate, norm
from .model import (
    ModelParams,
    State,
    StateFields,
    compute_W,
    enthalpy_H,
    potential_pi,
)


@dataclass(frozen=True)
class Tolerances:
    """Single source of truth for diagnostic tolerances."""

    exact: float = 1e-12                 # conservation identities, relative
    ke_w_rel: float = 1e-8               # slack for non-increasing rho*w^2
    energy_frac: float = 0.05            # lower edge of the energy band, x -E1
    energy_abs: float = 1e-8             # upper edge of the energy band, absolute
    reconstruction: float = 5e-2         # W-max / rho*W^2 drift, reconstructed
    w_transport_step: float = 1e-14      # per-step slack of the monotone update
    lower_bound_frac: float = 1e-2       # x rho0_min, margin slack
    lower_bound_abs: float = 8e-3        # absolute margin slack, standard case
    psi_periodic: float = 1e-12
    # x dx bound on |ddx(Psi) - (rho - <rho>)|: smooth low-gamma runs read
    # 0.314-0.316; congested ones far more, and sweep rows do not apply it
    psi_gradient_dx: float = 0.5
    min_order: float = 0.9               # refinement class minimum observed order


TOL = Tolerances()


@dataclass
class Accumulators:
    """Running time integrals, updated once per solver step.

    ``int_mass_flux[i]`` is the rectangle sum over time of the scheme's
    total mass flux through face i+1/2 (the discrete counterpart of rho*u
    there); its face differences telescope exactly against the density
    update, which is what :func:`psi_test_function` relies on.  A batch of
    runs holds one entry per row in each integral and one row per run in
    ``int_mass_flux``.
    """

    diss_visc: float = 0.0        # int int lambda (dx u)^2
    diss_offset: float = 0.0      # int int rho (dx p)^2
    work_offset: float = 0.0      # int int (dx p) rho w
    diss_plain: float = 0.0       # int int lambda dx u
    int_mass_flux: np.ndarray | None = None

    @classmethod
    def zeros(cls, shape) -> "Accumulators":
        """Zero integrals for fields of ``shape``: one run, or a batch."""
        out = cls(**{f.name: np.zeros(shape[:-1])[()] for f in dc_fields(cls)})
        out.int_mass_flux = np.zeros(shape)
        return out

    def select(self, rows) -> "Accumulators":
        """A copy holding only ``rows`` of a batch (an index or a mask)."""
        out = Accumulators(**{f.name: getattr(self, f.name)[rows]
                              for f in dc_fields(self)})
        out.int_mass_flux = out.int_mass_flux.copy()
        return out


@dataclass(frozen=True)
class InitialDataSummary:
    """Scalar functionals of the initial data used by later checks."""

    M0: float           # max of (dx w0)/rho0; nonnegative by periodicity
    rho0_min: float
    rho0_max: float
    mean_rho0: float
    E0: float           # ||rho0||_L1
    E1: float           # int rho0 u0^2
    E2: float           # int rho0 w0^2 + int H(rho0)
    H0_total: float     # int H(rho0)


def summarize_initial_data(state: State, fields: StateFields, g: Grid,
                           params: ModelParams) -> InitialDataSummary:
    """The initial-data functionals of ``state`` and its ``fields``.

    NonFiniteError names the first cell whose kinetic energy density, in u
    or in w, or whose W0 is not finite; where each is finite but E1, E2 or
    the integral of rho0 W0^2 is not, it names the cell with the largest
    density of that integral.
    """
    rho = as_field(state.rho, g)
    if not np.all(rho > 0.0):
        raise ValueError("initial density must be strictly positive")
    u, w = fields.u, fields.w
    h0 = integrate(enthalpy_H(rho, params), g)
    # overflow here is found by the checks below
    with np.errstate(over="ignore", invalid="ignore"):
        W0 = compute_W(rho, w, g)
        ke_u, ke_w, rhoW2 = rho * u * u, rho * w * w, rho * W0 * W0
        E1, E2 = integrate(ke_u, g), integrate(ke_w, g) + h0
        rhoW2_total = integrate(rhoW2, g)
    bad = ~(np.isfinite(ke_u) & np.isfinite(ke_w))
    if bad.any():
        raise NonFiniteError("initial kinetic energy density is not finite",
                             cell=int(np.argmax(bad)))
    if not np.all(np.isfinite(W0)):
        raise NonFiniteError("initial W = dx(w)/rho is not finite",
                             cell=int(np.argmin(np.isfinite(W0))))
    for name, total, density in (("energy E1", E1, ke_u), ("energy E2", E2, ke_w),
                                 ("integral of rho W^2", rhoW2_total, rhoW2)):
        if not np.isfinite(total):
            raise NonFiniteError(f"initial {name} is not finite",
                                 cell=int(np.argmax(density)))
    return InitialDataSummary(
        M0=float(np.max(W0)),
        rho0_min=float(np.min(rho)),
        rho0_max=float(np.max(rho)),
        mean_rho0=integrate(rho, g),
        E0=norm(rho, g, "l1"),
        E1=E1,
        E2=E2,
        H0_total=h0,
    )


@dataclass(frozen=True)
class DiagnosticsRecord:
    """Snapshot of every monitored functional at one time."""

    t: float
    mass: float
    ke_u: float
    ke_w: float
    H_total: float
    rho_min: float
    rho_max: float
    W_max: float
    W_min: float
    rhoW2: float
    pi_l1: float
    dpi_l2: float
    switching_residual: float
    lower_bound_margin: float
    energy_residual: float
    H_balance_residual: float
    rho_p_balance_residual: float


def switching_residual(rho: Field, params: ModelParams, g: Grid,
                       pi: Field | None = None) -> float:
    """L2 norm of (1 - rho) * pi(rho); vanishes at full congestion.

    rho is not clamped: pre-limit densities may exceed 1 slightly and the
    excess must show up in the residual.  ``pi`` is pi(rho) when the
    caller has it already.
    """
    arr = as_field(rho, g)
    if pi is None:
        pi = potential_pi(arr, params)
    return norm((1.0 - arr) * pi, g, "l2")


def lower_bound_margin(t: float, rho_min: float, summary: InitialDataSummary) -> float:
    """rho_min(t) minus the transported-potential lower bound.

    The bound is 1/(M0 t + 1/rho0_min); the continuum value of the margin
    is nonnegative, the scheme is allowed first-order slack.
    """
    bound = 1.0 / (summary.M0 * t + 1.0 / summary.rho0_min)
    return rho_min - bound


def basic_energy_residual(ke_u: float, diss_visc: float, e1_seed: float) -> float:
    """ke_u(t) + 2 * accumulated viscous dissipation - E1.

    Zero for the continuum; nonpositive (up to rounding) for the
    dissipative scheme.
    """
    return ke_u + 2.0 * diss_visc - e1_seed


def H_balance_residual(H_total: float, accums: Accumulators,
                       summary: InitialDataSummary) -> float:
    """Discrete defect of the entropy balance.

    int H(t) - int H(0) + int int rho (dx p)^2 - int int (dx p) rho w;
    decays under refinement.
    """
    return (H_total - summary.H0_total) + accums.diss_offset - accums.work_offset


def rho_p_balance_residual(H_total: float, accums: Accumulators,
                           summary: InitialDataSummary,
                           params: ModelParams) -> float:
    """Discrete defect of the rho*p balance law.

    int rho p (t) - int rho0 p(rho0) + int int lambda dx u, using
    rho p = (gamma + 1) H; the flux term integrates to zero on the torus.
    """
    gp1 = params.gamma + 1.0
    return gp1 * (H_total - summary.H0_total) + accums.diss_plain


def record(state: State, fields: StateFields, g: Grid, params: ModelParams,
           accums: Accumulators, summary: InitialDataSummary,
           ) -> tuple[DiagnosticsRecord, Field, Field]:
    """Evaluate every monitored functional on one state.

    Returns ``(record, pi, W)``: the record and the cell fields pi and W it
    was computed from, which a snapshot writer reads instead of evaluating
    them again.  Pure function of its inputs: identical state, fields and
    accumulators give an identical record.  The velocities are read from
    ``fields``, the state's ``model.state_fields``; rho^(gamma+1) is
    evaluated once, as H, and pi is gamma * H, as in ``potential_pi``.
    """
    rho = as_field(state.rho, g)
    u, w = fields.u, fields.w
    W = compute_W(rho, w, g)
    H = enthalpy_H(rho, params)
    pi = params.gamma * H
    H_total = integrate(H, g)
    ke_u = integrate(rho * u * u, g)
    rho_min = float(np.min(rho))
    rec = DiagnosticsRecord(
        t=state.t,
        mass=integrate(rho, g),
        ke_u=ke_u,
        ke_w=integrate(rho * w * w, g),
        H_total=H_total,
        rho_min=rho_min,
        rho_max=float(np.max(rho)),
        W_max=float(np.max(W)),
        W_min=float(np.min(W)),
        rhoW2=integrate(rho * W * W, g),
        pi_l1=norm(pi, g, "l1"),
        dpi_l2=norm(ddx_central(pi, g), g, "l2"),
        switching_residual=switching_residual(rho, params, g, pi),
        lower_bound_margin=lower_bound_margin(state.t, rho_min, summary),
        energy_residual=basic_energy_residual(ke_u, accums.diss_visc, summary.E1),
        H_balance_residual=H_balance_residual(H_total, accums, summary),
        rho_p_balance_residual=rho_p_balance_residual(H_total, accums, summary, params),
    )
    return rec, pi, W


@dataclass(frozen=True)
class CheckResult:
    """Outcome of an end-of-run verdict; ``passed`` is a Python bool."""

    name: str
    passed: bool
    worst: float
    tol: float

    def __bool__(self) -> bool:
        return self.passed


def W_max_principle_check(w_max_series) -> CheckResult:
    """Verdict on max W(t) <= max W(0) + tol along a trajectory, with the
    scheme-error slack of W rebuilt from the PDE state."""
    series = np.asarray(w_max_series, dtype=float)
    tol = TOL.reconstruction * (1.0 + abs(float(series[0])))
    worst = float(np.max(series - series[0]))
    return CheckResult("W_max_principle", worst <= tol, worst, tol)


def rhoW2_conservation_check(rhoW2_series) -> CheckResult:
    """Verdict on |int rho W^2 (t) - int rho W^2 (0)| staying small."""
    series = np.asarray(rhoW2_series, dtype=float)
    tol = TOL.reconstruction * (1.0 + float(series[0]))
    worst = float(np.max(np.abs(series - series[0])))
    return CheckResult("rhoW2_conservation", worst <= tol, worst, tol)


@dataclass
class PsiDefects:
    """The two structural defects of Psi, folded over a run's snapshots."""

    prefix: np.ndarray      # Psi's spatial part, fixed by the first snapshot
    wrap: float             # periodicity defect of Psi
    gradient: float = 0.0   # max so far of |ddx(Psi) - (rho - <rho>)|


def psi_test_function(defects: PsiDefects | None, snap, g: Grid, mean_rho: float):
    """Cumulative test function Psi at one snapshot, folded into ``defects``.

    Psi(x, t) = int_0^x (rho0 - <rho>) dy - int_0^t (rho u)(x, s) ds, built
    from spatial prefix dx-sums of the first snapshot's density (``defects``
    None) and the per-face rectangle sums of rho*u in ``snap.accums``.
    Psi is periodic and ddx(Psi) = rho - <rho> up to first-order prefix
    error; the latter's defect is a max over snapshots, so folding them in
    one at a time is exact.  Returns (psi, defects).
    """
    rho = as_field(snap.state.rho, g)
    if defects is None:
        centred = rho - mean_rho
        # prefix[i] approximates the integral from 0 to the left edge of cell i
        defects = PsiDefects(g.dx * (np.cumsum(centred) - centred),
                             abs(g.dx * float(np.sum(centred))))
    # cell sample of int rho*u dt: mean of the two adjacent face sums
    flux = snap.accums.int_mass_flux
    time_part = 0.5 * (flux + np.roll(flux, 1))
    psi = defects.prefix - time_part
    defect = float(np.max(np.abs(ddx_central(psi, g) - (rho - mean_rho))))
    defects.gradient = max(defects.gradient, defect)
    return psi, defects


def trajectory_checks(trajectory) -> dict[str, CheckResult]:
    """Every end-of-run verdict on a trajectory, keyed by check name.

    ``worst`` is the reduction of the trajectory that ``summary.json``
    reports.  The energy band is -energy_frac * E1 <= residual <=
    energy_abs, one check per edge; its lower edge and the density
    lower-bound margin pass when ``worst >= tol``, positivity when
    ``worst > tol``, every other check when ``worst <= tol``.
    """
    summary = trajectory.init_summary
    mass = trajectory.series("mass")
    ke_w = trajectory.series("ke_w")
    residual = trajectory.series("energy_residual")
    drift = float(np.max(np.abs(mass - mass[0])) / mass[0])
    rise = float(np.max(np.diff(ke_w), initial=0.0))
    rise_tol = TOL.ke_w_rel * (1.0 + float(ke_w[0]))
    top, bottom = float(np.max(residual)), float(np.min(residual))
    # 0.0 - x, not -x: a zero E1 gives the edge +0.0
    bottom_edge = 0.0 - TOL.energy_frac * summary.E1
    margin = float(np.min(trajectory.series("lower_bound_margin")))
    margin_tol = -TOL.lower_bound_frac * summary.rho0_min
    rho_min = float(np.min(trajectory.series("rho_min")))
    wrap, gradient = trajectory.psi.wrap, trajectory.psi.gradient
    gradient_tol = TOL.psi_gradient_dx * trajectory.grid.dx
    checks = (
        CheckResult("mass_conservation", drift <= TOL.exact, drift, TOL.exact),
        CheckResult("ke_w_non_increasing", rise <= rise_tol, rise, rise_tol),
        CheckResult("energy_residual_max", top <= TOL.energy_abs, top, TOL.energy_abs),
        CheckResult("energy_residual_min", bottom >= bottom_edge, bottom, bottom_edge),
        W_max_principle_check(trajectory.series("W_max")),
        rhoW2_conservation_check(trajectory.series("rhoW2")),
        CheckResult("lower_bound_margin", margin >= margin_tol, margin, margin_tol),
        CheckResult("psi_periodicity", wrap <= TOL.psi_periodic, wrap, TOL.psi_periodic),
        CheckResult("psi_gradient", gradient <= gradient_tol, gradient, gradient_tol),
        CheckResult("positivity", rho_min > 0.0, rho_min, 0.0),
    )
    return {check.name: check for check in checks}
