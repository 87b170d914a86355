"""Independent verification oracles.

Three layers: manufactured solutions with hand-derived source terms,
grid-convergence studies against them, and a dense single-step oracle
that re-implements one IMEX step with loop arithmetic and a dense linear
solve, sharing no code with the solver.
The checks that both ``congestion-sim verify`` and the tests run are
defined here once, each returning ``diagnostics.CheckResult``s.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .diagnostics import CheckResult
from .grid import Grid, norm
from .model import ModelParams, State, U_FORM, W_FORM, u_to_w
from .solver import (
    SchemeConfig,
    run_simulation,
    solve_cyclic_tridiagonal,
    step_u_form,
    step_w_form,
)

TWO_PI = 2.0 * np.pi


def wave(x, t) -> tuple[np.ndarray, np.ndarray]:
    """The sine and cosine of the phase 2 pi (x - t) that every profile of
    a case is a function of."""
    phase = TWO_PI * (x - t)
    return np.sin(phase), np.cos(phase)


class Profile(NamedTuple):
    """A closed-form field of (x, t), given as a function ``of`` the sine
    and cosine of ``wave(x, t)``, so that a caller evaluating several
    profiles at one (x, t) takes the pair once."""

    of: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def __call__(self, x, t) -> np.ndarray:
        return self.of(*wave(x, t))


MACHINE_NOISE = 1e-12


@dataclass(frozen=True)
class ManufacturedCase:
    """Closed-form (rho*, u*) with every partial the sources need.

    All closures are analytic; no numerical differentiation enters the
    oracle.  Sources are assembled from the exact product/chain rules so
    the manufactured pair solves the forced system identically.
    """

    name: str
    gamma: float
    t_end: float
    rho: Profile
    u: Profile
    drho_dx: Profile
    drho_dt: Profile
    d2rho_dx2: Profile
    d2rho_dxdt: Profile
    du_dx: Profile
    du_dt: Profile
    d2u_dx2: Profile

    def params(self) -> ModelParams:
        return ModelParams(gamma=self.gamma)

    def exact_state(self, g: Grid, t: float, formulation: str) -> State:
        x = g.x
        rho = self.rho(x, t)
        if formulation == U_FORM:
            mom = rho * self.u(x, t)
        else:
            mom = rho * self._w(x, t)
        return State(t, rho, mom, formulation)

    # -- helpers -----------------------------------------------------------
    def _w(self, x, t):
        # w = u + p'(rho) dx rho
        gm = self.gamma
        return self.u(x, t) + gm * self.rho(x, t) ** (gm - 1.0) * self.drho_dx(x, t)

    # -- sources -----------------------------------------------------------
    # each evaluates every profile it needs once, from one wave pair
    def _partials(self, x, t):
        """rho, u and their partials rx, rt, ux, ut at (x, t)."""
        pair = wave(x, t)
        return tuple(f.of(*pair) for f in (self.rho, self.u, self.drho_dx, self.drho_dt,
                                            self.du_dx, self.du_dt)), pair

    def sources_u(self, x, t):
        """(S_rho, S_mom) for the forced velocity formulation."""
        gm = self.gamma
        (rho, u, rx, rt, ux, ut), pair = self._partials(x, t)
        s_rho = rt + rx * u + rho * ux
        lam = gm * rho ** (gm + 1.0)
        dlam = gm * (gm + 1.0) * rho ** gm * rx
        diffusion = dlam * ux + lam * self.d2u_dx2.of(*pair)
        s_mom = rt * u + rho * ut + rx * u * u + 2.0 * rho * u * ux - diffusion
        return s_rho, s_mom

    def sources_w(self, x, t):
        """(S_rho, S_mom) for the forced desired-velocity formulation."""
        gm = self.gamma
        (rho, u, rx, rt, ux, ut), pair = self._partials(x, t)
        # w = u + p'(rho) dx rho and its partials, p'(rho) = gm rho^(gm - 1);
        # p1 = gm rho^(gm - 1) and p2 = gm (gm - 1) rho^(gm - 2) are formed
        # once, each the leading product of its terms, so the bits stay
        p1, p2 = gm * rho ** (gm - 1.0), gm * (gm - 1.0) * rho ** (gm - 2.0)
        w = u + p1 * rx
        wx = ux + p2 * rx * rx + p1 * self.d2rho_dx2.of(*pair)
        wt = ut + p2 * rt * rx + p1 * self.d2rho_dxdt.of(*pair)
        s_rho = rt + rx * u + rho * ux
        s_mom = rt * w + rho * wt + rx * w * u + rho * wx * u + rho * w * ux
        return s_rho, s_mom

    def sources(self, formulation: str):
        return self.sources_u if formulation == U_FORM else self.sources_w


def _constant(value: float) -> Profile:
    return Profile(lambda s, c: np.full_like(s, value))


def _zero() -> Profile:
    return Profile(lambda s, c: np.zeros_like(s))


def _case_constant() -> ManufacturedCase:
    return ManufacturedCase(
        name="constant", gamma=2.0, t_end=0.25,
        rho=_constant(0.8), u=_zero(),
        drho_dx=_zero(), drho_dt=_zero(),
        d2rho_dx2=_zero(), d2rho_dxdt=_zero(),
        du_dx=_zero(), du_dt=_zero(), d2u_dx2=_zero(),
    )


def _case_travelling_velocity() -> ManufacturedCase:
    # rho fixed at 0.8, u = 0.1 sin(2 pi (x - t))
    amp = 0.1
    return ManufacturedCase(
        name="travelling_velocity", gamma=4.0, t_end=0.25,
        rho=_constant(0.8),
        u=Profile(lambda s, c: amp * s),
        drho_dx=_zero(), drho_dt=_zero(),
        d2rho_dx2=_zero(), d2rho_dxdt=_zero(),
        du_dx=Profile(lambda s, c: amp * TWO_PI * c),
        du_dt=Profile(lambda s, c: -amp * TWO_PI * c),
        d2u_dx2=Profile(lambda s, c: -amp * TWO_PI ** 2 * s),
    )


def _case_travelling_wave() -> ManufacturedCase:
    # joint density/velocity wave moving at unit speed
    ra, ua, u0 = 0.05, 0.05, 0.1
    return ManufacturedCase(
        name="travelling_wave", gamma=4.0, t_end=0.25,
        rho=Profile(lambda s, c: 0.85 + ra * c),
        u=Profile(lambda s, c: u0 + ua * s),
        drho_dx=Profile(lambda s, c: -ra * TWO_PI * s),
        drho_dt=Profile(lambda s, c: ra * TWO_PI * s),
        d2rho_dx2=Profile(lambda s, c: -ra * TWO_PI ** 2 * c),
        d2rho_dxdt=Profile(lambda s, c: ra * TWO_PI ** 2 * c),
        du_dx=Profile(lambda s, c: ua * TWO_PI * c),
        du_dt=Profile(lambda s, c: -ua * TWO_PI * c),
        d2u_dx2=Profile(lambda s, c: -ua * TWO_PI ** 2 * s),
    )


CASES = {
    case.name: case
    for case in (_case_constant(), _case_travelling_velocity(), _case_travelling_wave())
}


@dataclass(frozen=True)
class ConvergenceStudy:
    """Error norms and observed orders across doubling resolutions."""

    resolutions: tuple[int, ...]
    rho_l1: tuple[float, ...]
    rho_linf: tuple[float, ...]
    mom_l1: tuple[float, ...]
    orders_rho_l1: tuple[float, ...]
    orders_mom_l1: tuple[float, ...]
    exact: bool

    def table(self) -> str:
        lines = ["n      rho_L1        rho_Linf      mom_L1        order(rho)"]
        orders = ("-",) + tuple(f"{o:.3f}" for o in self.orders_rho_l1)
        for i, n in enumerate(self.resolutions):
            lines.append(
                f"{n:<6d} {self.rho_l1[i]:<13.4e} {self.rho_linf[i]:<13.4e} "
                f"{self.mom_l1[i]:<13.4e} {orders[i]}"
            )
        if self.exact:
            lines.append("errors at machine noise: orders reported as exact")
        return "\n".join(lines)


def _observed_orders(errors) -> tuple[float, ...]:
    out = []
    for coarse, fine in zip(errors, errors[1:]):
        if fine == 0.0 or coarse == 0.0:
            out.append(float("inf"))
        else:
            out.append(float(np.log2(coarse / fine)))
    return tuple(out)


def _scaled_dt(cfg: SchemeConfig, g: Grid) -> SchemeConfig:
    # cap dt at one cell width per unit time so the time step shrinks
    # with the mesh even for slow cases; keeps observed orders meaningful
    from dataclasses import replace
    cap = min(cfg.dt_max, g.dx)
    return replace(cfg, dt_max=cap, dt_init=min(cfg.dt_init, cap))


def doubling_resolutions(values) -> tuple[int, ...]:
    """``values`` as the cell counts of a convergence study.

    Raises ValueError unless there are at least 3, each doubles the one
    before (observed orders are log2 ratios) and each is a grid's.
    """
    resolutions = tuple(int(n) for n in values)
    if len(resolutions) < 3:
        raise ValueError("a convergence study needs at least 3 resolutions")
    if any(b != 2 * a for a, b in zip(resolutions, resolutions[1:])):
        raise ValueError("resolutions must double")
    for n in resolutions:
        Grid(n)  # ValueError outside [4, MAX_CELLS]
    return resolutions


def _study(resolutions, errors) -> ConvergenceStudy:
    """Norms and observed orders of ``errors(g)``, the (density, momentum)
    errors on the grid of each resolution."""
    rho_l1, rho_linf, mom_l1 = [], [], []
    for n in resolutions:
        g = Grid(n)
        drho, dmom = errors(g)
        rho_l1.append(norm(drho, g, "l1"))
        rho_linf.append(norm(drho, g, "linf"))
        mom_l1.append(norm(dmom, g, "l1"))
    return ConvergenceStudy(
        resolutions=resolutions,
        rho_l1=tuple(rho_l1), rho_linf=tuple(rho_linf),
        mom_l1=tuple(mom_l1),
        orders_rho_l1=_observed_orders(rho_l1),
        orders_mom_l1=_observed_orders(mom_l1),
        exact=max(rho_l1 + mom_l1) < MACHINE_NOISE,
    )


def convergence_study(case: ManufacturedCase, resolutions,
                      formulation: str = U_FORM) -> ConvergenceStudy:
    """Forced-solver errors against the manufactured solution.

    Runs each resolution to case.t_end and measures the L1/Linf errors of
    density and momentum against the exact fields.
    """
    resolutions = doubling_resolutions(resolutions)
    # dt_max is a loose ceiling; _scaled_dt ties the actual step to dx
    cfg = SchemeConfig(formulation=formulation, cfl=0.45,
                       dt_max=0.1, dt_init=0.1, snapshot_every=1.0)
    params = case.params()

    def errors(g):
        init = case.exact_state(g, 0.0, formulation)
        traj = run_simulation(init, g, params, _scaled_dt(cfg, g), case.t_end,
                              sources=case.sources(formulation))
        exact = case.exact_state(g, case.t_end, formulation)
        return traj.final_state.rho - exact.rho, traj.final_state.mom - exact.mom

    return _study(resolutions, errors)


# ---------------------------------------------------- shared verification --
# checks run by both ``congestion-sim verify`` and the test suite

MMS_ORDER_BAND = (0.8, 1.3)


def mms_order_checks(formulation: str) -> tuple[CheckResult, CheckResult]:
    """Observed L1 orders of density and of momentum on the travelling
    wave from 128 to 256 cells, each inside ``MMS_ORDER_BAND``.

    ``worst`` is the observed order and ``tol`` the top of the band.
    """
    study = convergence_study(CASES["travelling_wave"], (64, 128, 256),
                              formulation=formulation)
    lo, hi = MMS_ORDER_BAND
    rho_order, mom_order = float(study.orders_rho_l1[-1]), float(study.orders_mom_l1[-1])
    return (CheckResult(f"mms travelling_wave order ({formulation})",
                        lo <= rho_order <= hi, rho_order, hi),
            CheckResult(f"mms travelling_wave momentum order ({formulation})",
                        lo <= mom_order <= hi, mom_order, hi))


def mms_constant_check() -> CheckResult:
    """The constant case from 16 to 64 cells, which the forced solver must
    keep to ``MACHINE_NOISE``: the verdict of ``ConvergenceStudy.exact``.

    ``worst`` is the largest density or momentum L1 error; it passes when
    ``worst < tol``.
    """
    study = convergence_study(CASES["constant"], (16, 32, 64))
    worst = max(study.rho_l1 + study.mom_l1)
    return CheckResult("mms constant case exact", study.exact, worst, MACHINE_NOISE)


def dense_oracle_checks() -> list[CheckResult]:
    """One solver step of each formulation against ``dense_step_oracle``.

    A moving state on 8 cells, rho = 1 + 0.1 cos 2 pi x and
    u = 0.1 + 0.3 sin 2 pi x (w = ``u_to_w(rho, u)`` in the w-formulation),
    gamma = 2, dt = 1e-4; density and momentum must agree to
    ``MACHINE_NOISE``.  The velocity varies, so the viscous solve and the
    face coefficients enter both formulations' steps.
    """
    g = Grid(8)
    params = ModelParams(gamma=2.0)
    rho = 1.0 + 0.1 * np.cos(2.0 * np.pi * g.x)
    u = 0.1 + 0.3 * np.sin(2.0 * np.pi * g.x)
    runs = (
        (State(0.0, rho, rho * u, U_FORM), step_u_form),
        (State(0.0, rho, rho * u_to_w(rho, u, g, params), W_FORM), step_w_form),
    )
    out = []
    for state, step in runs:
        scheme = SchemeConfig(formulation=state.formulation)
        got = step(state, g, params, scheme, 1e-4)
        want = dense_step_oracle(state, g, params, scheme, 1e-4)
        err = max(float(np.max(np.abs(got.rho - want.rho))),
                  float(np.max(np.abs(got.mom - want.mom))))
        out.append(CheckResult(f"dense oracle agreement ({state.formulation})",
                               err <= MACHINE_NOISE, err, MACHINE_NOISE))
    return out


def random_cyclic_systems_check(seed: int, n_max: int) -> CheckResult:
    """``solve_cyclic_tridiagonal`` against a dense solve on 100 random
    symmetric, diagonally dominant periodic systems with a positive
    diagonal, of 4 <= n < ``n_max`` unknowns.  The solutions must agree to
    ``MACHINE_NOISE``.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(4, n_max))
        off = rng.normal(size=n)
        diag = np.abs(off) + np.abs(np.roll(off, 1)) + 1.0 + rng.random(n)
        rhs = rng.normal(size=n)
        x = solve_cyclic_tridiagonal(diag, off, rhs)
        dense = np.diag(diag) + np.diag(off[:-1], -1) + np.diag(off[:-1], 1)
        dense[0, n - 1] += off[-1]
        dense[n - 1, 0] += off[-1]
        worst = max(worst, float(np.max(np.abs(x - np.linalg.solve(dense, rhs)))))
    return CheckResult("cyclic tridiagonal vs dense (100 systems)",
                       worst <= MACHINE_NOISE, worst, MACHINE_NOISE)


def dense_step_oracle(state: State, g: Grid, params: ModelParams,
                      config: SchemeConfig, dt: float) -> State:
    """Re-compute one IMEX step with loops and a dense solve.

    Independent of the solver module: explicit index arithmetic, powers
    via **, the implicit system assembled as a dense matrix and solved
    directly.  Intended for n_cells <= 8.
    """
    n = g.n_cells
    if n > 8:
        raise ValueError("dense oracle is for tiny instances (n_cells <= 8)")
    dx = g.dx
    gm = params.gamma
    rho = [float(v) for v in state.rho]
    mom = [float(v) for v in state.mom]
    # the carried velocity: u in the u-formulation, w in the w-formulation
    vel = [mom[i] / rho[i] for i in range(n)]

    def face_vel(i):  # face between cells i and i+1
        return 0.5 * (vel[i] + vel[(i + 1) % n])

    def upwind(values, i):
        # donor-cell flux in viscosity form, with the expansion-face floor
        # on the dissipation coefficient
        vf = face_vel(i)
        spread = vel[(i + 1) % n] - vel[i]
        a = max(abs(vf), max(spread, 0.0))
        q_l, q_r = values[i], values[(i + 1) % n]
        return 0.5 * (vf * (q_l + q_r) - a * (q_r - q_l))

    rho_star = [
        rho[i] - dt / dx * (upwind(rho, i) - upwind(rho, (i - 1) % n))
        for i in range(n)
    ]
    mom_star = [
        mom[i] - dt / dx * (upwind(mom, i) - upwind(mom, (i - 1) % n))
        for i in range(n)
    ]

    if state.formulation == U_FORM:
        lam = [gm * rho[i] ** (gm + 1.0) for i in range(n)]
        lam_face = [0.5 * (lam[i] + lam[(i + 1) % n]) for i in range(n)]
        a_mat = np.zeros((n, n))
        for i in range(n):
            hi, lo = lam_face[i], lam_face[(i - 1) % n]
            a_mat[i, i] = rho_star[i] + dt / dx ** 2 * (hi + lo)
            a_mat[i, (i + 1) % n] += -dt / dx ** 2 * hi
            a_mat[i, (i - 1) % n] += -dt / dx ** 2 * lo
        u_new = np.linalg.solve(a_mat, np.array(mom_star))
        rho_new = np.array(rho_star)
        return State(state.t + dt, rho_new, rho_new * u_new, U_FORM)

    dcoef = [gm * rho[i] ** gm for i in range(n)]
    d_face = [0.5 * (dcoef[i] + dcoef[(i + 1) % n]) for i in range(n)]
    a_mat = np.zeros((n, n))
    for i in range(n):
        hi, lo = d_face[i], d_face[(i - 1) % n]
        a_mat[i, i] = 1.0 + dt / dx ** 2 * (hi + lo)
        a_mat[i, (i + 1) % n] += -dt / dx ** 2 * hi
        a_mat[i, (i - 1) % n] += -dt / dx ** 2 * lo
    rho_new = np.linalg.solve(a_mat, np.array(rho_star))

    cross = [
        face_vel(i) * d_face[i] * (rho_new[(i + 1) % n] - rho_new[i]) / dx
        for i in range(n)
    ]
    mom_new = np.array([
        mom_star[i] + dt / dx * (cross[i] - cross[(i - 1) % n])
        for i in range(n)
    ])
    return State(state.t + dt, rho_new, mom_new, W_FORM)
