"""Constitutive functions, state containers and velocity conversions.

The offset function is the power law p(rho) = rho**gamma, evaluated as
exp(gamma * log(rho)) so that large exponents stay accurate and the
overflow guard is explicit.  Derived from it:

    lambda(rho) = rho^2 p'(rho) = gamma * rho^(gamma+1)   (viscosity)
    pi(rho)     = gamma/(gamma+1) * rho^(gamma+1)         (congestion potential)
    H(rho)      = rho^(gamma+1)/(gamma+1)                 (entropy-like density)

so that pi = gamma * H holds exactly and H'(rho) = p(rho).  lambda is
formed as (rho * p(rho)) * gamma, so a state's p and lambda take one log
and one exp of rho between them.

A batch of runs that differ only in gamma stacks its fields as rows of a
2D array and carries gamma as a column of shape (rows, 1), so every
function here serves one run and a batch alike by broadcasting.
"""
from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, SaturationError
from .grid import Field, Grid, as_field, ddx_central, row_max, row_min

# exp() overflows double precision just above this exponent
OVERFLOW_EXPONENT = 700.0

U_FORM = "u_form"
W_FORM = "w_form"
FORMULATIONS = (U_FORM, W_FORM)


@dataclass(frozen=True)
class ModelParams:
    """Model parameter: the offset exponent gamma > 0.

    A float for one run; a (rows, 1) column for a batch.
    """

    gamma: float

    def __post_init__(self) -> None:
        if not (np.all(np.greater(self.gamma, 0.0))
                and np.all(np.isfinite(self.gamma))):
            raise ValueError(f"gamma must be positive and finite, got {self.gamma}")

    def row(self, i: int) -> "ModelParams":
        """The parameters of row i of a batch."""
        gammas = np.ravel(self.gamma)
        return ModelParams(float(gammas[i] if gammas.size > 1 else gammas[0]))


@dataclass(frozen=True)
class State:
    """Cell-sampled state at time t.

    ``mom`` is rho*u in the u-formulation and rho*w in the w-formulation.
    A batch holds (rows, n_cells) arrays and one time per row in ``t``.
    """

    t: float
    rho: Field
    mom: Field
    formulation: str

    def __post_init__(self) -> None:
        if self.formulation not in FORMULATIONS:
            raise ValueError(f"formulation must be one of {FORMULATIONS}")
        if _shape(self.rho) != _shape(self.mom):
            raise ValueError("rho and mom must have identical shapes")
        if (self.t < 0.0).any() if isinstance(self.t, np.ndarray) else self.t < 0.0:
            raise ValueError("time must be nonnegative")


def _shape(a) -> tuple:
    return a.shape if isinstance(a, np.ndarray) else np.shape(a)


# the guards reduce through the ufuncs' own reduce, cheaper than np.all,
# np.max and the ndarray methods

def _checked_log(rho, params: ModelParams):
    arr = np.asarray(rho, dtype=float)
    if not (row_min(arr) if arr.ndim == 1 else np.minimum.reduce(arr, axis=None)) > 0.0:
        raise DomainError("density must be strictly positive")
    return arr, np.log(arr)


def _exceeds(peak) -> bool:
    """Whether a peak exponent, or any row's in a batch, overflows exp()."""
    flags = peak > OVERFLOW_EXPONENT
    return flags.any() if flags.ndim else flags


def _guarded_exp(exponent_arg, arr, params: ModelParams):
    if exponent_arg.max() > OVERFLOW_EXPONENT:
        raise _saturation(exponent_arg, arr, params)
    return np.exp(exponent_arg)


def _saturation(exponent_arg, arr, params: ModelParams) -> SaturationError:
    """The overflow error at the largest exponent, of one run or a batch."""
    at = np.unravel_index(np.argmax(exponent_arg), np.shape(exponent_arg))
    gamma = float(np.broadcast_to(params.gamma, np.shape(exponent_arg))[at])
    cell = int(at[-1]) if at else None
    return SaturationError(
        f"power-law evaluation overflows: exponent {float(exponent_arg[at]):.3g} "
        f"exceeds {OVERFLOW_EXPONENT:g} (gamma={gamma:g}, rho={float(arr[at]):.6g})",
        gamma=gamma, cell=cell,
    )


def pressure(rho, params: ModelParams, lam_guard: bool = False):
    """Offset p(rho) = rho**gamma, monotone increasing on (0, inf).

    ``lam_guard`` also raises lambda's overflow, (gamma+1) log rho > 700,
    for a caller that forms lambda = (rho * p) * gamma from the result.
    """
    arr, log_rho = _checked_log(rho, params)
    gamma = params.gamma
    # one maximum of log(rho) per row decides both guards: for c > 0,
    # fl(c * x) is monotone in x, so c * max(log rho) is max(c * log rho)
    peak = (np.maximum.reduce(log_rho, axis=-1, keepdims=True) if log_rho.ndim > 1
            else row_max(log_rho) if log_rho.ndim else log_rho)
    if _exceeds(gamma * peak):
        raise _saturation(gamma * log_rho, arr, params)
    if lam_guard and _exceeds((gamma + 1.0) * peak):
        raise _saturation((gamma + 1.0) * log_rho, arr, params)
    exponent = gamma * log_rho
    # p overwrites its exponent: the same bits, one array fewer
    return np.exp(exponent, out=exponent) if exponent.ndim else np.exp(exponent)


def lambda_visc(rho, params: ModelParams):
    """Viscosity lambda(rho) = gamma * rho**(gamma+1), formed as
    (rho * p(rho)) * gamma."""
    arr = np.asarray(rho, dtype=float)
    lam = arr * pressure(arr, params, lam_guard=True)
    lam *= params.gamma
    return lam


def enthalpy_H(rho, params: ModelParams):
    """Entropy-like density H(rho) = rho**(gamma+1)/(gamma+1); H' = p."""
    arr, log_rho = _checked_log(rho, params)
    return _guarded_exp((params.gamma + 1.0) * log_rho, arr, params) / (params.gamma + 1.0)


def potential_pi(rho, params: ModelParams):
    """Congestion potential pi(rho) = gamma/(gamma+1) * rho**(gamma+1).

    Computed as gamma * H(rho) so the identity pi = gamma * H is exact.
    """
    return params.gamma * enthalpy_H(rho, params)


def pi_prime(rho, params: ModelParams):
    """Derivative pi'(rho) = rho p'(rho) = gamma * rho**gamma."""
    return params.gamma * pressure(rho, params)


def u_to_w(rho: Field, u: Field, g: Grid, params: ModelParams) -> Field:
    """Desired velocity w = u + d/dx p(rho)."""
    return as_field(u, g) + ddx_central(pressure(as_field(rho, g), params), g)


def w_to_u(rho: Field, w: Field, g: Grid, params: ModelParams) -> Field:
    """Actual velocity u = w - d/dx p(rho); inverse of u_to_w."""
    return as_field(w, g) - ddx_central(pressure(as_field(rho, g), params), g)


def compute_W(rho: Field, w: Field, g: Grid) -> Field:
    """Transported potential W = (d/dx w) / rho."""
    arr = as_field(rho, g)
    if not np.all(arr > 0.0):
        raise DomainError("density must be strictly positive")
    return ddx_central(w, g) / arr


class StateFields(NamedTuple):
    """A state's cell fields: the offset ``p``, its central derivative
    ``dxp``, the viscosity ``lam`` and both velocities, ``u = w - dxp``; the
    carried one (``mom / rho``) is exact.  A batch's are (rows, n) arrays."""

    p: Field
    dxp: Field
    lam: Field
    u: Field
    w: Field


class StateBuffer:
    """One state's rho and mom and its cell fields, for fields of one
    shape, (n,) or (rows, n), each row with its periodic neighbours on both
    sides: entry j + 1 of a row is cell j, and entries 0 and n + 1 repeat
    cells n - 1 and 0.  So a neighbour is a view, and one column copy on
    each side sets every wrap.

    ``views`` are the fields as ``state_fields`` returns them, the same
    object each time; ``hold`` makes the State whose rho and mom are this
    buffer's, and the buffer is ``free`` to take another state once that
    State is gone.
    """

    def __init__(self, shape) -> None:
        shape = tuple(shape)
        self.halo = halo = np.empty((7,) + shape[:-1] + (shape[-1] + 2,))
        cells, nxt = halo[..., 1:-1], halo[..., 2:]
        self.rho, self.mom, self.p, self.lam, self.u, self.w, self.dxp = cells
        (self.rho_next, self.mom_next, self.p_next, self.lam_next, self.u_next,
         self.w_next) = nxt[:6]
        self.p_prev, self.u_prev = halo[2, ..., :-2], halo[4, ..., :-2]
        self.views = StateFields(self.p, self.dxp, self.lam, self.u, self.w)
        # (wrap entries, the cells they repeat) of every row, and of u and w
        self.wraps, self.u_wraps, self.w_wraps = map(_wraps, (halo, halo[4], halo[5]))
        self._tenant = _nobody

    def holds(self, state: State) -> bool:
        return state.rho is self.rho and state.mom is self.mom

    def hold(self, t, formulation: str) -> State:
        """The State at time ``t`` whose rho and mom are this buffer's."""
        state = State(t, self.rho, self.mom, formulation)
        self._tenant = weakref.ref(state)
        return state

    @property
    def free(self) -> bool:
        return self._tenant() is None


def _nobody():
    return None


def _wraps(halo):
    return (halo[..., 0], halo[..., -2]), (halo[..., -1], halo[..., 1])


def set_wraps(wraps) -> None:
    """Copy each row's first and last cell to its far side."""
    for wrap, cells in wraps:
        wrap[...] = cells


def state_fields(state: State, g: Grid, params: ModelParams,
                 out: StateBuffer | None = None) -> StateFields:
    """The one derivation of a state's cell fields: p, from one log and one
    exp of rho, then lambda = (rho * p) * gamma as in ``lambda_visc``, then
    the rest.

    The fields are written into ``out`` (a new buffer when absent), with
    the state's rho and mom, which are copied there unless ``out`` holds
    them; the result is ``out.views``.
    """
    if out is None or not out.holds(state):
        rho, mom = as_field(state.rho, g), as_field(state.mom, g)
        if out is None:
            out = StateBuffer(rho.shape)
        out.rho[...] = rho
        out.mom[...] = mom
    # p first, so that its guards raise before rho divides anything
    out.p[...] = pressure(out.rho, params, lam_guard=True)
    # the wraps of rho, mom and p; the pointwise fields then take whole
    # halo rows, wraps included, which a batch reads contiguously
    set_wraps(out.wraps)
    halo = out.halo
    u_form = state.formulation == U_FORM
    np.divide(halo[1], halo[0], out=halo[4 if u_form else 5])
    lam = np.multiply(halo[0], halo[2], out=halo[3])
    lam *= params.gamma
    dxp = np.subtract(out.p_next, out.p_prev, out=out.dxp)
    dxp /= 2.0 * g.dx
    if u_form:
        np.add(out.u, dxp, out=out.w)
        set_wraps(out.w_wraps)
    else:
        np.subtract(out.w, dxp, out=out.u)
        set_wraps(out.u_wraps)
    return out.views


def velocities(state: State, g: Grid, params: ModelParams) -> tuple[Field, Field]:
    """Return (u, w) for a state in either formulation."""
    fields = state_fields(state, g, params)
    return fields.u, fields.w

