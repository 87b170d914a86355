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

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, SaturationError
from .grid import Field, Grid, as_field, central_difference, ddx_central

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
    if not np.minimum.reduce(arr, axis=None) > 0.0:
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
    """The overflow error of the first overflowing row of a batch.

    Its text is the one a run of that row alone raises; ``row`` is None
    outside a batch.
    """
    row, gamma = None, params.gamma
    if np.ndim(exponent_arg) > 1:
        row = int(np.argmax(np.max(exponent_arg, axis=-1) > OVERFLOW_EXPONENT))
        gamma = params.row(row).gamma
        exponent_arg, arr = exponent_arg[row], arr[row]
    peak = float(np.max(exponent_arg))
    cell = int(np.argmax(exponent_arg)) if np.ndim(exponent_arg) > 0 else None
    rho_at = float(arr[cell]) if cell is not None else float(arr)
    return SaturationError(
        f"power-law evaluation overflows: exponent {peak:.3g} exceeds "
        f"{OVERFLOW_EXPONENT:g} (gamma={gamma:g}, rho={rho_at:.6g})",
        gamma=gamma, cell=cell, row=row,
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
            else np.maximum.reduce(log_rho, axis=None))
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


def state_fields(state: State, g: Grid, params: ModelParams) -> StateFields:
    """The one derivation of a state's cell fields: p, from one log and one
    exp of rho, then lambda = (rho * p) * gamma as in ``lambda_visc``, then
    the rest."""
    rho = as_field(state.rho, g)
    carried = as_field(state.mom, g) / rho
    p = pressure(rho, params, lam_guard=True)
    lam = rho * p
    lam *= params.gamma
    dxp = central_difference(p)
    dxp /= 2.0 * g.dx
    if state.formulation == U_FORM:
        return StateFields(p, dxp, lam, carried, carried + dxp)
    return StateFields(p, dxp, lam, carried - dxp, carried)


def velocities(state: State, g: Grid, params: ModelParams) -> tuple[Field, Field]:
    """Return (u, w) for a state in either formulation."""
    fields = state_fields(state, g, params)
    return fields.u, fields.w

