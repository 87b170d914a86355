"""Constitutive functions, state containers and velocity conversions.

The offset function is the power law p(rho) = rho**gamma, evaluated as
exp(gamma * log(rho)) so that large exponents stay accurate and the
overflow guard is explicit.  Derived from it:

    lambda(rho) = rho^2 p'(rho) = gamma * rho^(gamma+1)   (viscosity)
    pi(rho)     = gamma/(gamma+1) * rho^(gamma+1)         (congestion potential)
    H(rho)      = rho^(gamma+1)/(gamma+1)                 (entropy-like density)

so that pi = gamma * H holds exactly and H'(rho) = p(rho).
"""
from __future__ import annotations

from dataclasses import dataclass

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
    """Model parameter: the offset exponent gamma > 0."""

    gamma: float

    def __post_init__(self) -> None:
        if not (self.gamma > 0.0 and np.isfinite(self.gamma)):
            raise ValueError(f"gamma must be positive and finite, got {self.gamma}")


@dataclass(frozen=True)
class State:
    """Cell-sampled state at time t.

    ``mom`` is rho*u in the u-formulation and rho*w in the w-formulation.
    """

    t: float
    rho: Field
    mom: Field
    formulation: str

    def __post_init__(self) -> None:
        if self.formulation not in FORMULATIONS:
            raise ValueError(f"formulation must be one of {FORMULATIONS}")
        if np.shape(self.rho) != np.shape(self.mom):
            raise ValueError("rho and mom must have identical shapes")
        if self.t < 0.0:
            raise ValueError("time must be nonnegative")


@dataclass(frozen=True)
class DerivedFields:
    """All constitutive and diagnostic fields evaluated on one state."""

    p: Field
    lam: Field
    pi: Field
    H: Field
    u: Field
    w: Field
    W: Field
    V: Field


def _checked_log(rho, params: ModelParams):
    arr = np.asarray(rho, dtype=float)
    if not np.all(arr > 0.0):
        raise DomainError("density must be strictly positive")
    return arr, np.log(arr)


def _guarded_exp(exponent_arg, arr, params: ModelParams):
    peak = float(np.max(exponent_arg))
    if peak > OVERFLOW_EXPONENT:
        cell = int(np.argmax(exponent_arg)) if np.ndim(exponent_arg) > 0 else None
        rho_at = float(arr[cell]) if cell is not None else float(arr)
        raise SaturationError(
            f"power-law evaluation overflows: exponent {peak:.3g} exceeds "
            f"{OVERFLOW_EXPONENT:g} (gamma={params.gamma:g}, rho={rho_at:.6g})",
            gamma=params.gamma, rho=rho_at, cell=cell,
        )
    return np.exp(exponent_arg)


def _scalar_like(result, template):
    if np.ndim(template) == 0:
        return float(result)
    return result


def pressure(rho, params: ModelParams):
    """Offset p(rho) = rho**gamma, monotone increasing on (0, inf)."""
    arr, log_rho = _checked_log(rho, params)
    out = _guarded_exp(params.gamma * log_rho, arr, params)
    return _scalar_like(out, rho)


def lambda_visc(rho, params: ModelParams):
    """Viscosity lambda(rho) = gamma * rho**(gamma+1)."""
    arr, log_rho = _checked_log(rho, params)
    out = params.gamma * _guarded_exp((params.gamma + 1.0) * log_rho, arr, params)
    return _scalar_like(out, rho)


def enthalpy_H(rho, params: ModelParams):
    """Entropy-like density H(rho) = rho**(gamma+1)/(gamma+1); H' = p."""
    arr, log_rho = _checked_log(rho, params)
    out = _guarded_exp((params.gamma + 1.0) * log_rho, arr, params) / (params.gamma + 1.0)
    return _scalar_like(out, rho)


def potential_pi(rho, params: ModelParams):
    """Congestion potential pi(rho) = gamma/(gamma+1) * rho**(gamma+1).

    Computed as gamma * H(rho) so the identity pi = gamma * H is exact.
    """
    out = params.gamma * np.asarray(enthalpy_H(rho, params))
    return _scalar_like(out, rho)


def pi_prime(rho, params: ModelParams):
    """Derivative pi'(rho) = rho p'(rho) = gamma * rho**gamma."""
    out = params.gamma * np.asarray(pressure(rho, params))
    return _scalar_like(out, rho)


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


def compute_V(rho: Field, u: Field, g: Grid, params: ModelParams) -> Field:
    """Monitored diffusion flux V = lambda(rho) * d/dx u (diagnostic only)."""
    return lambda_visc(as_field(rho, g), params) * ddx_central(u, g)


@dataclass(frozen=True)
class StateFields:
    """The offset, its gradient and both velocities of one state.

    ``dxp`` is the central derivative of ``p``, and ``u = w - dxp``; the
    carried velocity (``mom / rho``) is exact, the other one derived.
    """

    p: Field
    dxp: Field
    u: Field
    w: Field


def state_fields(state: State, g: Grid, params: ModelParams) -> StateFields:
    """Evaluate the power law and both velocities of a state once."""
    rho = as_field(state.rho, g)
    carried = as_field(state.mom, g) / rho
    p = pressure(rho, params)
    dxp = central_difference(p) / (2.0 * g.dx)
    if state.formulation == U_FORM:
        return StateFields(p, dxp, carried, carried + dxp)
    return StateFields(p, dxp, carried - dxp, carried)


def velocities(state: State, g: Grid, params: ModelParams) -> tuple[Field, Field]:
    """Return (u, w) for a state in either formulation."""
    fields = state_fields(state, g, params)
    return fields.u, fields.w


def derived_fields(state: State, g: Grid, params: ModelParams) -> DerivedFields:
    """Evaluate every constitutive and diagnostic field on a state."""
    rho = as_field(state.rho, g)
    u, w = velocities(state, g, params)
    return DerivedFields(
        p=pressure(rho, params),
        lam=lambda_visc(rho, params),
        pi=potential_pi(rho, params),
        H=enthalpy_H(rho, params),
        u=u,
        w=w,
        W=compute_W(rho, w, g),
        V=compute_V(rho, u, g, params),
    )
