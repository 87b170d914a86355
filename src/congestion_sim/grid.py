"""Uniform periodic mesh on the unit torus and its discrete calculus.

Fields are plain 1D float arrays of cell-centre samples; every public
operation validates the field length against the grid.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError

Field = np.ndarray


@dataclass(frozen=True)
class Grid:
    """Cell-centred uniform mesh on [0, 1] with periodic wrap.

    Cell centres sit at x_i = (i + 1/2) * dx; all index arithmetic is
    modulo n_cells.
    """

    n_cells: int
    length: float = 1.0

    def __post_init__(self) -> None:
        if self.n_cells < 4:
            raise ValueError(f"n_cells must be at least 4, got {self.n_cells}")
        if self.length != 1.0:
            raise ValueError("domain is the unit torus; length is fixed to 1.0")

    @property
    def dx(self) -> float:
        return self.length / self.n_cells

    @property
    def x(self) -> np.ndarray:
        return (np.arange(self.n_cells) + 0.5) * self.dx


def as_field(f, g: Grid) -> Field:
    """Validate f against g and return it as a float array."""
    arr = np.asarray(f, dtype=float)
    if arr.ndim != 1 or arr.shape[0] != g.n_cells:
        raise DimensionError(
            f"field of shape {arr.shape} does not match grid with "
            f"{g.n_cells} cells"
        )
    return arr


# Periodic neighbour differences and sums built from slices (np.roll
# copies through a generic path that costs more than the arithmetic on
# mesh-sized arrays).  They take an already validated 1D float array.

def forward_difference(f: Field) -> Field:
    """f[i+1] - f[i] with periodic wrap."""
    out = np.empty_like(f)
    np.subtract(f[1:], f[:-1], out=out[:-1])
    out[-1] = f[0] - f[-1]
    return out


def backward_difference(f: Field) -> Field:
    """f[i] - f[i-1] with periodic wrap."""
    out = np.empty_like(f)
    np.subtract(f[1:], f[:-1], out=out[1:])
    out[0] = f[0] - f[-1]
    return out


def central_difference(f: Field) -> Field:
    """f[i+1] - f[i-1] with periodic wrap."""
    out = np.empty_like(f)
    np.subtract(f[2:], f[:-2], out=out[1:-1])
    out[0] = f[1] - f[-1]
    out[-1] = f[0] - f[-2]
    return out


def face_sum(f: Field) -> Field:
    """f[i] + f[i+1] with periodic wrap: twice the mean at face i+1/2."""
    out = np.empty_like(f)
    np.add(f[:-1], f[1:], out=out[:-1])
    out[-1] = f[-1] + f[0]
    return out


def ddx_central(f: Field, g: Grid) -> Field:
    """Second-order central derivative with periodic wrap.

    A non-periodic input (e.g. a sawtooth f_i = x_i) produces an O(1/dx)
    spike at the wrap; that is a property of the stencil, not an error.
    """
    return central_difference(as_field(f, g)) / (2.0 * g.dx)


def integrate(f: Field, g: Grid) -> float:
    """Midpoint-rule integral over the torus: dx * sum(f)."""
    arr = as_field(f, g)
    return g.dx * float(np.sum(arr))


def norm(f: Field, g: Grid, kind: str) -> float:
    """Discrete L1, L2 or Linf norm of a cell field."""
    arr = as_field(f, g)
    if kind == "l1":
        return g.dx * float(np.sum(np.abs(arr)))
    if kind == "l2":
        return float(np.sqrt(g.dx * np.sum(arr * arr)))
    if kind == "linf":
        return float(np.max(np.abs(arr)))
    raise ValueError(f"unknown norm kind {kind!r}; expected l1, l2 or linf")
