"""Uniform periodic mesh on the unit torus and its discrete calculus.

Fields are plain 1D float arrays of cell-centre samples; a batch of runs
on one grid stacks them as rows of a 2D array.  Every operation acts on
the last axis, and every public one validates its length against the
grid.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError

Field = np.ndarray

# the admissible cell counts: the stencils need 4 cells, and a run holds
# about 300 bytes per cell, so 2**20 cells keep it in memory
MAX_CELLS = 2 ** 20


@dataclass(frozen=True)
class Grid:
    """Cell-centred uniform mesh on [0, 1] with periodic wrap.

    Cell centres sit at x_i = (i + 1/2) * dx; all index arithmetic is
    modulo n_cells.
    """

    n_cells: int
    # the cell width 1 / n_cells, computed once: a step reads it often
    dx: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 4 <= self.n_cells <= MAX_CELLS:
            raise ValueError(f"n_cells must lie in [4, {MAX_CELLS}], got {self.n_cells}")
        object.__setattr__(self, "dx", 1.0 / self.n_cells)

    @property
    def x(self) -> np.ndarray:
        return (np.arange(self.n_cells) + 0.5) * self.dx


def as_field(f, g: Grid) -> Field:
    """Validate f (one field, or a batch of them as rows) against g.

    Returns it as a float array.
    """
    arr = np.asarray(f, dtype=float)
    if arr.ndim not in (1, 2) or arr.shape[-1] != g.n_cells:
        raise DimensionError(
            f"field of shape {arr.shape} does not match grid with "
            f"{g.n_cells} cells"
        )
    return arr


# Periodic neighbour differences and sums built from slices (np.roll
# copies through a generic path that costs more than the arithmetic on
# mesh-sized arrays).  They take an already validated float array and
# act on its last axis.  A batch's rows run on in one flat array, so one
# call on contiguous slices covers every row; the entries it computes
# across a row end are then overwritten by the wrap, set on the transpose,
# which puts the cells first.

def _shift_views(f: Field):
    """A new C-ordered output for f, then f and it flat, then f and it
    with the cells on the first axis."""
    out = np.empty_like(f, order="C")
    if f.ndim == 1:
        return out, f, out, f, out
    return out, f.reshape(-1), out.reshape(-1), f.T, out.T


def forward_difference(f: Field) -> Field:
    """f[i+1] - f[i] with periodic wrap."""
    out, c, o, e, oe = _shift_views(f)
    np.subtract(c[1:], c[:-1], out=o[:-1])
    oe[-1] = e[0] - e[-1]
    return out


def backward_difference(f: Field) -> Field:
    """f[i] - f[i-1] with periodic wrap."""
    out, c, o, e, oe = _shift_views(f)
    np.subtract(c[1:], c[:-1], out=o[1:])
    oe[0] = e[0] - e[-1]
    return out


def central_difference(f: Field) -> Field:
    """f[i+1] - f[i-1] with periodic wrap."""
    out, c, o, e, oe = _shift_views(f)
    np.subtract(c[2:], c[:-2], out=o[1:-1])
    oe[0] = e[1] - e[-1]
    oe[-1] = e[0] - e[-2]
    return out


def face_sum(f: Field) -> Field:
    """f[i] + f[i+1] with periodic wrap: twice the mean at face i+1/2."""
    out, c, o, e, oe = _shift_views(f)
    np.add(c[:-1], c[1:], out=o[:-1])
    oe[-1] = e[-1] + e[0]
    return out


def ddx_central(f: Field, g: Grid) -> Field:
    """Second-order central derivative with periodic wrap.

    A non-periodic input (e.g. a sawtooth f_i = x_i) produces an O(1/dx)
    spike at the wrap; that is a property of the stencil, not an error.
    """
    return central_difference(as_field(f, g)) / (2.0 * g.dx)


def _per_field(total):
    # a float for one field, an array with one entry per row for a batch
    return float(total) if np.ndim(total) == 0 else total


def integrate(f: Field, g: Grid):
    """Midpoint-rule integral over the torus: dx * sum(f)."""
    arr = as_field(f, g)
    return _per_field(g.dx * np.sum(arr, axis=-1))


def norm(f: Field, g: Grid, kind: str):
    """Discrete L1, L2 or Linf norm of a cell field."""
    arr = as_field(f, g)
    if kind == "l1":
        return _per_field(g.dx * np.sum(np.abs(arr), axis=-1))
    if kind == "l2":
        return _per_field(np.sqrt(g.dx * np.sum(arr * arr, axis=-1)))
    if kind == "linf":
        return _per_field(np.max(np.abs(arr), axis=-1))
    raise ValueError(f"unknown norm kind {kind!r}; expected l1, l2 or linf")
