"""Exception types shared across the package.

The CLI maps these onto its exit-code contract: configuration problems
exit with 2, runtime failures (vacuum, saturation, a failed solve) with 3.
In a batch of runs, a runtime failure names the failing ``row``, which
ends that row only; ``row`` is None outside a batch.
"""
from __future__ import annotations


class ConfigError(ValueError):
    """Invalid configuration or initial-data recipe."""


class DimensionError(ValueError):
    """Field length does not match the grid it is used with."""


class DomainError(ValueError):
    """Constitutive function evaluated outside its domain (rho <= 0)."""


class CflError(ValueError):
    """Explicit transport step requested with dt above the CFL limit."""


class LinearSolveError(RuntimeError):
    """Implicit solve broke down (zero pivot or residual above tolerance)."""

    def __init__(self, message: str, *, row: int | None = None):
        super().__init__(message)
        self.row = row


class SaturationError(RuntimeError):
    """Power-law evaluation would overflow double precision.

    Raised when gamma * log(rho) exceeds the exp() overflow threshold;
    the run must abort rather than propagate Inf into the implicit solve.
    """

    def __init__(self, message: str, *, gamma: float | None = None,
                 rho: float | None = None, cell: int | None = None,
                 t: float | None = None, row: int | None = None):
        super().__init__(message)
        self.gamma = gamma
        self.rho = rho
        self.cell = cell
        self.t = t
        self.row = row


class VacuumError(RuntimeError):
    """Density reached zero and dt halving could not rescue the step."""

    def __init__(self, message: str, *, t: float | None = None,
                 cell: int | None = None, gamma: float | None = None,
                 row: int | None = None):
        super().__init__(message)
        self.t = t
        self.cell = cell
        self.gamma = gamma
        self.row = row
