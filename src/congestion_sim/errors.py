"""Exception types shared across the package.

The CLI maps these onto its exit-code contract: configuration problems
exit with 2, runtime failures (vacuum, saturation, a failed solve, a
non-finite state, a step budget overrun) with 3.
Every runtime failure is a ``RunFailure`` and carries where it happened.
"""
from __future__ import annotations


class ConfigError(ValueError):
    """Invalid configuration or initial-data recipe."""


class DimensionError(ValueError):
    """Field length does not match the grid it is used with."""


class DomainError(ValueError):
    """Constitutive function evaluated outside its domain (rho <= 0)."""


class RunFailure(RuntimeError):
    """A run that cannot go on, and where it stopped.

    ``t``, ``cell`` and ``gamma`` are None where unknown; the run loop
    fills in ``t`` and ``gamma``.  In a batch of runs, ``row`` names the
    failing row, which ends that row only; it is None outside a batch.
    """

    kind = "runtime"

    def __init__(self, message: str, *, t: float | None = None,
                 cell: int | None = None, gamma: float | None = None,
                 row: int | None = None):
        super().__init__(message)
        self.t = t
        self.cell = cell
        self.gamma = gamma
        self.row = row

    def context(self) -> str:
        return f"[t={self.t}, cell={self.cell}, gamma={self.gamma}]"


class LinearSolveError(RunFailure):
    """Implicit solve broke down (zero pivot or residual above tolerance)."""

    kind = "linear solve"


class NonFiniteError(RunFailure, ValueError):
    """Infs or NaNs in the operands of the implicit solve.

    Also a ValueError, which direct callers of the solve catch; the first
    non-finite entry names ``cell`` (and ``row`` in a batch).
    """

    kind = "non-finite"


class SaturationError(RunFailure):
    """Power-law evaluation would overflow double precision.

    Raised when gamma * log(rho) exceeds the exp() overflow threshold;
    the run must abort rather than propagate Inf into the implicit solve.
    """

    kind = "saturation"


class StepBudgetError(RunFailure):
    """The CFL step is too small to reach t_end within the step budget."""

    kind = "step budget"


class VacuumError(RunFailure):
    """Density reached zero and dt halving could not rescue the step."""

    kind = "vacuum"
