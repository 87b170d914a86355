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
    fills in a single run's ``t`` and ``gamma``.  A failure names no batch
    row: it ends a batch of runs whole, and ``sweep.run_sweep`` then runs
    each gamma alone, so each failure it reports is that of one run.
    """

    kind = "runtime"

    def __init__(self, message: str, *, t: float | None = None,
                 cell: int | None = None, gamma: float | None = None):
        super().__init__(message)
        self.t = t
        self.cell = cell
        self.gamma = gamma

    def context(self) -> str:
        return f"[t={self.t}, cell={self.cell}, gamma={self.gamma}]"


class LinearSolveError(RunFailure):
    """Implicit solve broke down (zero pivot or residual above tolerance)."""

    kind = "linear solve"


class NonFiniteError(RunFailure, ValueError):
    """Infs or NaNs in the operands of the implicit solve.

    Also a ValueError, which direct callers of the solve catch; ``cell``
    is the first cell with a non-finite entry.
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
