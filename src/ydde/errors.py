"""Exception types shared across the package."""


class DomainError(ValueError):
    """A precondition on grids, windows, exponents or parameters is violated."""


class PartitionError(DomainError):
    """The greedy window construction cannot advance at the current mesh."""


class GenerationError(RuntimeError):
    """Random path generation failed (e.g. covariance not positive definite)."""


class ConvergenceError(RuntimeError):
    """Picard iteration failed to converge; carries the residual history."""

    def __init__(self, message, residual_history=None):
        super().__init__(message)
        self.residual_history = list(residual_history or [])
