"""Exception types shared across the solver."""


class ParameterError(ValueError):
    """Invalid argument or inconsistent configuration."""


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation."""


class AccuracyError(RuntimeError):
    """A quadrature or series failed to reach the requested tolerance.

    Carries the best available estimate so callers can inspect how far
    off the computation ended up.
    """

    def __init__(self, message, estimate=None, error_estimate=None):
        super().__init__(message)
        self.estimate = estimate
        self.error_estimate = error_estimate


class DivergenceError(RuntimeError):
    """The evolved field stopped being finite or physical; names the offending
    step and carries the observable series recorded before it, if any."""

    def __init__(self, message, series=None):
        super().__init__(message)
        self.series = series


class CapacityError(RuntimeError):
    """A run's estimated working set exceeds dynamics.MEMORY_BUDGET_BYTES."""
