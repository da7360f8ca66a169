"""Exception types shared across the library."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class RangeExitError(RuntimeError):
    """A trajectory left the valid range of a metric.

    Carries the parameter time at which the exit happened.
    """

    def __init__(self, message: str, exit_time: float | None = None):
        super().__init__(message)
        self.exit_time = exit_time


class DivergenceError(RuntimeError):
    """An iterative solver stopped making progress."""


class UnsupportedDataError(DomainError):
    """Input data is valid but outside what this implementation supports."""


class MaskError(DomainError):
    """A masked domain is degenerate (boundary loops missing or touching)."""
