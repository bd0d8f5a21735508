"""Exception types shared across the package."""


class CsocError(Exception):
    """Base class for errors raised by this package."""


class DomainError(CsocError, ValueError):
    """Input outside the valid domain (bad signs, off-box probes, stencil overrun)."""


class NonConvergenceError(CsocError, RuntimeError):
    """Iterative solver failed to reach tolerance."""

    def __init__(self, message: str, residual: float | None = None, iterations: int | None = None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class AnalyticityError(CsocError, ValueError):
    """A field failed its analyticity precondition."""
