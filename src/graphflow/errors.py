"""Exception types shared across the package."""


class GraphflowError(Exception):
    """Base class for all package errors."""


class DomainError(GraphflowError):
    """A coordinate lies outside a non-periodic chart range."""


class DegenerateMetricError(GraphflowError):
    """A metric evaluation is not symmetric positive definite."""


class ConfigurationError(GraphflowError):
    """A scenario configuration is missing, malformed, or inconsistent."""


class NotAreaDecreasingError(GraphflowError):
    """An initial map violates the strict area decreasing condition."""


class SolverAbort(GraphflowError):
    """The time stepper detected a fatal state (NaN, p <= 0, blow-up)."""
