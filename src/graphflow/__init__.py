"""graphflow: a numerical laboratory for graphical mean curvature flow of
strictly area decreasing maps into surfaces."""

__version__ = "0.1.0"

from .errors import (ConfigurationError, DegenerateMetricError, DomainError, GraphflowError,
                     NotAreaDecreasingError, SolverAbort)

__all__ = [
    "__version__",
    "GraphflowError", "DomainError", "DegenerateMetricError",
    "ConfigurationError", "NotAreaDecreasingError", "SolverAbort",
]
