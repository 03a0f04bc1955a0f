"""Exception hierarchy shared by all simulation modules."""


class SimulationError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(SimulationError):
    """Bad or missing configuration input."""


class DomainError(SimulationError):
    """Physically invalid argument (non-positive frequency, bad weight, ...)."""


class ResolutionError(SimulationError):
    """Frequency grid too coarse to resolve the pump envelope."""


class EmptySupportError(SimulationError):
    """A filter window has no overlap with the amplitude support."""


class DegeneratePostSelectionError(SimulationError):
    """The splitter routes no amplitude into cross-path coincidences."""


class NonphysicalCoherenceError(SimulationError):
    """Off-diagonal magnitude exceeds the Cauchy-Schwarz bound."""


class UnidentifiableFitError(SimulationError):
    """Fit observations carry no information about the model parameters."""


class ConvergenceError(SimulationError):
    """Optimizer hit its iteration cap; carries the best iterate found."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class FormatError(SimulationError):
    """Malformed data file."""


class UndefinedVisibilityError(SimulationError):
    """Visibility requested for an all-zero projection family."""


class InvalidStateError(SimulationError):
    """Matrix fails the density-matrix invariants."""
