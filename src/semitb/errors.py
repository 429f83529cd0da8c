"""Exception hierarchy shared across the package."""


class Error(Exception):
    """Base class for all semitb errors."""


class PotentialError(Error):
    """Potential violates the single nondegenerate-well requirements."""


class QuadratureError(Error):
    """The bisected action rule did not settle; `achieved` is its last gap."""

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved


class GaugeError(Error):
    """Bloch gauge fixing failed (grid too coarse or band degenerate)."""


class BasisError(Error):
    """Localized-basis construction failed or produced an invalid basis."""


class ConfigError(Error):
    """Run configuration is malformed or inconsistent."""


class SolverError(Error):
    """A nonlinear solve could not be completed."""


class NonConvergenceError(SolverError):
    """Iteration exceeded its budget; carries the residual history."""

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = list(history) if history is not None else []


class TailFitError(Error):
    """Too few usable samples in the exponential-tail window."""
