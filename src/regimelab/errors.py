"""Exception hierarchy shared by all regimelab modules."""


class RegimeLabError(Exception):
    """Base class for every error raised by this package."""


class DomainError(RegimeLabError, ValueError):
    """An argument lies outside the domain on which an operation is defined."""


class ConvergenceError(RegimeLabError, RuntimeError):
    """An iterative procedure exhausted its iteration budget.

    Instances may carry a ``trace`` attribute with the rounds run and the
    bracket at the stall, for post-mortem inspection.
    """


class BoundaryError(RegimeLabError, ValueError):
    """A derivative was requested exactly at a kink where it is undefined."""
