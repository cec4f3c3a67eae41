"""Exception types shared across the package.

Every failure is a ``GietlabError`` whose message names its cause.  A failure
gets a class of its own only where some caller branches on it by name; the
rest are raised as ``GietlabError`` itself.
"""


class GietlabError(Exception):
    """Base class for all library errors."""


class TieError(GietlabError):
    """The induction condition fails: the two rightmost critical data
    coincide, or the split of a branch would leave an empty piece."""


class InductionFailed(GietlabError):
    """Rauzy induction could not be iterated to the requested depth."""


class OrderViolation(GietlabError):
    """A configuration does not respect the reference geometric order."""


class NoCyclicDatum(GietlabError):
    """A Rauzy class contains no cyclic datum."""


class SolverFailed(GietlabError):
    """The fixed-point solver terminated without realizing the prescribed path."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report
