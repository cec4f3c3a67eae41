"""Exception types shared across the package."""


class GietlabError(Exception):
    """Base class for all library errors."""


class DuplicateLetter(GietlabError):
    """A row contains the same letter twice."""


class RowMismatch(GietlabError):
    """Top and bottom rows do not carry the same letters."""


class NotAdmissible(GietlabError):
    """A datum is not admissible where an admissible one is required."""


class NoRauzyArrow(GietlabError):
    """A Rauzy operation was asked for with a kind other than 't' or 'b', or
    on a datum with fewer than two letters."""


class IncompatibleArrows(GietlabError):
    """An arrow or a path does not start where the path before it ends."""


class BadLengths(GietlabError):
    """An IET length vector has the wrong count or a non-positive entry, or
    its total is too large for a float."""


class NotInClass(GietlabError):
    """A datum lies outside the Rauzy class under consideration."""


class OutOfDomain(GietlabError):
    """A point falls outside the interval of definition of a map."""


class TieError(GietlabError):
    """The induction condition fails: the two rightmost critical data
    coincide, or the split of a branch would leave an empty piece."""


class InductionFailed(GietlabError):
    """Rauzy induction could not be iterated to the requested depth."""


class TooManyPoints(GietlabError):
    """An induction's total return time N passes the cap on the points, or
    atoms, that a command builds."""


class DegenerateTau(GietlabError):
    """A deformation parameter is off the open simplex: an entry that is not
    finite or not positive, or entries that do not sum to 1."""


class AllZero(DegenerateTau):
    """A deformation parameter vanishes identically."""


class TargetNotCyclic(GietlabError):
    """The final datum of a path is not cyclic."""


class InductionMismatch(GietlabError):
    """The model IET of a reference configuration does not reproduce its path."""


class OrderViolation(GietlabError):
    """A configuration does not respect the reference geometric order."""


class NoCyclicDatum(GietlabError):
    """A Rauzy class contains no cyclic datum."""


class SolverFailed(GietlabError):
    """The fixed-point solver terminated without realizing the prescribed path."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class PathMismatch(GietlabError):
    """Two maps do not share the induction path prefix required here."""
