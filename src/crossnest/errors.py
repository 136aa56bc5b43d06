"""Exception hierarchy.

Every error raised on purpose by this package derives from CrossNestError,
so callers can catch one type.  Errors that indicate bad user input also
derive from ValueError; errors that indicate a bug in a transformation
pipeline derive from RuntimeError.
"""


class CrossNestError(Exception):
    """Base class for all crossnest errors."""


# --- input validation ---------------------------------------------------

class MalformedToken(CrossNestError, ValueError):
    """A permutation token is not a signed decimal integer."""


class ZeroEntry(CrossNestError, ValueError):
    """A permutation entry is 0; vertices live on [-n, n] without 0."""


class RankViolation(CrossNestError, ValueError):
    """Entry magnitudes are not exactly 1..n, each once."""


class IndexOutOfRange(CrossNestError, ValueError):
    """Vertex index outside [-n, n] or equal to 0."""


class RankTooLarge(CrossNestError, ValueError):
    """Exhaustive enumeration requested outside the guarded range (a rank
    outside 1..MAX_ENUM_RANK, or a verifier bound below 1)."""


class UnknownStatistic(CrossNestError, ValueError):
    """A distribution schema names a statistic the package does not know."""


class InfeasibleSums(CrossNestError, ValueError):
    """Prescribed row/column sums cannot be met by any 0/1 filling."""


# --- structural errors --------------------------------------------------

class SameArc(CrossNestError, ValueError):
    """Pair classification needs two distinct arcs."""


class InconsistentDiagram(CrossNestError, ValueError):
    """An arc set does not describe any signed permutation."""


class NotACloser(CrossNestError, ValueError):
    """The queried vertex has no incoming arc."""


class CellOutsideShape(CrossNestError, ValueError):
    """A filled cell falls outside the Young shape."""


class RowColumnSumViolation(CrossNestError, ValueError):
    """A filling breaks the unit row/column sum discipline."""


class MissingDiagramLists(CrossNestError, ValueError):
    """The filling carries no opener/closer lists, so it cannot be
    mapped back to an arc diagram."""


# --- internal pipeline errors -------------------------------------------

class UnmergeablePair(CrossNestError, RuntimeError):
    """Collapsing a companion vertex pair would exceed degree one."""


class Desynchronized(CrossNestError, RuntimeError):
    """Opener bookkeeping diverged between source and image during the
    left-to-right rerouting scan; indicates an implementation bug."""


class InconsistentGrowth(CrossNestError, RuntimeError):
    """A growth-diagram corner breaks Fomin's local rules while a filling
    is rebuilt from its border; indicates an implementation bug."""
