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
    """A permutation or filling token is not an optional sign and ASCII
    digits, or a filling cell line does not have exactly two fields."""


class ZeroEntry(CrossNestError, ValueError):
    """A permutation entry is 0; vertices live on [-n, n] without 0."""


class RankViolation(CrossNestError, ValueError):
    """Entry magnitudes are not exactly 1..n, each once."""


class IndexOutOfRange(CrossNestError, ValueError):
    """Vertex index outside [-n, n] or equal to 0."""


class RankTooLarge(CrossNestError, ValueError):
    """Exhaustive enumeration requested outside the guarded range (a rank
    outside 1..MAX_ENUM_RANK, or a verifier bound below 1), a rank past
    what the int8 array kernels hold, or a `verify_avoider_symmetry`
    input that selects nothing to check: desk-shape bounds that are not
    ints >= 1, or pattern sizes that are not a nonempty tuple or list of
    distinct ints >= 1."""


class UnknownStatistic(CrossNestError, ValueError):
    """A distribution schema names a statistic the package does not know."""


class UnknownMap(CrossNestError, ValueError):
    """The involution suite is asked for a map other than pair and chain."""


class RepeatedStatistic(CrossNestError, ValueError):
    """A distribution schema names a statistic more than once."""


class InfeasibleSums(CrossNestError, ValueError):
    """A `border_walks` case is malformed: its shape is not a Young shape,
    or its row/column sums are not 0 or 1 or cannot be met by any 0/1
    filling."""


# --- structural errors --------------------------------------------------

class SameArc(CrossNestError, ValueError):
    """Pair classification needs two distinct arcs."""


class InconsistentDiagram(CrossNestError, ValueError):
    """An arc set does not describe any signed permutation."""


class CellOutsideShape(CrossNestError, ValueError):
    """A filled cell falls outside the Young shape."""


class RowColumnSumViolation(CrossNestError, ValueError):
    """A filling breaks the unit row/column sum discipline."""


class MissingDiagramLists(CrossNestError, ValueError):
    """The filling carries no opener/closer lists, so it cannot be
    mapped back to an arc diagram."""


# --- internal pipeline errors -------------------------------------------

class Desynchronized(CrossNestError, RuntimeError):
    """A closer's partner is not among the open arcs of the rank-mirror
    scan of the pair involution; indicates an implementation bug."""


class InconsistentGrowth(CrossNestError, RuntimeError):
    """A growth-diagram corner breaks Fomin's local rules while a filling
    is rebuilt from its border; indicates an implementation bug."""
