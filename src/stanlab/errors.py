"""Exception types shared across the package.

Constructor errors subclass ValueError so callers that only care about
"bad input" can catch one thing; everything descends from StanlabError.
"""


class StanlabError(Exception):
    pass


class InvalidObject(StanlabError, ValueError):
    """A combinatorial object failed validation."""


# -- Stanley polyominoes ----------------------------------------------------

class EmptyInput(InvalidObject):
    pass


class NegativeOrZeroLength(InvalidObject):
    pass


class NotLeftShifted(InvalidObject):
    """Row starts must begin at 0 and strictly increase upward."""


class NotRightShifted(InvalidObject):
    """Row ends must strictly increase upward."""


class RowsDisconnected(InvalidObject):
    """Consecutive rows must share at least one column."""


# -- lattice paths ----------------------------------------------------------

class InvalidPath(InvalidObject):
    """Word is not a well-formed Dyck/Motzkin path."""


class NotPeakless(InvalidObject):
    """Motzkin word contains a UD factor."""


class ContainsTriple(InvalidObject):
    """Dyck word contains UUU or DDD."""


# -- coin fountains ---------------------------------------------------------

class BadLastDiagonal(InvalidObject):
    """The final NE diagonal must have exactly one coin."""


class DiagonalDrop(InvalidObject):
    """Diagonal sizes may drop by at most one going right."""


# -- parallelogram polyominoes ----------------------------------------------

class DisconnectedColumns(InvalidObject):
    """Consecutive columns must overlap in at least one row."""


class NonMonotoneBoundary(InvalidObject):
    """Column bottoms and tops must be nondecreasing, with bottom_1 = 0."""


# -- bijections -------------------------------------------------------------

class TooSmall(StanlabError, ValueError):
    """Map undefined for this input size (e.g. single-column polyomino)."""


# -- enumeration ------------------------------------------------------------

class UnsupportedPair(StanlabError, ValueError):
    """(family, measure) combination not implemented."""


class CapExceeded(StanlabError, RuntimeError):
    """Enumeration stream exceeded the configured safety cap."""


# -- truncated series -------------------------------------------------------

class VariableMismatch(StanlabError, ValueError):
    pass


class NotInvertible(StanlabError, ArithmeticError):
    pass


class NotInteger(StanlabError, TypeError):
    """A series scalar is not exactly an int."""


class UnsoundSubstitution(StanlabError, ValueError):
    """Substitution would shift terms below the truncation order."""


class Unstable(StanlabError, RuntimeError):
    """Continued-fraction evaluation did not stabilize between depths."""


# -- catalog ----------------------------------------------------------------

class OutOfRange(StanlabError, ValueError):
    """Coefficient formula queried outside its validity range."""


class CancellationFailure(StanlabError, ArithmeticError):
    """A series that must be a polynomial kept negative exponents."""


class MismatchBetweenForms(StanlabError, ArithmeticError):
    """Two independent pipelines for the same series disagree."""


# -- internal invariants ----------------------------------------------------

class InvariantViolation(StanlabError, RuntimeError):
    """A step that the paper's lemmas guarantee did not hold: a bug in the
    code or in the claim, never bad input.  Raised instead of ``assert``,
    which ``python -O`` removes."""
