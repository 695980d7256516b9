"""Exception types shared across the solver library."""


class GspError(Exception):
    """Base class for all library-specific errors."""


class DimensionError(GspError):
    """Operand shapes are incompatible."""


class NotSpdError(GspError):
    """A matrix required to be symmetric positive definite is not."""


class NotSpsdError(GspError):
    """A matrix required to be symmetric positive semi-definite is not."""


class SingularOperatorError(GspError):
    """A factorization hit a zero pivot."""


class NonFiniteError(GspError):
    """An input block, the right-hand side or a solver scalar is a NaN or an infinity."""


class ZeroRhsError(GspError):
    """The right-hand side is identically zero."""


class BreakdownError(GspError):
    """A bidiagonalization coefficient collapsed below the breakdown tolerance."""


class WrongSolverError(GspError):
    """The solver does not handle this system class (e.g. nonsymmetric leading block)."""


class InsufficientHistoryError(GspError):
    """A diagnostic needs more recorded iterations than the result carries."""


class RankRepairError(GspError):
    """Random generation could not produce a full-column-rank constraint block."""


class LoadError(GspError):
    """A system manifest or one of its files is missing or unreadable."""


class ParseError(GspError):
    """Malformed Matrix Market content. Carries the 1-based offending line, or None if unknown."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
