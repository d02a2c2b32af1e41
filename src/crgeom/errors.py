"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes: ValidationError (and
TruncationError, an input too short for the request) -> 1,
InvariantViolation (and subclasses) -> 2, ParseError -> 3.
"""


class CrgeomError(Exception):
    """Base class for all package errors."""


class ParseError(CrgeomError):
    def __init__(self, message, line=None, col=None):
        self.reason = message
        self.line = line
        self.col = col
        if line is not None:
            message = f"line {line}, col {col}: {message}"
        super().__init__(message)


class ValidationError(CrgeomError):
    """Input object violates a structural precondition (e.g. non-normal phi)."""


class TruncationError(ValidationError):
    """Requested computation exceeds what the truncation order supports:
    the input is too short, which violates no theory."""


class InvariantViolation(CrgeomError):
    """An exact identity or divisibility guaranteed by theory failed."""


class UnitRequiredError(InvariantViolation):
    """Series reciprocal/division requested for a non-unit."""


class DivisibilityError(InvariantViolation):
    """Exact division failed; carries the offending monomial."""

    def __init__(self, message, monomial=None):
        self.monomial = monomial
        super().__init__(message)


class NotAContractionError(InvariantViolation):
    """implicit_solve called on an equation that is not a contraction."""

