"""Exception types shared across the library."""


class PrecisionLabError(Exception):
    """Base class for all library-specific errors."""


class NotPsdError(PrecisionLabError, ValueError):
    """Matrix has an eigenvalue below the negative tolerance band."""


class NotPdError(PrecisionLabError, ValueError):
    """Matrix is not positive definite (a Cholesky pivot is nonpositive)."""


class NotUnitVectorError(PrecisionLabError, ValueError):
    """Vector norm deviates from 1 beyond tolerance."""


class IndexOutOfRangeError(PrecisionLabError, IndexError):
    """Coordinate index outside the matrix dimension, or a repeated index pair."""


class SingularBlockError(PrecisionLabError, ValueError):
    """2x2 block is numerically singular and cannot be inverted."""


class TooFewAcceptancesError(PrecisionLabError, RuntimeError):
    """Rejection sampler accepted fewer points than the reliability floor."""


class DegenerateDrawError(PrecisionLabError, RuntimeError):
    """Repeated norm underflow while normalizing Gaussian draws."""


class InvalidParamsError(PrecisionLabError, ValueError):
    """Arguments violate an operation's precondition."""


class ThetaInEPerpError(PrecisionLabError, ValueError):
    """Direction is orthogonal to the span of the first two coordinates."""


class UnknownDetectorError(PrecisionLabError, KeyError):
    """Detector name not present in the registry."""

    def __str__(self) -> str:  # KeyError quotes its payload; keep the message readable
        return self.args[0] if self.args else ""


class MatrixParseError(PrecisionLabError, ValueError):
    """Matrix file is malformed; carries the offending line and column."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column})" if column is not None else ")")
        super().__init__(message + loc)
        self.line = line
        self.column = column


class InvariantViolationError(PrecisionLabError, AssertionError):
    """An inequality that must always hold was violated."""
