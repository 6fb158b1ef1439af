"""Exception types shared across the package."""


class PoismoeError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(PoismoeError):
    """Shapes of data, coefficients, or partitions do not agree."""


class NumericalFailure(PoismoeError):
    """A computation produced a non-finite or otherwise unusable result."""


class SingularSystem(NumericalFailure):
    """An unpenalized weighted Gram matrix is numerically singular.

    Raised only for lambda = 0 solves: the Gram matrix is not finite, its
    smallest eigenvalue is not positive, or its 2-norm condition number
    exceeds ``linalg.COND_LIMIT``. A ridge or Liu-type system that fails
    the same positive-definiteness test raises the parent
    :class:`NumericalFailure` instead.
    """


class EmptyPartition(PoismoeError):
    """A stochastic assignment left at least one component empty."""


class FitFailed(PoismoeError):
    """Every restart of a stochastic EM run failed."""

    def __init__(self, message: str, diagnostics: list[str] | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or []


class TuningFailed(PoismoeError):
    """Bias-correction optimization hit non-finite objective values."""


class SummaryUndefined(PoismoeError):
    """No finite replicate values were available to summarize."""


class DataFormatError(PoismoeError):
    """An input file does not match the expected column layout."""

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number
