"""Exception types shared across the package."""


class PolarmuonError(Exception):
    """Base class for all package errors."""


class DimensionError(PolarmuonError):
    """Operands have incompatible shapes."""


class DegenerateInputError(PolarmuonError):
    """Input is zero (or numerically zero) where a nonzero matrix is required."""


class PreconditionError(PolarmuonError):
    """A documented precondition on arguments was violated."""


class ConfigError(PolarmuonError):
    """Invalid run configuration; message carries the offending field path."""


class NumericalAbortError(PolarmuonError, ValueError):
    """A matrix holds non-finite values, so the computation cannot go on."""
