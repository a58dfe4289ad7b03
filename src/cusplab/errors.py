"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: InvalidInputError -> 2,
NumericFailureError (and subclasses) -> 3.
"""


class CusplabError(Exception):
    """Base class for all package errors; ``diagnostics`` holds what the
    failure measured."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class InvalidInputError(CusplabError):
    """A precondition on user-supplied data was violated."""


class DegenerateOperatorError(InvalidInputError):
    """The determinant of an indicial family vanishes identically."""


class InvalidWeightError(InvalidInputError):
    """A weight line passes through an indicial root."""


class NumericFailureError(CusplabError):
    """A solver or quadrature failed to reach its tolerance."""


class ReductionError(NumericFailureError):
    """Fundamental-domain reduction did not converge."""


class ResolutionError(NumericFailureError):
    """Spectral content hit the grid's aliasing limit."""


class CoverageError(NumericFailureError):
    """A geodesic leaves the chart inside the support of the integrand."""
