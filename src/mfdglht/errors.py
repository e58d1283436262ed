"""Exception hierarchy.

Two broad families matter to callers (and to the CLI exit codes): problems
with the inputs (``InputError``, exit code 2) and numerical degeneracies
discovered during computation (``DegeneracyError``, exit code 3).
"""

__all__ = [
    "MfdGlhtError",
    "InputError",
    "IngestionError",
    "ValidationError",
    "InsufficientReplicationError",
    "ContrastRankError",
    "DegeneracyError",
    "NotPositiveDefiniteError",
    "SingularOmegaError",
    "SingularErrorMatrixError",
    "DegenerateDofError",
    "ApproximationUndefinedError",
]


class MfdGlhtError(Exception):
    """Base class for all library errors."""


class InputError(MfdGlhtError):
    """Invalid arguments, malformed files, or violated data invariants."""


class IngestionError(InputError):
    """A data file could not be parsed into a valid dataset."""


class ValidationError(InputError):
    """A constructed object violates one of its invariants."""


class InsufficientReplicationError(InputError):
    """A group has too few observations for the requested estimator."""


class ContrastRankError(InputError):
    """The contrast matrix C is numerically rank deficient."""


class DegeneracyError(MfdGlhtError):
    """A numerically degenerate quantity was encountered mid-computation."""


class NotPositiveDefiniteError(DegeneracyError):
    """A matrix required to be SPD has a non-positive eigenvalue."""


class SingularOmegaError(NotPositiveDefiniteError):
    """The pooled covariance matrix is numerically singular.

    Usually means too few observations relative to the number of
    components, or degenerate (e.g. perfectly collinear) curves.
    """


class SingularErrorMatrixError(DegeneracyError):
    """The error variation matrix is not positive definite."""


class DegenerateDofError(DegeneracyError):
    """The degrees-of-freedom denominator collapsed to zero."""


class ApproximationUndefinedError(DegeneracyError):
    """An F-approximation is undefined for the given statistic and DoF."""
