"""Exception hierarchy shared across the package.

Grouped so the CLI can map error families to distinct exit codes:
configuration problems, data/file problems, and numeric problems.
"""


class EchoChanError(Exception):
    """Base class for all package errors."""


class ConfigError(EchoChanError, ValueError):
    """Invalid configuration: unknown keys, bad values, missing presets."""


class NumericError(EchoChanError):
    """Base class for numeric-contract violations."""


class ShapeError(NumericError, ValueError):
    """Operands have incompatible or invalid dimensions."""


class NonFiniteError(NumericError, ValueError):
    """A value that must be finite is NaN or infinite."""


class DefinitenessError(NumericError, ValueError):
    """Matrix is not symmetric positive definite where required."""


class RankError(NumericError, ValueError):
    """Rank-deficient system for an unregularized solve."""


class ConvergenceError(NumericError, RuntimeError):
    """Iterative method did not converge.

    ``iterations`` is the budget that ran out, or None when the method
    (such as a LAPACK eigenvalue routine) has no budget of its own.
    """

    def __init__(self, message: str, iterations: int | None):
        super().__init__(message)
        self.iterations = iterations


class RescaleError(NumericError, ValueError):
    """Matrix cannot be rescaled to a target spectral radius."""


class DegenerateMetricError(NumericError, ValueError):
    """Metric is undefined, e.g. every sample was excluded."""


class StoreError(EchoChanError):
    """Base class for on-disk format errors."""


class FormatError(StoreError, ValueError):
    """File does not carry the expected magic or layout."""


class IntegrityError(StoreError, ValueError):
    """File is truncated or its payload size disagrees with its header."""


class VersionError(StoreError, ValueError):
    """File format version is not supported by this build."""
