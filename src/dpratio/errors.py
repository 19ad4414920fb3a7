"""Exception types shared across the package."""


class DPRatioError(Exception):
    """Base class for every error raised by dpratio."""


class InvalidConfigError(DPRatioError):
    """Bounds, budgets, or run configuration are internally inconsistent."""


class EmptyDatasetError(DPRatioError):
    """The input dataset contains no records."""


class BoundsViolationError(DPRatioError):
    """A record falls outside the declared public bounds."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class DatasetFormatError(DPRatioError):
    """The CSV input is malformed."""

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line


class InvalidSumsError(DPRatioError):
    """Summary sums violate a structural invariant."""


class InvalidBudgetError(InvalidConfigError):
    """Privacy budget parameters are out of range."""


class MechanismMismatchError(InvalidConfigError):
    """The privacy budget is incompatible with the requested mechanism."""


class DegenerateDenominatorError(DPRatioError):
    """A (noisy) denominator is non-positive, so no estimate is produced."""


class DegenerateNumeratorError(DPRatioError):
    """Log-scale estimation requires a positive numerator."""


class ScaleMismatchError(DPRatioError):
    """Operands were constructed on different scales (ratio vs. log)."""


class DegenerateVarianceError(DPRatioError):
    """Combined variance is zero, so the test statistic is undefined."""


class InvalidIntervalError(DPRatioError):
    """Interval endpoints are inverted."""


class MonteCarloRedrawCapError(DegenerateDenominatorError):
    """Monte Carlo resampling rejected more replicates than its cap allows."""
