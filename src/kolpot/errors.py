"""Exception and warning types shared across the package."""


class KolpotError(Exception):
    """Base class for all errors raised by this package."""


class OperatorValidationError(KolpotError):
    """Structural assumptions on the operator matrices are violated."""


class NonSymmetricA0(OperatorValidationError):
    pass


class NotPositiveDefiniteA0(OperatorValidationError):
    pass


class RankDeficientBlock(OperatorValidationError):
    def __init__(self, j, message=None):
        self.j = j
        super().__init__(message or f"drift block B_{j} is rank deficient")


class BlockSizeMonotonicityViolated(OperatorValidationError):
    pass


class DimensionMismatch(OperatorValidationError):
    pass


class NonPositiveLambda(KolpotError):
    """Dilation parameter must be strictly positive."""


class SingularAtZero(KolpotError):
    """The covariance matrix vanishes at t = 0 and cannot be inverted."""


class TimeZero(KolpotError):
    """The mean-value kernel is undefined on the time-zero hyperplane."""


class SliceOutOfRange(KolpotError):
    """Requested slice time lies outside the ball's temporal extent."""


class TestPointInsideDomain(KolpotError):
    """An exterior-identity test point lies inside the test domain."""


class PointNotInterior(KolpotError):
    """A point required to be strictly inside the ball is not."""


class ConfigParseError(KolpotError):
    """Experiment configuration file cannot be parsed."""


class SchemaError(KolpotError):
    """Experiment configuration violates the schema."""


class IllConditionedWarning(UserWarning):
    """Covariance inversion encountered condition number above 1e14."""


class ToleranceWarning(UserWarning):
    """An integral estimate is returned flagged, below requested accuracy."""
