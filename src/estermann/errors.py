"""Exception types shared across the package."""


class EstermannError(Exception):
    """Base class for all package errors."""


class MuSumNotOne(EstermannError):
    """The three window proportions do not sum to 1 exactly."""


class IntegerExponent(EstermannError):
    """The exponent reduces to an integer (denominator 1)."""


class ExponentTooSmall(EstermannError):
    """The exponent is <= 1."""


class WindowTooWide(EstermannError):
    """H >= min_k mu_k * N, so some window would reach 0 or below."""


class FloorInversionFailed(EstermannError):
    """A floor-power range inversion failed its endpoint verification."""


class OracleLimitExceeded(EstermannError):
    """Brute-force oracle invoked above its configured size limit."""


class MemoryBudgetExceeded(EstermannError):
    """A single allocation would exceed the configured memory budget."""


class ToleranceNotMet(EstermannError):
    """Adaptive quadrature exhausted its panel budget.

    The achieved absolute error estimate is attached as ``achieved``.
    """

    def __init__(self, message: str, achieved: float):
        super().__init__(message)
        self.achieved = achieved
