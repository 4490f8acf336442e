"""Exception types shared across the summa package."""


class SummaError(Exception):
    """Base class for all summa errors."""


class InvalidInput(SummaError):
    """Malformed or non-finite input data."""


class DegenerateLabels(SummaError):
    """A label vector contains only one class where both are required."""


class TiesUnsupported(SummaError):
    """An operation defined only on tie-free rank permutations received ties."""


class TooFewMethods(SummaError):
    """Not enough base methods for the requested decomposition."""


class NoSignal(SummaError):
    """Off-diagonal moments carry no usable rank-one signal."""


class InvalidPrevalence(SummaError):
    """A supplied class prevalence lies outside (0, 1)."""


class NotConverged(SummaError):
    """Iteration budget exhausted before reaching tolerance.

    The partial state reached when the budget ran out, where there is
    one (a recovery's last iterate), is attached as ``partial`` so
    callers can inspect or reuse it; otherwise ``partial`` is None.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial
