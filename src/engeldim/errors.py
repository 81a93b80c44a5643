"""Error types shared across the package."""

import math


class EngelDimError(Exception):
    """Base class for every error raised by this package."""


class DomainError(EngelDimError, ValueError):
    """Input outside the mathematical domain of an operation."""


class InvalidWordError(EngelDimError, ValueError):
    """Digit word is inadmissible or not in the expected level set."""


class ConditionError(EngelDimError):
    """A window condition on the bounding sequences fails at some level."""

    def __init__(self, condition: int, index: int, message: str):
        super().__init__(message)
        self.condition = condition
        self.index = index


class EvaluationError(EngelDimError):
    """A sequence family could not produce a requested term."""


class SizeLimitError(EngelDimError):
    """A level holds more intervals than the caller allowed.

    The message shows a count of over 40 digits as "at least 10^k", k its
    digit count minus 1: its decimal digits could take seconds to make."""

    def __init__(self, count: int, limit: int, what: str):
        shown = count
        if count >= 10**40:
            # log10 of a big int errs by about k*2**-50; only a value that
            # close to an integer k needs the power 10**k to settle its floor,
            # else int() truncates the positive log10 to it
            log10 = math.log10(count)
            k = round(log10)
            if abs(log10 - k) > log10 * 2**-40:
                k = int(log10)
            elif 10**k > count:
                k -= 1
            shown = f"at least 10^{k}"
        super().__init__(f"{what} holds {shown} intervals, limit {limit}")
        self.count = count
        self.limit = limit


class InternalError(EngelDimError):
    """An arithmetic invariant broke; indicates a bug, not bad input."""


class UsageError(EngelDimError):
    """Bad command line or config file input."""
