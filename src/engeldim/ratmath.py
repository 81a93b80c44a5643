"""Small exact-arithmetic helpers used by the other modules."""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DomainError

_LOG2 = math.log(2)

# Binary exponent range in which num / den is a normal double with room
# to spare; outside it the quotient is rescaled by a power of two first.
_FLOAT_EXP_LIMIT = 1000

# Significant bits kept in the rescaled integer quotient; well above the
# 53 of a double, so truncating the quotient never shows in the result.
_QUOTIENT_BITS = 64


# what Fraction() raises for a value that is not a rational
_NOT_RATIONAL = (TypeError, ValueError, ZeroDivisionError, OverflowError)


def _to_rational(value, label: str) -> Fraction:
    try:
        return Fraction(value)
    except _NOT_RATIONAL as exc:
        raise DomainError(f"{label} is not a rational: {value!r}") from exc


def parse_rational(text: str) -> Fraction:
    """Parse "p/q", integer, or decimal text into an exact rational."""
    try:
        return Fraction(str(text).strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"not a rational: {text!r}") from exc


def log_rational(value) -> float:
    """Natural log of a positive rational or integer, from exact integers.

    Uses only the stdlib.  The result is within a few ulp relative of the
    true value, also for values near 1 and for numerators or denominators
    far beyond the range of a double (as long as the log itself is a
    normal double).  Near 1 the exact difference num - den goes through
    log1p, so the log is not lost to cancellation; elsewhere the quotient
    is rounded once, rescaled by a power of two if it would overflow or
    underflow, and the power is added back as k * log 2.
    """
    if type(value) is int and value > 0:
        # the den == 1 path below, without reading two attributes
        return math.log(value)
    try:
        num = value.numerator
        den = value.denominator
    except AttributeError as exc:
        raise DomainError(f"log_rational needs a rational, got {value!r}") from exc
    if num <= 0:
        raise DomainError(f"log of non-positive value {value}")
    if den == 1:
        return math.log(num)
    if den < 2 * num < 4 * den:
        # 1/2 < x < 2: |log x| is not bounded away from 0 here
        return math.log1p((num - den) / den)
    exp = num.bit_length() - den.bit_length()
    if -_FLOAT_EXP_LIMIT < exp < _FLOAT_EXP_LIMIT:
        # int true division rounds correctly, however large the operands
        return math.log(num / den)
    shift = exp - _QUOTIENT_BITS
    if shift > 0:
        quotient = num // (den << shift)
    else:
        quotient = (num << -shift) // den
    return math.log(quotient) + shift * _LOG2


def exact_kth_root(value: int, k: int) -> int | None:
    """Integer k-th root of value, or None when value is not a perfect power."""
    if value < 0 or k < 1:
        raise DomainError("need value >= 0 and k >= 1")
    if k == 1 or value in (0, 1):
        return value
    root = _floor_kth_root(value, k)
    return root if root**k == value else None


def _floor_kth_root(n: int, k: int) -> int:
    # integer Newton iteration; the seed is an upper bound on the root
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y
