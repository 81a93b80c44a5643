"""Engel expansion arithmetic over exact rationals.

The map T(x) = x*ceil(1/x) - 1 sends [0, 1) into itself with T(0) = 0.
Iterating it from a point x in (0, 1) produces the digits of the Engel
series of x, a sum of reciprocals of growing digit products.  Every
rational orbit reaches 0 after finitely many steps, so digit extraction,
series reconstruction, and the interval geometry of digit prefixes can
all be done exactly.  The orbit of x = n/q stays over the denominator q,
so digit extraction steps the numerator alone, in plain int arithmetic;
the endpoints of a prefix's interval come from one integer formula, whose
order is checked once per window, and one builder makes intervals of
them.  Nothing in this module touches floating point.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple

from .errors import DomainError, InternalError, InvalidWordError
from .ratmath import _to_rational


def is_admissible(digits: Iterable[int]) -> bool:
    """True iff some x realizes the digits as its expansion prefix.

    A finite word is admissible exactly when 2 <= d_1 <= ... <= d_n.
    The empty word is not admissible.
    """
    prev = 2
    seen = False
    for d in digits:
        if not isinstance(d, int) or isinstance(d, bool):
            return False
        if d < prev:
            return False
        prev = d
        seen = True
    return seen


class DigitWord(tuple):
    """Immutable admissible digit word; behaves as a tuple of ints.
    Checked once, when made: DigitWord(w) of a DigitWord is w itself."""

    __slots__ = ()

    def __new__(cls, digits: Iterable[int]) -> "DigitWord":
        if type(digits) is DigitWord:
            return digits
        word = tuple(digits)
        if not is_admissible(word):
            raise InvalidWordError(f"inadmissible digit word {list(word)!r}")
        return super().__new__(cls, word)

    def __repr__(self) -> str:
        return f"DigitWord({list(self)!r})"


# assigns a field of a record whose own __setattr__ refuses every assignment
_set = object.__setattr__


class _Record:
    """Base of an immutable record kept in __slots__: _fields names the
    fields in constructor order, and the record prints and pickles by them.
    A dataclass would do as much, but importing dataclasses and generating
    its methods took most of the time the package needs to import."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)


class RatInterval(_Record):
    """Interval with exact rational endpoints and end-closure flags.

    Immutable; equal intervals have equal fields and hash alike.
    """

    _fields = ("lo", "hi", "lo_closed", "hi_closed")
    __slots__ = _fields + ("__weakref__",)
    __match_args__ = _fields

    def __init__(self, lo, hi, lo_closed: bool = True, hi_closed: bool = False):
        _fill(self, lo, hi, lo_closed, hi_closed)
        self.__post_init__()

    def __post_init__(self):
        # the checks of a public construction, a method of its own because
        # bench/tracing.py wraps it to count the intervals built.
        # Fraction endpoints are kept as they are: rebuilding them was a
        # large share of the time taken to build a level of intervals
        lo, hi = self.lo, self.hi
        if type(lo) is not Fraction:
            lo = _to_rational(lo, "interval endpoint")
            _set(self, "lo", lo)
        if type(hi) is not Fraction:
            hi = _to_rational(hi, "interval endpoint")
            _set(self, "hi", hi)
        # the sign of hi - lo from one integer cross-product, exact because
        # Fraction denominators are positive; Fraction's own comparisons
        # cost an abstract-base-class check each
        order = hi.numerator * lo.denominator - lo.numerator * hi.denominator
        if order < 0:
            raise DomainError(f"interval endpoints out of order: {lo} > {hi}")
        if order == 0 and not (self.lo_closed and self.hi_closed):
            raise DomainError("a degenerate interval must be closed on both ends")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.lo, self.hi, self.lo_closed, self.hi_closed)
                == (other.lo, other.hi, other.lo_closed, other.hi_closed))

    def __hash__(self) -> int:
        return hash((self.lo, self.hi, self.lo_closed, self.hi_closed))

    @property
    def length(self) -> Fraction:
        return self.hi - self.lo

    def contains(self, x) -> bool:
        x = _to_rational(x, "point")
        if x < self.lo or x > self.hi:
            return False
        if x == self.lo and not self.lo_closed:
            return False
        if x == self.hi and not self.hi_closed:
            return False
        return True

    __contains__ = contains

    def encloses(self, other: "RatInterval") -> bool:
        """True when every point of other belongs to this interval."""
        if other.lo < self.lo or (other.lo == self.lo
                                  and other.lo_closed and not self.lo_closed):
            return False
        if other.hi > self.hi or (other.hi == self.hi
                                  and other.hi_closed and not self.hi_closed):
            return False
        return True

    def __str__(self) -> str:
        # reduced endpoints print as they are: a gcd of a deep word's
        # endpoint costs about half as much again as its str
        return _interval_str(str(self.lo), str(self.hi), self.lo_closed, self.hi_closed)


def _interval_str(lo: str, hi: str, lo_closed: bool = True, hi_closed: bool = True) -> str:
    # the one text format of an interval, from its endpoints' texts
    left = "[" if lo_closed else "("
    right = "]" if hi_closed else ")"
    return f"{left}{lo}, {hi}{right}"


def _fill(interval: RatInterval, lo: Fraction, hi: Fraction,
          lo_closed: bool, hi_closed: bool) -> RatInterval:
    # the fields of a new interval, unchecked
    _set(interval, "lo", lo)
    _set(interval, "hi", hi)
    _set(interval, "lo_closed", lo_closed)
    _set(interval, "hi_closed", hi_closed)
    return interval


class ExpansionResult(NamedTuple):
    """Digits extracted from one orbit, with its termination status.

    remainder is the orbit point after the last extracted digit, so
    terminated is equivalent to remainder == 0.  When terminated, the
    digits reconstruct the input exactly.
    """

    digits: DigitWord
    terminated: bool
    remainder: Fraction


def engel_digits(x, max_depth: int | None = None) -> ExpansionResult:
    """Extract the Engel digits of a rational x in (0, 1).

    Stops after max_depth digits; None means run until the orbit hits 0,
    which happens within denominator-many steps for any rational.  The
    digit at step k is ceil(1/T^(k-1)(x)).
    """
    x = _to_rational(x, "x")
    if not 0 < x < 1:
        raise DomainError(f"engel_digits needs 0 < x < 1, got {x}")
    if max_depth is not None and max_depth < 1:
        raise DomainError(f"max_depth must be >= 1, got {max_depth}")
    # the orbit stays over the denominator q of x: T(num/q) = (num*d - q)/q
    # with d = ceil(q/num), an integer ceiling division, as floating point
    # would misplace reciprocal-integer boundaries
    num, q = x.numerator, x.denominator
    limit = q if max_depth is None else max_depth
    digits: list[int] = []
    while num and len(digits) < limit:
        if len(digits) >= q:
            # the numerator strictly decreases, so a run this long means
            # broken arithmetic
            raise InternalError(f"expansion of {x} exceeded {q} digits")
        d = -(-q // num)
        digits.append(d)
        num = num * d - q
    return ExpansionResult(DigitWord(digits), num == 0, Fraction(num, q))


def _prefix_state(digits: Iterable[int]) -> tuple[int, int]:
    # (a, p) with a/p the word's reconstruction and p its digit product:
    # appending digit d to a word turns (a, p) into (a*d + 1, p*d)
    a, p = 0, 1
    for d in digits:
        a, p = a * d + 1, p * d
    return a, p


def _prefix_endpoints(states: Iterable[tuple[int, int]], j_min: int, j_max: int
                      ) -> Iterator[tuple[int, int, int, int]]:
    # the points continuing prefix state (a, p) with a digit in j_min..j_max
    # lie from a/p + 1/(p*j_max) to a/p + 1/(p*(j_min - 1)).  The endpoints
    # of each state, drawn as the states are, come as unreduced
    # (lo_num, lo_den, hi_num, hi_den), denominators positive.  They are
    # checked in order as RatInterval checks them, once for every state:
    # the cross-product hi_num*lo_den - lo_num*hi_den, divided by the
    # common factor p > 0, is j_max - (j_min - 1) whatever the state
    k = j_min - 1
    ends = ((a * j_max + 1, p * j_max, a * k + 1, p * k) for a, p in states)
    if j_max < k:
        # a window that ends before j_min - 1: the endpoints of its first
        # state name the fault
        first = next(ends, None)
        if first is not None:
            lo_num, lo_den, hi_num, hi_den = first
            lo, hi = Fraction(lo_num, lo_den), Fraction(hi_num, hi_den)
            raise DomainError(f"interval endpoints out of order: {lo} > {hi}")
    return ends


def _intervals(ends: Iterable[tuple[int, int, int, int]],
               hi_closed: bool = True) -> list[RatInterval]:
    # RatIntervals closed on the left from endpoint ints, reduced or not,
    # that _prefix_endpoints or a level builder has checked in order, without
    # RatInterval's own check, which for a deep word multiplies long ints:
    # only an empty window makes the endpoints equal, on a basic interval,
    # which is closed
    return [_fill(object.__new__(RatInterval), Fraction(lo_num, lo_den),
                  Fraction(hi_num, hi_den), True, hi_closed)
            for lo_num, lo_den, hi_num, hi_den in ends]


def reconstruct(word) -> Fraction:
    """Exact value of the finite Engel series with the given digits."""
    return Fraction(*_prefix_state(DigitWord(word)))


def cylinder_interval(word) -> RatInterval:
    """Half-open interval of the points whose expansion starts with word.

    For digits (d_1, ..., d_n) this is [A, B): A is the reconstruction
    of the word and B adds 1/(d_1...d_{n-1}(d_n - 1)) to the
    reconstruction of the parent word instead of the last term.
    """
    w = DigitWord(word)
    ends = _prefix_endpoints([_prefix_state(w[:-1])], w[-1], w[-1])
    return _intervals(ends, hi_closed=False)[0]


def cylinder_length(word) -> Fraction:
    """Exact length 1/(d_1...d_{n-1} * d_n * (d_n - 1)) of the cylinder."""
    w = DigitWord(word)
    _, p = _prefix_state(w)
    return Fraction(1, p * (w[-1] - 1))
