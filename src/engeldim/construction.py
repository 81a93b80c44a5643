"""Nested interval constructions driven by a pair of digit-window sequences.

A family supplies two sequences s_n, t_n of positive rationals.  At level
k the allowed Engel digits are the integers in (floor(s_k), floor(s_k + t_k)],
so each level contributes m_k = floor(s_k + t_k) - floor(s_k) choices.  The
words built from these windows select cylinder sets, and the union of the
level-(n+1) child cylinders of a word, taken closed, is its basic interval.
Collecting the basic intervals of all level-n words gives a nested sequence
of unions of closed intervals whose intersection is the target set.

Everything here is exact: windows come from rational floors, endpoints and
the two a priori bounds (the diameter bound delta_n that dominates every
basic-interval length, and the gap bound epsilon_n that every gap between
intervals of the same level dominates) are plain Fractions, each formed
from its reduced integer pair.  One builder makes the records of any
ascending depths from one walk of the levels, each window order-checked
as it is drawn; a record forms its count, s_1...s_n, minimum gap, longest
length and basic intervals, a lazy stream of endpoint ints in lowest
terms, only when read.  Each product of the terms is stated once, and
carried by the walk from the last value formed, so one level alone pays
one balanced product and ascending levels one running product.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from math import floor, gcd
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple, Sequence

from .engel import (
    DigitWord,
    RatInterval,
    _intervals,
    _prefix_endpoints,
    _prefix_state,
    _Record,
    _set,
)
from .errors import (
    ConditionError,
    DomainError,
    EvaluationError,
    InternalError,
    InvalidWordError,
    SizeLimitError,
)
from .ratmath import _NOT_RATIONAL, _to_rational, exact_kth_root

if TYPE_CHECKING:
    import random

# hard cap on materialized words per level; counts grow like the product
# of the t_k, so a runaway request must fail loudly instead of thrashing
DEFAULT_LEVEL_LIMIT = 10**6

# divergence of s_n is a statement about all n, so a finite check cannot
# establish it; these tokens say how the claim is supported
DIVERGES_CERTIFIED = "certified"
DIVERGES_ASSERTED = "asserted"
DIVERGES_VIOLATED = "violated-at-depth"

# a level's terms (s_k, t_k, j_min, j_max), j_min..j_max its digit window
_Terms = tuple[int | Fraction, int | Fraction, int, int]


class ConditionReport(NamedTuple):
    """Outcome of checking the window conditions up to a finite depth.

    bounds_ok covers s_n >= t_n >= 2, growth_ok covers s_{n+1} >= s_n + t_n,
    both verified exactly for every n up to depth.  The violation fields
    hold the first failing index, or None.  divergence reports how the
    requirement lim s_n = infinity is supported: certified by the family's
    closed form, asserted by the caller, or provably violated.
    """

    depth: int
    bounds_ok: bool
    bounds_violation: int | None
    growth_ok: bool
    growth_violation: int | None
    divergence: str

    @property
    def all_ok(self) -> bool:
        return self.bounds_ok and self.growth_ok and self.divergence != DIVERGES_VIOLATED


class LevelQuantities(NamedTuple):
    """Exact bookkeeping for one level: the count N_n, the branch count m_n
    of level n, and what both bounds are built from, each bound built only
    when read.  The longest length is SequenceFamily.max_length(n).
    """

    n: int
    count: int
    m_n: int  # the branch count of level n
    prod_s: int | Fraction  # s_1...s_n
    s_n: int | Fraction
    next_level: _Terms  # the terms of level n+1

    @property
    def diameter_bound(self) -> Fraction:
        """delta_n = 4*t_{n+1}/(s_1...s_n * s_{n+1}**2)."""
        return Fraction(*self._diameter_pair())

    @property
    def gap_bound(self) -> Fraction:
        """epsilon_n = 1/(2**(n+3) * s_1...s_n * s_n)."""
        return Fraction(*self._gap_pair())

    def _diameter_pair(self) -> tuple[int, int]:
        # delta_n as its reduced (num, den), den > 0, read against s_1...s_n
        (x, y), s = _diameter_terms(self.next_level), self.next_level[0]
        return self._lowest_pair(x * s.denominator, y * s.numerator)

    def _gap_pair(self) -> tuple[int, int]:
        # epsilon_n as its reduced (num, den), den > 0
        return self._lowest_pair(*_gap_terms(self.n, self.s_n))

    def _lowest_pair(self, x: int, y: int) -> tuple[int, int]:
        # x*B/(y*A) for s_1...s_n = A/B, as its reduced (num, den)
        a, b = self.prod_s.numerator, self.prod_s.denominator
        x, g, y, h = _lowest(x, y, a, b, int.__mod__)
        return x * (b // h), y * (a // g)


class SequenceFamily(_Record):
    """A pair of positive-rational sequences defining the digit windows.

    Construct via one of the classmethods; the generic constructor is only
    for wiring in closures.  kind is one of "geometric", "power-geometric",
    "explicit-pair".  Immutable, and equal only to itself.
    """

    # each value of _s_fn and _t_fn goes through Fraction(); _diverges is
    # True certified, False refuted, None unknown; _terms yields (s_n, t_n)
    # for n = 1, 2, ... to walk, and None walks s(n) and t(n)
    _fields = ("kind", "description", "_s_fn", "_t_fn", "_diverges", "_terms")
    __slots__ = _fields + ("__weakref__",)

    def __init__(self, kind: str, description: str,
                 _s_fn: Callable[[int], object], _t_fn: Callable[[int], object],
                 _diverges: bool | None,
                 _terms: Callable[[], Iterator[tuple[int | Fraction, int | Fraction]]]
                 | None = None):
        for name, value in zip(self._fields,
                               (kind, description, _s_fn, _t_fn, _diverges, _terms)):
            _set(self, name, value)

    # -- constructors -------------------------------------------------

    @classmethod
    def geometric(cls, s_ratio, t_ratio, s_coef=1, t_coef=1) -> "SequenceFamily":
        """s_n = s_coef * s_ratio**n and t_n = t_coef * t_ratio**n."""
        sr, tr = _to_rational(s_ratio, "s_ratio"), _to_rational(t_ratio, "t_ratio")
        sc, tc = _to_rational(s_coef, "s_coef"), _to_rational(t_coef, "t_coef")
        for label, v in (("s_ratio", sr), ("t_ratio", tr),
                         ("s_coef", sc), ("t_coef", tc)):
            if v <= 0:
                raise DomainError(f"{label} must be positive, got {v}")
        parts = []
        for coef, ratio, name in ((sc, sr, "s"), (tc, tr, "t")):
            parts.append(f"{name}_n = {coef}*{ratio}^n" if coef != 1
                         else f"{name}_n = {ratio}^n")
        return cls(
            kind="geometric",
            description=", ".join(parts),
            _s_fn=lambda n: sc * sr**n,
            _t_fn=lambda n: tc * tr**n,
            _diverges=sr > 1,
            _terms=lambda: _geometric_terms(sc, sr, tc, tr),
        )

    @classmethod
    def power_geometric(cls, base, theta) -> "SequenceFamily":
        """s_n = base**n and t_n = base**(theta*n) for rational theta.

        Requires base**theta to be rational, which makes every t_n
        rational; otherwise the family cannot be represented exactly and
        an explicit-pair family should be used instead.
        """
        b = _to_rational(base, "base")
        th = _to_rational(theta, "theta")
        if b <= 0:
            raise DomainError(f"base must be positive, got {b}")
        if th <= 0:
            raise DomainError(f"theta must be positive, got {th}")
        p, q = th.numerator, th.denominator
        power = b**p
        root_num = exact_kth_root(power.numerator, q)
        root_den = exact_kth_root(power.denominator, q)
        if root_num is None or root_den is None:
            raise DomainError(
                f"{b}**({th}) is irrational; supply the values as explicit pairs"
            )
        family = cls.geometric(b, Fraction(root_num, root_den))
        return cls("power-geometric", f"s_n = {b}^n, t_n = {b}^({th}*n)",
                   family._s_fn, family._t_fn, family._diverges, family._terms)

    @classmethod
    def from_pairs(cls, pairs: Iterable) -> "SequenceFamily":
        """Finite table family; entry k of pairs supplies (s_{k+1}, t_{k+1})."""
        table = _validated_pairs(pairs)

        def lookup(n: int, column: int) -> Fraction:
            if n > len(table):
                raise EvaluationError(
                    f"table family has {len(table)} entries, index {n} requested"
                )
            return table[n - 1][column]

        return cls.from_function(lambda n: lookup(n, 0), lambda n: lookup(n, 1),
                                 f"table of {len(table)} (s, t) pairs")

    @classmethod
    def from_function(cls, s_fn: Callable[[int], object],
                      t_fn: Callable[[int], object],
                      description: str = "closure-defined family") -> "SequenceFamily":
        """Family backed by arbitrary callables returning rationals."""
        return cls(kind="explicit-pair", description=description,
                   _s_fn=s_fn, _t_fn=t_fn, _diverges=None)

    # -- raw sequence access ------------------------------------------

    def s(self, n: int) -> Fraction:
        return self._eval(self._s_fn, "s", n)

    def t(self, n: int) -> Fraction:
        return self._eval(self._t_fn, "t", n)

    def _eval(self, fn, name: str, n: int) -> Fraction:
        if n < 1:
            raise DomainError(f"sequence index must be >= 1, got {n}")
        try:
            value = Fraction(fn(n))
        except EvaluationError:
            raise
        except Exception as exc:
            raise EvaluationError(f"{name}_{n} evaluation failed: {exc}") from exc
        if value <= 0:
            raise EvaluationError(f"{name}_{n} = {value} is not positive")
        return value

    # -- the level walker ------------------------------------------------

    def levels(self, depth: int) -> Iterator[_Terms]:
        """Yield (s_k, t_k, j_min, j_max) for k = 1..depth in one pass.

        j_min..j_max is the digit window floor(s_k)+1..floor(s_k+t_k), two
        ints for every family; where s_k and t_k are ints it is
        s_k+1..s_k+t_k, taken without floor.  The conditions are verified
        as the walk goes: the first failing level raises its ConditionError
        after the levels before it were yielded.  Nothing is cached: table
        and closure families evaluate every s_k and t_k once, closed-form
        families step both from the pair before.  A term equals and prints
        as s(k) or t(k), but is an int where its coefficient and ratio are
        integral.
        """
        return self._walk(depth)

    def _walk(self, depth: int, first_failures: dict[int, int] | None = None) -> Iterator[_Terms]:
        # the one statement of both conditions, bounds at n checked before
        # growth at n - 1.  A failure raises, unless a dict is given: then
        # the first failing index of each condition is recorded under its
        # number and the walk goes on
        if self._terms is None:
            terms = ((self.s(n), self.t(n)) for n in itertools.count(1))
        else:
            terms = self._terms()
        # range first: zip stops before it draws a term past depth.  top is
        # s_{n-1} + t_{n-1}, and 0 at level 1, which s_1 > 0 never fails
        top = 0
        for n, (s_n, t_n) in zip(range(1, depth + 1), terms):
            if not s_n >= t_n >= 2:
                if first_failures is None:
                    raise ConditionError(
                        1, n, f"s_{n} >= t_{n} >= 2 fails: s={s_n}, t={t_n}"
                    )
                first_failures.setdefault(1, n)
            if s_n < top:
                if first_failures is None:
                    raise ConditionError(
                        2, n - 1, f"s_{n} >= s_{n-1} + t_{n-1} fails: {s_n} < {top}"
                    )
                first_failures.setdefault(2, n - 1)
            top = s_n + t_n
            if type(top) is int:  # then s_n and t_n are ints, their own floors
                yield s_n, t_n, s_n + 1, top
            else:
                yield s_n, t_n, floor(s_n) + 1, floor(top)

    def check_conditions(self, depth: int) -> ConditionReport:
        """Verify the window conditions exactly for all n <= depth.

        The growth comparison at n = depth walks to level depth + 1, so
        table families need depth + 1 entries to be checked to a given depth.
        """
        if depth < 1:
            raise DomainError(f"depth must be >= 1, got {depth}")
        first: dict[int, int] = {}
        for _ in self._walk(depth + 1, first):
            pass
        # the bounds at level depth + 1 lie beyond the check
        bounds_violation = first.get(1) if first.get(1, 0) <= depth else None
        growth_violation = first.get(2)
        if self._diverges is True:
            divergence = DIVERGES_CERTIFIED
        elif self._diverges is None:
            divergence = DIVERGES_ASSERTED
        else:
            divergence = DIVERGES_VIOLATED
        return ConditionReport(
            depth=depth,
            bounds_ok=bounds_violation is None,
            bounds_violation=bounds_violation,
            growth_ok=growth_violation is None,
            growth_violation=growth_violation,
            divergence=divergence,
        )

    # -- digit windows --------------------------------------------------

    def _ordered(self, depth: int) -> Iterator[_Terms]:
        # the levels 1..depth from one walk, each window checked when drawn:
        # the walked conditions make the first start above 2 and each start
        # above the end of the one before, so every word drawn from them is
        # admissible, and a reader need not validate each word
        prev_hi = 2
        for k, level in enumerate(self.levels(depth), start=1):
            _, _, lo, hi = level
            if lo < prev_hi:
                raise InternalError(
                    f"window [{lo}, {hi}] of level {k} starts below {prev_hi}"
                )
            prev_hi = hi
            yield level

    def _windows(self, depth: int) -> Iterator[tuple[int, int]]:
        # the order-checked windows (lo, hi) of levels 1..depth
        return (level[2:] for level in self._ordered(depth))

    def digit_range(self, k: int) -> tuple[int, int]:
        """Inclusive integer digit window (floor(s_k)+1, floor(s_k+t_k))."""
        if k < 1:
            raise DomainError(f"sequence index must be >= 1, got {k}")
        return list(self._windows(k))[-1]

    def word_count(self, n: int) -> int:
        """Exact number of level-n words: the product of the branch counts."""
        if n < 0:
            raise DomainError(f"level must be >= 0, got {n}")
        return _count(self._windows(n))

    def iter_words(self, n: int) -> Iterator[DigitWord]:
        """Yield the level-n words in lexicographic order.

        Growth of the windows across levels makes every word admissible.
        """
        if n < 1:
            raise DomainError(f"level must be >= 1, got {n}")
        ranges = [range(lo, hi + 1) for lo, hi in self._windows(n)]
        return (DigitWord(combo) for combo in itertools.product(*ranges))

    def sample_level(self, n: int, count: int, rng: random.Random
                     ) -> tuple[int, list[tuple[int, ...]], list[RatInterval]]:
        """Level-n word count, plus count uniformly drawn words and their
        basic intervals, all from one walk of levels 1..n+1.

        Each word takes one rng.randint(lo, hi) per window, windows in level
        order, and the words come in draw order.  The level is a product of
        windows, so independent uniform picks per level are uniform over
        the whole.
        """
        if n < 1:
            raise DomainError(f"level must be >= 1, got {n}")
        if count < 1:
            raise DomainError(f"count must be >= 1, got {count}")
        level = self._level(n, None)
        *windows, (j_min, j_max) = level.windows
        words = [
            tuple(rng.randint(lo, hi) for lo, hi in windows) for _ in range(count)
        ]
        intervals = _intervals(_prefix_endpoints(map(_prefix_state, words), j_min, j_max))
        return level.count, words, intervals

    # -- basic intervals -------------------------------------------------

    def basic_interval(self, word) -> RatInterval:
        """Closed interval spanned by the child cylinders of a level-n word.

        With S the reconstruction of the word, P its digit product, and
        (j_min, j_max) the level-(n+1) window, this is
        [S + 1/(P*j_max), S + 1/(P*(j_min - 1))].
        """
        w = DigitWord(word)
        *windows, last = self._windows(len(w) + 1)
        for k, (digit, (lo, hi)) in enumerate(zip(w, windows), start=1):
            if not lo <= digit <= hi:
                raise InvalidWordError(
                    f"digit {digit} at position {k} outside window [{lo}, {hi}]"
                )
        return _intervals(_prefix_endpoints([_prefix_state(w)], *last))[0]

    def level_intervals(self, n: int,
                        limit: int | None = DEFAULT_LEVEL_LIMIT) -> list[RatInterval]:
        """All basic intervals of level n, sorted by left endpoint.

        Level 0 is the convention [0, 1].  Raises a size-limit error, with
        the exact count attached, before anything is built when the level
        exceeds the limit.
        """
        return _intervals(self._level(n, limit).ends)

    def _level(self, n: int, limit: int | None) -> _Level:
        # the one-depth case of _levels, its size limit checked before it is returned
        if n < 0:
            raise DomainError(f"level must be >= 0, got {n}")
        level = next(self._levels([n]))
        if n and limit is not None and level.count > limit:
            raise SizeLimitError(level.count, limit, f"level {n}")
        return level

    def _levels(self, depths: Sequence[int]) -> Iterator[_Level]:
        # the record of each of the ascending depths from one walk: level n
        # reads levels 1..n+1, level 0 none, and no level is drawn before
        # the record that reads it
        levels, last, walk = [], {}, self._ordered(depths[-1] + 1)
        for n in depths:
            while n and len(levels) <= n:
                levels.append(next(walk))
            yield _Level(levels, last, n)

    def min_gap(self, n: int) -> Fraction | None:
        """Smallest distance between consecutive level-n intervals, in
        closed form, so no level is built.

        None only at level 0, the one interval [0, 1]: every window holds
        at least 2 digits, so every later level has two intervals.
        """
        return self._level(n, None).gap

    def max_length(self, n: int) -> Fraction:
        """Longest level-n interval length, the all-minimal word's, in
        closed form, so no level is built.

        1 at level 0, the one interval [0, 1].
        """
        return self._level(n, None).longest

    # -- a priori bounds ---------------------------------------------------

    def iter_level_quantities(self, depth: int) -> Iterator[LevelQuantities]:
        """Yield the quantities of levels 1..depth from one walk.

        Each is its level's record from the level builder, whose walk
        carries N_n and s_1...s_n, as ints or Fractions, from level to
        level; the longest length is max_length(n).  Each sequence value
        is evaluated once, and each bound is put in lowest terms by one
        reduction, _lowest, which reads s_1...s_n only through its
        remainders by short ints.  The conditions are verified in the same
        pass, so a lazy consumer can receive the first levels before a
        ConditionError from a deeper one.
        """
        if depth < 1:
            raise DomainError(f"depth must be >= 1, got {depth}")
        for level in self._levels(range(1, depth + 1)):
            yield level.quantities

    def level_quantities(self, n: int) -> LevelQuantities:
        """The quantities of level n alone, equal to the n-th record of
        iter_level_quantities, from the level builder's one walk of levels
        1..n+1: N_n and s_1...s_n are each one balanced product."""
        if n < 1:
            raise DomainError(f"level must be >= 1, got {n}")
        return self._level(n, None).quantities


def _diameter_terms(next_level: _Terms) -> tuple[int, int]:
    # delta_n = 4*t/(s_1...s_{n+1} * s) = x*B/(y*A) for s_1...s_{n+1} = A/B,
    # s = s_{n+1} and t = t_{n+1}: x = 4*t_num*s_den and y = t_den*s_num
    s, t, _, _ = next_level
    return 4 * t.numerator * s.denominator, t.denominator * s.numerator


def _gap_terms(n: int, s_n: int | Fraction) -> tuple[int, int]:
    # epsilon_n = x*B/(y*A) for s_1...s_n = A/B: x = b and y = a*2**(n+3)
    # for s_n = a/b
    return s_n.denominator, s_n.numerator << (n + 3)


def _lowest(x: int, y: int, a: object, b: object | None,
            mod: Callable[[object, int], int]) -> tuple[int, int, int, int]:
    """x*B/(y*A) in lowest terms, for short x, y > 0 and a long A/B > 0 in
    lowest terms, as (x', g, y', h): the numerator is x'*(B/h) and the
    denominator y'*(A/g).

    A and B are held as a and b in any exact form, and read only as
    mod(a, v) and mod(b, v), ints congruent to A and B mod a short v; b is
    None where B = 1, and neither is read where v = 1.  Dividing out
    gcd(x, y), then g = gcd(x, A) and h = gcd(y, B), leaves the fraction
    in lowest terms: x' is prime to y' and to A/g, B/h to y', and A to B.
    The step s_1...s_n = (A/B)*(a/b), as 1/(s_1...s_n) = b*B/(a*A), is the
    case x = b, y = a.
    """
    c = gcd(x, y)
    x, y = x // c, y // c
    g = gcd(x, mod(a, x)) if x > 1 else 1
    h = gcd(y, mod(b, y)) if y > 1 and b is not None else 1
    return x // g, g, y // h, h


class _Level:
    """Level n, a record of a walk that has drawn levels 1..n+1, level k's
    terms at index k - 1.  count, quantities, gap (the minimum gap), longest
    (the longest length) and ends (the basic intervals as a lazy stream)
    are each formed once, when first read."""

    def __init__(self, levels: list[_Terms], last: dict, n: int):
        self.levels, self.last, self.n = levels, last, n
        if n:
            self.s_n, _, lo, hi = levels[n - 1]
            self.next_level = levels[n]
            self.m_n = hi - lo + 1
        else:  # level 0, [0, 1], is given; its count is the empty product
            self.gap, self.longest, self.ends = None, Fraction(1), iter([(0, 1, 1, 1)])

    def _product(self, form: Callable[[list[_Terms]], int | Fraction], n: int) -> int | Fraction:
        # form's product over levels 1..n: last[form], the last one formed
        # by a record of the walk, at level k <= n, times form's product over
        # levels k+1..n; a read below it starts again from level 1
        k, value = self.last.get(form, (0, 1))
        if k > n:
            k, value = 0, 1
        value *= form(self.levels[k:n])
        self.last[form] = n, value
        return value

    @property
    def windows(self) -> list[tuple[int, int]]:
        # the windows of levels 1..n+1, for n >= 1
        return [level[2:] for level in self.levels[:self.n + 1]]

    @functools.cached_property
    def count(self) -> int:
        return self._product(_count, self.n)

    @functools.cached_property
    def quantities(self) -> LevelQuantities:
        return LevelQuantities(self.n, self.count, self.m_n, self._product(_s_product, self.n),
                               self.s_n, self.next_level)

    @functools.cached_property
    def gap(self) -> Fraction | None:
        # window n = [lo, hi], window n+1 = [j_min, J], K = j_min - 1 and
        # P = hi_1...hi_{n-1}: the min gap is the level's first gap,
        # (J*(K+1) - hi*(J-K)) / (J*K*hi*(hi-1)*P), as README proves
        (*_, hi), (*_, j_min, j_max) = self.levels[self.n - 1:self.n + 1]
        k = j_min - 1
        return Fraction(j_max * (k + 1) - hi * (j_max - k),
                        j_max * k * hi * (hi - 1) * self._product(_end_product, self.n - 1))

    @functools.cached_property
    def longest(self) -> Fraction:
        return _longest_length(self._product(_start_product, self.n), *self.next_level[2:])

    @functools.cached_property
    def ends(self) -> Iterator[tuple[int, int, int, int]]:
        # sorted by left endpoint and in lowest terms.  The window order is
        # checked once for the level: a window n+1 that ends before j_min - 1
        # fails the endpoint formula's check, which names the first interval.
        # The split holds about sqrt(count) heads and tails
        *head, (j_min, j_max) = self.windows
        if j_max < j_min - 1:
            _prefix_endpoints([_prefix_state(hi for _, hi in head)], j_min, j_max)
        split = 0
        while _count(head[:split]) ** 2 < self.count:
            split += 1
        return _lowest_ends(head, j_min, j_max, split)


def _lowest_ends(windows: list[tuple[int, int]], j_min: int, j_max: int,
                 split: int) -> Iterator[tuple[int, int, int, int]]:
    # the basic intervals of the words drawn from the windows, window n+1
    # = [j_min, J], as (lo_num, lo_den, hi_num, hi_den) in lowest terms,
    # its heads and tails built first.  A word is a head, its digits of
    # windows 1..split, and a tail, the rest.  A head is its prefix state
    # (a, p), not reduced: a/p its value, p its digit product, and digit d
    # appended gives (a*d + 1, p*d).  A tail is (u, v, x, y), the values
    # of its digits followed by J and by K = j_min - 1, in lowest terms:
    # from 1/J and 1/K, each digit d put in front is the head (1, d) joined
    # to it.  A larger digit lies further left, so digits in descending
    # order, heads outer, give the ends sorted by left endpoint
    states = [(0, 1)]
    for lo, hi in windows[:split]:
        digits = range(hi, lo - 1, -1)
        states = [(a * d + 1, p * d) for a, p in states for d in digits]
    tails = [(1, j_max, 1, j_min - 1)]
    for lo, hi in reversed(windows[split:]):
        tails = list(_ends([(1, d) for d in range(hi, lo - 1, -1)], tails))
    return _ends(states, tails)


def _ends(states: list[tuple[int, int]], tails: list[tuple[int, int, int, int]]
          ) -> Iterator[tuple[int, int, int, int]]:
    # each head (a, p) joined to each tail (u, v, x, y), heads outer: the
    # word's ends (a*v + u)/(p*v) and (a*y + x)/(p*y), each reduced by a gcd
    # with p alone, as gcd(a*v + u, v) = gcd(u, v) = 1 (README proves it)
    for a, p in states:
        for u, v, x, y in tails:
            u, x = a * v + u, a * y + x
            g, h = gcd(u, p), gcd(x, p)
            yield u // g, p // g * v, x // h, p // h * y


def _longest_length(corner: int, j_min: int, j_max: int) -> Fraction:
    # the longest level-n length, the all-minimal word's: with P = corner
    # the product of the window starts of levels 1..n and [j_min, j_max]
    # window n+1, 1/(P*(j_min - 1)) - 1/(P*j_max)
    return Fraction(j_max - j_min + 1, corner * (j_min - 1) * j_max)


def _count(windows: Iterable[tuple]) -> int:
    # the one product of branch counts: the number of words the windows
    # give, each a window (lo, hi) or a level's (s, t, lo, hi)
    return _balanced_prod(hi - lo + 1 for *_, lo, hi in windows)


def _s_product(levels: list[_Terms]) -> int | Fraction:
    # s_1...s_n; the two below form the products of window starts and ends
    return _balanced_prod(s for s, _, _, _ in levels)


def _start_product(levels: list[_Terms]) -> int:
    return _balanced_prod(lo for _, _, lo, _ in levels)


def _end_product(levels: list[_Terms]) -> int:
    return _balanced_prod(hi for _, _, _, hi in levels)


def _balanced_prod(factors: Iterable[int | Fraction]) -> int | Fraction:
    """Product of the factors, 1 for none, multiplied pairwise round by
    round: each big multiply then takes operands of like size, where a
    left-to-right product multiplies an ever longer int by a short one."""
    values = list(factors)
    while len(values) > 1:
        paired = [a * b for a, b in zip(values[::2], values[1::2])]
        if len(values) % 2:
            paired.append(values[-1])
        values = paired
    return values[0] if values else 1


def _geometric_terms(s_coef: Fraction, s_ratio: Fraction, t_coef: Fraction,
                     t_ratio: Fraction) -> Iterator[tuple[int | Fraction, int | Fraction]]:
    # (s_n, t_n) = (s_coef * s_ratio**n, t_coef * t_ratio**n) for n = 1, 2,
    # ..., both stepped at once: each an int when its coefficient and ratio
    # are integral, else a Fraction, whose product with the ratio reduces
    # by small gcds only
    s, s_ratio, t, t_ratio = (v.numerator if v.denominator == 1 else v
                              for v in (s_coef, s_ratio, t_coef, t_ratio))
    while True:
        s *= s_ratio
        t *= t_ratio
        yield s, t


def _validated_pairs(pairs: Iterable) -> tuple[tuple[Fraction, Fraction], ...]:
    table = []
    for idx, pair in enumerate(pairs, start=1):
        try:
            s_val, t_val = pair
            entry = (Fraction(s_val), Fraction(t_val))
        except _NOT_RATIONAL as exc:
            raise DomainError(f"pair {idx} is not a rational pair: {pair!r}") from exc
        if entry[0] <= 0 or entry[1] <= 0:
            raise DomainError(f"pair {idx} must be positive, got ({entry[0]}, {entry[1]})")
        table.append(entry)
    if not table:
        raise DomainError("a table family needs at least one (s, t) pair")
    return tuple(table)
