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
from its reduced integer pair.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import floor, gcd
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple

from .engel import (
    DigitWord,
    RatInterval,
    _prefix_endpoints,
    _prefix_interval,
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


class _Prefix:
    """The first n items of a list that is only ever appended to.

    Each level of a sweep reads its window starts through one of these
    from the one list the sweep appends to, so no level copies the starts
    of the levels before it.  Compares, hashes and prints as the tuple of
    its n items.
    """

    __slots__ = ("_items", "_n")

    def __init__(self, items: list[int], n: int):
        self._items, self._n = items, n

    def __iter__(self) -> Iterator[int]:
        return itertools.islice(self._items, self._n)

    def __eq__(self, other):
        if isinstance(other, _Prefix):
            other = tuple(other)
        return tuple(self) == other if isinstance(other, tuple) else NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


class LevelQuantities(NamedTuple):
    """Exact bookkeeping for one level: the count N_n, the branch count m_n
    of level n, and what both bounds and the longest length are built from
    when read, so a reader of one level pays for that level's values only.

    starts is a view of the list of window starts that the whole sweep
    appends to, limited to levels 1..n; window_starts copies them out.
    """

    n: int
    count: int
    m_n: int  # the branch count of level n
    prod_s: int | Fraction  # s_1...s_n
    starts: Iterable[int]  # the window starts j_min of levels 1..n
    s_n: int | Fraction
    next_level: tuple[int | Fraction, int | Fraction, int, int]  # level n+1 (s, t, lo, hi)

    @property
    def window_starts(self) -> tuple[int, ...]:
        """The window starts j_min of levels 1..n."""
        return tuple(self.starts)

    @property
    def diameter_bound(self) -> Fraction:
        """delta_n = 4*t_{n+1}/(s_1...s_n * s_{n+1}**2)."""
        return Fraction(*self._diameter_pair())

    @property
    def gap_bound(self) -> Fraction:
        """epsilon_n = 1/(2**(n+3) * s_1...s_n * s_n)."""
        return Fraction(*self._gap_pair())

    def _diameter_pair(self) -> tuple[int, int]:
        # delta_n as its reduced (num, den), den > 0.  With integral terms,
        # u = 4*t_{n+1} is small and P = s_1...s_n long, and
        # gcd(u, P*s**2) = g1*g2 with g1 = gcd(u, s**2), g2 = gcd(u/g1, P):
        # no gcd of two long ints, and no long division when g2 = 1
        s, t, _, _ = self.next_level
        prod_s = self.prod_s
        if s.denominator == t.denominator == prod_s.denominator == 1:
            s, u, prod_s = s.numerator, 4 * t.numerator, prod_s.numerator
            s2 = s * s
            g1 = gcd(u, s2)
            u, s2 = u // g1, s2 // g1
            g2 = gcd(u, prod_s)
            if g2 != 1:
                u, prod_s = u // g2, prod_s // g2
            return u, prod_s * s2
        bound = Fraction(4 * t, prod_s * (s * s))
        return bound.numerator, bound.denominator

    def _gap_pair(self) -> tuple[int, int]:
        # epsilon_n as its reduced (num, den), den > 0: the numerator is 1
        s_n, prod_s = self.s_n, self.prod_s
        if s_n.denominator == prod_s.denominator == 1:
            return 1, prod_s.numerator * (s_n.numerator << (self.n + 3))
        bound = Fraction(1, prod_s * (s_n * 2 ** (self.n + 3)))
        return bound.numerator, bound.denominator

    @property
    def max_length(self) -> Fraction:
        """Longest level-n interval length, the all-minimal word's:
        1/(P*(j_min - 1)) - 1/(P*j_max) over window n+1, with P the
        product of the window starts."""
        _, _, j_min, j_max = self.next_level
        return Fraction(j_max - j_min + 1,
                        _balanced_prod(self.starts) * (j_min - 1) * j_max)


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
            _terms=lambda: zip(_geometric_terms(sc, sr), _geometric_terms(tc, tr)),
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

    def levels(self, depth: int
               ) -> Iterator[tuple[int | Fraction, int | Fraction, int, int]]:
        """Yield (s_k, t_k, j_min, j_max) for k = 1..depth in one pass.

        j_min..j_max is the digit window floor(s_k)+1..floor(s_k+t_k).  The
        conditions are verified as the walk goes: the first failing level
        raises its ConditionError after the levels before it were yielded.
        Nothing is cached: table and closure families evaluate every s_k
        and t_k once, closed-form families step each from the term before.
        A term equals and prints as s(k) or t(k), but is an int where the
        family's coefficient and ratio are integral.
        """
        return self._walk(depth)

    def _walk(self, depth: int, first_failures: dict[int, int] | None = None
              ) -> Iterator[tuple[int | Fraction, int | Fraction, int, int]]:
        # the one statement of both conditions, bounds at n checked before
        # growth at n - 1.  A failure raises, unless a dict is given: then
        # the first failing index of each condition is recorded under its
        # number and the walk goes on
        if self._terms is None:
            terms = ((self.s(n), self.t(n)) for n in itertools.count(1))
        else:
            terms = self._terms()
        # range first: zip stops before it draws a term past depth
        for n, (s_n, t_n) in zip(range(1, depth + 1), terms):
            if not s_n >= t_n >= 2:
                if first_failures is None:
                    raise ConditionError(
                        1, n, f"s_{n} >= t_{n} >= 2 fails: s={s_n}, t={t_n}"
                    )
                first_failures.setdefault(1, n)
            if n > 1 and s_n < top:  # top = s_{n-1} + t_{n-1}
                if first_failures is None:
                    raise ConditionError(
                        2, n - 1, f"s_{n} >= s_{n-1} + t_{n-1} fails: {s_n} < {top}"
                    )
                first_failures.setdefault(2, n - 1)
            top = s_n + t_n
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

    def _windows(self, depth: int) -> list[tuple[int, int]]:
        # the windows of levels 1..depth from one walk.  The walked conditions
        # make the first window start above 2 and each start above the end
        # of the one before, so every word drawn from them is admissible;
        # this O(depth) check lets a reader skip validating each word
        windows = [(lo, hi) for _, _, lo, hi in self.levels(depth)]
        prev_hi = 2
        for k, (lo, hi) in enumerate(windows, start=1):
            if lo < prev_hi:
                raise InternalError(
                    f"window [{lo}, {hi}] of level {k} starts below {prev_hi}"
                )
            prev_hi = hi
        return windows

    def digit_range(self, k: int) -> tuple[int, int]:
        """Inclusive integer digit window (floor(s_k)+1, floor(s_k+t_k))."""
        if k < 1:
            raise DomainError(f"sequence index must be >= 1, got {k}")
        return self._windows(k)[-1]

    def word_count(self, n: int) -> int:
        """Exact number of level-n words: the product of the branch counts."""
        return _balanced_prod(hi - lo + 1 for lo, hi in self._windows(n))

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
        *windows, (j_min, j_max) = self._windows(n + 1)
        words = [
            tuple(rng.randint(lo, hi) for lo, hi in windows) for _ in range(count)
        ]
        intervals = [
            _prefix_interval(*_prefix_state(w), j_min, j_max) for w in words
        ]
        return _balanced_prod(hi - lo + 1 for lo, hi in windows), words, intervals

    # -- basic intervals -------------------------------------------------

    def basic_interval(self, word) -> RatInterval:
        """Closed interval spanned by the child cylinders of a level-n word.

        With S the reconstruction of the word, P its digit product, and
        (j_min, j_max) the level-(n+1) window, this is
        [S + 1/(P*j_max), S + 1/(P*(j_min - 1))].
        """
        w = word if isinstance(word, DigitWord) else DigitWord(word)
        *windows, last = self._windows(len(w) + 1)
        for k, (digit, (lo, hi)) in enumerate(zip(w, windows), start=1):
            if not lo <= digit <= hi:
                raise InvalidWordError(
                    f"digit {digit} at position {k} outside window [{lo}, {hi}]"
                )
        return _prefix_interval(*_prefix_state(w), *last)

    def level_intervals(self, n: int,
                        limit: int | None = DEFAULT_LEVEL_LIMIT) -> list[RatInterval]:
        """All basic intervals of level n, sorted by left endpoint.

        Level 0 is the convention [0, 1].  Raises a size-limit error, with
        the exact count attached, before anything is built when the level
        exceeds the limit.
        """
        return [
            RatInterval(Fraction(lo_num, lo_den), Fraction(hi_num, hi_den), True, True)
            for lo_num, lo_den, hi_num, hi_den in self._level_endpoints(n, limit)
        ]

    def _level_endpoints(self, n: int, limit: int | None
                         ) -> Iterator[tuple[int, int, int, int]]:
        # the level builder: each basic interval of level n as the unreduced
        # ints (lo_num, lo_den, hi_num, hi_den) of _prefix_endpoints, sorted
        # by left endpoint, after the size limit is checked.  Reducing them
        # here would cost level_intervals each gcd twice, as Fraction takes
        # its own.
        #
        # The level grows one digit position at a time over prefix states
        # (a, p): a/p is a word's reconstruction, p its digit product, and
        # appending digit d gives (a*d + 1, p*d).  A larger digit puts a
        # child further left inside its parent's cylinder, and cylinders of
        # distinct parents are disjoint, so taking every window's digits in
        # descending order keeps each level sorted by left endpoint.
        if n < 0:
            raise DomainError(f"level must be >= 0, got {n}")
        if n == 0:
            yield 0, 1, 1, 1
            return
        *windows, (j_min, j_max) = self._windows(n + 1)
        total = _balanced_prod(hi - lo + 1 for lo, hi in windows)
        if limit is not None and total > limit:
            raise SizeLimitError(total, limit, f"level {n}")
        *head, (lo, hi) = windows
        states = [(0, 1)]
        for w_lo, w_hi in head:
            digits = range(w_hi, w_lo - 1, -1)
            states = [(a * d + 1, p * d) for a, p in states for d in digits]
        # the last digit position is expanded as the endpoints are yielded,
        # so no count-sized list of level-n states is held
        last = range(hi, lo - 1, -1)
        for a, p in states:
            for d in last:
                yield _prefix_endpoints(a * d + 1, p * d, j_min, j_max)

    def min_gap(self, n: int,
                limit: int | None = DEFAULT_LEVEL_LIMIT) -> Fraction | None:
        """Smallest distance between consecutive level-n intervals.

        None when the level has fewer than two intervals.
        """
        return _smallest_gap(self._level_endpoints(n, limit))

    # -- a priori bounds ---------------------------------------------------

    def iter_level_quantities(self, depth: int) -> Iterator[LevelQuantities]:
        """Yield the quantities of levels 1..depth in one incremental sweep.

        Every level-n count, bound and longest length is read from this
        walk.  Each sequence value is evaluated once, so this is the way to
        tabulate deep runs; per-level calls would redo the prefix work.
        The conditions are verified in the same pass, so a lazy consumer
        can receive the first levels before a ConditionError from a deeper
        one.
        """
        if depth < 1:
            raise DomainError(f"depth must be >= 1, got {depth}")
        prod_s = count = 1
        starts: list[int] = []  # one list, read by every level's record
        # level n's intervals are built from window n + 1, so walk to it
        walk = itertools.pairwise(self.levels(depth + 1))
        for n, ((s_n, _, lo, hi), next_level) in enumerate(walk, 1):
            prod_s *= s_n
            starts.append(lo)
            m = hi - lo + 1
            count *= m
            yield LevelQuantities(n, count, m, prod_s, _Prefix(starts, n), s_n,
                                  next_level)

    def level_quantities(self, n: int) -> LevelQuantities:
        """The quantities of one level: the last of iter_level_quantities(n)."""
        if n < 1:
            raise DomainError(f"level must be >= 1, got {n}")
        for last in self.iter_level_quantities(n):
            pass
        return last


def _smallest_gap(endpoints: Iterable[tuple[int, int, int, int]]) -> Fraction | None:
    # the gap scan over (lo_num, lo_den, hi_num, hi_den), denominators
    # positive: each gap right.lo - left.hi stays an unreduced pair
    # (num, den) with den > 0, pairs compare by cross-multiplication, and
    # only the smallest is reduced to a Fraction
    best_num, best_den = None, 1
    for (_, _, hi_num, hi_den), (lo_num, lo_den, _, _) in itertools.pairwise(endpoints):
        num = lo_num * hi_den - hi_num * lo_den
        den = lo_den * hi_den
        if best_num is None or num * best_den < best_num * den:
            best_num, best_den = num, den
    return None if best_num is None else Fraction(best_num, best_den)


def _balanced_prod(factors: Iterable[int]) -> int:
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


def _geometric_terms(coef: Fraction, ratio: Fraction) -> Iterator[int | Fraction]:
    # coef * ratio**n for n = 1, 2, ...: ints when both are integral, else
    # Fractions, whose product with the ratio reduces by small gcds only
    if coef.denominator == ratio.denominator == 1:
        coef, ratio = coef.numerator, ratio.numerator
    term = coef
    while True:
        term *= ratio
        yield term


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
