"""The integer comparisons of interval endpoints against plain Fraction
arithmetic: the gap scan _smallest_gap, the RatInterval order checks, the
prefix recurrence behind reconstruct and the cylinders, and the reduced
integer pairs of the level bounds."""

import itertools
import math
from fractions import Fraction as F

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from engeldim import DomainError, SequenceFamily  # noqa: E402
from engeldim.construction import _smallest_gap  # noqa: E402
from engeldim.engel import (  # noqa: E402
    RatInterval,
    _prefix_endpoints,
    _prefix_interval,
    _prefix_state,
    cylinder_interval,
    cylinder_length,
    reconstruct,
)
from engeldim.ratmath import _fraction_str  # noqa: E402

# fixed examples, no example database: the suite stays deterministic
SEEDED = settings(max_examples=200, deadline=None, derandomize=True, database=None)

fractions = st.fractions(min_value=-20, max_value=20, max_denominator=60)
endpoints = st.one_of(st.integers(min_value=-20, max_value=20), fractions)


def fraction_gaps(intervals):
    """right.lo - left.hi of each consecutive pair, by Fraction subtraction."""
    return [right.lo - left.hi for left, right in zip(intervals, intervals[1:])]


@st.composite
def interval_lists(draw, max_size=12):
    """Intervals with non-negative lengths; degenerate ones are closed."""
    out = []
    for lo, length in draw(st.lists(st.tuples(fractions, fractions.map(abs)),
                                    max_size=max_size)):
        out.append(RatInterval(lo, lo + length, True, length == 0 or draw(st.booleans())))
    return out


@st.composite
def evenly_spaced(draw):
    """Intervals whose gaps all tie, at step - width, negative on overlap."""
    start, step = draw(fractions), draw(fractions.map(abs))
    width = draw(fractions.map(abs))
    count = draw(st.integers(min_value=2, max_value=8))
    return [RatInterval(start + k * step, start + k * step + width, True, True)
            for k in range(count)]


def ends(intervals):
    """The (lo_num, lo_den, hi_num, hi_den) tuples that _smallest_gap scans."""
    return ((iv.lo.numerator, iv.lo.denominator, iv.hi.numerator, iv.hi.denominator)
            for iv in intervals)


def check_smallest_gap(intervals):
    expected = min(fraction_gaps(intervals), default=None)
    got = _smallest_gap(ends(intervals))
    assert got == expected
    if expected is not None:
        # a Fraction equal to the expected one is reduced the same way, so
        # it prints the same
        assert type(got) is F


@SEEDED
@given(interval_lists())
def test_smallest_gap_of_any_list_is_the_fraction_minimum(intervals):
    check_smallest_gap(intervals)


@SEEDED
@given(interval_lists())
def test_smallest_gap_of_a_sorted_list_is_the_fraction_minimum(intervals):
    # sorted by left endpoint, as a level is; long intervals overlap the
    # next one, so some gaps are negative
    check_smallest_gap(sorted(intervals, key=lambda iv: iv.lo))


@SEEDED
@given(evenly_spaced())
def test_smallest_gap_of_tied_gaps(intervals):
    check_smallest_gap(intervals)
    assert len(set(fraction_gaps(intervals))) == 1


def test_smallest_gap_of_fewer_than_two_intervals_is_none():
    assert _smallest_gap([]) is None
    assert _smallest_gap(iter([])) is None
    assert _smallest_gap(list(ends([RatInterval(F(1, 3), F(1, 2))]))) is None


def test_smallest_gap_reads_an_iterator_once():
    intervals = [RatInterval(F(k, 10), F(2 * k + 1, 20)) for k in range(5)]
    assert _smallest_gap(ends(intervals)) == F(1, 20)


@pytest.mark.parametrize("family, depth", [
    (SequenceFamily.geometric(2, 1, t_coef=2), 9),
    (SequenceFamily.geometric(4, 2), 4),
    (SequenceFamily.geometric(F(10, 3), F(7, 3), 3, 2), 3),
    (SequenceFamily.from_pairs([(7, 3), (12, 4), (20, 2), (25, 2), (31, 3),
                                (40, 2), (47, 2)]), 6),
    (SequenceFamily.geometric(2, 1, t_coef=2), 0),
])
def test_smallest_gap_of_a_level_is_the_fraction_minimum(family, depth):
    # endpoints with large, nearly equal cross-products; min_gap scans the
    # level's unreduced endpoint ints, check_smallest_gap the reduced
    # endpoints of its intervals
    intervals = family.level_intervals(depth)
    check_smallest_gap(intervals)
    assert family.min_gap(depth) == _smallest_gap(ends(intervals))
    if depth == 0:
        assert family.min_gap(depth) is None


@SEEDED
@given(st.integers(min_value=-10**30, max_value=10**30),
       st.integers(min_value=1, max_value=10**30),
       st.integers(min_value=1, max_value=10**6))
def test_fraction_str_is_str_of_the_fraction(num, den, factor):
    # unreduced pairs: a common factor, and den == factor makes q == 1
    for p, q in ((num, den), (num * factor, den * factor),
                 (num * factor, factor), (0, den)):
        assert _fraction_str(p, q) == str(F(p, q))


@SEEDED
@given(endpoints, endpoints, st.booleans(), st.booleans())
def test_interval_raises_exactly_on_bad_order(lo, hi, lo_closed, hi_closed):
    check_interval(lo, hi, lo_closed, hi_closed)


@SEEDED
@given(endpoints, st.booleans(), st.booleans(), st.booleans())
def test_interval_raises_exactly_on_an_open_degenerate_interval(
        x, as_int, lo_closed, hi_closed):
    # the same value on both ends, as an int on one of them when it is one
    other = x.numerator if as_int and F(x).denominator == 1 else F(x)
    check_interval(x, other, lo_closed, hi_closed)
    check_interval(other, x, lo_closed, hi_closed)


def check_interval(lo, hi, lo_closed, hi_closed):
    if F(lo) > F(hi):
        message = f"interval endpoints out of order: {F(lo)} > {F(hi)}"
    elif F(lo) == F(hi) and not (lo_closed and hi_closed):
        message = "a degenerate interval must be closed on both ends"
    else:
        interval = RatInterval(lo, hi, lo_closed, hi_closed)
        assert (interval.lo, interval.hi) == (F(lo), F(hi))
        assert type(interval.lo) is F and type(interval.hi) is F
        return
    with pytest.raises(DomainError) as excinfo:
        RatInterval(lo, hi, lo_closed, hi_closed)
    assert str(excinfo.value) == message


@st.composite
def words(draw):
    first = draw(st.integers(min_value=2, max_value=40))
    steps = draw(st.lists(st.integers(min_value=0, max_value=40), max_size=10))
    return [*itertools.accumulate(steps, initial=first)]


@SEEDED
@given(words())
def test_prefix_recurrence_matches_the_series(word):
    products = list(itertools.accumulate(word, lambda p, d: p * d))
    series = sum((F(1, p) for p in products), F(0))
    assert reconstruct(word) == series
    parent = series - F(1, products[-1])
    before_last = products[-2] if len(word) > 1 else 1
    interval = cylinder_interval(word)
    assert interval == RatInterval(series, parent + F(1, before_last * (word[-1] - 1)))
    assert cylinder_length(word) == interval.length == F(1, products[-1] * (word[-1] - 1))


@SEEDED
@given(st.integers(min_value=0, max_value=60), st.integers(min_value=1, max_value=60),
       st.integers(min_value=2, max_value=40), st.integers(min_value=1, max_value=40))
def test_prefix_endpoints_check_their_order_as_an_interval_does(a, p, j_min, j_max):
    # j_max < j_min - 1 is an empty window, whose endpoints come out of order
    lo = F(a * j_max + 1, p * j_max)
    hi = F(a * (j_min - 1) + 1, p * (j_min - 1))
    if lo > hi:
        with pytest.raises(DomainError) as excinfo:
            _prefix_endpoints(a, p, j_min, j_max)
        assert str(excinfo.value) == f"interval endpoints out of order: {lo} > {hi}"
    else:
        lo_num, lo_den, hi_num, hi_den = _prefix_endpoints(a, p, j_min, j_max)
        assert (F(lo_num, lo_den), F(hi_num, hi_den)) == (lo, hi)


def check_prefix_interval(a, p, j_min, j_max, hi_closed):
    # _prefix_interval skips RatInterval's order check, so it must build
    # what the checked public constructor builds from the same endpoints
    lo_num, lo_den, hi_num, hi_den = _prefix_endpoints(a, p, j_min, j_max)
    public = RatInterval(F(lo_num, lo_den), F(hi_num, hi_den), True, hi_closed)
    interval = _prefix_interval(a, p, j_min, j_max, hi_closed)
    assert interval == public
    assert type(interval.lo) is F and type(interval.hi) is F


@SEEDED
@given(st.integers(min_value=0, max_value=60), st.integers(min_value=1, max_value=60),
       st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=40),
       st.booleans())
def test_prefix_interval_is_the_checked_interval(a, p, j_min, width, hi_closed):
    # width 0 is an empty window, a point, which only a closed interval holds
    check_prefix_interval(a, p, j_min, j_min - 1 + width, hi_closed or width == 0)


def test_prefix_interval_of_a_deep_word_is_the_checked_interval():
    fam = SequenceFamily.geometric(2, 2)
    *windows, (j_min, j_max) = fam._windows(301)
    word = [hi for _, hi in windows]  # 300 digits
    check_prefix_interval(*_prefix_state(word), j_min, j_max, True)
    check_prefix_interval(*_prefix_state(word[:-1]), word[-1], word[-1], False)
    assert fam.basic_interval(word) == _prefix_interval(*_prefix_state(word), j_min, j_max)
    # the public constructor keeps its check
    with pytest.raises(DomainError):
        RatInterval(F(1, 2), F(1, 3))


# -- the reduced pairs of the level bounds --------------------------------------


@st.composite
def integral_tables(draw):
    """Valid integral (s, t) tables of 2 to 7 entries, with small terms so
    that delta_n often reduces by a factor of s_1...s_n."""
    t = draw(st.integers(min_value=2, max_value=12))
    s = draw(st.integers(min_value=t, max_value=t + 12))
    pairs = [(s, t)]
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        s = s + t + draw(st.integers(min_value=0, max_value=12))
        t = draw(st.integers(min_value=2, max_value=s))
        pairs.append((s, t))
    return SequenceFamily.from_pairs(pairs), len(pairs) - 1


@st.composite
def rational_geometric(draw):
    """Valid geometric families with rational ratios and coefficients:
    t_ratio >= 1 and t_coef >= 2 keep t_n >= 2, s_coef >= t_coef and
    s_ratio >= max(2, t_ratio) give s_n >= t_n and growth."""
    ratios = st.fractions(min_value=1, max_value=5, max_denominator=6)
    t_ratio = draw(ratios)
    s_ratio = max(F(2), t_ratio) + draw(ratios) - 1
    t_coef = draw(st.fractions(min_value=2, max_value=6, max_denominator=6))
    s_coef = t_coef + draw(st.fractions(min_value=0, max_value=6, max_denominator=6))
    return SequenceFamily.geometric(s_ratio, t_ratio, s_coef, t_coef), 6


def check_bound_pairs(fam, depth):
    # each pair reduced, den > 0, against the paper's formulas in Fractions
    s, t = fam.s, fam.t
    prod_s = F(1)
    for lq in fam.iter_level_quantities(depth):
        n = lq.n
        prod_s *= s(n)
        delta = 4 * t(n + 1) / (prod_s * s(n + 1) ** 2)
        epsilon = 1 / (2 ** (n + 3) * prod_s * s(n))
        for (num, den), bound in ((lq._diameter_pair(), delta), (lq._gap_pair(), epsilon)):
            assert den > 0
            assert math.gcd(num, den) == 1
            assert (num, den) == (bound.numerator, bound.denominator)
        assert (lq.diameter_bound, lq.gap_bound) == (delta, epsilon)


@SEEDED
@given(integral_tables())
def test_bound_pairs_of_integral_tables_are_the_reduced_fractions(table):
    check_bound_pairs(*table)


@SEEDED
@given(rational_geometric())
def test_bound_pairs_of_rational_geometric_families_are_the_reduced_fractions(family):
    check_bound_pairs(*family)


@pytest.mark.parametrize("fam, branch, delta, epsilon", [
    # u = 4*t_2 = 16 divides s_2**2 = 256
    (SequenceFamily.geometric(4, 2), "g1 = u", (1, 64), (1, 256)),
    # u = 12 is prime to s_2**2 = 25, and shares 3 with s_1 = 3
    (SequenceFamily.from_pairs([(3, 2), (5, 3)]), "g2 > 1", (4, 25), (1, 144)),
    # s_1 = 9/2 takes the Fraction quotient
    (SequenceFamily.from_pairs([(F(9, 2), F(5, 2)), (8, 3)]), "fraction",
     (1, 24), (1, 324)),
], ids=["g1-is-u", "g2-above-1", "fraction-fallback"])
def test_each_branch_of_the_bound_pairs(fam, branch, delta, epsilon):
    lq = fam.level_quantities(1)
    s, t, _, _ = lq.next_level
    if branch == "fraction":
        assert lq.prod_s.denominator != 1
    else:
        u, s2, prod_s = int(4 * t), int(s * s), int(lq.prod_s)
        g1 = math.gcd(u, s2)
        assert (g1 == u) if branch == "g1 = u" else math.gcd(u // g1, prod_s) > 1
    check_bound_pairs(fam, 1)
    assert (lq._diameter_pair(), lq._gap_pair()) == (delta, epsilon)
