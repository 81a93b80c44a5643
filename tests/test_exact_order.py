"""The integer comparisons of interval endpoints, and the closed-form
minimum gap, against plain Fraction arithmetic: min_gap against the
smallest Fraction gap of an enumerated level, the RatInterval order checks,
the prefix recurrence behind reconstruct and the cylinders, the reduced
integer pairs of the level bounds and the CLI's exact cells, and the
integer Engel orbit."""

import itertools
import math
import random
from fractions import Fraction as F

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from engeldim import DomainError, SequenceFamily, cli  # noqa: E402
from engeldim.engel import (  # noqa: E402
    RatInterval,
    _intervals,
    _prefix_endpoints,
    _prefix_state,
    cylinder_interval,
    cylinder_length,
    engel_digits,
    reconstruct,
)

# fixed examples, no example database: the suite stays deterministic
SEEDED = settings(max_examples=200, deadline=None, derandomize=True, database=None)

fractions = st.fractions(min_value=-20, max_value=20, max_denominator=60)
endpoints = st.one_of(st.integers(min_value=-20, max_value=20), fractions)


def fraction_gaps(intervals):
    """right.lo - left.hi of each consecutive pair, by Fraction subtraction."""
    return [right.lo - left.hi for left, right in zip(intervals, intervals[1:])]


def rational_table(seed):
    """Six (s, t) pairs of small rationals that meet the window conditions,
    with branch counts 2 or 3, enough for levels 0..5."""
    rng = random.Random(seed)
    pairs, s = [], F(rng.randint(12, 40), rng.randint(1, 3))
    for _ in range(6):
        t = 2 + F(rng.randint(0, 5), 6)
        pairs.append((s, t))
        s += t + F(rng.randint(0, 12), rng.randint(1, 4))
    return pairs


@pytest.mark.parametrize("family, depth", [
    (SequenceFamily.geometric(2, 1, t_coef=2), 9),
    (SequenceFamily.geometric(4, 2), 4),
    (SequenceFamily.geometric(F(10, 3), F(7, 3), 3, 2), 3),
    (SequenceFamily.from_pairs([(7, 3), (12, 4), (20, 2), (25, 2), (31, 3),
                                (40, 2), (47, 2)]), 6),
    (SequenceFamily.geometric(2, 1, t_coef=2), 0),
] + [(SequenceFamily.from_pairs(rational_table(seed)), depth)
     for seed in range(4) for depth in range(1, 6)])
def test_smallest_gap_of_a_level_is_the_fraction_minimum(family, depth):
    # min_gap is a closed form; the oracle enumerates the level and
    # subtracts the Fraction endpoints of each consecutive pair
    expected = min(fraction_gaps(family.level_intervals(depth)), default=None)
    got = family.min_gap(depth)
    assert got == expected
    if depth == 0:
        assert got is None
    else:
        # a Fraction equal to the expected one is reduced the same way, so
        # it prints the same
        assert type(got) is F


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
            _prefix_endpoints([(a, p)], j_min, j_max)
        assert str(excinfo.value) == f"interval endpoints out of order: {lo} > {hi}"
    else:
        [(lo_num, lo_den, hi_num, hi_den)] = _prefix_endpoints([(a, p)], j_min, j_max)
        assert (F(lo_num, lo_den), F(hi_num, hi_den)) == (lo, hi)


def check_prefix_interval(a, p, j_min, j_max, hi_closed):
    # _intervals skips RatInterval's order check, so it must build what
    # the checked public constructor builds from the same endpoints
    [(lo_num, lo_den, hi_num, hi_den)] = _prefix_endpoints([(a, p)], j_min, j_max)
    public = RatInterval(F(lo_num, lo_den), F(hi_num, hi_den), True, hi_closed)
    [interval] = _intervals(_prefix_endpoints([(a, p)], j_min, j_max), hi_closed)
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
    [interval] = _intervals(_prefix_endpoints([_prefix_state(word)], j_min, j_max))
    assert fam.basic_interval(word) == interval
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


@st.composite
def mixed_tables(draw):
    """Valid tables of 2 to 8 entries whose terms are integral or have a
    denominator of 2, 3, 4 or 6, mixed, so that s_1...s_n = A/B often
    shares factors with the terms of the next levels."""

    def term(low):
        # a term of at least low, within 12 above it
        den = draw(st.sampled_from([1, 1, 2, 3, 4, 6]))
        least = math.ceil(low * den)
        return F(draw(st.integers(min_value=least, max_value=least + 12 * den)), den)

    t = term(2)
    s = term(t)
    pairs = [(s, t)]
    for _ in range(draw(st.integers(min_value=1, max_value=7))):
        s = term(s + t)
        t = min(s, term(2))
        pairs.append((s, t))
    return SequenceFamily.from_pairs(pairs), len(pairs) - 1


def check_bound_pairs(fam, depth):
    # each pair reduced, den > 0, against the paper's formulas in Fractions,
    # and the CLI's exact cells of the same levels against str() of them
    s, t = fam.s, fam.t
    count, prod_s, cells = 1, F(1), []
    for lq in fam.iter_level_quantities(depth):
        n = lq.n
        count *= math.floor(s(n) + t(n)) - math.floor(s(n))
        prod_s *= s(n)
        delta = 4 * t(n + 1) / (prod_s * s(n + 1) ** 2)
        epsilon = 1 / (2 ** (n + 3) * prod_s * s(n))
        for (num, den), bound in ((lq._diameter_pair(), delta), (lq._gap_pair(), epsilon)):
            assert den > 0
            assert math.gcd(num, den) == 1
            assert (num, den) == (bound.numerator, bound.denominator)
        assert (lq.diameter_bound, lq.gap_bound) == (delta, epsilon)
        cells.append({"n": n, "N_n": str(count), "delta_n": str(delta),
                      "epsilon_n": str(epsilon)})
    rows = cli._exact_rows(fam._levels(range(1, depth + 1)), lambda n, m_n: {})
    assert list(rows) == cells


@SEEDED
@given(integral_tables())
def test_bound_pairs_of_integral_tables_are_the_reduced_fractions(table):
    check_bound_pairs(*table)


@SEEDED
@given(rational_geometric())
def test_bound_pairs_of_rational_geometric_families_are_the_reduced_fractions(family):
    check_bound_pairs(*family)


@SEEDED
@given(mixed_tables())
def test_bound_pairs_of_mixed_tables_are_the_reduced_fractions(table):
    check_bound_pairs(*table)


@pytest.mark.parametrize("fam, branch, delta, epsilon", [
    # x = 4*t_2 = 16 divides y = s_2**2 = 256
    (SequenceFamily.geometric(4, 2), "x | y", (1, 64), (1, 256)),
    # x = 12 is prime to y = 25, and shares 3 with A = s_1 = 3
    (SequenceFamily.from_pairs([(3, 2), (5, 3)]), "gcd(x, A) > 1", (4, 25), (1, 144)),
    # s_1 = A/B = 9/2: x = 12 and y = 64 leave 3 and 16, which share 3
    # with A and 2 with B
    (SequenceFamily.from_pairs([(F(9, 2), F(5, 2)), (8, 3)]),
     "gcd(x, A) > 1 and gcd(y, B) > 1", (1, 24), (1, 324)),
], ids=["g1-is-u", "g2-above-1", "both-gcds-above-1"])
def test_each_branch_of_the_bound_pairs(fam, branch, delta, epsilon):
    lq = fam.level_quantities(1)
    s, t, _, _ = lq.next_level
    x, y = 4 * t.numerator * s.denominator ** 2, t.denominator * s.numerator ** 2
    c = math.gcd(x, y)
    x, y = x // c, y // c
    a, b = lq.prod_s.numerator, lq.prod_s.denominator
    if branch == "x | y":
        assert x == 1
    else:
        assert math.gcd(x, a) > 1
        assert (math.gcd(y, b) > 1) == branch.endswith("gcd(y, B) > 1")
    check_bound_pairs(fam, 1)
    assert (lq._diameter_pair(), lq._gap_pair()) == (delta, epsilon)


def fraction_orbit(x, max_depth):
    """Digits, termination and remainder of the Engel orbit of x, by
    Fraction arithmetic: digit ceil(1/r), then r becomes r*d - 1."""
    digits, r = [], x
    while r != 0 and (max_depth is None or len(digits) < max_depth):
        d = math.ceil(1 / r)
        digits.append(d)
        r = r * d - 1
    return digits, r == 0, r


@SEEDED
@given(st.fractions(min_value=0, max_value=1, max_denominator=10**40)
       .filter(lambda x: 0 < x < 1),
       st.one_of(st.none(), st.integers(min_value=1, max_value=12)))
def test_integer_orbit_is_the_fraction_orbit(x, max_depth):
    result = engel_digits(x, max_depth)
    assert (list(result.digits), result.terminated, result.remainder) == \
        fraction_orbit(x, max_depth)
    assert type(result.remainder) is F
